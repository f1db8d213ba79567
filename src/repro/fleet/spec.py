"""Fleet population specs: per-device distributions with seeded sampling.

A :class:`FleetSpec` declares the *population* a fleet simulation draws its
devices from — which lifetime scenarios the fleet runs (a weighted mix of
phase-spec strings), which DVFS corners devices ship at (a weighted set of
``(voltage, frequency)`` operating points applied through
:meth:`~repro.scenario.phases.LifetimeScenario.with_default_operating_point`),
how usage intensity and the thermal environment vary device-to-device, and
how many distinct policy-seed groups the population spans.  Sampling is
fully deterministic from ``seed`` (a PCG64 stream from a
``np.random.SeedSequence``), so the same spec produces the same device draws
in every process — the property the cross-process determinism tests pin.

The CLI addresses the two categorical distributions through compact spec
strings:

* **scenario mix** — ``[WEIGHT*]SPEC`` entries joined by ``|`` (phase specs
  contain commas, so the mix needs its own separator)::

      0.7*lenet5:int8:dnn_life:10,idle:5@45C|0.3*custom_mnist:int8:none:10

* **corner mix** — ``[WEIGHT*]V:F`` entries joined by commas, reusing the
  phase mini-language's operating-point grammar::

      0.6*0.9V:1GHz,0.4*0.8V:0.6GHz

Weights are optional: a mix with no weights is uniform, a mix with all
weights must sum to 1 (to a small tolerance; they are renormalised exactly
afterwards).  Mixing weighted and unweighted entries is rejected — like all
schema errors here, as a single-line ``ValueError`` the CLI turns into an
exit-2 usage error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.aging.stress import (
    DEFAULT_REFERENCE_FREQUENCY_GHZ,
    DEFAULT_REFERENCE_TEMPERATURE_C,
    DEFAULT_REFERENCE_VOLTAGE_V,
)
from repro.scenario.operating_point import parse_point_suffix
from repro.scenario.phases import LifetimeScenario
from repro.utils.validation import (
    check_positive,
    check_positive_finite,
    check_positive_int,
    check_temperature_celsius,
)

__all__ = [
    "FleetSpec",
    "FleetSample",
    "parse_mix_spec",
    "parse_corner_spec",
    "parse_weighted_entries",
    "format_mix_spec",
    "format_corner_spec",
]

#: Tolerance on user-supplied mix weights summing to 1 (weights are
#: renormalised exactly after passing this check).
WEIGHT_SUM_TOLERANCE = 1e-6

#: Largest thermal offset a device can sample (degrees C, either side); the
#: normal draw is clipped here so a wide ``thermal_sigma_c`` cannot push a
#: device to a physically silly corner.
MAX_THERMAL_OFFSET_C = 40.0


def parse_weighted_entries(text: str, separator: str,
                           what: str) -> Tuple[Tuple[str, ...], Tuple[float, ...]]:
    """Split ``[WEIGHT*]ENTRY`` items and resolve their weights.

    Entries either all carry a ``WEIGHT*`` prefix (weights must sum to 1) or
    none do (uniform); a mixture is rejected.  Returns the bare entries and
    the exactly-normalised weights.  Shared grammar of the fleet mixes here
    and the workload-generator model mixes
    (:func:`repro.workloads.parse_model_mix`).
    """
    items = [item.strip() for item in text.split(separator) if item.strip()]
    if not items:
        raise ValueError(f"{what} is empty")
    entries: List[str] = []
    weights: List[float] = []
    weighted = 0
    for item in items:
        head, star, rest = item.partition("*")
        weight = None
        if star and ":" not in head:  # a bare V:F corner never splits here
            try:
                weight = float(head)
            except ValueError:
                raise ValueError(f"{what}: invalid weight '{head}' in "
                                 f"'{item}' (expected e.g. '0.5*{rest}')") from None
            item = rest.strip()
            if not item:
                raise ValueError(f"{what}: weight '{head}*' has no entry")
            if not weight > 0:  # also rejects NaN
                raise ValueError(f"{what}: weight must be > 0, got {weight}")
            weighted += 1
        entries.append(item)
        weights.append(1.0 if weight is None else weight)
    if 0 < weighted < len(items):
        raise ValueError(f"{what}: either every entry carries a 'WEIGHT*' "
                         f"prefix or none does ({weighted} of {len(items)} do)")
    total = sum(weights)
    if weighted and abs(total - 1.0) > WEIGHT_SUM_TOLERANCE:
        raise ValueError(f"{what}: weights must sum to 1, got {total:g}")
    return tuple(entries), tuple(weight / total for weight in weights)


def parse_mix_spec(text: str) -> Tuple[Tuple[str, ...], Tuple[float, ...]]:
    """Parse a ``[WEIGHT*]SPEC|...`` scenario mix into (specs, weights).

    Each ``SPEC`` is validated through the phase mini-language
    (:meth:`LifetimeScenario.from_spec`), so an unknown network or an
    idle-first timeline inside the mix is caught here as a one-line error.
    """
    if not isinstance(text, str) or not text.strip():
        raise ValueError("scenario mix is empty; expected '[WEIGHT*]SPEC' "
                         "entries joined by '|'")
    specs, weights = parse_weighted_entries(text, "|", "scenario mix")
    for spec in specs:
        LifetimeScenario.from_spec(spec)
    return specs, weights


def parse_corner_spec(text: str) -> Tuple[Tuple[Tuple[float, float], ...],
                                          Tuple[float, ...]]:
    """Parse a ``[WEIGHT*]V:F,...`` corner mix into (corners, weights)."""
    if not isinstance(text, str) or not text.strip():
        raise ValueError("corner mix is empty; expected '[WEIGHT*]V:F' "
                         "entries joined by ','")
    entries, weights = parse_weighted_entries(text, ",", "corner mix")
    corners = tuple(parse_point_suffix(entry, entry) for entry in entries)
    return corners, weights


def format_mix_spec(scenarios: Sequence[str], weights: Sequence[float]) -> str:
    """The canonical mix string (inverse of :func:`parse_mix_spec`).

    Weights are written with ``repr`` — the shortest exact float spelling —
    so machine-generated mixes (e.g. 1/6 from six sampled histories)
    re-parse to the same values instead of drifting past the sum tolerance
    under 6-significant-digit truncation.
    """
    return "|".join(f"{weight!r}*{spec}"
                    for spec, weight in zip(scenarios, weights))


def format_corner_spec(corners: Sequence[Tuple[float, float]],
                       weights: Sequence[float]) -> str:
    """The canonical corner string (inverse of :func:`parse_corner_spec`)."""
    return ",".join(f"{weight!r}*{voltage:g}V:{frequency:g}GHz"
                    for (voltage, frequency), weight in zip(corners, weights))


def _validated_weights(weights: Sequence[float], count: int,
                       what: str) -> Tuple[float, ...]:
    """Check a weight vector (positive, summing to 1) without rescaling it.

    The values are kept exactly as given — rescaling here would make
    ``from_payload(to_payload(spec))`` drift from ``spec`` — and
    :meth:`FleetSpec.sample` normalises exactly at draw time instead.
    """
    weights = tuple(float(weight) for weight in weights)
    if len(weights) != count:
        raise ValueError(f"{what}: {len(weights)} weights for {count} entries")
    for weight in weights:
        if not weight > 0:
            raise ValueError(f"{what}: weights must be > 0, got {weight}")
    total = sum(weights)
    if abs(total - 1.0) > WEIGHT_SUM_TOLERANCE:
        raise ValueError(f"{what}: weights must sum to 1, got {total:g}")
    return weights


@dataclass(frozen=True)
class FleetSample:
    """One seeded draw of a fleet's per-device attributes.

    All arrays are device-indexed (length ``num_devices``):
    ``scenario_index``/``corner_index`` select from the spec's mixes,
    ``seed_group`` the device's policy-seed cohort, ``usage`` its
    usage-intensity multiplier (mean 1), ``temperature_offset_c`` its
    thermal-environment shift applied to every phase temperature.
    """

    scenario_index: np.ndarray
    corner_index: np.ndarray
    seed_group: np.ndarray
    usage: np.ndarray
    temperature_offset_c: np.ndarray

    @property
    def num_devices(self) -> int:
        """Number of sampled devices."""
        return int(self.scenario_index.size)

    def to_payload(self) -> Dict[str, object]:
        """JSON-safe representation (exact float64 / int64 round-trip)."""
        return {
            "scenario_index": self.scenario_index.tolist(),
            "corner_index": self.corner_index.tolist(),
            "seed_group": self.seed_group.tolist(),
            "usage": self.usage.tolist(),
            "temperature_offset_c": self.temperature_offset_c.tolist(),
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "FleetSample":
        """Rebuild a sample from :meth:`to_payload` output."""
        return cls(
            scenario_index=np.asarray(payload["scenario_index"], dtype=np.int64),
            corner_index=np.asarray(payload["corner_index"], dtype=np.int64),
            seed_group=np.asarray(payload["seed_group"], dtype=np.int64),
            usage=np.asarray(payload["usage"], dtype=np.float64),
            temperature_offset_c=np.asarray(payload["temperature_offset_c"],
                                            dtype=np.float64),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FleetSample):
            return NotImplemented
        return all(np.array_equal(getattr(self, name), getattr(other, name))
                   for name in ("scenario_index", "corner_index", "seed_group",
                                "usage", "temperature_offset_c"))


@dataclass(frozen=True)
class FleetSpec:
    """The population a fleet simulation draws its devices from.

    ``scenarios`` are phase-spec strings sampled with ``scenario_weights``;
    every scenario shares ``years`` (wall-clock span per timeline pass) and
    ``reference_temperature_c`` (the Arrhenius anchor).  ``corners`` are
    ``(voltage_v, frequency_ghz)`` default operating points sampled with
    ``corner_weights`` and applied through
    :meth:`LifetimeScenario.with_default_operating_point` — phases pinning
    their own ``@V:F`` keep it.  ``usage_sigma`` is the lognormal sigma of
    the mean-1 usage-intensity multiplier (0 = every device at nominal
    usage, exactly), ``thermal_sigma_c`` the normal sigma of the per-device
    temperature offset (0 = exactly no offset), and ``seed_groups`` the
    number of distinct policy-seed cohorts (group ``g`` runs at seed
    ``seed + g``, so group 0 is byte-identical to a plain scenario run at
    ``seed``).
    """

    num_devices: int
    scenarios: Tuple[str, ...]
    scenario_weights: Tuple[float, ...] = ()
    years: float = 7.0
    reference_temperature_c: float = DEFAULT_REFERENCE_TEMPERATURE_C
    corners: Tuple[Tuple[float, float], ...] = (
        (DEFAULT_REFERENCE_VOLTAGE_V, DEFAULT_REFERENCE_FREQUENCY_GHZ),)
    corner_weights: Tuple[float, ...] = ()
    usage_sigma: float = 0.0
    thermal_sigma_c: float = 0.0
    seed_groups: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        check_positive_int(self.num_devices, "num_devices")
        check_positive_int(self.seed_groups, "seed_groups")
        check_positive(self.years, "years")
        check_temperature_celsius(self.reference_temperature_c,
                                  "reference_temperature_c")
        for name in ("usage_sigma", "thermal_sigma_c"):
            sigma = getattr(self, name)
            if not (sigma >= 0 and math.isfinite(sigma)):
                raise ValueError(f"{name} must be finite and >= 0, got {sigma}")
        object.__setattr__(self, "scenarios",
                           tuple(str(spec) for spec in self.scenarios))
        if not self.scenarios:
            raise ValueError("a fleet requires at least one scenario")
        uniform = (1.0 / len(self.scenarios),) * len(self.scenarios)
        object.__setattr__(
            self, "scenario_weights",
            _validated_weights(self.scenario_weights or uniform,
                                len(self.scenarios), "scenario mix"))
        object.__setattr__(self, "corners",
                           tuple((float(voltage), float(frequency))
                                 for voltage, frequency in self.corners))
        if not self.corners:
            raise ValueError("a fleet requires at least one operating corner")
        for voltage, frequency in self.corners:
            check_positive_finite(voltage, "corner voltage")
            check_positive_finite(frequency, "corner frequency")
        uniform = (1.0 / len(self.corners),) * len(self.corners)
        object.__setattr__(
            self, "corner_weights",
            _validated_weights(self.corner_weights or uniform,
                                len(self.corners), "corner mix"))
        # Parse every scenario now: a bad phase token is a construction-time
        # one-line error, not a failure deep inside a cohort run.
        self.build_scenarios()

    # ------------------------------------------------------------------ #
    # Derived views
    # ------------------------------------------------------------------ #
    def build_scenarios(self) -> List[LifetimeScenario]:
        """Materialise the scenario mix (shared years / reference corner)."""
        return [LifetimeScenario.from_spec(
                    spec, years=self.years,
                    reference_temperature_c=self.reference_temperature_c)
                for spec in self.scenarios]

    def group_seed(self, group: int) -> int:
        """Policy/stream seed of one seed group (group 0 = the base seed)."""
        return int(self.seed) + int(group)

    # ------------------------------------------------------------------ #
    # Sampling
    # ------------------------------------------------------------------ #
    def sample(self) -> FleetSample:
        """Draw the population's per-device attributes (deterministic in seed).

        The generator is a fresh PCG64 stream from
        ``np.random.SeedSequence(seed)``, and the draw order is fixed, so
        identical specs produce identical samples in any process.  Degenerate
        distributions are exact: ``usage_sigma=0`` yields exactly 1.0 for
        every device and ``thermal_sigma_c=0`` exactly 0.0 — no generator
        state is consumed for them, so adding a distribution later cannot
        silently shift the draws of the others.
        """
        rng = np.random.default_rng(np.random.SeedSequence(self.seed))
        devices = self.num_devices
        scenario_p = np.asarray(self.scenario_weights, dtype=np.float64)
        corner_p = np.asarray(self.corner_weights, dtype=np.float64)
        scenario_index = rng.choice(len(self.scenarios), size=devices,
                                    p=scenario_p / scenario_p.sum())
        corner_index = rng.choice(len(self.corners), size=devices,
                                  p=corner_p / corner_p.sum())
        seed_group = rng.integers(0, self.seed_groups, size=devices)
        if self.usage_sigma > 0:
            # Lognormal with exact mean 1: exp(sigma*z - sigma^2/2).
            usage = np.exp(self.usage_sigma * rng.standard_normal(devices)
                           - 0.5 * self.usage_sigma ** 2)
        else:
            usage = np.ones(devices, dtype=np.float64)
        if self.thermal_sigma_c > 0:
            offset = np.clip(rng.normal(0.0, self.thermal_sigma_c, devices),
                             -MAX_THERMAL_OFFSET_C, MAX_THERMAL_OFFSET_C)
        else:
            offset = np.zeros(devices, dtype=np.float64)
        return FleetSample(scenario_index=scenario_index.astype(np.int64),
                           corner_index=corner_index.astype(np.int64),
                           seed_group=seed_group.astype(np.int64),
                           usage=usage,
                           temperature_offset_c=offset)

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_payload(self) -> Dict[str, object]:
        """JSON-safe representation; :meth:`from_payload` round-trips to
        an ``==``-equal spec."""
        return {
            "num_devices": self.num_devices,
            "scenarios": list(self.scenarios),
            "scenario_weights": list(self.scenario_weights),
            "years": self.years,
            "reference_temperature_c": self.reference_temperature_c,
            "corners": [list(corner) for corner in self.corners],
            "corner_weights": list(self.corner_weights),
            "usage_sigma": self.usage_sigma,
            "thermal_sigma_c": self.thermal_sigma_c,
            "seed_groups": self.seed_groups,
            "seed": self.seed,
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "FleetSpec":
        """Rebuild a spec from :meth:`to_payload` output."""
        return cls(
            num_devices=int(payload["num_devices"]),
            scenarios=tuple(str(spec) for spec in payload["scenarios"]),
            scenario_weights=tuple(float(weight)
                                   for weight in payload["scenario_weights"]),
            years=float(payload["years"]),
            reference_temperature_c=float(payload["reference_temperature_c"]),
            corners=tuple((float(corner[0]), float(corner[1]))
                          for corner in payload["corners"]),
            corner_weights=tuple(float(weight)
                                 for weight in payload["corner_weights"]),
            usage_sigma=float(payload["usage_sigma"]),
            thermal_sigma_c=float(payload["thermal_sigma_c"]),
            seed_groups=int(payload["seed_groups"]),
            seed=int(payload["seed"]),
        )

    def describe(self) -> Dict[str, object]:
        """Human-oriented summary (serialised into experiment payloads)."""
        return {
            **self.to_payload(),
            "mix_spec": format_mix_spec(self.scenarios, self.scenario_weights),
            "corner_spec": format_corner_spec(self.corners, self.corner_weights),
        }
