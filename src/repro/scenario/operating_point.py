"""DVFS operating points for lifetime phases, plus idle retention modeling.

The PR-4 scenario engine assumed every inference epoch represents the same
wall-clock time at one fixed voltage corner.  Real deployments duty-cycle
through DVFS states: a phase throttled to half the reference clock takes
twice the wall-clock time per epoch, and a phase at a lowered supply ages
(and retains) very differently.  This module provides the per-phase
:class:`OperatingPoint` — ``(voltage, frequency, temperature)`` — and the two
pieces of physics the scenario layer composes it with:

* **aging acceleration** — voltage enters the stress aggregation through
  :meth:`repro.aging.stress.ArrheniusTimeScaling.time_factor` (an
  ``exp(gamma * dV)`` prefactor absorbed into the ``t ** n`` damage power,
  exactly like the thermal Arrhenius term);
* **retention failures** — :class:`RetentionModel` maps the *exact
  last-written value* each cell holds through an idle phase, the supply the
  phase idles at and the cell's accumulated SNM degradation to a
  data-retention failure probability.  Retention margins are a
  low-voltage-idle phenomenon: at the nominal supply the probability is
  negligible by construction.

The spec mini-language grows an optional ``@V:F`` suffix
(``NETWORK:FORMAT:POLICY:DURATION[@TEMP][@V:F]``), parsed here by
:func:`parse_point_suffix`; ``V`` is volts with an optional ``V`` suffix and
``F`` is GHz with an optional ``GHz``/``MHz`` suffix.  Phases that omit the
suffix resolve to :func:`reference_operating_point`, and every factor this
module introduces is exactly ``1.0`` there — pre-DVFS scenarios reproduce
their PR-4 results bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Mapping, Tuple

import numpy as np

from repro.aging.nbti import BOLTZMANN_EV
from repro.aging.stress import (
    DEFAULT_REFERENCE_FREQUENCY_GHZ,
    DEFAULT_REFERENCE_TEMPERATURE_C,
    DEFAULT_REFERENCE_VOLTAGE_V,
    DEVICE_TILE_ELEMENTS,
    DeviceScalar,
)
from repro.utils.validation import (
    check_positive,
    check_positive_finite,
    check_temperature_celsius,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.aging.snm import SnmDegradationModel

__all__ = [
    "OperatingPoint",
    "RetentionModel",
    "format_point_suffix",
    "parse_point_suffix",
    "reference_operating_point",
]


@dataclass(frozen=True)
class OperatingPoint:
    """One DVFS corner: supply voltage, clock frequency and temperature.

    ``frequency_ghz`` scales the epoch→wall-clock mapping (an epoch at half
    the reference clock spans twice the wall-clock time); ``voltage_v``
    scales the NBTI damage rate and the idle retention margin;
    ``temperature_c`` keeps its PR-4 Arrhenius role.  The defaults are the
    reference corner the paper's anchors are stated at.
    """

    voltage_v: float = DEFAULT_REFERENCE_VOLTAGE_V
    frequency_ghz: float = DEFAULT_REFERENCE_FREQUENCY_GHZ
    temperature_c: float = DEFAULT_REFERENCE_TEMPERATURE_C

    def __post_init__(self) -> None:
        check_positive_finite(self.voltage_v, "voltage_v")
        check_positive_finite(self.frequency_ghz, "frequency_ghz")
        check_temperature_celsius(self.temperature_c, "temperature_c")

    @property
    def is_reference(self) -> bool:
        """Whether this is exactly the reference corner (all three values)."""
        return (self.voltage_v == DEFAULT_REFERENCE_VOLTAGE_V
                and self.frequency_ghz == DEFAULT_REFERENCE_FREQUENCY_GHZ
                and self.temperature_c == DEFAULT_REFERENCE_TEMPERATURE_C)

    @property
    def relative_frequency(self) -> float:
        """Clock relative to the reference (exactly ``1.0`` at the reference).

        This is the per-phase epochs/year scale: a phase at relative
        frequency ``f`` completes ``f`` times the reference epochs per
        wall-clock year, i.e. each of its epochs spans ``1/f`` reference
        epoch-times.
        """
        if self.frequency_ghz == DEFAULT_REFERENCE_FREQUENCY_GHZ:
            return 1.0
        return self.frequency_ghz / DEFAULT_REFERENCE_FREQUENCY_GHZ

    def describe(self) -> Dict[str, float]:
        """JSON-safe description (serialised into scenario payloads)."""
        return {
            "voltage_v": self.voltage_v,
            "frequency_ghz": self.frequency_ghz,
            "temperature_c": self.temperature_c,
        }

    @classmethod
    def from_description(cls, payload: Mapping[str, object]) -> "OperatingPoint":
        """Rebuild a point from :meth:`describe` output."""
        return cls(voltage_v=float(payload["voltage_v"]),
                   frequency_ghz=float(payload["frequency_ghz"]),
                   temperature_c=float(payload["temperature_c"]))


def reference_operating_point() -> OperatingPoint:
    """The corner omitted spec suffixes resolve to (nominal V, F and T)."""
    return OperatingPoint()


# --------------------------------------------------------------------------- #
# Spec mini-language: the ``@V:F`` suffix
# --------------------------------------------------------------------------- #
def parse_point_suffix(text: str, token: str) -> Tuple[float, float]:
    """Parse one ``V:F`` spec suffix into ``(voltage_v, frequency_ghz)``.

    ``V`` is volts with an optional ``V`` suffix, ``F`` is GHz with an
    optional ``GHz`` suffix (``MHz`` divides by 1000): ``0.72V:0.5GHz``,
    ``0.72:500MHz`` and ``0.72:0.5`` all parse to ``(0.72, 0.5)``.  Raises
    single-line ``ValueError`` messages naming the offending token.
    """
    voltage_text, colon, frequency_text = text.partition(":")
    if not colon or not voltage_text.strip() or not frequency_text.strip():
        raise ValueError(f"phase '{token}': invalid operating point '{text}' "
                         "(expected 'V:F', e.g. '0.72V:0.5GHz')")
    stripped = voltage_text.strip()
    if stripped.lower().endswith("v"):
        stripped = stripped[:-1]
    try:
        voltage = float(stripped)
    except ValueError:
        raise ValueError(f"phase '{token}': invalid voltage '{voltage_text}' "
                         "(expected volts, e.g. '0.72V')") from None
    stripped = frequency_text.strip()
    scale = 1.0
    if stripped.lower().endswith("ghz"):
        stripped = stripped[:-3]
    elif stripped.lower().endswith("mhz"):
        stripped, scale = stripped[:-3], 1e-3
    try:
        frequency = float(stripped) * scale
    except ValueError:
        raise ValueError(f"phase '{token}': invalid frequency '{frequency_text}' "
                         "(expected GHz, e.g. '0.5GHz' or '500MHz')") from None
    prefix = f"phase '{token}': operating point '{text}'"
    try:
        check_positive_finite(voltage, "voltage")
        check_positive_finite(frequency, "frequency")
    except ValueError as error:
        raise ValueError(f"{prefix}: {error}") from None
    return voltage, frequency


def format_point_suffix(voltage_v: float, frequency_ghz: float) -> str:
    """The canonical ``@V:F`` suffix (inverse of :func:`parse_point_suffix`)."""
    return f"@{voltage_v:g}V:{frequency_ghz:g}GHz"


# --------------------------------------------------------------------------- #
# Idle retention
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class RetentionModel:
    """Data-retention failure probability of cells holding through an idle phase.

    A 6T cell retains its value while the inverter holding it keeps a
    positive static noise margin at the idle supply.  The model composes
    three effects, each stylised but monotone in the physically right
    direction:

    * **voltage headroom** — the margin is proportional to how far the idle
      supply sits above the (fresh-cell) minimum retention voltage
      ``retention_voltage_v``; failure attempts succeed at a rate
      exponential in the margin deficit (``voltage_scale_v`` is the
      exponential slope);
    * **value-dependent aging** — NBTI is asymmetric: holding value ``b``
      leans on the PMOS that was stressed for a lifetime duty of ``b ? d :
      1 - d``.  That side's one-sided degradation (the SNM model's
      power law evaluated on the held side's stress fraction) erodes the
      margin at ``margin_loss_v_per_percent`` volts per percent, so the
      *exact last-written value* matters: a cell parked on its worn side is
      the first to flip;
    * **thermal activation** — upsets are thermally activated with
      ``activation_energy_ev`` relative to the reference temperature.

    Probabilities are per idle phase: ``1 - exp(-rate * idle_years)``.  The
    defaults grade realistically across corners: at the nominal 0.9 V supply
    even a worst-case-aged cell sits below ~1e-5/year, a 0.72 V retention
    corner separates fresh (~2%/year) from worn (~50%/year) cells, and
    idling below ~0.6 V is unsafe for aged data — which is exactly the
    "when is the low-voltage idle corner too low" question the scenario
    reports answer.
    """

    retention_voltage_v: float = 0.5
    voltage_scale_v: float = 0.02
    margin_loss_v_per_percent: float = 0.003
    attempts_per_year: float = 1e3
    activation_energy_ev: float = 0.25
    reference_temperature_c: float = DEFAULT_REFERENCE_TEMPERATURE_C

    def __post_init__(self) -> None:
        check_positive(self.retention_voltage_v, "retention_voltage_v")
        check_positive(self.voltage_scale_v, "voltage_scale_v")
        check_positive(self.attempts_per_year, "attempts_per_year")
        if self.margin_loss_v_per_percent < 0:
            raise ValueError("margin_loss_v_per_percent must be >= 0")
        check_temperature_celsius(self.reference_temperature_c,
                                  "reference_temperature_c")

    def _thermal_factor(self, temperature_c: DeviceScalar) -> DeviceScalar:
        kelvin = check_temperature_celsius(temperature_c) + 273.15
        reference = self.reference_temperature_c + 273.15
        return np.exp((self.activation_energy_ev / BOLTZMANN_EV)
                      * (1.0 / reference - 1.0 / kelvin))

    @staticmethod
    def _side_law(snm_model: "SnmDegradationModel",
                  years: DeviceScalar) -> Tuple[np.ndarray, np.ndarray]:
        """``(worst, gamma)`` of the one-sided SNM degradation ``worst * s ** gamma``.

        Derived model-agnostically from the model's two anchors: the
        symmetric model reports ``worst * max(d, 1-d) ** gamma``; the side
        holding the value degrades as ``worst * s ** gamma`` where ``s`` is
        *that* side's lifetime stress duty (for
        :class:`~repro.aging.snm.CalibratedSnmModel` this is exactly its
        internal power law, one-sided).  Both are per-device columns when
        ``years`` is one.
        """
        worst = snm_model.worst_case_percent(years)
        best = snm_model.best_case_percent(years)
        with np.errstate(divide="ignore", invalid="ignore"):
            return worst, np.where(worst > best, np.log2(worst / best), 1.0)

    def _upset_rate(self, degradation: np.ndarray, headroom: np.ndarray,
                    thermal: np.ndarray) -> np.ndarray:
        """Per-cell upset rate (1/year), computed in place over ``degradation``.

        ``degradation`` is the held side's SNM degradation (percent),
        ``headroom`` the idle supply's distance above the retention voltage
        and ``thermal`` the thermal activation factor; the latter two are
        per-device columns broadcasting against the cells.
        """
        margin = np.multiply(self.margin_loss_v_per_percent, degradation,
                             out=degradation)
        np.subtract(headroom, margin, out=margin)
        rate = np.negative(margin, out=margin)
        np.divide(rate, self.voltage_scale_v, out=rate)
        np.exp(rate, out=rate)
        np.multiply(self.attempts_per_year, rate, out=rate)
        return np.multiply(rate, thermal, out=rate)

    def failure_probability(self, held_one_probability: np.ndarray,
                            duty: np.ndarray, snm_model: "SnmDegradationModel",
                            stressed_years: DeviceScalar,
                            voltage_v: DeviceScalar,
                            temperature_c: DeviceScalar,
                            idle_years: DeviceScalar) -> np.ndarray:
        """Per-cell probability of losing the held value during the idle phase.

        ``held_one_probability`` is the probability each cell holds a '1'
        entering the phase — exactly 0/1 for deterministic policies, the
        TRBG expectation for the stochastic one, NaN for never-written
        cells (propagated so aggregations stay NaN-aware).  ``duty`` and
        ``stressed_years`` describe the stress accumulated *before* the
        phase ends (the margin the cells actually have at that point of the
        lifetime).

        ``duty`` may carry a leading device axis (``(devices,) +
        held.shape``, one blend per device of a fleet cohort) with the four
        scalars then ``(devices,)`` arrays; row ``d`` of the result equals
        the scalar call at device ``d``'s corner bit for bit.  A side whose
        hold probability is exactly 0 is skipped per cell: its term is an
        exact ``0 * finite = 0``, so deterministic policies (held values
        0/1) pay for one side only.

        The per-device corner terms are ``(rows, 1)`` columns computed once;
        each side's cells are then walked in tiles of at most
        :data:`DEVICE_TILE_ELEMENTS` device-cells, so every temporary
        stays cache-sized however many devices and cells there are.  Each
        tile applies the same elementwise operations as a whole-array pass,
        so the tiling never changes a bit.
        """
        held = np.asarray(held_one_probability, dtype=np.float64)
        duty = np.asarray(duty, dtype=np.float64)
        shape = duty.shape
        held = held.reshape(-1)
        lead = shape[:duty.ndim - np.ndim(held_one_probability)]
        duty = duty.reshape(-1, held.size)
        rows = duty.shape[0]
        # Per-device scalars as (rows, 1) columns against the cell axis.
        stressed_years, voltage_v, temperature_c, idle_years = (
            np.broadcast_to(np.asarray(value, dtype=np.float64), lead)
            .reshape(rows, 1)
            for value in (stressed_years, voltage_v, temperature_c, idle_years))
        check_positive(idle_years, "idle_years")
        check_positive_finite(voltage_v, "voltage_v")
        worst, gamma = self._side_law(snm_model, stressed_years)
        headroom = voltage_v - self.retention_voltage_v
        thermal = self._thermal_factor(temperature_c)
        written = np.isfinite(held)
        probability = np.zeros(duty.shape)
        tile = max(1, DEVICE_TILE_ELEMENTS // rows)
        # A contiguous run of a side's cells is walked in column slices; a
        # scattered set gathers and scatters through flat (rows, tile)
        # positions, which numpy indexes far faster than column lists.
        flat_duty, flat_probability = duty.reshape(-1), probability.reshape(-1)
        row_starts = np.arange(rows)[:, None] * held.size
        for value_probability, complement in ((held, False), (1.0 - held, True)):
            cells = np.flatnonzero(written & (value_probability != 0.0))
            contiguous = cells.size and int(cells[-1] - cells[0]) + 1 == cells.size
            for first in range(0, cells.size, tile):
                chunk = cells[first:first + tile]
                if contiguous:
                    select = (slice(None),
                              slice(int(chunk[0]), int(chunk[-1]) + 1))
                    source, target = duty, probability
                else:
                    select = row_starts + chunk
                    source, target = flat_duty, flat_probability
                stress = source[select]
                if complement:
                    stress = np.subtract(1.0, stress)
                with np.errstate(divide="ignore", over="ignore",
                                 invalid="ignore"):
                    # A column slice of ``duty`` is a view: clip it into a
                    # new tile; any other tile is new already.
                    side = np.clip(stress, 0.0, 1.0, out=(
                        None if contiguous and not complement else stress))
                    np.power(side, gamma, out=side)
                    rate = self._upset_rate(np.multiply(worst, side, out=side),
                                            headroom, thermal)
                    np.negative(rate, out=rate)
                    np.multiply(rate, idle_years, out=rate)
                    kept = np.exp(rate, out=rate)
                    np.subtract(1.0, kept, out=kept)
                    target[select] += np.multiply(value_probability[chunk],
                                                  kept, out=kept)
        np.clip(probability, 0.0, 1.0, out=probability)
        probability[:, ~written] = np.nan
        return probability.reshape(shape)

    def describe(self) -> Dict[str, float]:
        """JSON-safe description (serialised into scenario payloads)."""
        return {
            "retention_voltage_v": self.retention_voltage_v,
            "voltage_scale_v": self.voltage_scale_v,
            "margin_loss_v_per_percent": self.margin_loss_v_per_percent,
            "attempts_per_year": self.attempts_per_year,
            "activation_energy_ev": self.activation_energy_ev,
            "reference_temperature_c": self.reference_temperature_c,
        }
