"""Fleet-scale Monte Carlo lifetime engine (cohort-vectorized, closed-form).

The single-device stack answers "when does *this* memory die"; this module
answers the population question — "which fraction of a fleet of devices is
still alive at year ``t``, and what kills them first" — without simulating
any device individually.  The key observation is a factorisation of the
scenario engine's math:

* the per-cell **duty arrays** of a timeline depend only on (scenario,
  policy seed, leveler) — the cohort axis.  One packed
  :class:`~repro.scenario.driver.ScenarioAgingSimulator` run per cohort
  (evaluating each active phase with one ``counts_kernel`` call) produces
  the duty arrays, the exact last-written values entering each idle phase
  and the cohort's effective :class:`~repro.core.simulation.AgingResult`;
* everything a *device* adds — its default DVFS corner (via
  :meth:`~repro.scenario.phases.LifetimeScenario.with_default_operating_point`
  semantics), its thermal offset, its usage intensity — enters only through
  the scalar **stress weights** of :func:`repro.aging.stress.aggregate_stress`
  (phase years x Arrhenius/voltage time factor) and through the idle
  retention model's scalar corner arguments.

:class:`FleetSimulator` therefore groups the sampled devices of a
:class:`~repro.fleet.spec.FleetSpec` into ``(scenario, seed-group)``
cohorts sharing one base run and one process-wide packed stream cache, and
evaluates the device axis with the scenario path's own physics: each
formula it needs — :meth:`~repro.scenario.phases.LifetimeScenario.phase_years`,
:meth:`~repro.aging.stress.ArrheniusTimeScaling.time_factor`,
:func:`~repro.aging.stress.aggregate_stress`,
:meth:`~repro.aging.lifetime.LifetimeEstimator.cell_lifetimes_years` and
:meth:`~repro.scenario.operating_point.RetentionModel.failure_probability` —
takes per-device corners as ``(devices,)`` arrays and returns one row per
device, equal bit for bit to the scalar call at that device's corner.  There
is no second implementation of the aging model here, so a device reproduces
a standalone scenario run of :meth:`FleetSimulator.device_scenario` — the
property the equivalence test battery pins.

Failure-time composition (shared with the per-device reference path through
:func:`failure_times_from_scenario_result`):

* **SNM wear-out** — the scenario-mix lifetime of
  :meth:`repro.aging.lifetime.LifetimeEstimator.memory_lifetime_years_phases`
  (most-aged cell reaches the degradation threshold, wall-clock accelerated
  by ``effective_years / wall_years``), divided by the device's usage
  intensity;
* **idle retention** — each recorded idle phase contributes its expected
  bit-flip count at the device's corner; flips are treated as a Poisson
  process over timeline passes, so the expected time to the first flip is
  ``wall_years / (flips_per_pass * usage)`` (infinite when no cell is at
  risk, e.g. at the nominal idle supply).

A device fails at the earlier of the two; the earlier mechanism is its
failure-mode attribution.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.aging.lifetime import LifetimeEstimator
from repro.aging.snm import (
    REFERENCE_LIFETIME_YEARS,
    SnmDegradationModel,
    default_snm_model,
)
from repro.aging.stress import (
    ArrheniusTimeScaling,
    PhaseStress,
    StressTimeline,
    aggregate_stress,
    scaling_for_model,
)
from repro.fleet.spec import FleetSample, FleetSpec
from repro.scenario.driver import (
    ScenarioAgingSimulator,
    ScenarioResult,
    StreamFactory,
    _factory_seed,
    scenario_stream_factory,
)
from repro.scenario.operating_point import RetentionModel
from repro.scenario.phases import LifetimeScenario, Phase
from repro.utils.validation import check_positive, check_positive_int

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.leveling.remap import WearLeveler

__all__ = [
    "FleetResult",
    "FleetSimulator",
    "failure_times_from_scenario_result",
]

#: Quantile levels reported by default (p1 ... p99 of the failure times).
DEFAULT_QUANTILES = (0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99)

#: Devices evaluated together; bounds the (device x cell) grids of a cohort.
DEVICE_CHUNK = 64


class _RecordingScenarioSimulator(ScenarioAgingSimulator):
    """The packed scenario driver, recording idle-phase retention inputs.

    The base engine reduces each idle phase to a summary report; the fleet
    needs the raw inputs (the exact last-written cell values and the phase's
    position in the stress timeline) to re-evaluate retention at every
    *device's* corner.  The override snapshots them and then delegates, so
    the cohort result itself stays byte-identical to a plain scenario run.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: ``(position_in_phase_stress, held_copy)`` per reported idle phase.
        self.recorded_idles: List[Tuple[int, np.ndarray]] = []

    def _retention_report(self, phase: Phase, idle_years: float,
                          stress_so_far: List[PhaseStress],
                          label: str) -> Optional[Dict[str, object]]:
        held = self._held
        if held is not None and np.any(np.isfinite(held)):
            self.recorded_idles.append((len(stress_so_far) - 1, held.copy()))
        return super()._retention_report(phase, idle_years, stress_so_far, label)


def failure_times_from_scenario_result(
        result: ScenarioResult, usage: float = 1.0,
        max_degradation_percent: float = 15.0,
        reference_years: float = REFERENCE_LIFETIME_YEARS) -> Dict[str, object]:
    """Failure-time composition of one device from its scenario result.

    This is the single-device reference path of the fleet engine — the
    equivalence tests and the bench's per-device loop both run a plain
    :class:`~repro.scenario.driver.ScenarioAgingSimulator` per device and
    compose failure times through this function, so "fleet == N independent
    scenario runs" is a statement about one shared formula.
    """
    check_positive(usage, "usage")
    estimator = LifetimeEstimator(snm_model=result.effective.snm_model,
                                  max_degradation_percent=max_degradation_percent,
                                  reference_years=reference_years)
    snm_years = estimator.memory_lifetime_years_phases(
        result.phase_stress, scaling=result.scaling) / usage
    flips = 0.0
    for entry in (result.phase_retention or []):
        if entry is not None:
            flips = flips + float(entry["expected_bit_flips"])
    retention_years = (result.wall_years / (flips * usage) if flips > 0
                       else float("inf"))
    failure_years = min(snm_years, retention_years)
    return {
        "snm_years": float(snm_years),
        "retention_years": float(retention_years),
        "failure_years": float(failure_years),
        "mode": "retention" if retention_years < snm_years else "snm",
    }


def _finite_to_payload(values: np.ndarray) -> List[Optional[float]]:
    """JSON-safe float list: non-finite entries (never-failing devices) -> None."""
    return [float(value) if np.isfinite(value) else None for value in values]


def _finite_from_payload(values: Sequence[Optional[float]]) -> np.ndarray:
    return np.asarray([np.inf if value is None else float(value)
                       for value in values], dtype=np.float64)


@dataclass
class FleetResult:
    """Population outcome of one fleet simulation.

    Device-indexed arrays (aligned with ``sample``): ``snm_years`` /
    ``retention_years`` / ``failure_years`` are wall-clock years until each
    failure mechanism (``inf`` = never), ``modes`` the per-device
    attribution (``"snm"`` or ``"retention"``).  ``cohorts`` carries one
    entry per ``(scenario, seed-group)`` cohort including the base run's
    full effective :class:`~repro.core.simulation.AgingResult` payload —
    the byte-level anchor of the single-device equivalence tests.
    """

    spec: FleetSpec
    sample: FleetSample
    cohorts: List[Dict[str, object]]
    snm_years: np.ndarray
    retention_years: np.ndarray
    failure_years: np.ndarray
    modes: np.ndarray
    scaling: ArrheniusTimeScaling
    max_degradation_percent: float
    reference_years: float

    @property
    def num_devices(self) -> int:
        """Number of simulated devices."""
        return int(self.failure_years.size)

    # ------------------------------------------------------------------ #
    # Population statistics
    # ------------------------------------------------------------------ #
    def failure_quantiles(self, quantiles: Sequence[float] = DEFAULT_QUANTILES
                          ) -> Dict[str, float]:
        """Failure-time quantiles (years); permutation-invariant, monotone in q."""
        values = np.quantile(self.failure_years, np.asarray(quantiles))
        return {f"p{100 * q:g}": float(value)
                for q, value in zip(quantiles, values)}

    def survival_curve(self, max_years: Optional[float] = None,
                       points: int = 33) -> Tuple[np.ndarray, np.ndarray]:
        """``(times, surviving_fraction)`` of the population.

        ``surviving_fraction[i]`` is the fraction of devices whose failure
        time strictly exceeds ``times[i]``.  The grid spans ``[0,
        max_years]`` (default: the latest finite failure, or the spec's
        wall-clock years when no device fails).
        """
        check_positive_int(points, "points")
        if max_years is None:
            finite = self.failure_years[np.isfinite(self.failure_years)]
            max_years = float(finite.max()) if finite.size else self.spec.years
        times = np.linspace(0.0, float(max_years), points)
        surviving = (self.failure_years[None, :] > times[:, None]).mean(axis=1)
        return times, surviving

    def mode_summary(self) -> Dict[str, int]:
        """Device counts per failure-mode attribution."""
        labels, counts = np.unique(self.modes, return_counts=True)
        return {str(label): int(count) for label, count in zip(labels, counts)}

    def summary(self) -> Dict[str, object]:
        """Headline population metrics."""
        times, surviving = self.survival_curve()
        return {
            "num_devices": self.num_devices,
            "num_cohorts": len(self.cohorts),
            "quantiles_years": self.failure_quantiles(),
            "modes": self.mode_summary(),
            "median_snm_years": float(np.median(self.snm_years)),
            "fraction_retention_limited": float(
                np.mean(self.retention_years < self.snm_years)),
            "survival_times_years": times.tolist(),
            "survival_fraction": surviving.tolist(),
        }

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_payload(self) -> Dict[str, object]:
        """JSON-safe representation (``inf`` failure times become ``null``)."""
        return {
            "spec": self.spec.to_payload(),
            "sample": self.sample.to_payload(),
            "cohorts": [dict(entry) for entry in self.cohorts],
            "snm_years": _finite_to_payload(self.snm_years),
            "retention_years": _finite_to_payload(self.retention_years),
            "failure_years": _finite_to_payload(self.failure_years),
            "modes": [str(mode) for mode in self.modes],
            "scaling": self.scaling.describe(),
            "max_degradation_percent": self.max_degradation_percent,
            "reference_years": self.reference_years,
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "FleetResult":
        """Rebuild a result from :meth:`to_payload` output."""
        return cls(
            spec=FleetSpec.from_payload(payload["spec"]),
            sample=FleetSample.from_payload(payload["sample"]),
            cohorts=[dict(entry) for entry in payload["cohorts"]],
            snm_years=_finite_from_payload(payload["snm_years"]),
            retention_years=_finite_from_payload(payload["retention_years"]),
            failure_years=_finite_from_payload(payload["failure_years"]),
            modes=np.asarray([str(mode) for mode in payload["modes"]]),
            scaling=ArrheniusTimeScaling(**dict(payload["scaling"])),
            max_degradation_percent=float(payload["max_degradation_percent"]),
            reference_years=float(payload["reference_years"]),
        )


class FleetSimulator:
    """Evaluates a :class:`FleetSpec` population through cohort-shared kernels.

    Devices agreeing on ``(scenario, seed group)`` form a cohort: one packed
    scenario run (kernel evaluations, leveler walk, last-written-value
    tracking) serves all of them, and the per-device physics — DVFS corner,
    thermal offset, usage intensity — is applied analytically on top (see
    the module docstring for the factorisation).  All cohorts share one
    ``stream_factory``, so distinct cohorts of the same workload ride the
    process-wide stream cache, and sweep jobs with stream affinity reuse it
    across fleet points.
    """

    def __init__(self, spec: FleetSpec,
                 stream_factory: Optional[StreamFactory] = None,
                 snm_model: Optional[SnmDegradationModel] = None,
                 leveler: Optional["WearLeveler"] = None,
                 scaling: Optional[ArrheniusTimeScaling] = None,
                 retention_model: Optional[RetentionModel] = None,
                 max_degradation_percent: float = 15.0,
                 reference_years: float = REFERENCE_LIFETIME_YEARS):
        self.spec = spec
        self.snm_model = snm_model or default_snm_model()
        self.leveler = leveler
        self.retention_model = retention_model or RetentionModel()
        # The scaling a standalone run of any of the spec's scenarios uses.
        self.scaling = scaling or replace(
            scaling_for_model(self.snm_model),
            reference_temperature_c=float(spec.reference_temperature_c))
        self.stream_factory = (stream_factory or
                               scenario_stream_factory(seed=_factory_seed(spec.seed)))
        self.max_degradation_percent = check_positive(
            float(max_degradation_percent), "max_degradation_percent")
        self.reference_years = check_positive(float(reference_years),
                                              "reference_years")
        self.estimator = LifetimeEstimator(
            snm_model=self.snm_model,
            max_degradation_percent=self.max_degradation_percent,
            reference_years=self.reference_years)
        self.scenarios = spec.build_scenarios()

    # ------------------------------------------------------------------ #
    # Single-device reference view (used by the equivalence tests / bench)
    # ------------------------------------------------------------------ #
    def device_scenario(self, sample: FleetSample, device: int) -> LifetimeScenario:
        """The exact scenario one sampled device runs, as a standalone object.

        Applies the device's default corner through
        :meth:`LifetimeScenario.with_default_operating_point` (phases with
        explicit ``@V:F`` points keep them) and shifts every phase
        temperature by the device's thermal offset — the timeline a plain
        :class:`ScenarioAgingSimulator` must be given to reproduce this
        device individually.
        """
        scenario = self.scenarios[int(sample.scenario_index[device])]
        voltage, frequency = self.spec.corners[int(sample.corner_index[device])]
        scenario = scenario.with_default_operating_point(voltage, frequency)
        offset = float(sample.temperature_offset_c[device])
        return LifetimeScenario(
            phases=tuple(replace(phase, temperature_c=phase.temperature_c + offset)
                         for phase in scenario.phases),
            years=scenario.years,
            reference_temperature_c=scenario.reference_temperature_c,
            name=scenario.name)

    def device_seed(self, sample: FleetSample, device: int) -> int:
        """The policy/stream seed of one sampled device (its seed group's)."""
        return self.spec.group_seed(int(sample.seed_group[device]))

    # ------------------------------------------------------------------ #
    # Population evaluation
    # ------------------------------------------------------------------ #
    def run(self) -> FleetResult:
        """Sample the population and evaluate every cohort; returns the result."""
        sample = self.spec.sample()
        devices = sample.num_devices
        snm_years = np.full(devices, np.nan)
        retention_years = np.full(devices, np.nan)

        cohort_keys = sorted(set(zip(sample.scenario_index.tolist(),
                                     sample.seed_group.tolist())))
        cohorts: List[Dict[str, object]] = []
        for scenario_index, group in cohort_keys:
            scenario = self.scenarios[scenario_index]
            seed = self.spec.group_seed(group)
            engine = _RecordingScenarioSimulator(
                scenario, stream_factory=self.stream_factory, seed=seed,
                snm_model=self.snm_model, leveler=self.leveler,
                scaling=self.scaling, retention_model=self.retention_model)
            result = engine.run()
            members = np.nonzero((sample.scenario_index == scenario_index)
                                 & (sample.seed_group == group))[0]
            cohort_snm, cohort_retention = self._evaluate_cohort(
                scenario, result, engine.recorded_idles, sample, members)
            snm_years[members] = cohort_snm
            retention_years[members] = cohort_retention
            cohorts.append({
                "scenario_index": int(scenario_index),
                "seed_group": int(group),
                "seed": int(seed),
                "num_devices": int(members.size),
                "spec": self.spec.scenarios[scenario_index],
                "effective": result.effective.to_payload(),
            })

        failure_years = np.minimum(snm_years, retention_years)
        modes = np.where(retention_years < snm_years, "retention", "snm")
        return FleetResult(
            spec=self.spec,
            sample=sample,
            cohorts=cohorts,
            snm_years=snm_years,
            retention_years=retention_years,
            failure_years=failure_years,
            modes=modes,
            scaling=self.scaling,
            max_degradation_percent=self.max_degradation_percent,
            reference_years=self.reference_years,
        )

    # ------------------------------------------------------------------ #
    # The device axis of one cohort
    # ------------------------------------------------------------------ #
    def _evaluate_cohort(self, scenario: LifetimeScenario,
                         result: ScenarioResult,
                         recorded_idles: List[Tuple[int, np.ndarray]],
                         sample: FleetSample,
                         members: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Per-device (snm_years, retention_years) of one cohort's members.

        The scenario path's own calls with a leading device axis: the
        wall-clock shares come from
        :meth:`LifetimeScenario.phase_years` of each distinct corner,
        :func:`aggregate_stress` blends the cohort's shared duty arrays per
        device, :meth:`LifetimeEstimator.cell_lifetimes_years` evaluates each
        device's most-stressed cell and
        :meth:`RetentionModel.failure_probability` re-evaluates every
        recorded idle phase at each device's corner.  Row ``d`` of each call
        equals the scalar call at device ``d``'s corner bit for bit, so the
        composition reproduces :func:`failure_times_from_scenario_result` of a
        standalone run of :meth:`device_scenario`.
        """
        # Only the frequency of the default corner moves the wall-clock
        # shares, and only its voltage the phase voltages: one re-pinned
        # scenario per distinct corner serves all its devices.
        corners, inverse = np.unique(sample.corner_index[members],
                                     return_inverse=True)
        views = [scenario.with_default_operating_point(*self.spec.corners[corner])
                 for corner in corners]
        years = np.asarray([view.phase_years() for view in views])[inverse]
        voltage = np.asarray([[phase.operating_point.voltage_v
                               for phase in view.phases]
                              for view in views])[inverse]
        temperature = (np.asarray([phase.temperature_c for phase in scenario.phases])
                       + sample.temperature_offset_c[members][:, None])
        usage = sample.usage[members]

        snm_years = np.empty(members.size)
        flips = np.zeros(members.size)
        for start in range(0, members.size, DEVICE_CHUNK):
            chunk = slice(start, start + DEVICE_CHUNK)
            devices = len(usage[chunk])
            timeline = StressTimeline(self.scaling, [
                PhaseStress(stress.duty, years[chunk, index],
                            temperature[chunk, index],
                            voltage_v=voltage[chunk, index])
                for index, stress in enumerate(result.phase_stress)])
            blend, effective_years = timeline.effective()
            # The memory's lifetime is its most-aged cell's; degradation is
            # monotone in the stress fraction max(d, 1-d), so only each
            # device's max-stress cell needs the power law.
            stress_max = np.maximum(blend, 1.0 - blend).reshape(devices, -1).max(axis=1)
            snm_years[chunk] = (self.estimator.cell_lifetimes_years(stress_max)
                                / (effective_years / timeline.wall_years)
                                / usage[chunk])
            for position, held in recorded_idles:
                duty, stressed = aggregate_stress(timeline.phases[:position + 1],
                                                  self.scaling)
                probability = self.retention_model.failure_probability(
                    held, duty, self.snm_model, stressed,
                    voltage[chunk, position], temperature[chunk, position],
                    years[chunk, position])
                flips[chunk] += np.nansum(probability.reshape(devices, -1), axis=1)
        with np.errstate(divide="ignore"):
            retention_years = np.where(flips > 0,
                                       result.wall_years / (flips * usage), np.inf)
        return snm_years, retention_years
