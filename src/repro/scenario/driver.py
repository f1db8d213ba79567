"""Scenario evaluation engines: packed timeline driver + explicit cross-check.

Both engines walk a :class:`~repro.scenario.phases.LifetimeScenario` under
one shared contract:

* **mitigation policy state resets at every phase boundary** — the encoding
  policy is part of the per-workload accelerator configuration, and a model
  swap (OTA update, tenant switch) reloads it;
* **wear-leveling remap state persists across phase boundaries** — the remap
  table lives in the memory controller, and its epoch counter advances only
  during active phases (remap events are write-triggered);
* **idle phases retain weights**: no writes land, and each cell's retention
  stress-duty is modelled by the *preceding active phase's* per-cell duty —
  the expected value of the bit the cell is left holding.  Additionally both
  engines track the **exact last-written value** of every physical cell
  (closed-form per policy via
  :meth:`repro.core.simulation.AgingSimulator.last_bits_kernel` on the
  packed side, write-by-write on the explicit side), so idle phases report a
  per-cell data-retention failure probability at their operating point —
  low-voltage idle corners are where retention margins collapse;
* **operating points weight time, not duty**: each phase contributes
  ``(duty, years, temperature, voltage)`` to the :mod:`repro.aging.stress`
  aggregation, which folds the timeline into the single effective
  ``(duty, years)`` pair every SNM model consumes; the phase's clock
  frequency already entered through the wall-clock share
  (:meth:`~repro.scenario.phases.LifetimeScenario.phase_years`).

The fast driver evaluates each active phase through the policy's closed-form
kernel (:meth:`repro.core.simulation.AgingSimulator.counts_kernel`) — one
kernel build per (stream, policy) pair and run.  Without a leveler one plan
step evaluates every phase: ``counts(0, n)`` once per distinct duration of a
deterministic policy, and one fused TRBG reduction for the DNN-Life phases
of each (stream, policy) pair; with one, each phase is composed over its
leveling spans by :func:`repro.core.span_compose.compose_leveled`.  There is
never a per-block Python loop.  The explicit engine replays every phase write by write via
:func:`repro.core.simulation.replay_epochs`, the same leveled walk as
:class:`~repro.core.simulation.ExplicitAgingSimulator`; for deterministic
policies the two agree bit-for-bit, and a degenerate single-phase scenario at
the reference temperature reproduces :class:`~repro.core.simulation.AgingSimulator`
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

import numpy as np

from repro.aging.snm import SnmDegradationModel, default_snm_model
from repro.aging.stress import (
    DEFAULT_REFERENCE_VOLTAGE_V,
    ArrheniusTimeScaling,
    PhaseStress,
    aggregate_stress,
    scaling_for_model,
)
from repro.core.policies import MitigationPolicy, make_policy
from repro.core.simulation import (
    AgingResult,
    AgingSimulator,
    LastBitsKernel,
    PackedSpanKernel,
    TrbgSpanKernel,
    _duty_from_counts,
    replay_epochs,
)
from repro.core.span_compose import _FOLD_BYTES, compose_leveled, count_dtype
from repro.leveling.remap import check_leveler
from repro.scenario.operating_point import RetentionModel
from repro.scenario.phases import LifetimeScenario, Phase
from repro.utils.rng import SeedLike, seed_value, spawn_rngs

if TYPE_CHECKING:  # pragma: no cover - import cycle guards, typing only
    from repro.experiments.common import ExperimentScale
    from repro.leveling.remap import SpanTable, WearLeveler

__all__ = [
    "ScenarioResult",
    "ScenarioAgingSimulator",
    "ExplicitScenarioSimulator",
    "scenario_stream_factory",
]

#: A stream factory maps an active :class:`Phase` to its weight stream: a
#: :class:`~repro.accelerator.scheduler.PackedBitTensor` or a bare scheduler.
StreamFactory = Callable[[Phase], object]

#: Run-scoped memo of :class:`ScenarioAgingSimulator`: per (stream, policy
#: name, policy options), the stream, a DNN-Life counts kernel (it lends
#: only its reduce stage), the last-bits kernel and, for a deterministic
#: policy, its read-only duty per phase duration.  Deterministic counts
#: kernels are not memoised here: the stream keeps them for as long as it
#: lives (:meth:`~repro.core.simulation.AgingSimulator.counts_kernel`).
KernelMemo = Dict[Tuple[int, str, str], Dict[str, object]]


def scenario_stream_factory(accelerator: Optional[object] = None,
                            scale: Optional["ExperimentScale"] = None,
                            seed: int = 0) -> StreamFactory:
    """The default stream factory: model-zoo networks on one accelerator.

    Streams are built through the experiment layer's process-local stream
    cache (:func:`repro.experiments.aging_runner.build_workload_stream`), so
    a scenario that revisits a (network, format) pair — and sweep jobs with
    stream affinity — quantize and bit-unpack each workload exactly once per
    process.
    """
    from repro.accelerator.baseline import BaselineAccelerator

    accelerator = accelerator if accelerator is not None else BaselineAccelerator()

    def factory(phase: Phase) -> object:
        from repro.experiments.aging_runner import build_workload_stream
        from repro.experiments.common import ExperimentScale

        resolved_scale = scale or ExperimentScale.quick()
        return build_workload_stream(phase.network, accelerator,
                                     phase.data_format, resolved_scale,
                                     seed=seed)

    return factory


@dataclass
class ScenarioResult:
    """Outcome of evaluating one lifetime scenario.

    ``effective`` is an :class:`~repro.core.simulation.AgingResult` whose
    duty-cycles and ``years`` are the timeline's *effective* stress pair —
    every downstream consumer (histograms, summaries, wear maps, lifetime
    estimation) works on it unchanged.  ``phase_stress`` keeps the raw
    per-phase ``(duty, years, temperature)`` timeline and ``phase_results``
    the per-phase aging results (``None`` for idle phases).
    """

    scenario: Dict[str, object]
    engine: str
    effective: AgingResult
    phase_stress: List[PhaseStress]
    phase_results: List[Optional[AgingResult]]
    scaling: ArrheniusTimeScaling
    wall_years: float
    #: Per-phase retention report (``None`` for active phases and for idle
    #: phases with nothing held), aligned with ``phase_stress``.
    phase_retention: Optional[List[Optional[Dict[str, object]]]] = None
    #: Set when rebuilt from a payload: the original per-phase report rows
    #: (the per-phase ``AgingResult`` objects are not round-tripped, so the
    #: kind/num_inferences columns cannot be re-derived from placeholders).
    _phase_rows_override: Optional[List[Dict[str, object]]] = None

    @property
    def effective_years(self) -> float:
        """Reference-temperature-equivalent years of the whole timeline."""
        return self.effective.years

    def phase_rows(self) -> List[Dict[str, object]]:
        """One JSON-safe report row per phase of the timeline."""
        if self._phase_rows_override is not None:
            return [dict(row) for row in self._phase_rows_override]
        rows = []
        retention = self.phase_retention or [None] * len(self.phase_stress)
        for stress, result, held in zip(self.phase_stress, self.phase_results,
                                        retention):
            duty = stress.duty.reshape(-1)
            row = {
                "label": stress.label,
                "kind": "idle" if result is None else "active",
                "years": stress.years,
                "temperature_c": stress.temperature_c,
                "voltage_v": stress.voltage_v,
                "time_factor": self.scaling.time_factor(stress.temperature_c,
                                                        stress.voltage_v),
                "num_inferences": None if result is None else result.num_inferences,
                "mean_duty": float(duty.mean()),
                "max_abs_deviation_from_half": float(np.abs(duty - 0.5).max()),
            }
            if held is not None:
                row["retention"] = dict(held)
            rows.append(row)
        return rows

    def summary(self) -> Dict[str, object]:
        """Headline metrics: the effective view plus the per-phase timeline."""
        return {
            "scenario": self.scenario,
            "engine": self.engine,
            "wall_years": self.wall_years,
            "effective_years": self.effective_years,
            "scaling": self.scaling.describe(),
            "effective": self.effective.summary(),
            "phases": self.phase_rows(),
        }

    # ------------------------------------------------------------------ #
    # Serialization (orchestration cache / sweep-worker transport)
    # ------------------------------------------------------------------ #
    def to_payload(self) -> Dict[str, object]:
        """JSON-safe representation of the result.

        Carries the effective result in full (via
        :meth:`AgingResult.to_payload`) plus the exact per-phase stress
        timeline; per-phase :class:`AgingResult` objects are summarised, not
        round-tripped.  An idle phase holds the *same* duty array as the
        phase it retains (by reference), so its entry carries a ``duty_ref``
        back-reference instead of a duplicate of the (possibly multi-MB)
        duty list; :meth:`from_payload` restores the alias.
        """
        stress_entries: List[Dict[str, object]] = []
        for index, stress in enumerate(self.phase_stress):
            entry: Dict[str, object] = {
                "label": stress.label,
                "years": stress.years,
                "temperature_c": stress.temperature_c,
                "voltage_v": stress.voltage_v,
            }
            reference = next((j for j in range(index)
                              if self.phase_stress[j].duty is stress.duty), None)
            if reference is not None:
                entry["duty_ref"] = reference
            else:
                entry["duty_shape"] = list(stress.duty.shape)
                entry["duty"] = stress.duty.reshape(-1).tolist()
            stress_entries.append(entry)
        return {
            "scenario": dict(self.scenario),
            "engine": self.engine,
            "wall_years": self.wall_years,
            "scaling": self.scaling.describe(),
            "effective": self.effective.to_payload(),
            "phases": self.phase_rows(),
            "phase_stress": stress_entries,
            "phase_retention": (None if self.phase_retention is None else
                                [None if entry is None else dict(entry)
                                 for entry in self.phase_retention]),
            "phase_summaries": [None if result is None else result.summary()
                                for result in self.phase_results],
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "ScenarioResult":
        """Rebuild a result from :meth:`to_payload` output.

        Per-phase ``AgingResult`` objects are not reconstructed (the payload
        carries their summaries only); ``phase_results`` aligns with the
        stress timeline and holds ``None`` placeholders, while
        :meth:`phase_rows` serves the original report rows verbatim.
        """
        stress = []
        for entry in payload["phase_stress"]:
            if "duty_ref" in entry:
                duty = stress[int(entry["duty_ref"])].duty
            else:
                duty = np.asarray(entry["duty"], dtype=np.float64)
                duty = duty.reshape([int(dim) for dim in entry["duty_shape"]])
            voltage = entry.get("voltage_v", DEFAULT_REFERENCE_VOLTAGE_V)
            stress.append(PhaseStress(duty=duty, years=float(entry["years"]),
                                      temperature_c=float(entry["temperature_c"]),
                                      label=str(entry["label"]),
                                      voltage_v=float(voltage)))
        retention = payload.get("phase_retention")
        return cls(
            scenario=dict(payload["scenario"]),
            engine=str(payload["engine"]),
            effective=AgingResult.from_payload(payload["effective"]),
            phase_stress=stress,
            phase_results=[None] * len(stress),
            scaling=ArrheniusTimeScaling(**dict(payload["scaling"])),
            wall_years=float(payload["wall_years"]),
            phase_retention=(None if retention is None else
                             [None if entry is None else dict(entry)
                              for entry in retention]),
            _phase_rows_override=[dict(row) for row in payload["phases"]],
        )


# --------------------------------------------------------------------------- #
# Shared engine plumbing
# --------------------------------------------------------------------------- #
class _ScenarioEngineBase:
    """State shared by the packed and explicit scenario engines."""

    engine_name = "scenario"

    def __init__(self, scenario: LifetimeScenario,
                 stream_factory: Optional[StreamFactory] = None,
                 seed: SeedLike = 0,
                 snm_model: Optional[SnmDegradationModel] = None,
                 leveler: Optional["WearLeveler"] = None,
                 scaling: Optional[ArrheniusTimeScaling] = None,
                 retention_model: Optional[RetentionModel] = None):
        self.scenario = scenario
        self.seed = seed
        self.snm_model = snm_model or default_snm_model()
        self.leveler = leveler
        self.scaling = scaling or replace(
            scaling_for_model(self.snm_model),
            reference_temperature_c=float(scenario.reference_temperature_c))
        self.retention_model = retention_model or RetentionModel()
        self.stream_factory = stream_factory or scenario_stream_factory(seed=seed_value(seed))
        self._streams: Optional[Dict[Tuple[str, str], object]] = None
        #: Exact last-written value of every physical cell (NaN = never
        #: written); allocated by :func:`_run_timeline` only for timelines
        #: with idle phases (the retention reports' sole consumer), updated
        #: per active phase.
        self._held: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    # Streams and geometry
    # ------------------------------------------------------------------ #
    def streams(self) -> Dict[Tuple[str, str], object]:
        """One stream per distinct (network, data_format) pair, geometry-checked."""
        if self._streams is not None:
            return self._streams
        streams: Dict[Tuple[str, str], object] = {}
        reference: Optional[Tuple[str, int, int]] = None
        for index, phase in enumerate(self.scenario.phases):
            if phase.is_idle:
                continue
            key = (phase.network, phase.data_format)
            if key not in streams:
                streams[key] = self.stream_factory(phase)
            geometry = streams[key].geometry
            signature = (phase.label(index), geometry.rows, geometry.word_bits)
            if reference is None:
                reference = signature
            elif signature[1:] != reference[1:]:
                raise ValueError(
                    f"{signature[0]} maps to {signature[1]} rows x "
                    f"{signature[2]}-bit words but {reference[0]} established "
                    f"{reference[1]} rows x {reference[2]}-bit words; all "
                    "phases of a scenario must share one weight-memory geometry")
        check_leveler(self.leveler, next(iter(streams.values())).geometry)
        self._streams = streams
        return streams

    def _geometry(self) -> Tuple[int, int]:
        streams = self.streams()
        stream = next(iter(streams.values()))
        return stream.geometry.rows, stream.geometry.word_bits

    # ------------------------------------------------------------------ #
    # Packaging
    # ------------------------------------------------------------------ #
    def _package(self, phase_stress: List[PhaseStress],
                 phase_results: List[Optional[AgingResult]],
                 phase_retention: Optional[List[Optional[Dict[str, object]]]] = None
                 ) -> ScenarioResult:
        effective_duty, effective_years = aggregate_stress(phase_stress, self.scaling)
        description: Dict[str, object] = {"scenario": self.scenario.describe(),
                                          "engine": self.engine_name}
        if self.leveler is not None:
            description["leveling"] = self.leveler.describe()
        effective = AgingResult(
            policy_name="scenario",
            policy_description=description,
            duty_cycles=effective_duty,
            num_inferences=self.scenario.active_epochs,
            num_blocks=sum(result.num_blocks for result in phase_results
                           if result is not None),
            snm_model=self.snm_model,
            years=effective_years,
        )
        return ScenarioResult(
            scenario=self.scenario.describe(),
            engine=self.engine_name,
            effective=effective,
            phase_stress=phase_stress,
            phase_results=phase_results,
            scaling=self.scaling,
            wall_years=float(self.scenario.years),
            phase_retention=phase_retention,
        )

    def _phase_policy(self, phase: Phase, word_bits: int,
                      rng: np.random.Generator) -> MitigationPolicy:
        return make_policy(phase.policy, word_bits, seed=rng,
                           **dict(phase.policy_options))

    def _retention_report(self, phase: Phase, idle_years: float,
                          stress_so_far: List[PhaseStress],
                          label: str) -> Optional[Dict[str, object]]:
        """Retention-failure report of one idle phase (``None`` if nothing held).

        The cells' margin is evaluated at the stress they have accumulated by
        the *end* of the idle window (conservative), at the idle phase's
        operating point, against the exact last-written value each physical
        cell holds.  For deterministic policies the report is bit-identical
        between the engines; for the stochastic DNN-Life policy the packed
        engine holds expectations where the explicit engine holds samples.
        """
        held = self._held
        if held is None or not np.any(np.isfinite(held)):
            return None
        point = phase.operating_point
        duty, effective_years = aggregate_stress(stress_so_far, self.scaling)
        probability = self.retention_model.failure_probability(
            held, duty, self.snm_model, effective_years,
            point.voltage_v, point.temperature_c, idle_years)
        finite = probability[np.isfinite(probability)]
        return {
            "label": label,
            "operating_point": point.describe(),
            "model": self.retention_model.describe(),
            "idle_years": float(idle_years),
            "cells_tracked": int(np.isfinite(held).sum()),
            "failure_probability_mean": float(finite.mean()),
            "failure_probability_max": float(finite.max()),
            "expected_bit_flips": float(np.nansum(probability)),
            "cells_at_risk_fraction": float((finite > 1e-6).mean()),
        }

    # ------------------------------------------------------------------ #
    # Engine hooks (the template method :func:`_run_timeline` drives these)
    # ------------------------------------------------------------------ #
    def _prepare(self, total_active: int) -> None:
        """One-time setup before the timeline walk (after leveler reset).

        Records the timeline horizon (the leveler's change schedule spans
        all active epochs) and, for feedback-driven levelers, allocates the
        scenario-cumulative ``(row_ones, row_writes)`` physical totals both
        engines' leveled walks observe on top of and advance per phase.
        Both accumulate exact integers in float64, so the stress ratios they
        feed to :meth:`WearLeveler.observe` are bit-identical.
        """
        self._total_active = total_active
        self._prior_rows: Optional[Tuple[np.ndarray, np.ndarray]] = None
        if self.leveler is not None and self.leveler.uses_feedback:
            rows, _ = self._geometry()
            self._prior_rows = (np.zeros(rows, dtype=np.float64),
                                np.zeros(rows, dtype=np.float64))

    def _phase_counts(self, stream: object, policy: MitigationPolicy,
                      phase: Phase, cursor: int, rng: np.random.Generator
                      ) -> Tuple[np.ndarray, np.ndarray]:
        """Compute one active phase's physical ``(ones, writes)`` counts.

        ``cursor`` is the phase's first global active epoch; implementations
        must route writes through the (persistent) leveler, and — for
        feedback-driven levelers — observe on top of and advance the
        scenario-cumulative ``_prior_rows`` totals.
        """
        raise NotImplementedError

    def _phase_duties(self, phases: List[Phase],
                      policies: List[MitigationPolicy],
                      rngs: List[np.random.Generator]) -> Iterator[np.ndarray]:
        """Yield each active phase's duty-cycles, in phase order.

        One :meth:`_phase_counts` call per phase, made only when the walk
        asks for the phase: its held-value updates land before the idle
        phases after it are reported.
        """
        streams = self.streams()
        cursor = 0
        for phase, policy, rng in zip(phases, policies, rngs):
            stream = streams[(phase.network, phase.data_format)]
            yield _duty_from_counts(
                *self._phase_counts(stream, policy, phase, cursor, rng))
            cursor += phase.duration


# --------------------------------------------------------------------------- #
# The shared timeline walk (template method on the engine base)
# --------------------------------------------------------------------------- #
def _run_timeline(engine: "_ScenarioEngineBase") -> ScenarioResult:
    """Walk the scenario's phases under the shared engine contract.

    Everything that defines the scenario semantics — idle phases holding the
    preceding duty, per-phase policy construction/reset, the global
    active-epoch cursor, leveler lifetime, stress packaging — lives here
    once; the two engines only differ in how the active phases' duties are
    computed (:meth:`_ScenarioEngineBase._phase_duties`: phase by phase
    through :meth:`~_ScenarioEngineBase._phase_counts`, or the packed
    engine's plan step).  Keeping the contract single-sourced is what makes
    their bit-for-bit equivalence a property of the count kernels alone.
    """
    streams = engine.streams()
    rows, word_bits = engine._geometry()
    scenario = engine.scenario
    leveler = engine.leveler
    if leveler is not None:
        leveler.reset()
    # Last-written values only feed the idle retention reports; tracking is
    # skipped entirely for timelines without idle phases and dropped once
    # the last idle phase has been reported (phases after it would compute
    # held values nothing ever reads) — pre-DVFS scenarios pay nothing for
    # the new layer, and mixed timelines only pay up to their last idle.
    last_idle_index = max((position
                           for position, phase in enumerate(scenario.phases)
                           if phase.is_idle), default=-1)
    engine._held = (np.full((rows, word_bits), np.nan, dtype=np.float64)
                    if last_idle_index >= 0 else None)
    engine._prepare(scenario.active_epochs)
    active = scenario.active_phases
    # Every active phase's policy comes from its own spawned RNG; the engine
    # plans all their duties in one step and hands them out in phase order.
    rngs = spawn_rngs(engine.seed, len(active))
    policies = [engine._phase_policy(phase, word_bits, rng)
                for phase, rng in zip(active, rngs)]
    duties = engine._phase_duties(active, policies, rngs)
    phase_years = scenario.phase_years()
    phase_stress: List[PhaseStress] = []
    phase_results: List[Optional[AgingResult]] = []
    phase_retention: List[Optional[Dict[str, object]]] = []
    previous_duty: Optional[np.ndarray] = None
    active_index = 0
    for index, phase in enumerate(scenario.phases):
        if index > last_idle_index:
            engine._held = None
        label = phase.label(index)
        voltage = phase.operating_point.voltage_v
        if phase.is_idle:
            phase_stress.append(PhaseStress(previous_duty, phase_years[index],
                                            phase.temperature_c, label=label,
                                            voltage_v=voltage))
            phase_results.append(None)
            phase_retention.append(engine._retention_report(
                phase, phase_years[index], phase_stress, label))
            continue
        policy = policies[active_index]
        duty = next(duties)
        result = AgingResult(
            policy_name=policy.name,
            policy_description={**policy.describe(), "phase": label},
            duty_cycles=duty,
            num_inferences=phase.duration,
            num_blocks=streams[(phase.network, phase.data_format)].num_blocks,
            snm_model=engine.snm_model,
            years=phase_years[index],
        )
        phase_results.append(result)
        phase_stress.append(PhaseStress(duty, phase_years[index],
                                        phase.temperature_c, label=label,
                                        voltage_v=voltage))
        phase_retention.append(None)
        previous_duty = duty
        active_index += 1
    return engine._package(phase_stress, phase_results, phase_retention)


# --------------------------------------------------------------------------- #
# Fast (packed, closed-form) scenario driver
# --------------------------------------------------------------------------- #
class ScenarioAgingSimulator(_ScenarioEngineBase):
    """Evaluates a lifetime scenario through the packed closed-form kernels.

    Per active phase, one :class:`~repro.core.simulation.AgingSimulator` is
    built on the phase's (cached) stream and its
    :meth:`~repro.core.simulation.AgingSimulator.counts_kernel` evaluated.
    Without a leveler, one plan step (:meth:`_plan`) evaluates every phase:
    deterministic kernels once per distinct duration, DNN-Life phases that
    share a stream and policy in one fused TRBG reduction.  With a leveler,
    each phase is composed over its window of the leveler's span tables
    (:func:`~repro.core.span_compose.compose_leveled`).  Kernel ``start``
    arguments are phase-local (policy state resets at boundaries) while
    leveler permutations are addressed by the global active-epoch cursor
    (remap state persists).

    Phases on the same stream under the same policy share one kernel: a
    deterministic kernel is the stream's own, built once per stream; the
    DNN-Life reduce stage, the last-bits tables and the deterministic duties
    are built on the pair's first phase of a run, while DNN-Life still draws
    each phase from its own RNG.  ``kernel_memo`` extends that per-run
    sharing across the runs of one caller (a fleet's cohorts); without it
    none of it outlives :meth:`run`.
    """

    engine_name = "packed"

    def __init__(self, *args, kernel_memo: Optional[KernelMemo] = None,
                 **kwargs):
        super().__init__(*args, **kwargs)
        #: Memo of the stream-only kernel parts to share with other runs of
        #: the same caller (the fleet's cohorts); ``None``: one per run.
        self.kernel_memo = kernel_memo
        self._kernels: Optional[KernelMemo] = None

    def run(self) -> ScenarioResult:
        """Evaluate the whole timeline; returns the scenario result."""
        self._kernels = {} if self.kernel_memo is None else self.kernel_memo
        try:
            return _run_timeline(self)
        finally:
            self._kernels = None

    def _phase_kernel(self, phase: Phase, policy: MitigationPolicy,
                      rng: np.random.Generator
                      ) -> Tuple[Union[PackedSpanKernel, TrbgSpanKernel],
                                 AgingSimulator, Dict[str, object]]:
        """The phase's counts kernel (a DNN-Life kernel draws from ``rng``),
        its simulator and its (stream, policy) memo entry."""
        stream = self.streams()[(phase.network, phase.data_format)]
        simulator = AgingSimulator(stream, policy,
                                   num_inferences=phase.duration,
                                   seed=rng, snm_model=self.snm_model)
        # The DNN-Life reduction, the last-bits kernel and the deterministic
        # duties are built once per (stream, policy) pair and run (the
        # stream itself keeps the deterministic kernels); the entry holds
        # the stream, so its id cannot be reused meanwhile.
        shared = self._kernels.setdefault(
            (id(stream), phase.policy, repr(phase.policy_options)),
            {"stream": stream})
        kernel = simulator.counts_kernel(shared.get("counts"))
        if isinstance(kernel, TrbgSpanKernel):
            shared["counts"] = kernel
        return kernel, simulator, shared

    def _held_kernel(self, simulator: AgingSimulator,
                     shared: Dict[str, object]
                     ) -> Optional[Tuple[LastBitsKernel, np.ndarray]]:
        """The pair's ``(last_bits, written)`` kernel, built on its first use,
        or ``None`` once no idle phase is left to report."""
        if self._held is None:
            return None
        if "last_bits" not in shared:
            shared["last_bits"] = simulator.last_bits_kernel()
        return shared["last_bits"]

    def _phase_duties(self, phases: List[Phase],
                      policies: List[MitigationPolicy],
                      rngs: List[np.random.Generator]) -> Iterator[np.ndarray]:
        if self.leveler is not None:
            yield from super()._phase_duties(phases, policies, rngs)
            return
        duties, contexts = self._plan(phases, policies, rngs)
        for phase, duty, (simulator, shared) in zip(phases, duties, contexts):
            held = self._held_kernel(simulator, shared)
            if held is not None:
                # The value each written row holds after the phase is
                # whatever its final write of the final epoch stored.
                last_bits, written = held
                self._held[written] = last_bits(phase.duration - 1)[written]
            yield duty

    def _plan(self, phases: List[Phase], policies: List[MitigationPolicy],
              rngs: List[np.random.Generator]
              ) -> Tuple[List[np.ndarray],
                         List[Tuple[AgingSimulator, Dict[str, object]]]]:
        """Every unleveled phase's duty, and its simulator and memo entry.

        A deterministic phase's counts depend only on its kernel and
        duration, so each distinct duration's duty is computed once and kept
        read-only in the memo entry (each phase gets its own view: an idle
        phase aliases the duty of the phase it follows, not of its twins).
        DNN-Life phases draw their enables from their own RNGs, in phase
        order; the phases sharing a reduction are then reduced together,
        ``K`` at a time with ``K`` bounded by ``_FOLD_BYTES``: one
        :meth:`~repro.core.simulation.TrbgReduction.numerators` pass and one
        :func:`~repro.core.simulation._duty_from_counts` call per batch.
        """
        duties: List[Optional[np.ndarray]] = [None] * len(phases)
        contexts = []
        batches: Dict[int, List[Tuple[int, TrbgSpanKernel]]] = {}
        for position, (phase, policy, rng) in enumerate(
                zip(phases, policies, rngs)):
            kernel, simulator, shared = self._phase_kernel(phase, policy, rng)
            contexts.append((simulator, shared))
            if isinstance(kernel, TrbgSpanKernel):
                batches.setdefault(id(kernel.reduction), []).append(
                    (position, kernel))
                continue
            memo = shared.setdefault("duties", {})
            if phase.duration not in memo:
                frozen = _duty_from_counts(*kernel(0, phase.duration))
                frozen.flags.writeable = False
                memo[phase.duration] = frozen
            duties[position] = memo[phase.duration].view()
        for members in batches.values():
            reduction = members[0][1].reduction
            lengths = np.asarray([phases[position].duration
                                  for position, _ in members], dtype=np.int64)
            # A set costs its enables and two cell grids: its integer
            # numerators and its float64 duties.
            numerator = count_dtype(lengths.max(), reduction.max_writes)
            set_bytes = (reduction.ones.size * (numerator.itemsize + 8)
                         + reduction.packed.num_blocks * reduction.num_groups
                         * np.min_scalar_type(int(lengths.max())).itemsize)
            size = max(1, _FOLD_BYTES // set_bytes)
            for first in range(0, len(members), size):
                batch = members[first:first + size]
                batch_lengths = lengths[first:first + size]
                enables = np.stack([kernel.draw(0, int(length))
                                    for (_, kernel), length
                                    in zip(batch, batch_lengths)])
                batch_duties = _duty_from_counts(
                    reduction.numerators(enables, batch_lengths),
                    reduction.writes * batch_lengths[:, None])
                for (position, _), duty in zip(batch, batch_duties):
                    duties[position] = duty
        return duties, contexts

    def _phase_counts(self, stream: object, policy: MitigationPolicy,
                      phase: Phase, cursor: int, rng: np.random.Generator
                      ) -> Tuple[np.ndarray, np.ndarray]:
        """One leveled phase's counts (unleveled phases go through :meth:`_plan`)."""
        kernel, simulator, shared = self._phase_kernel(phase, policy, rng)
        # Kernel starts are phase-local (policy state resets at phase
        # boundaries); the tables' global starts keep addressing the
        # persistent leveler schedule.
        ones, writes, tables = compose_leveled(
            kernel, self.leveler, self._total_active, start=cursor,
            stop=cursor + phase.duration, prior_rows=self._prior_rows)
        held = self._held_kernel(simulator, shared)
        if held is not None:
            self._scatter_held(tables, cursor, *held)
        return ones, writes

    def _scatter_held(self, tables: List["SpanTable"], cursor: int,
                      last_bits: LastBitsKernel, written: np.ndarray) -> None:
        """Batched ``last_bits`` scatter over a phase's span tables.

        The iterative walk overwrites each physical cell span after span, so
        the final state only keeps the *newest* span covering each cell.
        Walking the spans newest-first and filling each physical row at most
        once reproduces that state while evaluating the (expensive)
        ``last_bits`` closed form only for spans that still contribute —
        one call in the common case where the newest span covers every
        written row.
        """
        logical = np.flatnonzero(written)
        if not logical.size:
            return
        filled = np.zeros(self._held.shape[0], dtype=bool)
        remaining = int(filled.size)
        for table in reversed(tables):
            for index in range(table.num_spans - 1, -1, -1):
                permutation = table.permutation(index)
                targets = permutation[logical]
                need = ~filled[targets]
                if need.any():
                    local_end = int(table.starts[index] - cursor
                                    + table.lengths[index] - 1)
                    stored = last_bits(local_end)
                    self._held[targets[need]] = stored[logical[need]]
                    filled[targets[need]] = True
                    remaining -= int(np.count_nonzero(need))
                if remaining <= 0:
                    return


# --------------------------------------------------------------------------- #
# Explicit (exact, slow) phase-replay engine
# --------------------------------------------------------------------------- #
class ExplicitScenarioSimulator(_ScenarioEngineBase):
    """Replays every phase write-by-write for bit-exact cross-checks.

    Each phase is one :func:`repro.core.simulation.replay_epochs` window —
    the same leveled walk as
    :class:`~repro.core.simulation.ExplicitAgingSimulator` — under the
    scenario contract (policy resets per phase, leveler persists, global
    active-epoch addressing for permutations).  For deterministic policies
    its duty-cycles — per phase and effective — match
    :class:`ScenarioAgingSimulator` bit-for-bit.
    """

    engine_name = "explicit"

    def run(self) -> ScenarioResult:
        """Replay the whole timeline; returns the scenario result."""
        return _run_timeline(self)

    def _phase_counts(self, stream: object, policy: MitigationPolicy,
                      phase: Phase, cursor: int, rng: np.random.Generator
                      ) -> Tuple[np.ndarray, np.ndarray]:
        return replay_epochs(stream, policy, cursor, cursor + phase.duration,
                             self.leveler, prior_rows=self._prior_rows,
                             stored=self._held)
