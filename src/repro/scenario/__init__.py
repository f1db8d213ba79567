"""Multi-phase lifetime scenarios (composable stress timelines).

The single-stream simulators answer "what if the accelerator ran *this*
network forever at one temperature".  This package composes that primitive
into whole deployments: a :class:`~repro.scenario.phases.LifetimeScenario`
is an ordered list of :class:`~repro.scenario.phases.Phase` objects — model
swaps (OTA updates, multi-tenant time-sharing), idle stretches with retained
weights, thermal corners — each with its own workload, mitigation policy,
duration and DVFS :class:`~repro.scenario.operating_point.OperatingPoint`
(voltage, frequency, temperature).

Two engines evaluate a scenario:

* :class:`~repro.scenario.driver.ScenarioAgingSimulator` — the fast driver.
  Each phase is accounted through its policy's closed-form kernel
  (:meth:`repro.core.simulation.AgingSimulator.counts_kernel`),
  wear-leveling remap state persists across phase boundaries, the exact
  last-written value of every cell is tracked closed-form
  (:meth:`repro.core.simulation.AgingSimulator.last_bits_kernel`) for the
  idle-phase retention reports, and the per-phase duty-cycles are folded
  into one effective (duty, years) pair via :mod:`repro.aging.stress` —
  with each phase's voltage and frequency weighting stress-time and
  wall-clock time respectively.
* :class:`~repro.scenario.driver.ExplicitScenarioSimulator` — the exact
  phase-replay cross-check, built on the same leveled explicit walk
  (:func:`repro.core.simulation.replay_epochs`) as the classic explicit
  engine; bit-identical to the fast driver for deterministic policies,
  retention reports included.

Scenarios are described programmatically or through the phase-spec
mini-language (``dnn-life scenario --spec ...``)::

    lenet5:int8:dnn_life:1000@85C@0.72V:0.5GHz,idle:500@45C@0.6V:0.1GHz
"""

from repro.scenario.driver import (
    ExplicitScenarioSimulator,
    ScenarioAgingSimulator,
    ScenarioResult,
    scenario_stream_factory,
)
from repro.scenario.operating_point import (
    OperatingPoint,
    RetentionModel,
    reference_operating_point,
)
from repro.scenario.phases import (
    DEFAULT_PHASE_TEMPERATURE_C,
    LifetimeScenario,
    Phase,
    merge_adjacent_phases,
    parse_scenario_spec,
)

__all__ = [
    "DEFAULT_PHASE_TEMPERATURE_C",
    "ExplicitScenarioSimulator",
    "LifetimeScenario",
    "OperatingPoint",
    "Phase",
    "RetentionModel",
    "ScenarioAgingSimulator",
    "ScenarioResult",
    "merge_adjacent_phases",
    "parse_scenario_spec",
    "reference_operating_point",
    "scenario_stream_factory",
]
