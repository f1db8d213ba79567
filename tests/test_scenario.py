"""Tests for the multi-phase lifetime scenario engine (``repro.scenario``).

Covers the acceptance criteria of the scenario refactor:

* the packed scenario driver matches the explicit phase-replay engine
  bit-for-bit for deterministic policies across multiple multi-phase
  scenarios (model swap + temperature change), with and without wear
  levelers;
* a degenerate single-phase scenario reproduces the classic
  :class:`~repro.core.simulation.AgingSimulator` results exactly;
* leveler remap state persists across phase boundaries while policy state
  resets;
* the effective-stress aggregation, the phase-spec mini-language, the
  ``DnnLife`` integration and the registered ``scenario`` experiment.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.accelerator.baseline import BaselineAccelerator
from repro.accelerator.config import baseline_config
from repro.aging.lifetime import LifetimeEstimator
from repro.aging.nbti import ReactionDiffusionSnmModel
from repro.aging.stress import (
    ArrheniusTimeScaling,
    PhaseStress,
    StressTimeline,
    aggregate_stress,
    scaling_for_model,
)
from repro.core.policies import make_policy
from repro.core.simulation import AgingSimulator
from repro.experiments.common import ExperimentScale
from repro.leveling import make_leveler
from repro.nn.models import build_model
from repro.nn.weights import attach_synthetic_weights
from repro.scenario import (
    ExplicitScenarioSimulator,
    LifetimeScenario,
    Phase,
    ScenarioAgingSimulator,
    ScenarioResult,
    parse_scenario_spec,
)
from repro.scenario.driver import scenario_stream_factory
from repro.utils.units import KB

#: Every deterministic policy appears in at least one phase across the two
#: cross-checked timelines.
MODEL_SWAP_SPEC = ("custom_mnist:int8:inversion:4@85C,"
                   "lenet5:int8:none:4@45C,"
                   "lenet5:int8:inversion_per_location:3@85C")
DUTY_CYCLE_SPEC = ("custom_mnist:int8:barrel_shifter:5@85C,"
                   "idle:3@45C,custom_mnist:int8:inversion:4@25C")


def small_factory(memory_kb=4, fifo_depth_tiles=4, seed=0):
    """Stream factory over a tiny 4-tile FIFO memory (explicit-simulable)."""
    config = replace(baseline_config(), name="test_scenario",
                     weight_memory_bytes=memory_kb * KB,
                     weight_fifo_depth_tiles=fifo_depth_tiles)
    scale = ExperimentScale(num_inferences=10, max_weights_per_layer=10_000)
    return scenario_stream_factory(BaselineAccelerator(config=config),
                                   scale=scale, seed=seed)


@pytest.fixture(scope="module")
def factory():
    return small_factory()


@pytest.fixture(scope="module")
def geometry(factory):
    return factory(Phase.active("custom_mnist", "int8", "none", 1)).geometry


# --------------------------------------------------------------------------- #
# Phase-spec mini-language
# --------------------------------------------------------------------------- #
class TestSpecParser:
    def test_active_token_with_alias_and_temperature(self):
        (phase,) = parse_scenario_spec("lenet5:int8:dnn_life:1000@85C")
        assert not phase.is_idle
        assert phase.network == "lenet5"
        assert phase.data_format == "int8_symmetric"  # alias resolved
        assert phase.policy == "dnn_life"
        assert phase.duration == 1000
        assert phase.temperature_c == 85.0

    def test_temperature_defaults_and_spellings(self):
        default, lower, bare = parse_scenario_spec(
            "lenet5:int8:none:5,lenet5:int8:none:5@45c,lenet5:int8:none:5@45")
        assert default.temperature_c == 85.0
        assert lower.temperature_c == 45.0
        assert bare.temperature_c == 45.0

    def test_idle_token(self):
        phases = parse_scenario_spec("lenet5:int8:none:10,idle:500@45C")
        assert phases[1].is_idle
        assert phases[1].duration == 500
        assert phases[1].temperature_c == 45.0

    def test_spec_round_trips_through_to_spec(self):
        scenario = LifetimeScenario.from_spec(MODEL_SWAP_SPEC)
        again = LifetimeScenario.from_spec(scenario.to_spec())
        assert again.phases == scenario.phases

    def test_description_round_trip(self):
        scenario = LifetimeScenario.from_spec(DUTY_CYCLE_SPEC, years=3.5,
                                              reference_temperature_c=60.0)
        rebuilt = LifetimeScenario.from_description(scenario.describe())
        assert rebuilt.phases == scenario.phases
        assert rebuilt.years == 3.5
        assert rebuilt.reference_temperature_c == 60.0

    @pytest.mark.parametrize("spec,fragment", [
        ("", "spec is empty"),
        ("lenet5:int8:none", "expected"),
        ("bogus:int8:none:5", "unknown network 'bogus'"),
        ("lenet5:int13:none:5", "unknown data format 'int13'"),
        ("lenet5:int8:bogus:5", "unknown policy 'bogus'"),
        ("lenet5:int8:none:0", "duration must be > 0"),
        ("lenet5:int8:none:-3", "duration must be > 0"),
        ("lenet5:int8:none:ten", "invalid duration"),
        ("lenet5:int8:none:5@cold", "invalid temperature"),
        ("idle:5:5", "expected 'idle:DURATION"),
    ])
    def test_one_line_errors(self, spec, fragment):
        with pytest.raises(ValueError) as excinfo:
            parse_scenario_spec(spec)
        message = str(excinfo.value)
        assert fragment in message
        assert "\n" not in message

    def test_scenario_rejects_leading_idle(self):
        with pytest.raises(ValueError, match="cannot start with an idle phase"):
            LifetimeScenario.from_spec("idle:5,lenet5:int8:none:5")

    def test_phase_years_are_duration_proportional(self):
        scenario = LifetimeScenario.from_spec(
            "lenet5:int8:none:6,idle:2,lenet5:int8:none:4", years=6.0)
        years = scenario.phase_years()
        assert years == pytest.approx([3.0, 1.0, 2.0])
        assert sum(years) == pytest.approx(scenario.years)


# --------------------------------------------------------------------------- #
# Effective-stress aggregation
# --------------------------------------------------------------------------- #
class TestStressAggregation:
    def test_reference_temperature_factor_is_exactly_one(self):
        scaling = ArrheniusTimeScaling()
        assert scaling.time_factor(scaling.reference_temperature_c) == 1.0

    def test_hotter_counts_more_cooler_counts_less(self):
        scaling = ArrheniusTimeScaling()
        assert scaling.time_factor(105.0) > 1.0
        assert scaling.time_factor(45.0) < 0.2

    def test_single_phase_is_bit_exact(self):
        duty = np.linspace(0.0, 1.0, 17)
        effective, years = aggregate_stress(
            [PhaseStress(duty, years=7.0, temperature_c=85.0)])
        assert np.array_equal(effective, duty)
        assert years == 7.0

    def test_complement_commutes_with_aggregation(self):
        rng = np.random.default_rng(0)
        phases = [PhaseStress(rng.random(32), years=2.0, temperature_c=85.0),
                  PhaseStress(rng.random(32), years=5.0, temperature_c=45.0)]
        complemented = [PhaseStress(1.0 - phase.duty, phase.years,
                                    phase.temperature_c) for phase in phases]
        duty, _ = aggregate_stress(phases)
        duty_complement, _ = aggregate_stress(complemented)
        assert np.allclose(duty_complement, 1.0 - duty)

    def test_equal_temperature_blend_is_time_weighted_mean(self):
        low = PhaseStress(np.full(4, 0.2), years=1.0, temperature_c=85.0)
        high = PhaseStress(np.full(4, 0.8), years=3.0, temperature_c=85.0)
        duty, years = aggregate_stress([low, high])
        assert years == pytest.approx(4.0)
        assert duty == pytest.approx(np.full(4, (0.2 + 3 * 0.8) / 4.0))

    def test_shape_mismatch_is_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            aggregate_stress([PhaseStress(np.zeros(4), 1.0),
                              PhaseStress(np.zeros(5), 1.0)])

    def test_empty_timeline_is_rejected(self):
        with pytest.raises(ValueError):
            aggregate_stress([])

    def test_timeline_accumulator(self):
        timeline = StressTimeline()
        timeline.add(np.full(3, 0.5), years=2.0)
        timeline.add(np.full(3, 1.0), years=2.0, temperature_c=45.0)
        duty, years = timeline.effective()
        assert timeline.wall_years == pytest.approx(4.0)
        assert years < 4.0  # the cool phase contributes less stress-time
        assert np.all((duty > 0.5) & (duty < 1.0))

    def test_scaling_for_reaction_diffusion_model_uses_device(self):
        model = ReactionDiffusionSnmModel()
        scaling = scaling_for_model(model)
        assert scaling.activation_energy_ev == model.device.activation_energy_ev
        assert scaling.reference_temperature_c == pytest.approx(85.0)


# --------------------------------------------------------------------------- #
# Engine cross-checks (the acceptance criteria)
# --------------------------------------------------------------------------- #
def _levelers(geometry):
    return {
        "none": lambda: None,
        "rotation": lambda: make_leveler("rotation", geometry, 4, period=3),
        "start_gap": lambda: make_leveler("start_gap", geometry, 4, interval=2),
        "wear_swap": lambda: make_leveler("wear_swap", geometry, 4, interval=2,
                                          swap_fraction=0.25),
    }


class TestEngineEquivalence:
    @pytest.mark.parametrize("spec", [MODEL_SWAP_SPEC, DUTY_CYCLE_SPEC])
    @pytest.mark.parametrize("leveler_name", ["none", "rotation", "start_gap",
                                              "wear_swap"])
    def test_packed_matches_explicit_bit_for_bit(self, factory, geometry,
                                                 spec, leveler_name):
        scenario = LifetimeScenario.from_spec(spec)
        build = _levelers(geometry)[leveler_name]
        packed = ScenarioAgingSimulator(scenario, stream_factory=factory,
                                        seed=0, leveler=build()).run()
        explicit = ExplicitScenarioSimulator(scenario, stream_factory=factory,
                                             seed=0, leveler=build()).run()
        assert np.array_equal(packed.effective.duty_cycles,
                              explicit.effective.duty_cycles)
        for fast, exact in zip(packed.phase_stress, explicit.phase_stress):
            assert np.array_equal(fast.duty, exact.duty)
        assert packed.effective_years == explicit.effective_years
        assert packed.phase_retention == explicit.phase_retention

    @pytest.mark.parametrize("policy", ["none", "inversion",
                                        "inversion_per_location",
                                        "barrel_shifter"])
    def test_degenerate_single_phase_reproduces_aging_simulator(self, factory,
                                                                policy):
        scenario = LifetimeScenario.from_spec(f"custom_mnist:int8:{policy}:5")
        result = ScenarioAgingSimulator(scenario, stream_factory=factory,
                                        seed=0).run()
        stream = factory(scenario.phases[0])
        classic = AgingSimulator(stream, make_policy(policy, 8, seed=0),
                                 num_inferences=5, seed=0).run()
        assert np.array_equal(result.effective.duty_cycles, classic.duty_cycles)
        assert result.effective.years == 7.0
        assert result.effective.num_inferences == classic.num_inferences
        assert result.effective.num_blocks == classic.num_blocks
        assert (result.effective.summary()["duty_cycle"]
                == classic.summary()["duty_cycle"])

    def test_degenerate_single_phase_with_leveler(self, factory, geometry):
        scenario = LifetimeScenario.from_spec("custom_mnist:int8:inversion:6")
        result = ScenarioAgingSimulator(
            scenario, stream_factory=factory, seed=0,
            leveler=make_leveler("start_gap", geometry, 4, interval=2)).run()
        stream = factory(scenario.phases[0])
        classic = AgingSimulator(
            stream, make_policy("inversion", 8, seed=0), num_inferences=6,
            seed=0,
            leveler=make_leveler("start_gap", geometry, 4, interval=2)).run()
        assert np.array_equal(result.effective.duty_cycles, classic.duty_cycles)

    def test_stochastic_policy_runs_on_both_engines(self, factory):
        scenario = LifetimeScenario.from_spec(
            "custom_mnist:int8:dnn_life:3,lenet5:int8:dnn_life:3")
        for simulator_cls in (ScenarioAgingSimulator, ExplicitScenarioSimulator):
            result = simulator_cls(scenario, stream_factory=factory, seed=0).run()
            duty = result.effective.duty_cycles
            assert np.all((duty >= 0.0) & (duty <= 1.0))

    def test_seed_reproducibility(self, factory):
        scenario = LifetimeScenario.from_spec(
            "custom_mnist:int8:dnn_life:3,lenet5:int8:dnn_life:3")
        first = ScenarioAgingSimulator(scenario, stream_factory=factory, seed=7).run()
        second = ScenarioAgingSimulator(scenario, stream_factory=factory, seed=7).run()
        other = ScenarioAgingSimulator(scenario, stream_factory=factory, seed=8).run()
        assert np.array_equal(first.effective.duty_cycles,
                              second.effective.duty_cycles)
        assert not np.array_equal(first.effective.duty_cycles,
                                  other.effective.duty_cycles)


class TestScenarioSemantics:
    def test_leveler_state_persists_across_phase_boundaries(self, factory,
                                                            geometry):
        # With a one-epoch start-gap shift, the second phase of a composite
        # timeline starts from the offset the first phase accumulated; a
        # fresh single-phase run of the same workload starts from identity.
        composite = LifetimeScenario.from_spec(
            "custom_mnist:int8:none:4,lenet5:int8:none:4")
        alone = LifetimeScenario.from_spec("lenet5:int8:none:4")
        leveler = make_leveler("start_gap", geometry, 4, interval=1)
        composite_result = ScenarioAgingSimulator(
            composite, stream_factory=factory, seed=0, leveler=leveler).run()
        alone_result = ScenarioAgingSimulator(
            alone, stream_factory=factory, seed=0,
            leveler=make_leveler("start_gap", geometry, 4, interval=1)).run()
        assert not np.array_equal(composite_result.phase_stress[1].duty,
                                  alone_result.phase_stress[0].duty)

    def test_policy_state_resets_at_phase_boundaries(self, factory):
        # Splitting an even-length inversion run in two must reproduce the
        # concatenation of two fresh runs, not one continued counter stream:
        # each 4-epoch phase starts at parity 0.
        split = LifetimeScenario.from_spec(
            "custom_mnist:int8:inversion:4,custom_mnist:int8:inversion:4")
        single = LifetimeScenario.from_spec("custom_mnist:int8:inversion:4")
        split_result = ScenarioAgingSimulator(split, stream_factory=factory,
                                              seed=0).run()
        single_result = ScenarioAgingSimulator(single, stream_factory=factory,
                                               seed=0).run()
        for stress in split_result.phase_stress:
            assert np.array_equal(stress.duty,
                                  single_result.phase_stress[0].duty)

    def test_idle_phase_holds_previous_duty_without_writes(self, factory):
        scenario = LifetimeScenario.from_spec(
            "custom_mnist:int8:inversion:4,idle:6@45C")
        result = ScenarioAgingSimulator(scenario, stream_factory=factory,
                                        seed=0).run()
        active, idle = result.phase_stress
        assert np.array_equal(idle.duty, active.duty)
        assert result.phase_results[1] is None

    def test_idle_at_same_temperature_preserves_effective_duty(self, factory):
        active_only = LifetimeScenario.from_spec("custom_mnist:int8:none:4")
        with_idle = LifetimeScenario.from_spec(
            "custom_mnist:int8:none:4,idle:4@85C")
        base = ScenarioAgingSimulator(active_only, stream_factory=factory,
                                      seed=0).run()
        idled = ScenarioAgingSimulator(with_idle, stream_factory=factory,
                                       seed=0).run()
        # Idle retention at the same duty and temperature changes nothing
        # about the effective duty-cycle (it holds the same expected values).
        assert np.allclose(idled.effective.duty_cycles,
                           base.effective.duty_cycles)
        assert idled.effective_years == pytest.approx(base.effective_years)

    def test_cool_phases_shrink_effective_years(self, factory):
        hot = LifetimeScenario.from_spec("custom_mnist:int8:none:4@85C")
        cool = LifetimeScenario.from_spec("custom_mnist:int8:none:4@45C")
        hot_result = ScenarioAgingSimulator(hot, stream_factory=factory, seed=0).run()
        cool_result = ScenarioAgingSimulator(cool, stream_factory=factory, seed=0).run()
        assert cool_result.effective_years < hot_result.effective_years
        assert hot_result.effective_years == pytest.approx(7.0)

    def test_mixed_word_widths_are_rejected_at_construction(self):
        with pytest.raises(ValueError, match="share one word width"):
            LifetimeScenario.from_spec(
                "custom_mnist:int8:none:2,custom_mnist:float32:none:2")

    def test_mixed_geometry_streams_are_rejected_by_the_engine(self, factory):
        # The engine-level geometry backstop still guards exotic factories:
        # same spec-level word width, different per-phase stream geometry.
        scenario = LifetimeScenario.from_spec(
            "custom_mnist:int8:none:2,lenet5:int8:none:2")
        other = small_factory(memory_kb=8)

        def mixed_factory(phase):
            return (factory if phase.network == "custom_mnist" else other)(phase)

        with pytest.raises(ValueError, match="geometry"):
            ScenarioAgingSimulator(scenario, stream_factory=mixed_factory,
                                   seed=0).run()

    def test_leveler_row_mismatch_is_rejected(self, factory):
        from repro.memory.geometry import MemoryGeometry

        scenario = LifetimeScenario.from_spec("custom_mnist:int8:none:2")
        wrong = make_leveler("rotation", MemoryGeometry(capacity_bytes=2 * KB,
                                                        word_bits=8), 1)
        with pytest.raises(ValueError, match="leveler covers"):
            ScenarioAgingSimulator(scenario, stream_factory=factory, seed=0,
                                   leveler=wrong).run()


# --------------------------------------------------------------------------- #
# Result container
# --------------------------------------------------------------------------- #
class TestScenarioResult:
    @pytest.fixture(scope="class")
    def result(self):
        factory = small_factory()
        scenario = LifetimeScenario.from_spec(DUTY_CYCLE_SPEC)
        return ScenarioAgingSimulator(scenario, stream_factory=factory,
                                      seed=0).run()

    def test_summary_structure(self, result):
        summary = result.summary()
        assert summary["engine"] == "packed"
        assert summary["wall_years"] == pytest.approx(7.0)
        assert summary["effective_years"] == pytest.approx(result.effective.years)
        assert len(summary["phases"]) == 3
        kinds = [row["kind"] for row in summary["phases"]]
        assert kinds == ["active", "idle", "active"]
        assert summary["effective"]["policy"] == "scenario"

    def test_payload_round_trip(self, result):
        import json

        payload = json.loads(json.dumps(result.to_payload()))
        rebuilt = ScenarioResult.from_payload(payload)
        assert np.array_equal(rebuilt.effective.duty_cycles,
                              result.effective.duty_cycles)
        assert rebuilt.effective.years == result.effective.years
        assert rebuilt.wall_years == result.wall_years
        assert rebuilt.scaling == result.scaling
        for original, restored in zip(result.phase_stress, rebuilt.phase_stress):
            assert np.array_equal(original.duty, restored.duty)
            assert original.years == restored.years
            assert original.temperature_c == restored.temperature_c

    def test_effective_result_feeds_existing_consumers(self, result):
        percentages, edges, labels = result.effective.histogram()
        assert pytest.approx(sum(percentages)) == 100.0
        assert len(labels) == len(percentages)
        stats = result.effective.duty_cycle_statistics()
        assert 0.0 <= stats["mean"] <= 1.0

    def test_default_histogram_edges_span_the_effective_years(self, result):
        from repro.aging.snm import default_degradation_bins

        effective = result.effective
        assert abs(effective.years - 7.0) > 0.5
        _, edges, _ = effective.histogram()
        degradation = effective.snm_degradation()
        assert edges[0] <= degradation.min() and degradation.max() <= edges[-1]
        assert np.array_equal(
            edges, default_degradation_bins(effective.snm_model, years=effective.years))

    def test_phase_and_effective_results_carry_no_class_table(self):
        # the fleet drives this path hundreds of times per run and never
        # post-processes the results, so no table may be built up front
        result = ScenarioAgingSimulator(LifetimeScenario.from_spec(DUTY_CYCLE_SPEC),
                                        stream_factory=small_factory(), seed=0).run()
        assert result.effective._cell_classes is None
        assert all(phase._cell_classes is None
                   for phase in result.phase_results if phase is not None)


# --------------------------------------------------------------------------- #
# Lifetime estimation over phase timelines
# --------------------------------------------------------------------------- #
class TestLifetimePhases:
    def test_degenerate_matches_single_stream_estimate(self):
        duty = np.linspace(0.1, 0.9, 9)
        estimator = LifetimeEstimator()
        classic = estimator.memory_lifetime_years(duty)
        phased = estimator.memory_lifetime_years_phases(
            [PhaseStress(duty, years=7.0, temperature_c=85.0)])
        assert phased == pytest.approx(classic)

    def test_cool_corner_extends_wall_clock_lifetime(self):
        duty = np.linspace(0.1, 0.9, 9)
        estimator = LifetimeEstimator()
        hot = estimator.memory_lifetime_years_phases(
            [PhaseStress(duty, years=7.0, temperature_c=85.0)])
        mixed = estimator.memory_lifetime_years_phases(
            [PhaseStress(duty, years=3.5, temperature_c=85.0),
             PhaseStress(duty, years=3.5, temperature_c=45.0)])
        assert mixed > hot


# --------------------------------------------------------------------------- #
# DnnLife framework integration
# --------------------------------------------------------------------------- #
class TestDnnLifeScenario:
    @pytest.fixture()
    def framework(self):
        from repro.core.framework import DnnLife

        config = replace(baseline_config(), name="test_dnnlife_scenario",
                         weight_memory_bytes=4 * KB,
                         weight_fifo_depth_tiles=4)
        network = attach_synthetic_weights(build_model("custom_mnist"), seed=0)
        scenario = LifetimeScenario.from_spec(
            "custom_mnist:int8:inversion:3,idle:2@45C,custom_mnist:int8:none:3@45C")
        return DnnLife(network, accelerator=BaselineAccelerator(config=config),
                       num_inferences=3, seed=0, scenario=scenario)

    def test_simulate_routes_to_scenario(self, framework):
        result = framework.simulate()
        assert result.policy_name == "scenario"
        assert "scenario" in result.policy_description

    def test_simulate_with_policy_is_rejected(self, framework):
        with pytest.raises(ValueError, match="carry their own"):
            framework.simulate("inversion")

    def test_explicit_engine_agrees(self, framework):
        packed = framework.simulate_scenario()
        explicit = framework.simulate_scenario(engine="explicit")
        assert np.array_equal(packed.effective.duty_cycles,
                              explicit.effective.duty_cycles)

    def test_unknown_engine_rejected(self, framework):
        with pytest.raises(ValueError, match="unknown scenario engine"):
            framework.simulate_scenario(engine="warp")

    def test_describe_includes_scenario(self, framework):
        assert framework.describe()["scenario"]["num_phases"] == 3

    def test_missing_scenario_is_rejected(self):
        from repro.core.framework import DnnLife

        network = attach_synthetic_weights(build_model("custom_mnist"), seed=0)
        framework = DnnLife(network, num_inferences=2)
        with pytest.raises(ValueError, match="no scenario"):
            framework.simulate_scenario()


# --------------------------------------------------------------------------- #
# Registered experiment
# --------------------------------------------------------------------------- #
class TestScenarioExperiment:
    SMALL = ("custom_mnist:int8:inversion:3@85C,idle:2@45C,"
             "custom_mnist:int8:none:3@45C")

    def test_registered_with_affinity(self):
        from repro.orchestration import REGISTRY, load_all_experiments

        load_all_experiments()
        spec = REGISTRY.get("scenario")
        assert "sweep" in spec.tags
        assert set(spec.affinity) == {"weight_memory_kb", "fifo_depth_tiles",
                                      "quick", "seed"}

    def test_run_experiment_payload(self):
        from repro.orchestration import run_experiment

        run = run_experiment("scenario", {"spec": self.SMALL,
                                          "weight_memory_kb": 4,
                                          "fifo_depth_tiles": 4})
        payload = run.payload
        assert payload["workload"]["spec"] == self.SMALL
        assert len(payload["phases"]) == 3
        assert payload["effective"]["acceleration"] < 1.0  # cool phases
        assert payload["lifetime"]["memory_lifetime_years"] > 0
        # cool corners must extend lifetime over the single-corner estimate
        assert (payload["lifetime"]["memory_lifetime_years"]
                > payload["lifetime"]["single_corner_lifetime_years"])

    def test_renderer_output(self):
        from repro.orchestration import render_experiment, run_experiment

        run = run_experiment("scenario", {"spec": self.SMALL,
                                          "weight_memory_kb": 4,
                                          "fifo_depth_tiles": 4})
        text = render_experiment(run)
        assert "effective stress histogram" in text
        assert "memory lifetime" in text
        assert "idle" in text

    def test_schema_rejects_bad_spec_and_durations(self):
        from repro.orchestration import REGISTRY, load_all_experiments

        load_all_experiments()
        spec = REGISTRY.get("scenario")
        with pytest.raises(ValueError, match="unknown network"):
            spec.resolve({"spec": "bogus:int8:none:5"})
        with pytest.raises(ValueError, match="duration must be > 0"):
            spec.resolve({"spec": "lenet5:int8:none:0"})
        with pytest.raises(ValueError, match="must be > 0"):
            spec.resolve({"years": -1.0})

    def test_leveling_variant_runs(self):
        from repro.orchestration import run_experiment

        run = run_experiment("scenario", {"spec": self.SMALL,
                                          "weight_memory_kb": 4,
                                          "fifo_depth_tiles": 4,
                                          "leveling": "wear_swap"})
        assert run.payload["leveler"]["leveler"] == "wear_swap"


class TestSeedAndScaleHandling:
    def test_seed_value_distinguishes_seed_sequences(self):
        from repro.utils.rng import seed_value

        first = seed_value(np.random.SeedSequence(5))
        second = seed_value(np.random.SeedSequence(7))
        assert first != second
        assert first == seed_value(np.random.SeedSequence(5))  # pure
        assert seed_value(np.int64(9)) == 9
        assert seed_value(None) == 0

    @pytest.mark.parametrize("make_seed", [
        lambda: 3,
        lambda: np.random.SeedSequence(9),
        lambda: np.random.default_rng(4),
    ], ids=["int", "seed_sequence", "generator"])
    def test_scenario_phase_streams_the_seed_value_weights(self, monkeypatch, make_seed):
        """A ``DnnLife`` scenario phase draws its weights under ``seed_value(seed)``."""
        from repro.core.framework import DnnLife
        from repro.experiments import aging_runner
        from repro.experiments.common import reduce_network
        from repro.utils.rng import seed_value

        monkeypatch.setenv("DNN_LIFE_STREAM_CACHE", "0")
        monkeypatch.setenv("DNN_LIFE_STREAM_STORE", "0")
        streamed = []

        def spy(network, seed=0, **kwargs):
            network = attach_synthetic_weights(network, seed=seed, **kwargs)
            streamed.append(network.flat_weights())
            return network

        monkeypatch.setattr(aging_runner, "attach_synthetic_weights", spy)
        config = replace(baseline_config(), name="test_scenario_seed",
                         weight_memory_bytes=4 * KB, weight_fifo_depth_tiles=4)
        scale = ExperimentScale(num_inferences=2, max_weights_per_layer=1_000)
        seed = make_seed()
        framework = DnnLife(build_model("custom_mnist"),
                            accelerator=BaselineAccelerator(config=config),
                            num_inferences=2, seed=seed,
                            scenario=LifetimeScenario.from_spec("custom_mnist:int8:none:2"))
        framework.simulate_scenario(scale=scale)
        expected = attach_synthetic_weights(
            reduce_network(build_model("custom_mnist"), scale.max_weights_per_layer),
            seed=seed_value(make_seed())).flat_weights()
        assert len(streamed) == 1
        assert np.array_equal(streamed[0], expected)

    def test_simulate_scenario_accepts_explicit_scale(self):
        from repro.core.framework import DnnLife
        from repro.experiments.common import ExperimentScale

        config = replace(baseline_config(), name="test_scenario_scale",
                         weight_memory_bytes=4 * KB, weight_fifo_depth_tiles=4)
        network = attach_synthetic_weights(build_model("custom_mnist"), seed=0)
        framework = DnnLife(network, accelerator=BaselineAccelerator(config=config),
                            num_inferences=2,
                            scenario=LifetimeScenario.from_spec(
                                "custom_mnist:int8:none:2"))
        capped = framework.simulate_scenario(
            scale=ExperimentScale(num_inferences=2, max_weights_per_layer=1_000))
        full = framework.simulate_scenario(
            scale=ExperimentScale(num_inferences=2, max_weights_per_layer=None))
        # the capped stream carries fewer blocks than the full network
        assert capped.effective.num_blocks < full.effective.num_blocks


class TestRoundThreeRegressions:
    def test_idle_first_spec_is_schema_error(self, capsys):
        from repro.cli import main

        assert main(["scenario", "--spec", "idle:5@45C"]) == 2
        err = capsys.readouterr().err.strip()
        assert "cannot start with an idle phase" in err
        assert "Traceback" not in err

    def test_payload_round_trip_preserves_phase_kinds(self):
        import json

        factory = small_factory()
        scenario = LifetimeScenario.from_spec(DUTY_CYCLE_SPEC)
        result = ScenarioAgingSimulator(scenario, stream_factory=factory,
                                        seed=0).run()
        rebuilt = ScenarioResult.from_payload(
            json.loads(json.dumps(result.to_payload())))
        assert ([row["kind"] for row in rebuilt.phase_rows()]
                == ["active", "idle", "active"])
        assert (rebuilt.summary()["phases"][0]["num_inferences"]
                == result.summary()["phases"][0]["num_inferences"])

    def test_subnormal_weights_quantize_without_error(self):
        from repro.quantization.linear import AsymmetricQuantizer, SymmetricQuantizer

        values = np.array([5e-324])
        for quantizer in (AsymmetricQuantizer(8), SymmetricQuantizer(8)):
            levels, params = quantizer.quantize(values)
            assert params.qmin <= levels.min() <= levels.max() <= params.qmax

    def test_bare_at_sign_is_rejected(self):
        with pytest.raises(ValueError, match="'@' must be followed"):
            parse_scenario_spec("lenet5:int8:none:5@")

    def test_idle_phase_errors_name_their_token(self):
        with pytest.raises(ValueError, match="phase 'idle:2@-400C'"):
            parse_scenario_spec("lenet5:int8:none:5,idle:2@-400C")

    def test_nan_weights_do_not_poison_quantization(self):
        from repro.quantization.linear import (
            compute_asymmetric_params,
            compute_symmetric_params,
            quantize_with_params,
        )

        # NaN entries are excluded from the range; finite weights still
        # quantize correctly, and all-NaN tensors get the unit-scale fallback.
        for values in (np.array([np.nan, 1.0]), np.array([np.nan])):
            for params in (compute_symmetric_params(values),
                           compute_asymmetric_params(values)):
                assert np.isfinite(params.scale) and params.scale > 0
                levels = quantize_with_params(np.array([1.0]), params)
                assert params.qmin <= levels[0] <= params.qmax

    def test_validator_errors_name_the_parameter(self, capsys):
        from repro.cli import main

        assert main(["scenario", "--rotation-step", "-1"]) == 2
        assert "parameter 'rotation_step'" in capsys.readouterr().err

    def test_inf_weights_do_not_poison_quantization_range(self):
        from repro.quantization.linear import (
            compute_asymmetric_params,
            dequantize_with_params,
            quantize_with_params,
        )

        params = compute_asymmetric_params(np.array([-5.0, 3.0, np.inf]))
        levels = quantize_with_params(np.array([3.0]), params)
        assert dequantize_with_params(levels, params)[0] == pytest.approx(3.0, abs=0.05)

    def test_nan_and_inf_scenario_inputs_are_rejected(self, capsys):
        from repro.cli import main

        for argv in (["scenario", "--spec", "custom_mnist:int8:none:3@nanC"],
                     ["scenario", "--spec", "custom_mnist:int8:none:3@infC"],
                     ["scenario", "--years", "nan"],
                     ["scenario", "--reference-temp", "nan"]):
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert "dnn-life: error:" in err
            assert "Traceback" not in err

    def test_compare_policies_rejects_scenario_configuration_clearly(self):
        from repro.core.framework import DnnLife

        network = attach_synthetic_weights(build_model("custom_mnist"), seed=0)
        framework = DnnLife(network, num_inferences=2,
                            scenario=LifetimeScenario.from_spec(
                                "custom_mnist:int8:none:2"))
        with pytest.raises(ValueError, match="without a scenario"):
            framework.compare_policies()

    def test_stress_star_import_exposes_timeline(self):
        import repro.aging.stress as stress

        assert "StressTimeline" in stress.__all__

    def test_quantize_rejects_nan_values_loudly(self):
        from repro.quantization.linear import (
            compute_asymmetric_params,
            quantize_with_params,
        )

        params = compute_asymmetric_params(np.array([0.5, -1.0]))
        with pytest.raises(ValueError, match="cannot quantize NaN"):
            quantize_with_params(np.array([0.5, np.nan, -1.0]), params)

    def test_scenario_validates_reference_temperature(self):
        with pytest.raises(ValueError, match="reference_temperature_c"):
            LifetimeScenario.from_spec("custom_mnist:int8:none:2",
                                       reference_temperature_c=float("nan"))

    def test_idle_duty_is_deduplicated_in_payload(self):
        import json

        factory = small_factory()
        scenario = LifetimeScenario.from_spec(
            "custom_mnist:int8:none:3,idle:2@45C,idle:2@25C")
        result = ScenarioAgingSimulator(scenario, stream_factory=factory,
                                        seed=0).run()
        payload = result.to_payload()
        assert "duty" not in payload["phase_stress"][1]
        assert payload["phase_stress"][1]["duty_ref"] == 0
        assert payload["phase_stress"][2]["duty_ref"] == 0
        rebuilt = ScenarioResult.from_payload(json.loads(json.dumps(payload)))
        assert np.array_equal(rebuilt.phase_stress[1].duty,
                              rebuilt.phase_stress[0].duty)
        assert np.array_equal(rebuilt.effective.duty_cycles,
                              result.effective.duty_cycles)

    def test_mixed_width_spec_is_one_line_cli_error(self, capsys):
        from repro.cli import main

        assert main(["scenario", "--spec",
                     "lenet5:int8:none:2,lenet5:fp32:none:2"]) == 2
        err = capsys.readouterr().err.strip()
        assert "share one word width" in err
        assert "\n" not in err
