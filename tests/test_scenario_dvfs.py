"""DVFS scenario battery: cross-engine equivalence + golden regressions.

The two acceptance criteria of the operating-point layer:

* :class:`ScenarioAgingSimulator` and :class:`ExplicitScenarioSimulator` are
  bit-identical for deterministic policies across DVFS scenarios — per-phase
  and effective duty-cycles *and* the idle retention reports built from the
  exact last-written value of every cell — with and without wear levelers;
* a scenario pinned to the reference operating point reproduces the PR-4
  lifetime numbers exactly: the golden values below were computed at the
  pre-DVFS HEAD (commit ``19c8ed1``) and the effective
  :class:`~repro.core.simulation.AgingResult` payloads must stay
  byte-identical to them.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from repro.accelerator.baseline import BaselineAccelerator
from repro.accelerator.config import baseline_config
from repro.core.policies import make_policy
from repro.core.simulation import AgingSimulator, replay_inference
from repro.experiments.common import ExperimentScale
from repro.leveling import make_leveler
from repro.scenario import (
    ExplicitScenarioSimulator,
    LifetimeScenario,
    Phase,
    ScenarioAgingSimulator,
    ScenarioResult,
)
from repro.scenario.driver import scenario_stream_factory
from repro.utils.units import KB

#: Operating-point mixes exercising voltage-only, frequency-only and combined
#: suffixes, low-voltage idle corners, and every deterministic policy.
DVFS_SPECS = {
    "throttle_mix": ("custom_mnist:int8:inversion:4@85C@0.8V:0.5GHz,"
                     "idle:3@45C@0.62V:0.1GHz,"
                     "lenet5:int8:none:4@45C@0.95V:1.2GHz"),
    "sleepy_edge": ("custom_mnist:int8:barrel_shifter:5@85C@0.72V:0.8GHz,"
                    "idle:2@25C@0.6V:0.05GHz,"
                    "custom_mnist:int8:inversion_per_location:4@25C,"
                    "idle:2@45C@0.7V:0.2GHz"),
    "dvfs_retention": ("custom_mnist:int8:inversion:4@85C@0.8V:0.5GHz,"
                       "idle:3@45C@0.62V:0.1GHz,"
                       "lenet5:int8:barrel_shifter:4@45C@0.95V:1.2GHz"),
}


def small_factory(memory_kb=4, fifo_depth_tiles=4, seed=0):
    config = replace(baseline_config(), name="test_scenario_dvfs",
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


def _levelers(geometry):
    return {
        "none": lambda: None,
        "rotation": lambda: make_leveler("rotation", geometry, 4, period=3),
        "start_gap": lambda: make_leveler("start_gap", geometry, 4, interval=2),
        "wear_swap": lambda: make_leveler("wear_swap", geometry, 4, interval=2,
                                          swap_fraction=0.25),
    }


# --------------------------------------------------------------------------- #
# Cross-engine bit-identity under DVFS
# --------------------------------------------------------------------------- #
class TestDvfsEngineEquivalence:
    @pytest.mark.parametrize("spec_name", sorted(DVFS_SPECS))
    @pytest.mark.parametrize("leveler_name", ["none", "rotation", "start_gap",
                                              "wear_swap"])
    def test_packed_matches_explicit_bit_for_bit(self, factory, geometry,
                                                 spec_name, leveler_name):
        scenario = LifetimeScenario.from_spec(DVFS_SPECS[spec_name])
        build = _levelers(geometry)[leveler_name]
        packed = ScenarioAgingSimulator(scenario, stream_factory=factory,
                                        seed=0, leveler=build()).run()
        explicit = ExplicitScenarioSimulator(scenario, stream_factory=factory,
                                             seed=0, leveler=build()).run()
        assert np.array_equal(packed.effective.duty_cycles,
                              explicit.effective.duty_cycles)
        for fast, exact in zip(packed.phase_stress, explicit.phase_stress):
            assert np.array_equal(fast.duty, exact.duty)
            assert fast.voltage_v == exact.voltage_v
        assert packed.effective_years == explicit.effective_years
        # the retention reports are derived from the exact last-written
        # value of every physical cell — they must agree to the last float
        assert packed.phase_retention == explicit.phase_retention
        assert any(entry is not None for entry in packed.phase_retention)

    @pytest.mark.parametrize("policy", ["none", "inversion",
                                        "inversion_per_location",
                                        "barrel_shifter"])
    def test_held_bits_match_explicit_replay(self, factory, policy):
        # the packed engine's closed-form last-written values equal a direct
        # write-by-write replay of the same phase
        scenario = LifetimeScenario.from_spec(
            f"custom_mnist:int8:{policy}:5@85C@0.8V:0.5GHz,idle:2@45C@0.62V:0.1GHz")
        engine = ScenarioAgingSimulator(scenario, stream_factory=factory, seed=0)
        engine.run()
        stream = factory(scenario.phases[0])
        rows, word_bits = stream.geometry.rows, stream.geometry.word_bits
        replayed = make_policy(policy, word_bits, seed=0)
        replayed.reset()
        ones = np.zeros((rows, word_bits))
        writes = np.zeros(rows)
        stored = np.full((rows, word_bits), np.nan)
        for _ in range(5):
            replay_inference(stream, replayed, ones, writes, stored=stored)
        written = np.isfinite(stored).all(axis=1)
        assert np.array_equal(engine._held[written], stored[written])

    def test_stochastic_policy_runs_with_retention_on_both_engines(self, factory):
        scenario = LifetimeScenario.from_spec(
            "custom_mnist:int8:dnn_life:3@85C@0.8V:0.5GHz,idle:2@45C@0.65V:0.1GHz")
        for simulator_cls in (ScenarioAgingSimulator, ExplicitScenarioSimulator):
            result = simulator_cls(scenario, stream_factory=factory, seed=0).run()
            retention = result.phase_retention[1]
            assert retention is not None
            assert 0.0 <= retention["failure_probability_mean"] <= 1.0


# --------------------------------------------------------------------------- #
# Golden regressions: reference-point scenarios == PR-4 numbers, byte for byte
# --------------------------------------------------------------------------- #
class TestGoldenReferencePoint:
    #: (spec, effective AgingResult payload sha256, duty-matrix sha256,
    #:  exact effective years) — computed at the pre-DVFS HEAD (19c8ed1).
    GOLDEN = {
        "model_swap": (
            "custom_mnist:int8:inversion:4@85C,lenet5:int8:none:4@45C,"
            "lenet5:int8:inversion_per_location:3@85C",
            "961f1577980a1e6606717d2b93aff33012c74a916dd777809ec794ffd6a061c8",
            "b401a3edd3dea5080c146af9e3238a7e594fa7203912a506d9179c6a49b66d38",
            4.675473684222417),
        "idle_mix": (
            "custom_mnist:int8:barrel_shifter:5@85C,idle:3@45C,"
            "custom_mnist:int8:inversion:4@25C",
            "73543a659af2c602f6ec8051684b324b9827e7bfff9f36208a0089cb9a654fba",
            "149adbad16938ba93536bb0d7cc730367d3122d29f466d39ca4ae4daf64a2ee3",
            3.1152095361862115),
        "single": (
            "custom_mnist:int8:inversion:5",
            "5f1b3e319f35301cf340d0099fab3c3fbdc15134ea2fd89999e8c5ffd9dddcfc",
            "1c203647ace0b96df696a4f936137e71e1b226573d78439e166bc6c78e4add30",
            7.0),
    }

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_aging_result_payload_is_byte_identical_to_pr4(self, factory, name):
        spec, payload_sha, duty_sha, years = self.GOLDEN[name]
        result = ScenarioAgingSimulator(LifetimeScenario.from_spec(spec),
                                        stream_factory=factory, seed=0).run()
        blob = json.dumps(result.effective.to_payload(), sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == payload_sha
        duty = np.ascontiguousarray(result.effective.duty_cycles)
        assert hashlib.sha256(duty.tobytes()).hexdigest() == duty_sha
        assert result.effective_years == years

    def test_explicit_reference_point_pins_are_no_ops(self, factory):
        # pinning every phase to the reference corner explicitly must yield
        # the same duty and years as omitting the points entirely
        plain = LifetimeScenario.from_spec(self.GOLDEN["idle_mix"][0])
        pinned = LifetimeScenario.from_spec(
            "custom_mnist:int8:barrel_shifter:5@85C@0.9V:1GHz,"
            "idle:3@45C@0.9V:1GHz,custom_mnist:int8:inversion:4@25C@0.9V:1GHz")
        plain_result = ScenarioAgingSimulator(plain, stream_factory=factory,
                                              seed=0).run()
        pinned_result = ScenarioAgingSimulator(pinned, stream_factory=factory,
                                               seed=0).run()
        assert np.array_equal(plain_result.effective.duty_cycles,
                              pinned_result.effective.duty_cycles)
        assert plain_result.effective_years == pinned_result.effective_years


# --------------------------------------------------------------------------- #
# Frequency → wall-clock mapping
# --------------------------------------------------------------------------- #
class TestFrequencyMapping:
    def test_throttled_phase_spans_more_wall_clock(self):
        scenario = LifetimeScenario.from_spec(
            "lenet5:int8:none:10@85C@0.9V:0.5GHz,lenet5:int8:none:10@85C",
            years=6.0)
        slow, fast = scenario.phase_years()
        # 10 epochs at half clock span twice the wall time of 10 at reference
        assert slow == pytest.approx(4.0)
        assert fast == pytest.approx(2.0)

    def test_reference_frequency_reproduces_duration_shares_exactly(self):
        scenario = LifetimeScenario.from_spec(
            "lenet5:int8:none:6,idle:2,lenet5:int8:none:4", years=6.0)
        assert scenario.phase_years() == [3.0, 1.0, 2.0]

    def test_uniform_throttle_changes_nothing(self):
        # scaling every phase's clock equally cancels in the normalisation
        scenario = LifetimeScenario.from_spec(
            "lenet5:int8:none:6@85C@0.9V:0.5GHz,idle:2@85C@0.9V:0.5GHz",
            years=4.0)
        reference = LifetimeScenario.from_spec(
            "lenet5:int8:none:6,idle:2", years=4.0)
        assert scenario.phase_years() == pytest.approx(reference.phase_years())

    def test_default_operating_point_respects_explicit_pins(self):
        scenario = LifetimeScenario.from_spec(
            "lenet5:int8:none:4@85C@0.8V:0.25GHz,idle:4")
        repinned = scenario.with_default_operating_point(0.72, 0.5)
        assert repinned.phases[0].voltage_v == 0.8  # explicit pin kept
        assert repinned.phases[1].voltage_v == 0.72
        assert repinned.phases[1].frequency_ghz == 0.5

    def test_default_operating_point_at_reference_is_identity(self):
        scenario = LifetimeScenario.from_spec("lenet5:int8:none:4,idle:4")
        assert scenario.with_default_operating_point(0.9, 1.0) is scenario


# --------------------------------------------------------------------------- #
# Voltage → aging acceleration through the whole stack
# --------------------------------------------------------------------------- #
class TestVoltageAging:
    def test_undervolted_timeline_ages_slower(self, factory):
        base = "custom_mnist:int8:none:4@85C"
        low = ScenarioAgingSimulator(
            LifetimeScenario.from_spec(f"{base}@0.72V:1GHz"),
            stream_factory=factory, seed=0).run()
        ref = ScenarioAgingSimulator(
            LifetimeScenario.from_spec(base), stream_factory=factory,
            seed=0).run()
        high = ScenarioAgingSimulator(
            LifetimeScenario.from_spec(f"{base}@1.0V:1GHz"),
            stream_factory=factory, seed=0).run()
        assert low.effective_years < ref.effective_years < high.effective_years
        assert ref.effective_years == 7.0
        # duty is a write-stream property — voltage must not touch it
        assert np.array_equal(low.effective.duty_cycles,
                              ref.effective.duty_cycles)

    def test_lifetime_estimator_sees_voltage_through_phase_stress(self, factory):
        from repro.aging.lifetime import LifetimeEstimator

        scenario = LifetimeScenario.from_spec("custom_mnist:int8:none:4@85C")
        result = ScenarioAgingSimulator(scenario, stream_factory=factory,
                                        seed=0).run()
        estimator = LifetimeEstimator(snm_model=result.effective.snm_model)
        reference = estimator.memory_lifetime_years_phases(
            result.phase_stress, scaling=result.scaling)
        undervolted = [replace(stress) for stress in result.phase_stress]
        for stress in undervolted:
            stress.voltage_v = 0.72
        longer = estimator.memory_lifetime_years_phases(
            undervolted, scaling=result.scaling)
        assert longer > reference

    def test_payload_round_trip_preserves_operating_points(self, factory):
        scenario = LifetimeScenario.from_spec(DVFS_SPECS["throttle_mix"])
        result = ScenarioAgingSimulator(scenario, stream_factory=factory,
                                        seed=0).run()
        rebuilt = ScenarioResult.from_payload(
            json.loads(json.dumps(result.to_payload())))
        for original, restored in zip(result.phase_stress, rebuilt.phase_stress):
            assert original.voltage_v == restored.voltage_v
        assert rebuilt.phase_retention == result.phase_retention
        assert rebuilt.scaling == result.scaling
        rows = rebuilt.phase_rows()
        assert any("retention" in row for row in rows)


# --------------------------------------------------------------------------- #
# Retention semantics
# --------------------------------------------------------------------------- #
class TestRetentionSemantics:
    def test_low_voltage_idle_is_riskier_than_nominal(self, factory):
        def idle_retention(idle_suffix):
            scenario = LifetimeScenario.from_spec(
                f"custom_mnist:int8:inversion:4@85C,idle:3@45C{idle_suffix}")
            result = ScenarioAgingSimulator(scenario, stream_factory=factory,
                                            seed=0).run()
            return result.phase_retention[1]

        nominal = idle_retention("")
        low = idle_retention("@0.62V:0.1GHz")
        assert low["failure_probability_mean"] > nominal["failure_probability_mean"]
        assert nominal["failure_probability_mean"] < 1e-3
        # a 0.62 V idle is unsafe for aged data: most held cells flip
        assert low["failure_probability_mean"] > 0.5

    def test_retention_tracks_all_written_cells(self, factory, geometry):
        scenario = LifetimeScenario.from_spec(
            "custom_mnist:int8:none:3,idle:2@45C@0.7V:0.5GHz")
        result = ScenarioAgingSimulator(scenario, stream_factory=factory,
                                        seed=0).run()
        retention = result.phase_retention[1]
        assert retention["cells_tracked"] == geometry.rows * geometry.word_bits

    def test_consecutive_idles_report_independently(self, factory):
        scenario = LifetimeScenario.from_spec(
            "custom_mnist:int8:none:3,idle:2@45C@0.7V:0.5GHz,"
            "idle:2@45C@0.62V:0.1GHz")
        result = ScenarioAgingSimulator(scenario, stream_factory=factory,
                                        seed=0).run()
        first, second = result.phase_retention[1], result.phase_retention[2]
        assert first["operating_point"]["voltage_v"] == 0.7
        assert second["operating_point"]["voltage_v"] == 0.62
        assert (second["failure_probability_mean"]
                > first["failure_probability_mean"])

    def test_active_phases_report_no_retention(self, factory):
        scenario = LifetimeScenario.from_spec(
            "custom_mnist:int8:none:3,idle:2,custom_mnist:int8:none:3")
        result = ScenarioAgingSimulator(scenario, stream_factory=factory,
                                        seed=0).run()
        assert result.phase_retention[0] is None
        assert result.phase_retention[2] is None
        assert result.phase_retention[1] is not None

    def test_degenerate_single_phase_equals_classic_simulator(self, factory):
        # the held-bits tracking must not perturb the counts path
        scenario = LifetimeScenario.from_spec("custom_mnist:int8:barrel_shifter:5")
        result = ScenarioAgingSimulator(scenario, stream_factory=factory,
                                        seed=0).run()
        stream = factory(scenario.phases[0])
        classic = AgingSimulator(stream, make_policy("barrel_shifter", 8, seed=0),
                                 num_inferences=5, seed=0).run()
        assert np.array_equal(result.effective.duty_cycles, classic.duty_cycles)


# --------------------------------------------------------------------------- #
# Experiment + CLI integration
# --------------------------------------------------------------------------- #
class TestDvfsExperiment:
    SPEC = ("custom_mnist:int8:inversion:3@85C@0.8V:0.5GHz,"
            "idle:2@45C@0.65V:0.1GHz,custom_mnist:int8:none:3@45C")

    def test_voltage_axis_changes_acceleration(self):
        from repro.orchestration import run_experiment

        base = {"spec": "custom_mnist:int8:none:3,idle:2",
                "weight_memory_kb": 4, "fifo_depth_tiles": 4}
        low = run_experiment("scenario", {**base, "voltage_v": 0.72})
        ref = run_experiment("scenario", base)
        assert (low.payload["effective"]["acceleration"]
                < ref.payload["effective"]["acceleration"])

    def test_frequency_axis_reshapes_wall_clock(self):
        from repro.orchestration import run_experiment

        run = run_experiment("scenario",
                             {"spec": "custom_mnist:int8:none:3,idle:3",
                              "weight_memory_kb": 4, "fifo_depth_tiles": 4,
                              "frequency_ghz": 0.5})
        # a uniform default frequency cancels in the normalisation
        years = [row["years"] for row in run.payload["phases"]]
        assert years[0] == pytest.approx(years[1])

    def test_payload_carries_wear_and_retention_sections(self):
        from repro.orchestration import run_experiment

        run = run_experiment("scenario", {"spec": self.SPEC,
                                          "weight_memory_kb": 4,
                                          "fifo_depth_tiles": 4})
        wear = run.payload["wear"]
        assert wear["num_regions"] == 4
        assert len(wear["timeline"]) == 3
        assert wear["per_phase"][1] is None  # idle holds previous wear
        assert wear["per_phase"][0]["render"].startswith("Wear map")
        idle_row = run.payload["phases"][1]
        assert idle_row["retention"]["operating_point"]["voltage_v"] == 0.65

    def test_renderer_shows_timeline_wear_and_retention(self):
        from repro.orchestration import render_experiment, run_experiment

        run = run_experiment("scenario", {"spec": self.SPEC,
                                          "weight_memory_kb": 4,
                                          "fifo_depth_tiles": 4})
        text = render_experiment(run)
        assert "region imbalance timeline" in text
        assert "Wear map" in text
        assert "retention @0.65V" in text
        assert "effective stress histogram" in text

    def test_cli_dvfs_spec_smoke(self, capsys):
        from repro.cli import main

        assert main(["--no-cache", "scenario", "--spec", self.SPEC,
                     "--memory-kb", "4", "--fifo-depth-tiles", "4"]) == 0
        out = capsys.readouterr().out
        assert "retention @0.65V" in out
        assert "region imbalance timeline" in out

    @pytest.mark.parametrize("argv,fragment", [
        (["scenario", "--spec", "custom_mnist:int8:none:3@0.7V:"],
         "invalid operating point"),
        (["scenario", "--spec", "custom_mnist:int8:none:3@1V:1GHz@2V:2GHz"],
         "multiple operating-point suffixes"),
        (["scenario", "--voltage", "-0.9"], "voltage_v"),
        (["sweep", "scenario", "--grid", "spec=;"], "has no values"),
    ])
    def test_usage_errors_are_one_line_exit_2(self, capsys, argv, fragment):
        from repro.cli import main

        assert main(argv) == 2
        err = capsys.readouterr().err.strip()
        assert fragment in err
        assert "Traceback" not in err
        assert "\n" not in err

    def test_multi_phase_spec_sweeps_through_escaped_axis(self, tmp_path):
        from repro.cli import main

        assert main(["--cache-dir", str(tmp_path), "sweep", "scenario",
                     "--grid",
                     "spec=;custom_mnist:int8:none:2,idle:2;custom_mnist:int8:inversion:2",
                     "--grid", "voltage_v=0.72,0.9",
                     "--grid", "weight_memory_kb=4",
                     "--grid", "fifo_depth_tiles=4",
                     "--workers", "1"]) == 0
