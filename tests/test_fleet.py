"""Fleet engine test battery: single-device equivalence + sampling determinism.

The fleet engine's acceptance contract (PR 6):

* a fleet of size 1 at the reference corner reproduces
  :class:`~repro.scenario.driver.ScenarioAgingSimulator`'s effective
  :class:`~repro.core.simulation.AgingResult` **byte for byte** — pinned as a
  golden sha over the sorted-JSON payload — and its failure-time composition
  exactly;
* an N-device cohort equals N independent scenario runs to tight tolerance
  across mitigation policies x wear levelers x operating corners (and
  *bitwise* when every device sits at the reference corner with degenerate
  spread distributions);
* sampling is deterministic: the same :class:`~repro.fleet.spec.FleetSpec`
  draws the same devices in any process, payloads round-trip exactly, and
  population quantiles are monotone in the quantile level and invariant
  under device permutation (hypothesis properties).
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
import repro.fleet.simulator as fleet_simulator
from repro.accelerator.baseline import BaselineAccelerator
from repro.accelerator.config import baseline_config
from repro.aging.nbti import ReactionDiffusionSnmModel
from repro.experiments.common import ExperimentScale
from repro.fleet import (
    DEFAULT_QUANTILES,
    FleetResult,
    FleetSample,
    FleetSimulator,
    FleetSpec,
    failure_times_from_scenario_result,
    format_corner_spec,
    format_mix_spec,
    parse_corner_spec,
    parse_mix_spec,
)
from repro.leveling import make_leveler
from repro.scenario import Phase, ScenarioAgingSimulator
from repro.scenario.driver import scenario_stream_factory
from repro.utils.units import KB

#: A DVFS-rich single-device timeline: hot active stretch, a low-voltage
#: idle retention window pinning its own operating point, a cool tail.
SINGLE_SPEC = ("custom_mnist:int8:inversion:4@85C,"
               "idle:3@45C@0.7V:0.2GHz,"
               "lenet5:int8:none:4@45C")

#: Golden sha256 of the sorted-JSON effective AgingResult payload of
#: ``SINGLE_SPEC`` at seed 5 under the module's 4 KB stream factory —
#: computed from a direct ScenarioAgingSimulator run at this PR's HEAD; the
#: size-1 fleet cohort must reproduce it byte for byte.
GOLDEN_SINGLE_SHA = "e6a8532b6b861fe75c0a0cbe3a178c17cfd2b131a5b116829161babea9c674ae"


def small_factory(memory_kb=4, fifo_depth_tiles=4, seed=0):
    config = replace(baseline_config(), name="test_fleet",
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


def payload_sha(payload) -> str:
    """sha256 over the canonical (sorted-key) JSON of a payload."""
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


def reference_failure_times(fleet: FleetSimulator, sample: FleetSample,
                            device: int):
    """The per-device reference path: one plain scenario run per device."""
    engine = ScenarioAgingSimulator(
        fleet.device_scenario(sample, device),
        stream_factory=fleet.stream_factory,
        seed=fleet.device_seed(sample, device),
        snm_model=fleet.snm_model,
        leveler=fleet.leveler,
        scaling=fleet.scaling,
        retention_model=fleet.retention_model)
    return failure_times_from_scenario_result(
        engine.run(), usage=float(sample.usage[device]),
        max_degradation_percent=fleet.max_degradation_percent,
        reference_years=fleet.reference_years)


def assert_times_close(result: FleetResult, device: int, reference,
                       rtol: float = 0.0):
    """Compare one device's fleet times against its reference composition."""
    for key, values in (("snm_years", result.snm_years),
                        ("retention_years", result.retention_years),
                        ("failure_years", result.failure_years)):
        fleet_value = float(values[device])
        ref_value = float(reference[key])
        if rtol == 0.0:
            assert fleet_value == ref_value, (
                f"device {device} {key}: fleet {fleet_value!r} "
                f"!= reference {ref_value!r}")
        else:
            np.testing.assert_allclose(fleet_value, ref_value, rtol=rtol,
                                       err_msg=f"device {device} {key}")
    assert str(result.modes[device]) == reference["mode"]


def assert_spread_cohort_matches_independent_runs(factory, geometry, policy,
                                                  leveler_name, snm_model=None):
    """An 8-device fleet over spread corners/sigmas == 8 scenario runs."""
    mix = (
        f"custom_mnist:int8:{policy}:4@85C,idle:2@45C@0.7V:0.2GHz",
        f"lenet5:int8:{policy}:3@45C@0.95V:1.2GHz,idle:2@25C@0.6V:0.1GHz",
    )
    levelers = {
        "none": lambda: None,
        "rotation": lambda: make_leveler("rotation", geometry, 4, period=3),
        "start_gap": lambda: make_leveler("start_gap", geometry, 4,
                                          interval=2),
        "wear_swap": lambda: make_leveler("wear_swap", geometry, 4,
                                          interval=2, swap_fraction=0.25),
    }
    spec = FleetSpec(
        num_devices=8, scenarios=mix,
        corners=((0.9, 1.0), (0.8, 0.5), (0.95, 1.2)),
        usage_sigma=0.25, thermal_sigma_c=4.0,
        seed_groups=2, seed=11)
    fleet = FleetSimulator(spec, stream_factory=factory, snm_model=snm_model,
                           leveler=levelers[leveler_name]())
    result = fleet.run()
    for device in range(spec.num_devices):
        reference = reference_failure_times(fleet, result.sample, device)
        assert_times_close(result, device, reference, rtol=1e-9)


# --------------------------------------------------------------------- #
# Single-device equivalence
# --------------------------------------------------------------------- #
class TestSingleDeviceEquivalence:
    def test_size1_fleet_reproduces_scenario_byte_for_byte(self, factory):
        spec = FleetSpec(num_devices=1, scenarios=(SINGLE_SPEC,), seed=5)
        fleet = FleetSimulator(spec, stream_factory=factory)
        result = fleet.run()

        direct = ScenarioAgingSimulator(
            spec.build_scenarios()[0], stream_factory=factory, seed=5,
            snm_model=fleet.snm_model, scaling=fleet.scaling,
            retention_model=fleet.retention_model).run()

        assert len(result.cohorts) == 1
        cohort_sha = payload_sha(result.cohorts[0]["effective"])
        assert cohort_sha == payload_sha(direct.effective.to_payload())
        assert cohort_sha == GOLDEN_SINGLE_SHA

        reference = failure_times_from_scenario_result(direct)
        assert_times_close(result, 0, reference, rtol=0.0)

    def test_reference_corner_fleet_is_bitwise_exact(self, factory):
        """Degenerate distributions at the reference corner: exact equality."""
        spec = FleetSpec(
            num_devices=6,
            scenarios=(SINGLE_SPEC, "lenet5:int8:barrel_shifter:5@85C,idle:2@45C"),
            seed_groups=2, seed=3)
        fleet = FleetSimulator(spec, stream_factory=factory)
        result = fleet.run()
        sample = result.sample
        assert np.all(sample.usage == 1.0)
        assert np.all(sample.temperature_offset_c == 0.0)
        for device in range(spec.num_devices):
            reference = reference_failure_times(fleet, sample, device)
            assert_times_close(result, device, reference, rtol=0.0)

    @pytest.mark.parametrize("policy,leveler_name", [
        ("none", "none"),
        ("inversion", "rotation"),
        ("inversion_per_location", "start_gap"),
        ("barrel_shifter", "wear_swap"),
        ("dnn_life", "none"),
    ])
    def test_cohort_matches_independent_runs(self, factory, geometry,
                                             policy, leveler_name):
        """N devices across corners/sigmas == N independent scenario runs."""
        assert_spread_cohort_matches_independent_runs(factory, geometry,
                                                      policy, leveler_name)

    @pytest.mark.parametrize("policy,leveler_name", [
        ("inversion", "rotation"),
        ("dnn_life", "none"),
    ])
    def test_non_calibrated_model_matches_independent_runs(
            self, factory, geometry, policy, leveler_name):
        """The physics-style SNM backend rides the same device axis."""
        assert_spread_cohort_matches_independent_runs(
            factory, geometry, policy, leveler_name,
            snm_model=ReactionDiffusionSnmModel())

    def test_cohort_count_and_membership(self, factory):
        spec = FleetSpec(num_devices=16,
                         scenarios=(SINGLE_SPEC, "lenet5:int8:none:5@85C"),
                         seed_groups=2, seed=1)
        result = FleetSimulator(spec, stream_factory=factory).run()
        keys = {(entry["scenario_index"], entry["seed_group"])
                for entry in result.cohorts}
        sample = result.sample
        expected = set(zip(sample.scenario_index.tolist(),
                           sample.seed_group.tolist()))
        assert keys == expected
        assert sum(entry["num_devices"] for entry in result.cohorts) == 16
        for entry in result.cohorts:
            assert entry["seed"] == spec.group_seed(entry["seed_group"])

    def test_cohorts_share_one_scenario_run(self, factory, monkeypatch):
        """A 1000-device spread population costs one scenario run per cohort."""
        runs = []
        original_run = fleet_simulator._RecordingScenarioSimulator.run

        def counting_run(engine):
            runs.append(engine)
            return original_run(engine)

        monkeypatch.setattr(fleet_simulator._RecordingScenarioSimulator, "run",
                            counting_run)
        scenarios, weights = parse_mix_spec(
            "0.6*custom_mnist:int8:inversion:40@85C,idle:10@45C@0.7V:0.2GHz|"
            "0.4*lenet5:int8:none:40@45C")
        spec = FleetSpec(num_devices=1000, scenarios=scenarios,
                         scenario_weights=weights,
                         corners=((0.9, 1.0), (0.8, 0.5)),
                         usage_sigma=0.3, thermal_sigma_c=5.0, seed_groups=2,
                         seed=0)
        result = FleetSimulator(spec, stream_factory=factory).run()
        assert len(runs) == len(result.cohorts) == 4
        assert len(runs) * 100 < spec.num_devices


# --------------------------------------------------------------------- #
# Sampling determinism
# --------------------------------------------------------------------- #
SAMPLE_SUBPROCESS = """\
import json, sys
from repro.fleet import FleetSpec
spec = FleetSpec.from_payload(json.loads(sys.argv[1]))
print(json.dumps(spec.sample().to_payload(), sort_keys=True))
"""


class TestSamplingDeterminism:
    SPEC = FleetSpec(
        num_devices=32,
        scenarios=("custom_mnist:int8:none:3@85C", "lenet5:int8:inversion:4@45C"),
        scenario_weights=(0.75, 0.25),
        corners=((0.9, 1.0), (0.8, 0.5)),
        corner_weights=(0.5, 0.5),
        usage_sigma=0.3, thermal_sigma_c=5.0,
        seed_groups=3, seed=123)

    def test_same_seed_same_draws_in_process(self):
        assert self.SPEC.sample() == self.SPEC.sample()
        assert (FleetSpec.from_payload(self.SPEC.to_payload()).sample()
                == self.SPEC.sample())

    def test_different_seed_different_draws(self):
        other = replace(self.SPEC, seed=124)
        assert other.sample() != self.SPEC.sample()

    def test_same_seed_same_draws_across_processes(self):
        local = json.dumps(self.SPEC.sample().to_payload(), sort_keys=True)
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        remote = subprocess.run(
            [sys.executable, "-c", SAMPLE_SUBPROCESS,
             json.dumps(self.SPEC.to_payload())],
            capture_output=True, text=True, env=env, check=True)
        assert remote.stdout.strip() == local

    def test_degenerate_distributions_are_exact(self):
        spec = replace(self.SPEC, usage_sigma=0.0, thermal_sigma_c=0.0)
        sample = spec.sample()
        assert np.all(sample.usage == 1.0)
        assert np.all(sample.temperature_offset_c == 0.0)
        # Degenerate draws consume no generator state: the categorical draws
        # match the spread-out spec's exactly.
        spread = self.SPEC.sample()
        assert np.array_equal(sample.scenario_index, spread.scenario_index)
        assert np.array_equal(sample.corner_index, spread.corner_index)
        assert np.array_equal(sample.seed_group, spread.seed_group)


# --------------------------------------------------------------------- #
# Hypothesis properties
# --------------------------------------------------------------------- #
SCENARIO_POOL = (
    "custom_mnist:int8:none:3@85C",
    "lenet5:int8:inversion:4@45C",
    "custom_mnist:int8:dnn_life:5@85C,idle:2@45C",
    "lenet5:int8:barrel_shifter:2@25C",
)


@st.composite
def fleet_specs(draw):
    scenarios = tuple(draw(st.lists(st.sampled_from(SCENARIO_POOL),
                                    min_size=1, max_size=3, unique=True)))
    raw = draw(st.lists(st.integers(1, 9), min_size=len(scenarios),
                        max_size=len(scenarios)))
    total = sum(raw)
    weights = tuple(value / total for value in raw)
    num_corners = draw(st.integers(1, 3))
    corners = tuple((round(0.7 + 0.05 * draw(st.integers(0, 5)), 2),
                     round(0.25 * draw(st.integers(1, 6)), 2))
                    for _ in range(num_corners))
    return FleetSpec(
        num_devices=draw(st.integers(1, 64)),
        scenarios=scenarios,
        scenario_weights=weights,
        years=draw(st.sampled_from((3.0, 7.0, 10.0))),
        corners=corners,
        usage_sigma=draw(st.sampled_from((0.0, 0.2, 0.5))),
        thermal_sigma_c=draw(st.sampled_from((0.0, 3.0, 8.0))),
        seed_groups=draw(st.integers(1, 4)),
        seed=draw(st.integers(0, 2**31 - 1)))


class TestFleetSpecProperties:
    @settings(max_examples=40, deadline=None)
    @given(fleet_specs())
    def test_payload_round_trip(self, spec):
        assert FleetSpec.from_payload(spec.to_payload()) == spec
        # ...and through an actual JSON encode/decode (strict mode).
        via_json = json.loads(json.dumps(spec.to_payload(), allow_nan=False))
        assert FleetSpec.from_payload(via_json) == spec

    @settings(max_examples=25, deadline=None)
    @given(fleet_specs())
    def test_sampling_is_deterministic_and_in_range(self, spec):
        sample = spec.sample()
        assert sample == spec.sample()
        assert sample.num_devices == spec.num_devices
        assert np.all(sample.scenario_index >= 0)
        assert np.all(sample.scenario_index < len(spec.scenarios))
        assert np.all(sample.corner_index < len(spec.corners))
        assert np.all(sample.seed_group < spec.seed_groups)
        assert np.all(sample.usage > 0)
        assert FleetSample.from_payload(sample.to_payload()) == sample


@pytest.fixture(scope="module")
def tiny_result(factory):
    """One real FleetResult reused by the statistics / payload properties."""
    spec = FleetSpec(num_devices=10,
                     scenarios=(SINGLE_SPEC, "lenet5:int8:none:5@85C"),
                     corners=((0.9, 1.0), (0.8, 0.5)),
                     usage_sigma=0.2, thermal_sigma_c=3.0,
                     seed_groups=2, seed=7)
    return FleetSimulator(spec, stream_factory=factory).run()


class TestQuantileProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=50),
           st.lists(st.floats(min_value=0.0, max_value=1.0,
                              allow_nan=False), min_size=2, max_size=8),
           st.integers(0, 2**31 - 1))
    def test_monotone_in_level_and_permutation_invariant(
            self, tiny_result, times, levels, perm_seed):
        result = replace(tiny_result, failure_years=np.asarray(times))
        levels = sorted(levels)
        values = list(result.failure_quantiles(levels).values())
        assert all(later >= earlier
                   for earlier, later in zip(values, values[1:]))
        permutation = np.random.default_rng(perm_seed).permutation(len(times))
        shuffled = replace(tiny_result,
                           failure_years=np.asarray(times)[permutation])
        assert shuffled.failure_quantiles(levels) == result.failure_quantiles(levels)

    def test_default_quantile_labels(self, tiny_result):
        quantiles = tiny_result.failure_quantiles()
        assert list(quantiles) == [f"p{100 * q:g}" for q in DEFAULT_QUANTILES]

    def test_survival_curve_is_non_increasing(self, tiny_result):
        times, surviving = tiny_result.survival_curve()
        assert times[0] == 0.0
        assert surviving[0] == 1.0
        assert np.all(np.diff(surviving) <= 0)
        assert np.all((surviving >= 0) & (surviving <= 1))

    def test_mode_summary_counts_all_devices(self, tiny_result):
        assert sum(tiny_result.mode_summary().values()) == tiny_result.num_devices
        assert set(tiny_result.mode_summary()) <= {"snm", "retention"}


class TestResultPayload:
    def test_round_trip(self, tiny_result):
        payload = tiny_result.to_payload()
        json.dumps(payload, allow_nan=False)  # strict-JSON safe (inf -> null)
        rebuilt = FleetResult.from_payload(json.loads(json.dumps(payload)))
        assert rebuilt.spec == tiny_result.spec
        assert rebuilt.sample == tiny_result.sample
        for name in ("snm_years", "retention_years", "failure_years"):
            assert np.array_equal(getattr(rebuilt, name),
                                  getattr(tiny_result, name))
        assert np.array_equal(rebuilt.modes, tiny_result.modes)
        assert rebuilt.failure_quantiles() == tiny_result.failure_quantiles()
        assert rebuilt.max_degradation_percent == tiny_result.max_degradation_percent

    def test_infinite_times_encode_as_null(self, tiny_result):
        immortal = replace(tiny_result,
                           retention_years=np.full(tiny_result.num_devices,
                                                   np.inf))
        payload = immortal.to_payload()
        assert all(value is None for value in payload["retention_years"])
        rebuilt = FleetResult.from_payload(payload)
        assert np.all(np.isinf(rebuilt.retention_years))


# --------------------------------------------------------------------- #
# Spec-string mini-language + schema validation
# --------------------------------------------------------------------- #
class TestMixSpecs:
    def test_mix_round_trip(self):
        specs, weights = parse_mix_spec(
            "0.75*custom_mnist:int8:none:3@85C|0.25*lenet5:int8:inversion:4")
        assert specs == ("custom_mnist:int8:none:3@85C",
                         "lenet5:int8:inversion:4")
        assert weights == (0.75, 0.25)
        assert parse_mix_spec(format_mix_spec(specs, weights)) == (specs, weights)

    def test_unweighted_mix_is_uniform(self):
        _, weights = parse_mix_spec(
            "custom_mnist:int8:none:3|lenet5:int8:none:3")
        assert weights == (0.5, 0.5)

    def test_corner_round_trip(self):
        corners, weights = parse_corner_spec("0.6*0.9V:1GHz,0.4*0.8V:0.5GHz")
        assert corners == ((0.9, 1.0), (0.8, 0.5))
        assert weights == (0.6, 0.4)
        assert parse_corner_spec(format_corner_spec(corners, weights)) == (
            corners, weights)

    @pytest.mark.parametrize("text,fragment", [
        ("", "empty"),
        ("0.8*custom_mnist:int8:none:3|0.6*lenet5:int8:none:3", "sum to 1"),
        ("0.5*custom_mnist:int8:none:3|lenet5:int8:none:3", "every entry"),
        ("bogus:int8:none:3", "unknown"),
    ])
    def test_bad_mix_is_one_line_error(self, text, fragment):
        with pytest.raises(ValueError) as excinfo:
            parse_mix_spec(text)
        message = str(excinfo.value)
        assert fragment in message
        assert "\n" not in message

    def test_bad_corner_is_one_line_error(self):
        with pytest.raises(ValueError) as excinfo:
            parse_corner_spec("0.9V")
        assert "\n" not in str(excinfo.value)


class TestSpecValidation:
    def test_rejects_non_positive_devices(self):
        with pytest.raises(ValueError, match="num_devices"):
            FleetSpec(num_devices=0, scenarios=(SINGLE_SPEC,))

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError, match="usage_sigma"):
            FleetSpec(num_devices=1, scenarios=(SINGLE_SPEC,), usage_sigma=-0.1)

    def test_rejects_weight_count_mismatch(self):
        with pytest.raises(ValueError, match="weights"):
            FleetSpec(num_devices=1, scenarios=(SINGLE_SPEC,),
                      scenario_weights=(0.5, 0.5))

    def test_rejects_weights_not_summing_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            FleetSpec(num_devices=4,
                      scenarios=(SINGLE_SPEC, "lenet5:int8:none:3"),
                      scenario_weights=(0.8, 0.6))

    def test_rejects_bad_phase_spec(self):
        with pytest.raises(ValueError):
            FleetSpec(num_devices=1, scenarios=("bogus:int8:none:3",))

    def test_rejects_non_positive_corner(self):
        with pytest.raises(ValueError, match="corner"):
            FleetSpec(num_devices=1, scenarios=(SINGLE_SPEC,),
                      corners=((0.0, 1.0),))

    @pytest.mark.parametrize("kwargs,fragment", [
        ({"corners": ((float("inf"), 1.0),)}, "corner voltage"),
        ({"corners": ((0.9, float("inf")),)}, "corner frequency"),
        ({"thermal_sigma_c": float("inf")}, "thermal_sigma_c"),
        ({"usage_sigma": float("inf")}, "usage_sigma"),
    ])
    def test_rejects_non_finite_corner_and_sigma(self, kwargs, fragment):
        with pytest.raises(ValueError, match=fragment) as excinfo:
            FleetSpec(num_devices=1, scenarios=(SINGLE_SPEC,), **kwargs)
        assert "\n" not in str(excinfo.value)

    def test_from_payload_rejects_non_finite_corner(self):
        payload = FleetSpec(num_devices=1, scenarios=(SINGLE_SPEC,)).to_payload()
        payload["corners"] = [[float("inf"), 1.0]]
        with pytest.raises(ValueError, match="corner voltage"):
            FleetSpec.from_payload(payload)
