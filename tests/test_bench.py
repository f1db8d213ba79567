"""Tests for the engine benchmark harness (``dnn-life bench``)."""

import json

import numpy as np
import pytest

from repro.bench import (
    BENCH_SCHEMA,
    BenchCase,
    SyntheticWeightStream,
    bench_fleet,
    bench_workloads,
    default_bench_cases,
    render_bench_report,
    run_aging_bench,
)
from repro.bench.aging_bench import BENCH_POLICIES
from repro.cli import main
from repro.memory.geometry import MemoryGeometry


@pytest.fixture(scope="module")
def smoke_payload():
    """One smoke-case bench run shared by the structural assertions."""
    cases = [case for case in default_bench_cases() if case.name == "smoke_mnist_8bit"]
    return run_aging_bench(cases, repeats=1, verify=True)


class TestSyntheticWeightStream:
    def test_block_structure(self):
        geometry = MemoryGeometry(capacity_bytes=1024, word_bits=64)
        stream = SyntheticWeightStream(geometry, num_blocks=6, fifo_depth_tiles=2,
                                       seed=0)
        blocks = list(stream.iter_blocks())
        assert len(blocks) == 6
        assert all(block.num_words == stream.words_per_block for block in blocks)
        assert [block.region for block in blocks] == [0, 1, 0, 1, 0, 1]
        packed = stream.packed_bits()
        assert packed.bits.shape == (6, stream.words_per_block, 64)
        assert stream.packed_bits() is packed

    def test_bias_shapes_bit_density(self):
        geometry = MemoryGeometry(capacity_bytes=4096, word_bits=8)
        dense = SyntheticWeightStream(geometry, num_blocks=4, seed=0,
                                      probability_of_one=0.9)
        sparse = SyntheticWeightStream(geometry, num_blocks=4, seed=0,
                                       probability_of_one=0.1)
        assert dense.packed_bits().bits.mean() > sparse.packed_bits().bits.mean()

    def test_rejects_indivisible_fifo(self):
        geometry = MemoryGeometry(capacity_bytes=1024, word_bits=8)
        with pytest.raises(ValueError):
            SyntheticWeightStream(geometry, num_blocks=2, fifo_depth_tiles=3)


class TestBenchHarness:
    def test_payload_structure(self, smoke_payload):
        assert smoke_payload["schema"] == BENCH_SCHEMA
        assert len(smoke_payload["cases"]) == 1
        entry = smoke_payload["cases"][0]
        assert entry["case"]["name"] == "smoke_mnist_8bit"
        assert set(entry["policies"]) == set(BENCH_POLICIES)
        for row in entry["policies"].values():
            assert row["packed_seconds"] > 0
        assert entry["packed_tensor_bytes"] > 0
        assert entry["packed_total_seconds"] > 0

    def test_policies_flag_determinism(self, smoke_payload):
        rows = smoke_payload["cases"][0]["policies"]
        for name in ("none", "inversion", "barrel_shifter"):
            assert rows[name]["deterministic"] is True
        assert rows["dnn_life"]["deterministic"] is False

    def test_explicit_verification(self, smoke_payload):
        verification = smoke_payload["verification"]
        assert verification["explicit_match"] is True
        assert set(verification["policies"]) == {"none", "inversion",
                                                 "inversion_per_location",
                                                 "barrel_shifter"}
        assert all(verification["policies"].values())

    def test_render_contains_cases_and_summary(self, smoke_payload):
        text = render_bench_report(smoke_payload)
        assert "smoke_mnist_8bit" in text
        assert "TOTAL (+pack)" in text
        assert "explicit-engine cross-check: OK" in text

    def test_payload_is_json_safe(self, smoke_payload):
        encoded = json.loads(json.dumps(smoke_payload))
        assert encoded["schema"] == BENCH_SCHEMA

    def test_synthetic_case_runs(self):
        case = BenchCase(name="tiny_synthetic", description="test",
                         memory_kb=2, word_bits=16, num_blocks=5,
                         num_inferences=4, policies=("none", "inversion"))
        payload = run_aging_bench([case], repeats=1, verify=False, leveling=False)
        assert "verification" not in payload
        assert "leveling" not in payload
        entry = payload["cases"][0]
        assert entry["stream"]["network"] == "synthetic"
        assert entry["policies"]["none"]["packed_seconds"] > 0

    def test_default_cases_include_acceptance_config(self):
        names = {case.name for case in default_bench_cases()}
        assert "alexnet_512kb_64bit" in names
        acceptance = next(case for case in default_bench_cases()
                          if case.name == "alexnet_512kb_64bit")
        assert acceptance.memory_kb == 512
        assert acceptance.word_bits == 64

    def test_stream_store_entry(self, smoke_payload):
        entry = smoke_payload["cases"][0]["stream_store"]
        assert entry["hit"] is True
        assert entry["bit_identical"] is True
        assert entry["cold_build_seconds"] > 0
        assert entry["warm_load_seconds"] > 0
        assert entry["speedup"] == pytest.approx(
            entry["cold_build_seconds"] / entry["warm_load_seconds"])
        assert len(entry["key"]) == 64 and len(entry["payload_sha256"]) == 64
        assert entry["entry_nbytes"] > 0

    def test_stream_store_render_line(self, smoke_payload):
        text = render_bench_report(smoke_payload)
        assert "stream store (cold build vs memory-mapped reload)" in text
        assert "bit-identical" in text and "MISMATCH" not in text

    def test_stream_store_measured_in_ephemeral_dir(self, tmp_path, monkeypatch):
        """The bench must not touch (or be flattered by) the user's store."""
        from repro.bench.aging_bench import bench_case

        monkeypatch.setenv("DNN_LIFE_STREAM_STORE", str(tmp_path / "real"))
        case = BenchCase(name="tiny_synthetic", description="test",
                         memory_kb=2, word_bits=16, num_blocks=5,
                         num_inferences=2, policies=("none",))
        entry = bench_case(case, repeats=1)
        assert entry["stream_store"]["hit"] is True
        assert not (tmp_path / "real").exists()

    def test_leveling_entry(self, smoke_payload):
        """The BENCH_aging.json payload carries the wear-leveling entry."""
        leveling = smoke_payload["leveling"]
        assert leveling["case"]["name"] == "leveling_64kb_8bit_fifo4"
        assert leveling["verification"]["explicit_match"] is True
        labels = set(leveling["entries"])
        assert "none+rotation" in labels and "inversion+wear_swap" in labels
        for row in leveling["entries"].values():
            assert row["baseline_seconds"] > 0
            assert row["leveled_seconds"] > 0
            assert row["overhead"] > 0
            assert np.isfinite(row["region_imbalance_baseline_pp"])
            assert np.isfinite(row["region_imbalance_leveled_pp"])

    def test_leveling_small_case_override(self):
        """bench_leveling accepts a custom (tiny) case for fast checks."""
        from repro.bench import bench_leveling

        case = BenchCase(name="tiny_leveling", description="test",
                         memory_kb=2, word_bits=8, num_blocks=4,
                         fifo_depth_tiles=2, num_inferences=6,
                         policies=("none",))
        payload = bench_leveling(case, repeats=1, verify=False)
        assert payload["case"]["name"] == "tiny_leveling"
        assert "verification" not in payload
        assert set(payload["entries"]) == {"none+rotation", "none+start_gap",
                                           "none+wear_swap"}

    def test_leveling_overhead_gate(self):
        """The overhead budget flags schedule-driven and wear-swap breaches."""
        from repro.bench import (
            LEVELING_OVERHEAD_LIMIT,
            WEAR_SWAP_OVERHEAD_LIMIT,
            check_leveling_overheads,
        )

        assert WEAR_SWAP_OVERHEAD_LIMIT > LEVELING_OVERHEAD_LIMIT
        payload = {"entries": {
            "none+rotation": {"overhead": LEVELING_OVERHEAD_LIMIT - 0.5},
            "none+start_gap": {"overhead": LEVELING_OVERHEAD_LIMIT + 1.0},
            # within the wear-swap budget, above the schedule-driven one:
            # must NOT be flagged
            "none+wear_swap": {"overhead": WEAR_SWAP_OVERHEAD_LIMIT - 1.0},
            "inversion+wear_swap": {"overhead": WEAR_SWAP_OVERHEAD_LIMIT + 2.0},
            "inversion+rotation": {"overhead": None},
        }}
        violations = check_leveling_overheads(payload)
        assert len(violations) == 2
        assert any(v.startswith("none+start_gap:") for v in violations)
        assert any(v.startswith("inversion+wear_swap:") for v in violations)
        assert check_leveling_overheads({"entries": {}}) == []

    def test_dnn_life_leveling_gate(self):
        """dnn_life entries have their own per-leveler budgets."""
        from repro.bench import (
            DNN_LIFE_OVERHEAD_LIMITS,
            WEAR_SWAP_OVERHEAD_LIMIT,
            check_leveling_overheads,
        )

        limits = DNN_LIFE_OVERHEAD_LIMITS
        assert set(limits) == {"rotation", "start_gap", "wear_swap"}
        payload = {"entries": {
            "dnn_life+rotation": {"overhead": limits["rotation"] + 1.0},
            "dnn_life+start_gap": {"overhead": limits["start_gap"] - 1.0},
            "dnn_life+wear_swap": {"overhead": limits["wear_swap"] + 0.5},
            # the deterministic budgets still apply to other policies
            "none+rotation": {"overhead": limits["rotation"] - 1.0},
            "none+wear_swap": {"overhead": WEAR_SWAP_OVERHEAD_LIMIT - 1.0},
        }}
        violations = check_leveling_overheads(payload)
        assert sorted(v.split(":")[0] for v in violations) == [
            "dnn_life+rotation", "dnn_life+wear_swap", "none+rotation"]

    def test_leveling_smoke_case_within_budget(self, smoke_payload):
        """The bench's own leveling entries respect the CI overhead gate."""
        from repro.bench import check_leveling_overheads

        assert check_leveling_overheads(smoke_payload["leveling"]) == []
        assert {"dnn_life+rotation", "dnn_life+start_gap",
                "dnn_life+wear_swap"} <= set(smoke_payload["leveling"]["entries"])

    def test_leveling_render(self, smoke_payload):
        text = render_bench_report(smoke_payload)
        assert "wear-leveling overhead" in text
        assert "leveling explicit-engine cross-check: OK" in text


class TestBenchCli:
    def test_bench_verb_writes_trajectory(self, tmp_path, capsys):
        output = tmp_path / "BENCH_aging.json"
        code = main(["bench", "--case", "smoke_mnist_8bit", "--repeats", "1",
                     "--output", str(output)])
        assert code == 0
        captured = capsys.readouterr()
        assert "aging-engine benchmark" in captured.out
        payload = json.loads(output.read_text())
        assert payload["schema"] == BENCH_SCHEMA
        assert payload["cases"][0]["case"]["name"] == "smoke_mnist_8bit"

    def test_bench_unknown_case_is_usage_error(self, capsys):
        code = main(["bench", "--case", "nonexistent"])
        assert code == 2
        assert "unknown bench case" in capsys.readouterr().err


class TestScenarioBench:
    def test_scenario_entry(self, smoke_payload):
        entry = smoke_payload["scenario"]
        assert entry["num_phases"] == 4
        assert entry["scenario_seconds"] > 0
        assert entry["single_phase_seconds"] > 0
        assert entry["overhead"] is not None
        assert entry["effective_years"] < entry["wall_years"]

    def test_scenario_cross_check_passes(self, smoke_payload):
        verification = smoke_payload["scenario"]["verification"]
        assert verification["explicit_match"] is True
        checks = verification["checks"]
        # both multi-phase scenarios, with and without levelers, plus the
        # degenerate single-phase equivalence
        assert "model_swap_thermal+none" in checks
        assert "model_swap_thermal+wear_swap" in checks
        assert "duty_cycling_idle+rotation" in checks
        assert checks["degenerate_single_phase"] is True
        assert all(checks.values())

    def test_scenario_render(self, smoke_payload):
        text = render_bench_report(smoke_payload)
        assert "scenario timeline" in text
        assert "scenario explicit-engine cross-check: OK" in text

    def test_case_selection_skips_scenario(self):
        cases = [case for case in default_bench_cases()
                 if case.name == "smoke_mnist_8bit"]
        payload = run_aging_bench(cases, repeats=1, verify=False,
                                  leveling=False, scenario=False, fleet=False)
        assert "scenario" not in payload

    def test_payload_with_scenario_is_json_safe(self, smoke_payload):
        json.dumps(smoke_payload["scenario"])


class TestDvfsBench:
    def test_dvfs_entry(self, smoke_payload):
        entry = smoke_payload["dvfs"]
        assert entry["num_phases"] == 4
        assert entry["num_operating_points"] == 4
        assert entry["dvfs_seconds"] > 0
        assert entry["single_point_seconds"] > 0
        assert entry["overhead"] is not None
        # the multi-point timeline and its reference-pinned twin must age
        # differently (that is the whole point of the layer)
        assert (entry["effective_years_dvfs"]
                != entry["effective_years_single_point"])
        # the 0.62V idle corner must flag retention risk
        assert entry["idle_retention_mean"] > 0.5

    def test_dvfs_scenarios_cross_check(self, smoke_payload):
        checks = smoke_payload["scenario"]["verification"]["checks"]
        assert "dvfs_retention+none" in checks
        assert "dvfs_retention+rotation" in checks
        assert "dvfs_retention+wear_swap" in checks
        assert all(checks.values())

    def test_dvfs_render(self, smoke_payload):
        text = render_bench_report(smoke_payload)
        assert "dvfs timeline" in text
        assert "operating points" in text

    def test_case_selection_skips_dvfs(self):
        cases = [case for case in default_bench_cases()
                 if case.name == "smoke_mnist_8bit"]
        payload = run_aging_bench(cases, repeats=1, verify=False,
                                  leveling=False, scenario=False, dvfs=False,
                                  fleet=False)
        assert "dvfs" not in payload

    def test_skip_dvfs_flag(self, tmp_path, capsys):
        output = tmp_path / "bench.json"
        assert main(["bench", "--output", str(output), "--repeats", "1",
                     "--skip-verify", "--skip-leveling", "--skip-scenario",
                     "--skip-dvfs", "--case", "smoke_mnist_8bit"]) == 0
        payload = json.loads(output.read_text())
        assert "dvfs" not in payload

    def test_payload_with_dvfs_is_json_safe(self, smoke_payload):
        json.dumps(smoke_payload["dvfs"])

    def test_fleet_entry(self, smoke_payload):
        entry = smoke_payload["fleet"]
        assert entry["devices"] == 1000
        assert entry["num_cohorts"] >= 2
        assert entry["fleet_seconds"] > 0
        assert entry["devices_per_second"] > 0
        assert entry["per_device_scenario_seconds"] > 0
        # The cohort-shared engine must beat the extrapolated per-device loop.
        assert entry["speedup"] > 1.0
        assert sum(entry["modes"].values()) == entry["devices"]

    def test_fleet_cross_check_passes(self, smoke_payload):
        verification = smoke_payload["fleet"]["verification"]
        assert verification["loop_match"] is True
        assert (len(verification["per_device_match"])
                == verification["subsample_devices"])

    def test_fleet_small_population(self):
        payload = bench_fleet(repeats=1, devices=24)
        assert payload["devices"] == 24
        assert payload["verification"]["loop_match"] is True

    def test_fleet_render(self, smoke_payload):
        text = render_bench_report(smoke_payload)
        assert "fleet population" in text
        assert "fleet per-device-loop cross-check: OK" in text

    def test_case_selection_skips_fleet(self):
        cases = [case for case in default_bench_cases()
                 if case.name == "smoke_mnist_8bit"]
        payload = run_aging_bench(cases, repeats=1, verify=False,
                                  leveling=False, scenario=False, dvfs=False,
                                  fleet=False)
        assert "fleet" not in payload

    def test_skip_fleet_flag(self, tmp_path, capsys):
        output = tmp_path / "bench.json"
        assert main(["bench", "--output", str(output), "--repeats", "1",
                     "--skip-verify", "--skip-leveling", "--skip-scenario",
                     "--skip-dvfs", "--skip-fleet",
                     "--case", "smoke_mnist_8bit"]) == 0
        payload = json.loads(output.read_text())
        assert "fleet" not in payload

    def test_payload_with_fleet_is_json_safe(self, smoke_payload):
        json.dumps(smoke_payload["fleet"])

    def test_workloads_entry(self, smoke_payload):
        entry = smoke_payload["workloads"]
        assert entry["histories"] > 0
        assert entry["histories_per_second"] > 0
        assert entry["byte_identical"] is True
        assert entry["unique_scenarios"] >= 1
        assert entry["devices_per_second"] > 0

    def test_workloads_small_run(self):
        payload = bench_workloads(repeats=1, histories=16, fleet_histories=4,
                                  devices=8)
        assert payload["histories"] == 16
        assert payload["devices"] == 8
        assert payload["byte_identical"] is True

    def test_workloads_render(self, smoke_payload):
        text = render_bench_report(smoke_payload)
        assert "workload generator" in text
        assert "byte-identical recompile" in text

    def test_skip_workloads_flag(self, tmp_path, capsys):
        output = tmp_path / "bench.json"
        assert main(["bench", "--output", str(output), "--repeats", "1",
                     "--skip-verify", "--skip-leveling", "--skip-scenario",
                     "--skip-dvfs", "--skip-fleet", "--skip-workloads",
                     "--case", "smoke_mnist_8bit"]) == 0
        payload = json.loads(output.read_text())
        assert "workloads" not in payload

    def test_payload_with_workloads_is_json_safe(self, smoke_payload):
        json.dumps(smoke_payload["workloads"])
