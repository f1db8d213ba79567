"""Tests for ``dnn-life bench``: the leveling gate and the engine oracles."""

import json

import numpy as np
import pytest

import repro.bench
import repro.bench.aging_bench as aging_bench
from repro.bench import (
    BENCH_SCHEMA,
    BenchCase,
    check_leveling_overheads,
    render_bench_report,
    run_aging_bench,
    synthetic_weight_stream,
    verify_against_explicit,
    verify_leveling_against_explicit,
)
from repro.cli import main
from repro.core.simulation import AgingResult
from repro.memory.geometry import MemoryGeometry

#: The leveled-run entries the CI gate requires.
LEVELED_ENTRIES = {f"{policy}+{leveler}"
                   for policy in ("none", "inversion", "dnn_life")
                   for leveler in ("rotation", "start_gap", "wear_swap")}


#: The overhead budget of every leveled-run entry, written out so that a
#: loosened limit fails here.
ENTRY_BUDGETS = {
    "none+rotation": 5.0, "none+start_gap": 5.0, "none+wear_swap": 8.5,
    "inversion+rotation": 5.0, "inversion+start_gap": 5.0,
    "inversion+wear_swap": 8.5,
    "dnn_life+rotation": 10.0, "dnn_life+start_gap": 15.0,
    "dnn_life+wear_swap": 10.5,
}

#: The ``bench`` options that no longer exist.
REMOVED_BENCH_OPTIONS = (
    ["--case", "synthetic_64kb_8bit"], ["--seed", "1"], ["--skip-verify"],
    ["--skip-leveling"], ["--skip-scenario"], ["--skip-dvfs"],
    ["--skip-fleet"], ["--skip-workloads"],
)


def canned_payload(explicit_match=True, leveling_match=True, overhead=1.5):
    """A bench payload with chosen oracle outcomes and one overhead."""
    entries = {key: {"baseline_seconds": 0.01, "leveled_seconds": 0.015,
                     "overhead": overhead,
                     "region_imbalance_baseline_pp": 0.6,
                     "region_imbalance_leveled_pp": 0.1}
               for key in ENTRY_BUDGETS}
    return {
        "schema": BENCH_SCHEMA, "created_unix": 0.0, "repeats": 1,
        "environment": {},
        "leveling": {"case": {"name": "canned"}, "entries": entries,
                     "verification": {"policies": {"none+rotation": leveling_match},
                                      "explicit_match": leveling_match}},
        "verification": {"policies": {"none": explicit_match},
                         "explicit_match": explicit_match},
    }


@pytest.fixture(scope="module")
def bench_payload():
    """One bench run shared by the structural assertions."""
    return run_aging_bench(repeats=1)


class TestSyntheticStream:
    def test_block_structure(self):
        geometry = MemoryGeometry(capacity_bytes=1024, word_bits=64)
        stream = synthetic_weight_stream(geometry, num_blocks=6, fifo_depth_tiles=2,
                                         seed=0)
        blocks = list(stream.iter_blocks())
        assert len(blocks) == 6
        assert all(block.num_words == stream.words_per_block for block in blocks)
        assert [block.region for block in blocks] == [0, 1, 0, 1, 0, 1]
        assert stream.bits.shape == (6, stream.words_per_block, 64)
        assert stream.packed_bits() is stream
        assert stream.describe()["network"] == "synthetic"

    def test_bias_shapes_bit_density(self):
        geometry = MemoryGeometry(capacity_bytes=4096, word_bits=8)
        dense = synthetic_weight_stream(geometry, num_blocks=4, seed=0,
                                        probability_of_one=0.9)
        sparse = synthetic_weight_stream(geometry, num_blocks=4, seed=0,
                                         probability_of_one=0.1)
        assert dense.bits.mean() > sparse.bits.mean()

    def test_rejects_indivisible_fifo(self):
        geometry = MemoryGeometry(capacity_bytes=1024, word_bits=8)
        with pytest.raises(ValueError):
            synthetic_weight_stream(geometry, num_blocks=2, fifo_depth_tiles=3)


class TestBenchHarness:
    def test_payload_structure(self, bench_payload):
        assert bench_payload["schema"] == BENCH_SCHEMA == "dnn-life-bench/v4"
        assert set(bench_payload) == {"schema", "created_unix", "repeats",
                                      "environment", "leveling",
                                      "verification"}
        assert bench_payload["repeats"] == 1

    def test_explicit_verification(self, bench_payload):
        verification = bench_payload["verification"]
        assert verification["explicit_match"] is True
        assert set(verification["policies"]) == {"none", "inversion",
                                                 "inversion_per_location",
                                                 "barrel_shifter"}
        assert all(verification["policies"].values())

    def test_render_contains_summary(self, bench_payload):
        text = render_bench_report(bench_payload)
        assert "explicit-engine cross-check: OK" in text

    def test_payload_is_json_safe(self, bench_payload):
        encoded = json.loads(json.dumps(bench_payload))
        assert encoded["schema"] == BENCH_SCHEMA

    def test_leveling_entry(self, bench_payload):
        """The BENCH_aging.json payload carries the wear-leveling entry."""
        leveling = bench_payload["leveling"]
        assert leveling["case"]["name"] == "leveling_64kb_8bit_fifo4"
        assert leveling["verification"]["explicit_match"] is True
        assert set(leveling["entries"]) == LEVELED_ENTRIES
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
        payload = bench_leveling(case, repeats=1)
        assert payload["case"]["name"] == "tiny_leveling"
        assert payload["verification"]["explicit_match"] is True
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

    def test_leveling_smoke_case_within_budget(self, bench_payload):
        """The bench's own leveling entries respect the CI overhead gate."""
        from repro.bench import check_leveling_overheads

        assert check_leveling_overheads(bench_payload["leveling"]) == []
        assert {"dnn_life+rotation", "dnn_life+start_gap",
                "dnn_life+wear_swap"} <= set(bench_payload["leveling"]["entries"])

    def test_leveling_render(self, bench_payload):
        text = render_bench_report(bench_payload)
        assert "wear-leveling overhead" in text
        assert "leveling explicit-engine cross-check: OK" in text

    @pytest.mark.parametrize("entry", sorted(ENTRY_BUDGETS))
    def test_entry_is_held_to_its_budget(self, entry):
        budget = ENTRY_BUDGETS[entry]
        assert check_leveling_overheads(
            {"entries": {entry: {"overhead": budget}}}) == []
        violations = check_leveling_overheads(
            {"entries": {entry: {"overhead": budget + 0.01}}})
        assert violations == [f"{entry}: leveled overhead {budget + 0.01:.2f}x "
                              f"exceeds the {budget:g}x budget"]

    @pytest.mark.parametrize("failed_line", [
        "leveling explicit-engine cross-check: FAILED",
        "explicit-engine cross-check: FAILED (none)",
    ])
    def test_render_reports_a_failed_oracle(self, failed_line):
        leveling_failed = failed_line.startswith("leveling")
        text = render_bench_report(canned_payload(
            explicit_match=leveling_failed, leveling_match=not leveling_failed))
        assert failed_line in text.splitlines()

    def test_render_marks_missing_overhead(self):
        text = render_bench_report(canned_payload(overhead=None))
        assert "n/a" in text


class _DivergentExplicitSimulator(aging_bench.ExplicitAgingSimulator):
    """An explicit engine whose first cell is one ulp off the true duty."""

    def run(self):
        result = super().run()
        duty = result.duty_cycles.copy()
        duty.flat[0] = np.nextafter(duty.flat[0], np.inf)
        return AgingResult(result.policy_name, result.policy_description, duty,
                           result.num_inferences, result.num_blocks,
                           result.snm_model, result.years)


class TestOracles:
    @pytest.mark.parametrize("verify", [verify_against_explicit,
                                        verify_leveling_against_explicit])
    def test_oracle_flags_a_one_ulp_divergence(self, verify, monkeypatch):
        monkeypatch.setattr(aging_bench, "ExplicitAgingSimulator",
                            _DivergentExplicitSimulator)
        report = verify()
        assert report["explicit_match"] is False
        assert report["policies"] and not any(report["policies"].values())

    def test_leveling_oracle_covers_every_policy_and_leveler(self):
        report = verify_leveling_against_explicit()
        assert report["explicit_match"] is True
        assert set(report["policies"]) == {
            f"{policy}+{leveler}"
            for policy in ("none", "inversion", "inversion_per_location",
                           "barrel_shifter")
            for leveler in ("rotation", "start_gap", "wear_swap")}
        assert all(report["policies"].values())


class TestBenchCli:
    def test_bench_verb_writes_record(self, tmp_path, capsys, monkeypatch):
        # the bench builds its streams cold: it must not touch the user's
        # store (LRU off, so every build would reach it)
        monkeypatch.setenv("DNN_LIFE_STREAM_CACHE", "0")
        monkeypatch.setenv("DNN_LIFE_STREAM_STORE", str(tmp_path / "real"))
        output = tmp_path / "BENCH_aging.json"
        code = main(["bench", "--repeats", "1", "--output", str(output)])
        assert code == 0
        assert not (tmp_path / "real").exists()
        captured = capsys.readouterr()
        assert "wear-leveling overhead" in captured.out
        payload = json.loads(output.read_text())
        assert payload["schema"] == BENCH_SCHEMA
        assert set(payload["leveling"]["entries"]) == LEVELED_ENTRIES

    def test_bench_help_lists_only_repeats_and_output(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["bench", "--help"])
        assert exit_info.value.code == 0
        options = {token.rstrip(",") for token in capsys.readouterr().out.split()
                   if token.startswith("--")}
        assert options == {"--help", "--output", "--repeats"}

    @pytest.mark.parametrize("outcome,expected_code,message", [
        ({}, 0, None),
        ({"explicit_match": False}, 1,
         "dnn-life bench: explicit-engine cross-check FAILED"),
        ({"leveling_match": False}, 1,
         "dnn-life bench: leveling explicit-engine cross-check FAILED"),
        ({"overhead": 30.0}, 1,
         "dnn-life bench: dnn_life+wear_swap: leveled overhead 30.00x "
         "exceeds the 10.5x budget"),
    ], ids=["ok", "explicit_mismatch", "leveling_mismatch", "over_budget"])
    def test_bench_exit_code(self, outcome, expected_code, message, tmp_path,
                             capsys, monkeypatch):
        monkeypatch.setattr(repro.bench, "run_aging_bench",
                            lambda repeats: canned_payload(**outcome))
        output = tmp_path / "bench.json"
        assert main(["bench", "--output", str(output)]) == expected_code
        assert json.loads(output.read_text())["schema"] == BENCH_SCHEMA
        stderr = capsys.readouterr().err
        if message is None:
            assert stderr == ""
        else:
            assert message in stderr.splitlines()

    def test_dash_output_skips_the_record(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(repro.bench, "run_aging_bench",
                            lambda repeats: canned_payload())
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "--output", "-"]) == 0
        assert list(tmp_path.iterdir()) == []
        assert "benchmark record written" not in capsys.readouterr().out

    def test_repeats_below_one_runs_once(self, monkeypatch):
        seen = []

        def fake_bench(repeats):
            seen.append(repeats)
            return canned_payload()

        monkeypatch.setattr(repro.bench, "run_aging_bench", fake_bench)
        assert main(["bench", "--repeats", "0", "--output", "-"]) == 0
        assert seen == [1]

    @pytest.mark.parametrize("option", REMOVED_BENCH_OPTIONS,
                             ids=[option[0] for option in REMOVED_BENCH_OPTIONS])
    def test_removed_option_is_a_usage_error(self, option, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["bench", "--output", "-", *option])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
