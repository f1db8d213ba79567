"""Tests for the orchestration subsystem: registry, cache and sweeps."""

import json
import os
import pickle

import numpy as np
import pytest

from repro.core.policies import DnnLifePolicy
from repro.core.simulation import AgingResult, AgingSimulator
from repro.orchestration import (
    REGISTRY,
    ExperimentSpec,
    ParamSpec,
    ResultCache,
    SweepRunner,
    cache_key,
    code_version,
    expand_grid,
    load_all_experiments,
    run_experiment,
)
from repro.orchestration import sweep as sweep_module
from repro.orchestration.registry import ExperimentRegistry
from repro.utils.serialization import canonical_json


# --------------------------------------------------------------------------- #
# Parameter schema
# --------------------------------------------------------------------------- #
class TestParamSpec:
    def test_parse_bool(self):
        spec = ParamSpec("quick", bool, True)
        assert spec.parse("true") is True
        assert spec.parse("0") is False
        with pytest.raises(ValueError, match="boolean"):
            spec.parse("maybe")

    def test_parse_numeric(self):
        assert ParamSpec("seed", int, 0).parse("17") == 17
        assert ParamSpec("bias", float, 0.5).parse("0.7") == pytest.approx(0.7)

    def test_validate_type_mismatch(self):
        with pytest.raises(TypeError, match="expects int"):
            ParamSpec("seed", int, 0).validate("three")

    def test_validate_int_accepted_for_float(self):
        assert ParamSpec("bias", float, 0.5).validate(1) == 1.0

    def test_choices_enforced(self):
        spec = ParamSpec("policy", str, "none", choices=("none", "dnn_life"))
        assert spec.parse("dnn_life") == "dnn_life"
        with pytest.raises(ValueError, match="must be one of"):
            spec.parse("magic")

    def test_cli_flag_default_and_override(self):
        assert ParamSpec("num_points", int, 5).cli_flag == "--num-points"
        assert ParamSpec("data_format", str, "x", flag="--format").cli_flag == "--format"


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
class TestRegistry:
    def test_load_all_registers_every_driver(self):
        registry = load_all_experiments()
        names = registry.names()
        for expected in ("fig1", "fig2", "fig6", "fig7", "fig9", "fig11",
                         "table1", "table2", "compare", "energy", "report",
                         "aging", "ablation-bias", "ablation-lifetime"):
            assert expected in names
        assert len(registry) >= 18

    def test_duplicate_registration_rejected(self):
        registry = ExperimentRegistry()
        spec = ExperimentSpec(name="x", runner=len, description="d", artifact="a")
        registry.register(spec)
        assert registry.register(spec) is spec  # identical spec is idempotent
        clone = ExperimentSpec(name="x", runner=len, description="other", artifact="a")
        with pytest.raises(ValueError, match="already registered"):
            registry.register(clone)

    def test_unknown_experiment_names_known_ones(self):
        with pytest.raises(KeyError, match="known experiments"):
            load_all_experiments().get("figure-nine")

    def test_resolve_layers_full_config_under_overrides(self):
        spec = load_all_experiments().get("aging")
        quick = spec.resolve()
        assert quick["quick"] is True and quick["num_inferences"] == 20
        full = spec.resolve(full=True)
        assert full["quick"] is False and full["num_inferences"] == 100
        override = spec.resolve({"num_inferences": "7"}, full=True)
        assert override["num_inferences"] == 7  # string parsed, override wins

    def test_resolve_rejects_unknown_parameter(self):
        spec = load_all_experiments().get("fig2")
        with pytest.raises(KeyError, match="no parameter"):
            spec.resolve({"bogus": 1})


# --------------------------------------------------------------------------- #
# Grid expansion
# --------------------------------------------------------------------------- #
class TestExpandGrid:
    def test_cartesian_product_order(self):
        grid = expand_grid({"a": [1, 2], "b": ["x", "y"]})
        assert grid == [{"a": 1, "b": "x"}, {"a": 1, "b": "y"},
                        {"a": 2, "b": "x"}, {"a": 2, "b": "y"}]

    def test_empty_grid_is_single_point(self):
        assert expand_grid({}) == [{}]

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="no values"):
            expand_grid({"a": []})


# --------------------------------------------------------------------------- #
# Result cache
# --------------------------------------------------------------------------- #
class TestResultCache:
    def test_key_depends_on_name_params_and_code_version(self):
        base = cache_key("fig2", {"num_points": 5})
        assert base == cache_key("fig2", {"num_points": 5})
        assert base != cache_key("fig2", {"num_points": 6})
        assert base != cache_key("fig7", {"num_points": 5})
        assert base != cache_key("fig2", {"num_points": 5}, version="other")

    def test_code_version_is_stable(self):
        assert code_version() == code_version()
        assert len(code_version()) == 16

    def test_put_get_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = cache_key("demo", {"x": 1})
        assert cache.get(key) is None
        cache.put(key, {"value": [1, 2, 3]}, experiment="demo", params={"x": 1})
        assert key in cache
        assert cache.get(key) == {"value": [1, 2, 3]}
        assert cache.hits == 1 and cache.misses == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = cache_key("demo", {})
        cache.put(key, {"ok": True})
        cache.path_for(key).write_text("{not json", encoding="utf-8")
        assert cache.get(key) is None

    def test_stats_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        for index in range(3):
            cache.put(cache_key("demo", {"i": index}), index)
        stats = cache.stats()
        assert stats["entries"] == 3 and stats["bytes"] > 0
        assert cache.clear() == 3
        assert cache.stats()["entries"] == 0


# --------------------------------------------------------------------------- #
# Cached execution
# --------------------------------------------------------------------------- #
class TestRunExperiment:
    def test_miss_then_hit_with_identical_payload(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        first = run_experiment("fig2", {"num_points": 5}, cache=cache)
        second = run_experiment("fig2", {"num_points": 5}, cache=cache)
        assert first.from_cache is False
        assert second.from_cache is True
        assert second.cache_key == first.cache_key
        assert json.dumps(second.payload, sort_keys=True) == \
            json.dumps(first.payload, sort_keys=True)

    def test_no_cache_recomputes(self):
        run = run_experiment("fig2", {"num_points": 5}, cache=None)
        assert run.from_cache is False
        assert len(run.payload) == 5

    def test_string_params_are_parsed(self):
        run = run_experiment("fig2", {"num_points": "4"}, cache=None)
        assert len(run.payload) == 4

    def test_cached_aging_parity_with_fresh_run(self, tmp_path):
        """Cache-served results equal freshly-computed ones bit-for-bit."""
        cache = ResultCache(tmp_path / "cache")
        params = {"network": "lenet5", "weight_memory_kb": 16,
                  "num_inferences": 3, "policy": "dnn_life"}
        computed = run_experiment("aging", params, cache=cache)
        cached = run_experiment("aging", params, cache=cache)
        fresh = run_experiment("aging", params, cache=None)
        assert cached.from_cache and not fresh.from_cache
        assert json.dumps(cached.payload, sort_keys=True) == \
            json.dumps(computed.payload, sort_keys=True) == \
            json.dumps(fresh.payload, sort_keys=True)


# --------------------------------------------------------------------------- #
# Sweeps
# --------------------------------------------------------------------------- #
FIG2_GRID = {"num_points": [4, 5], "years": [1.0, 7.0]}


class TestSweepRunner:
    def test_serial_sweep_matches_individual_runs(self, tmp_path):
        runner = SweepRunner(cache=ResultCache(tmp_path / "cache"), max_workers=1)
        report = runner.run("fig2", FIG2_GRID)
        assert report.num_jobs == 4
        assert report.num_computed == 4
        for result in report.results:
            solo = run_experiment("fig2", result.job.params, cache=None)
            assert json.dumps(solo.payload, sort_keys=True) == \
                json.dumps(result.payload, sort_keys=True)

    def test_second_sweep_served_from_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        first = SweepRunner(cache=cache, max_workers=1).run("fig2", FIG2_GRID)
        second = SweepRunner(cache=cache, max_workers=1).run("fig2", FIG2_GRID)
        assert first.num_from_cache == 0
        assert second.num_from_cache == second.num_jobs == 4
        assert [r.payload for r in second.results] == [r.payload for r in first.results]

    def test_deterministic_per_job_seeding(self):
        runner = SweepRunner(max_workers=1)
        grid = {"network": ["lenet5", "custom_mnist"], "policy": ["none", "dnn_life"]}
        jobs_a = runner.build_jobs("aging", grid, base_seed=0)
        jobs_b = runner.build_jobs("aging", grid, base_seed=0)
        seeds = [job.params["seed"] for job in jobs_a]
        assert seeds == [job.params["seed"] for job in jobs_b]  # stable
        # distinct per workload (affinity subset: here the network axis),
        # shared across the policy axis so policies compare on equal weights
        by_network = {}
        for job in jobs_a:
            by_network.setdefault(job.params["network"], set()).add(job.params["seed"])
        assert all(len(values) == 1 for values in by_network.values())
        assert len(set(seeds)) == len(by_network)
        jobs_c = runner.build_jobs("aging", grid, base_seed=1)
        assert seeds != [job.params["seed"] for job in jobs_c]

    def test_pinned_seed_respected(self):
        jobs = SweepRunner().build_jobs("aging", {"seed": [11], "policy": ["none"]})
        assert jobs[0].params["seed"] == 11

    @pytest.mark.slow
    def test_multiprocess_sweep(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        report = SweepRunner(cache=cache, max_workers=2).run("fig2", FIG2_GRID)
        assert report.num_computed == 4
        serial = SweepRunner(max_workers=1).run("fig2", FIG2_GRID)
        assert [r.payload for r in report.results] == [r.payload for r in serial.results]

    @pytest.mark.slow
    def test_failed_job_does_not_abort_sweep(self, tmp_path):
        """One invalid grid point fails alone; sibling jobs still complete."""
        cache = ResultCache(tmp_path / "cache")
        report = SweepRunner(cache=cache, max_workers=1).run(
            "aging", {"network": ["lenet5"], "weight_memory_kb": [16],
                      "num_inferences": [2], "policy": ["none"],
                      "fifo_depth_tiles": [1, 7]})  # 7 tiles: indivisible rows
        assert report.num_jobs == 2
        assert report.num_failed == 1 and report.num_computed == 1
        failed = [r for r in report.results if r.failed][0]
        assert failed.payload is None and failed.error
        ok = [r for r in report.results if not r.failed][0]
        assert ok.payload["results"]
        json.dumps(report.summary())  # failures stay JSON-safe

    def test_affinity_batches_group_shared_streams(self):
        """Jobs sharing the aging experiment's affinity params land in one
        batch; batches split only to saturate the worker pool."""
        runner = SweepRunner()
        jobs = runner.build_jobs("aging", {
            "network": ["lenet5"],
            "policy": ["none", "inversion", "barrel_shifter", "dnn_life"],
            "weight_memory_kb": [16, 32],
            "num_inferences": [2],
            "seed": [0],
        })
        batches = runner._affinity_batches("aging", jobs, max_workers=2)
        assert sorted(job.index for batch in batches for job in batch) \
            == list(range(8))
        spec = load_all_experiments().get("aging")
        for batch in batches:
            keys = {spec.affinity_key(job.params) for job in batch}
            assert len(keys) == 1  # one workload stream per batch

    def test_auto_seeds_shared_within_affinity_group(self):
        """Without a pinned seed, grid points differing only in non-affinity
        axes (policy) must share their derived seed — otherwise their weight
        streams differ and affinity batching could never hit the cache."""
        runner = SweepRunner()
        jobs = runner.build_jobs("aging", {
            "network": ["lenet5", "custom_mnist"],
            "policy": ["none", "inversion", "dnn_life"],
            "num_inferences": [2],
        })
        seeds = {}
        for job in jobs:
            seeds.setdefault(job.params["network"], set()).add(job.params["seed"])
        assert all(len(values) == 1 for values in seeds.values())
        assert seeds["lenet5"] != seeds["custom_mnist"]
        batches = runner._affinity_batches("aging", jobs, max_workers=2)
        assert len(batches) == 2
        for batch in batches:
            assert len({job.params["network"] for job in batch}) == 1

    def test_affinity_batches_split_to_saturate_pool(self):
        runner = SweepRunner()
        jobs = runner.build_jobs("aging", {
            "network": ["lenet5"],
            "policy": ["none", "inversion", "barrel_shifter", "dnn_life"],
            "num_inferences": [2],
            "seed": [0],
        })
        # a single affinity group must still fan out across the pool
        batches = runner._affinity_batches("aging", jobs, max_workers=4)
        assert len(batches) == 4
        assert sorted(job.index for batch in batches for job in batch) \
            == list(range(4))

    def test_experiment_without_affinity_gets_one_job_per_batch(self):
        runner = SweepRunner()
        jobs = runner.build_jobs("fig2", FIG2_GRID)
        batches = runner._affinity_batches("fig2", jobs, max_workers=2)
        assert [len(batch) for batch in batches] == [1] * len(jobs)

    @pytest.mark.slow
    def test_multiprocess_affinity_sweep_matches_serial(self, tmp_path):
        grid = {"network": ["lenet5"], "weight_memory_kb": [16],
                "num_inferences": [2], "seed": [0],
                "policy": ["none", "inversion", "barrel_shifter"]}
        parallel = SweepRunner(max_workers=2).run("aging", grid)
        serial = SweepRunner(max_workers=1).run("aging", grid)
        assert parallel.num_failed == 0
        assert [r.payload for r in parallel.results] \
            == [r.payload for r in serial.results]

    def test_full_experiments_env_changes_params_and_cache_key(self, monkeypatch):
        from repro.orchestration.runner import resolve_params

        spec = load_all_experiments().get("aging")
        monkeypatch.delenv("REPRO_FULL_EXPERIMENTS", raising=False)
        quick = resolve_params(spec, {"num_inferences": 2})
        assert quick["quick"] is True
        monkeypatch.setenv("REPRO_FULL_EXPERIMENTS", "1")
        forced = resolve_params(spec, {"num_inferences": 2})
        assert forced["quick"] is False  # env forces paper scale...
        assert cache_key("aging", quick) != cache_key("aging", forced)  # ...and a new key

    def test_summary_is_json_safe(self, tmp_path):
        report = SweepRunner(max_workers=1).run("fig2", {"num_points": [4]})
        summary = report.summary()
        json.dumps(summary)  # must not raise
        assert summary["num_jobs"] == 1 and summary["jobs"][0]["payload"]


_REAL_EXECUTE_JOB_BATCH = sweep_module._execute_job_batch


def _batch_failing_on_index_one(experiment, batch):
    """Pool-side stand-in for the batch entry point that loses job 1's batch."""
    if any(index == 1 for index, _params in batch):
        raise RuntimeError("worker lost its batch")
    return _REAL_EXECUTE_JOB_BATCH(experiment, batch)


# --------------------------------------------------------------------------- #
# Inline vs. process-pool sweeps and stream-store accounting
# --------------------------------------------------------------------------- #
class TestSweepBackends:
    #: One network, four policies: with two workers this makes two affinity
    #: batches that share a single workload stream.
    GRID = {"network": ["custom_mnist"], "weight_memory_kb": [8],
            "num_inferences": [2], "seed": [0],
            "policy": ["none", "inversion", "barrel_shifter", "dnn_life"]}

    def test_single_worker_shortcut_reports_serial(self, tmp_path):
        report = SweepRunner(max_workers=1).run("fig2", FIG2_GRID)
        assert report.backend == "serial"
        assert report.summary()["backend"] == "serial"

    def test_default_workers_follow_usable_cpus(self, monkeypatch):
        """A CPU-pinned sweep starts no more workers than it may run on."""
        from repro.orchestration.sweep import MAX_WORKERS_ENV, _default_max_workers

        monkeypatch.delenv(MAX_WORKERS_ENV, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)

        def pin(count):
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid: set(range(count)), raising=False)

        pin(3)
        assert _default_max_workers(10) == 3
        assert _default_max_workers(2) == 2  # never more than the jobs
        pin(1)
        assert _default_max_workers(10) == 2  # floor of two
        pin(32)
        assert _default_max_workers(10) == 8  # cap of eight

    def test_one_pending_batch_runs_inline(self):
        """Two workers but a single batch: no pool is started."""
        report = SweepRunner(max_workers=2).run("fig2", {"num_points": [4]})
        assert report.backend == "serial"
        assert report.num_computed == 1
        assert report.worker_pids == [os.getpid()]

    def test_fully_cached_sweep_runs_inline(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        SweepRunner(cache=cache, max_workers=1).run("fig2", FIG2_GRID)
        report = SweepRunner(cache=cache, max_workers=2).run("fig2", FIG2_GRID)
        assert report.backend == "serial"
        assert report.num_from_cache == report.num_jobs == 4
        assert report.stream_store is None  # no batch ran

    def test_batch_entry_point_isolates_failures_and_counts_store(
            self, monkeypatch, tmp_path):
        from repro.streamstore import STORE_COUNTERS

        monkeypatch.setenv("DNN_LIFE_STREAM_STORE", str(tmp_path / "streams"))
        outcomes, store_delta = sweep_module._execute_job_batch(
            "fig2", [(3, {"num_points": 4}), (5, {"num_points": -3})])
        assert [outcome[0] for outcome in outcomes] == [3, 5]
        assert all(outcome[3] == os.getpid() for outcome in outcomes)
        (_, ok_payload, _, _, ok_error), (_, bad_payload, _, _, bad_error) = outcomes
        assert ok_error is None and ok_payload
        assert bad_payload is None and bad_error.startswith("ValueError: ")
        assert store_delta is not None
        assert all(store_delta[counter] == 0 for counter in STORE_COUNTERS)

    @pytest.mark.slow
    def test_failed_pool_batch_fails_only_its_jobs(self, monkeypatch):
        """A batch whose worker call raises fails its own jobs, not others."""
        grid = {"num_points": [4, 5, 6]}  # fig2 has no affinity: 3 batches
        inline = SweepRunner(max_workers=1).run("fig2", grid)
        monkeypatch.setattr(sweep_module, "_execute_job_batch",
                            _batch_failing_on_index_one)
        report = SweepRunner(max_workers=2).run("fig2", grid)
        assert report.backend == "process"
        assert [r.failed for r in report.results] == [False, True, False]
        assert report.results[1].error.startswith("RuntimeError: ")
        assert report.results[1].payload is None
        assert [report.results[0].payload, report.results[2].payload] \
            == [inline.results[0].payload, inline.results[2].payload]

    def test_store_disabled_reports_no_accounting(self, monkeypatch):
        monkeypatch.setenv("DNN_LIFE_STREAM_STORE", "0")
        report = SweepRunner(max_workers=1).run("fig2", {"num_points": [4]})
        assert report.stream_store is None

    def test_one_cold_build_across_batches_with_lru_disabled(
            self, monkeypatch, tmp_path):
        """Regression: with ``DNN_LIFE_STREAM_CACHE=0`` every job used to
        rebuild the stream; the store must absorb all but the first."""
        from repro.experiments.aging_runner import clear_stream_cache

        monkeypatch.setenv("DNN_LIFE_STREAM_CACHE", "0")
        monkeypatch.setenv("DNN_LIFE_STREAM_STORE", str(tmp_path / "streams"))
        clear_stream_cache()
        report = SweepRunner(max_workers=1).run("aging", self.GRID)
        assert report.backend == "serial"
        assert report.num_failed == 0 and report.num_jobs == 4
        assert report.stream_store is not None
        assert report.stream_store["puts"] == 1  # exactly one cold build
        assert report.stream_store["failed_puts"] == 0
        assert report.stream_store["hits"] >= 1  # later jobs load it

    @pytest.mark.slow
    def test_one_and_two_workers_identical_payloads(self, monkeypatch, tmp_path):
        from repro.experiments.aging_runner import clear_stream_cache

        monkeypatch.setenv("DNN_LIFE_STREAM_CACHE", "0")
        monkeypatch.setenv("DNN_LIFE_STREAM_STORE", str(tmp_path / "streams"))
        clear_stream_cache()
        inline = SweepRunner(max_workers=1).run("aging", self.GRID)
        assert inline.backend == "serial"
        assert inline.stream_store["puts"] == 1
        clear_stream_cache()
        runner = SweepRunner(max_workers=2)
        assert len(runner._affinity_batches(
            "aging", runner.build_jobs("aging", self.GRID), max_workers=2)) == 2
        pool = runner.run("aging", self.GRID)
        assert pool.backend == "process"
        assert pool.num_failed == 0
        assert canonical_json([r.payload for r in pool.results]) \
            == canonical_json([r.payload for r in inline.results])
        # the workers found the inline run's entry: zero further cold builds
        assert pool.stream_store["puts"] == 0
        assert pool.stream_store["hits"] >= 2


# --------------------------------------------------------------------------- #
# Result transport (pickling / payload round-trip)
# --------------------------------------------------------------------------- #
class TestAgingResultTransport:
    @pytest.fixture
    def result(self, tiny_scheduler):
        policy = DnnLifePolicy(tiny_scheduler.geometry.word_bits, seed=5)
        return AgingSimulator(tiny_scheduler, policy, num_inferences=3, seed=5).run()

    def test_pickle_roundtrip(self, result):
        clone = pickle.loads(pickle.dumps(result))
        np.testing.assert_array_equal(clone.duty_cycles, result.duty_cycles)
        assert clone.summary() == result.summary()

    def test_payload_roundtrip(self, result):
        clone = AgingResult.from_payload(result.to_payload())
        np.testing.assert_array_equal(clone.duty_cycles, result.duty_cycles)
        assert clone.policy_name == result.policy_name
        assert clone.summary() == result.summary()
        json.dumps(clone.to_payload())  # payload must be JSON-safe

    def test_payload_roundtrip_reaction_diffusion_model(self, tiny_scheduler):
        from repro.aging.nbti import ReactionDiffusionSnmModel
        from repro.core.policies import NoMitigationPolicy

        simulator = AgingSimulator(tiny_scheduler, NoMitigationPolicy(),
                                   num_inferences=2,
                                   snm_model=ReactionDiffusionSnmModel())
        result = simulator.run()
        clone = AgingResult.from_payload(result.to_payload())
        assert type(clone.snm_model).__name__ == "ReactionDiffusionSnmModel"
        assert clone.summary() == result.summary()


# --------------------------------------------------------------------------- #
# CLI verbs
# --------------------------------------------------------------------------- #
class TestCliVerbs:
    def test_list(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig9" in out and "aging" in out

    def test_run_with_set_and_json(self, tmp_path, capsys):
        from repro.cli import main

        output = tmp_path / "fig2.json"
        assert main(["--json", str(output), "run", "fig2", "--set", "num_points=5"]) == 0
        payload = json.loads(output.read_text())
        assert len(payload) == 5
        assert "computed" in capsys.readouterr().out

    def test_run_served_from_cache_on_second_invocation(self, tmp_path, capsys):
        from repro.cli import main

        argv = ["--cache-dir", str(tmp_path / "cache"), "run", "fig2"]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        assert "| cache in" in capsys.readouterr().out

    def test_sweep_verb(self, tmp_path, capsys):
        from repro.cli import main

        output = tmp_path / "sweep.json"
        argv = ["--cache-dir", str(tmp_path / "cache"), "--json", str(output),
                "sweep", "fig2", "--grid", "num_points=4,5", "--workers", "1"]
        assert main(argv) == 0
        assert "2 jobs" in capsys.readouterr().out
        summary = json.loads(output.read_text())
        assert summary["num_jobs"] == 2 and summary["num_computed"] == 2

    def test_cache_verb(self, tmp_path, capsys):
        from repro.cli import main

        cache_args = ["--cache-dir", str(tmp_path / "cache")]
        assert main(cache_args + ["run", "fig2"]) == 0
        capsys.readouterr()
        assert main(cache_args + ["cache"]) == 0
        assert "1 entries" in capsys.readouterr().out
        assert main(cache_args + ["cache", "--clear"]) == 0
        assert "removed 1" in capsys.readouterr().out

    def test_experiment_subcommand_suppresses_unset_defaults(self):
        """`--full` must let the spec's full_config through (only explicit
        flags land in the namespace and override it)."""
        from repro.cli import build_parser

        args = build_parser().parse_args(["aging", "--full"])
        assert args.quick is False
        assert not hasattr(args, "num_inferences")  # full_config's 100 applies
        args = build_parser().parse_args(["aging", "--full", "--inferences", "7"])
        assert args.num_inferences == 7  # explicit flag still wins

    def test_fig2_render_honours_parameters(self, capsys):
        from repro.cli import main

        assert main(["--no-cache", "run", "fig2", "--set", "num_points=5",
                     "--set", "years=14"]) == 0
        out = capsys.readouterr().out
        assert "after 14 years" in out
        assert out.count("\n|") < 10  # 5 data rows, not the default 21

    def test_usage_errors_exit_2_without_traceback(self, capsys):
        from repro.cli import main

        assert main(["run", "figure-nine"]) == 2
        captured = capsys.readouterr()
        assert "unknown experiment" in captured.err
        assert "Traceback" not in captured.err
        assert main(["run", "aging", "--set", "policy=magic"]) == 2
        assert "must be one of" in capsys.readouterr().err

    def test_duplicate_grid_axis_rejected(self, capsys):
        from repro.cli import main

        assert main(["sweep", "aging", "--grid", "policy=none",
                     "--grid", "policy=dnn_life"]) == 2
        assert "specified twice" in capsys.readouterr().err

    def test_sweep_with_failed_job_exits_1(self, tmp_path, capsys):
        from repro.cli import main

        code = main(["--cache-dir", str(tmp_path / "cache"), "sweep", "aging",
                     "--grid", "network=lenet5", "--grid", "weight_memory_kb=16",
                     "--grid", "num_inferences=2", "--grid", "policy=none",
                     "--grid", "fifo_depth_tiles=1,7", "--workers", "1"])
        assert code == 1
        captured = capsys.readouterr()
        assert "1 failed" in captured.out
        assert "job 1 failed" in captured.err

    def test_no_cache_flag(self, tmp_path, capsys):
        from repro.cli import main

        argv = ["--cache-dir", str(tmp_path / "cache"), "--no-cache", "run", "fig2"]
        assert main(argv) == 0
        assert main(argv) == 0
        assert "| computed in" in capsys.readouterr().out
        assert not (tmp_path / "cache").exists()
