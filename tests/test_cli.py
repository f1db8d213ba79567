"""Tests for the dnn-life command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_commands_registered(self):
        parser = build_parser()
        for command in ("fig1", "fig2", "fig6", "fig7", "fig9", "fig11",
                        "table1", "table2", "compare", "energy"):
            args = parser.parse_args([command] if command not in ("compare", "energy")
                                     else [command, "--network", "custom_mnist"])
            assert args.command == command

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_full_flag(self):
        args = build_parser().parse_args(["fig9", "--full"])
        assert args.quick is False


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        assert "512" in capsys.readouterr().out

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        assert "Barrel" in capsys.readouterr().out

    def test_fig2(self, capsys):
        assert main(["fig2"]) == 0
        assert "SNM degradation" in capsys.readouterr().out

    def test_fig7_with_json(self, tmp_path, capsys):
        output = tmp_path / "fig7.json"
        assert main(["--json", str(output), "fig7"]) == 0
        payload = json.loads(output.read_text())
        assert payload["P(duty<=0.3 or >=0.7) @ K=20"] > 0.1
        assert "JSON result written" in capsys.readouterr().out

    def test_compare_small_workload(self, capsys, tmp_path):
        output = tmp_path / "compare.json"
        assert main(["--json", str(output), "compare", "--network", "custom_mnist",
                     "--format", "int8_symmetric", "--inferences", "5"]) == 0
        text = capsys.readouterr().out
        assert "DNN-Life" in text
        payload = json.loads(output.read_text())
        assert "best_policy" in payload

    def test_energy_command(self, capsys):
        assert main(["energy", "--network", "custom_mnist", "--inferences", "2"]) == 0
        assert "overhead" in capsys.readouterr().out


class TestScenarioCommand:
    SMALL_SPEC = ("custom_mnist:int8:inversion:3@85C,idle:2@45C,"
                  "custom_mnist:int8:none:3@45C")

    def test_scenario_verb(self, capsys):
        assert main(["scenario", "--spec", self.SMALL_SPEC,
                     "--memory-kb", "4", "--fifo-depth-tiles", "4"]) == 0
        out = capsys.readouterr().out
        assert "effective stress histogram" in out
        assert "memory lifetime" in out

    def test_scenario_json_output(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        assert main(["--json", str(path), "scenario", "--spec", self.SMALL_SPEC,
                     "--memory-kb", "4", "--fifo-depth-tiles", "4"]) == 0
        payload = json.loads(path.read_text())
        assert payload["workload"]["spec"] == self.SMALL_SPEC
        assert len(payload["phases"]) == 3

    def test_scenario_sweep(self, capsys):
        assert main(["sweep", "scenario",
                     "--grid", "spec=custom_mnist:int8:none:3,"
                               "custom_mnist:int8:inversion:3",
                     "--grid", "weight_memory_kb=4",
                     "--workers", "1"]) == 0
        assert "2 jobs" in capsys.readouterr().out


class TestFleetCommand:
    SMALL_MIX = ("0.5*custom_mnist:int8:inversion:3@85C,idle:2@45C@0.7V:0.2GHz|"
                 "0.5*lenet5:int8:none:3@45C")

    def test_fleet_verb(self, capsys):
        assert main(["fleet", "--devices", "8", "--mix", self.SMALL_MIX,
                     "--memory-kb", "4", "--fifo-depth-tiles", "4"]) == 0
        out = capsys.readouterr().out
        assert "=== fleet" in out
        assert "population survival" in out
        assert "cohorts" in out

    def test_fleet_json_output(self, tmp_path, capsys):
        path = tmp_path / "fleet.json"
        assert main(["--json", str(path), "fleet", "--devices", "6",
                     "--mix", self.SMALL_MIX, "--memory-kb", "4",
                     "--fifo-depth-tiles", "4"]) == 0
        payload = json.loads(path.read_text())
        assert payload["workload"]["devices"] == 6
        assert sum(payload["modes"].values()) == 6
        assert (len(payload["survival"]["times_years"])
                == len(payload["survival"]["fraction"]))
        assert payload["population"]["mix_spec"]
        assert sum(entry["num_devices"] for entry in payload["cohorts"]) == 6

    def test_fleet_sweep(self, capsys):
        assert main(["sweep", "fleet",
                     "--grid", "mix=;custom_mnist:int8:none:3@85C",
                     "--grid", "devices=4,6",
                     "--grid", "weight_memory_kb=4",
                     "--workers", "1"]) == 0
        assert "2 jobs" in capsys.readouterr().out


class TestWorkloadCommand:
    SMALL = ["--histories", "3", "--devices", "4", "--horizon-days", "2",
             "--memory-kb", "4", "--fifo-depth-tiles", "4"]

    def test_workload_fleet_verb(self, capsys):
        assert main(["workload"] + self.SMALL) == 0
        out = capsys.readouterr().out
        assert "sampled timeline" in out
        assert "sampled histories" in out
        assert "population survival" in out

    def test_workload_scenario_mode(self, capsys):
        assert main(["workload", "--mode", "scenario"] + self.SMALL) == 0
        out = capsys.readouterr().out
        assert "sampled timeline" in out
        assert "memory lifetime" in out

    def test_workload_json_output(self, tmp_path, capsys):
        path = tmp_path / "workload.json"
        assert main(["--json", str(path), "workload"] + self.SMALL) == 0
        payload = json.loads(path.read_text())
        assert payload["workload"]["histories"] == 3
        assert payload["compiled"]["mix_spec"]
        assert len(payload["timeline"]["slots"]) == 4
        assert payload["result"]["workload"]["devices"] == 4

    def test_workload_sweep(self, capsys):
        assert main(["sweep", "workload", "--grid", "rate_per_day=8,16",
                     "--grid", "histories=2", "--grid", "horizon_days=2",
                     "--grid", "weight_memory_kb=4",
                     "--grid", "fifo_depth_tiles=4",
                     "--workers", "1"]) == 0
        assert "2 jobs" in capsys.readouterr().out


class TestFriendlyValidation:
    """Invalid durations / phase tokens exit 2 with one-line errors."""

    def _error_line(self, capsys):
        err = capsys.readouterr().err.strip()
        assert err.startswith("dnn-life: error:")
        assert "Traceback" not in err
        assert "\n" not in err
        return err

    def test_run_rejects_non_positive_inferences(self, capsys):
        assert main(["run", "aging", "--set", "num_inferences=-5"]) == 2
        assert "must be > 0" in self._error_line(capsys)

    def test_subcommand_rejects_non_positive_inferences(self, capsys):
        assert main(["aging", "--inferences", "0"]) == 2
        assert "must be > 0" in self._error_line(capsys)

    def test_sweep_rejects_non_positive_inferences(self, capsys):
        assert main(["sweep", "aging", "--grid", "num_inferences=0"]) == 2
        assert "must be > 0" in self._error_line(capsys)

    def test_scenario_rejects_unknown_phase_token(self, capsys):
        assert main(["scenario", "--spec", "bogus:int8:none:5"]) == 2
        assert "unknown network 'bogus'" in self._error_line(capsys)

    def test_scenario_rejects_non_positive_phase_duration(self, capsys):
        assert main(["scenario", "--spec", "lenet5:int8:none:0"]) == 2
        assert "duration must be > 0" in self._error_line(capsys)

    def test_scenario_sweep_rejects_bad_spec(self, capsys):
        assert main(["sweep", "scenario",
                     "--grid", "spec=lenet5:int8:bogus:5"]) == 2
        assert "unknown policy 'bogus'" in self._error_line(capsys)

    def test_leveling_subcommand_rejects_non_positive_period(self, capsys):
        assert main(["level", "--leveling-period", "0"]) == 2
        assert "must be > 0" in self._error_line(capsys)

    def test_scenario_rejects_impossible_reference_temperature(self, capsys):
        assert main(["scenario", "--reference-temp", "-300"]) == 2
        assert "absolute zero" in self._error_line(capsys)

    def test_scenario_rejects_out_of_range_swap_fraction(self, capsys):
        assert main(["scenario", "--swap-fraction", "0.7"]) == 2
        assert "(0, 0.5]" in self._error_line(capsys)

    def test_scenario_rejects_negative_rotation_step(self, capsys):
        assert main(["scenario", "--rotation-step", "-1"]) == 2
        assert ">= 0" in self._error_line(capsys)

    def test_level_rejects_out_of_range_swap_fraction(self, capsys):
        assert main(["level", "--swap-fraction", "0.9"]) == 2
        assert "(0, 0.5]" in self._error_line(capsys)

    def test_fleet_rejects_non_positive_devices(self, capsys):
        assert main(["fleet", "--devices", "0"]) == 2
        assert "must be > 0" in self._error_line(capsys)

    def test_fleet_rejects_mix_weights_not_summing_to_one(self, capsys):
        assert main(["fleet", "--mix", "0.8*custom_mnist:int8:none:3|"
                                       "0.6*lenet5:int8:none:3"]) == 2
        err = self._error_line(capsys)
        assert "mix" in err
        assert "sum to 1" in err

    def test_fleet_rejects_bad_corner(self, capsys):
        assert main(["fleet", "--corners", "0.9V"]) == 2
        assert "corners" in self._error_line(capsys)

    def test_fleet_sweep_rejects_unknown_network_in_mix(self, capsys):
        assert main(["sweep", "fleet",
                     "--grid", "mix=bogus:int8:none:3"]) == 2
        assert "mix" in self._error_line(capsys)

    def test_workload_rejects_unknown_network_in_models(self, capsys):
        assert main(["workload", "--models", "bogus:int8:none"]) == 2
        assert "unknown network 'bogus'" in self._error_line(capsys)

    def test_workload_rejects_out_of_range_amplitude(self, capsys):
        assert main(["workload", "--diurnal-amplitude", "1.5"]) == 2
        assert "[0, 1)" in self._error_line(capsys)

    def test_workload_rejects_bad_corner(self, capsys):
        assert main(["workload", "--night-corner", "fast"]) == 2
        assert "operating point" in self._error_line(capsys)

    def test_workload_rejects_mixed_word_widths(self, capsys):
        assert main(["workload", "--models",
                     "lenet5:int8:none|lenet5:float32:none"]) == 2
        assert "word width" in self._error_line(capsys)

    def test_malformed_stream_cache_env_is_a_usage_error(self, capsys,
                                                         monkeypatch):
        monkeypatch.setenv("DNN_LIFE_STREAM_CACHE", "abc")
        assert main(["--no-cache", "run", "aging", "--set", "network=lenet5",
                     "--set", "weight_memory_kb=32",
                     "--set", "num_inferences=4"]) == 2
        assert self._error_line(capsys) == (
            "dnn-life: error: DNN_LIFE_STREAM_CACHE must be a non-negative "
            "integer, got 'abc'")

    def test_malformed_max_workers_env_is_a_usage_error(self, capsys,
                                                        monkeypatch):
        monkeypatch.setenv("DNN_LIFE_MAX_WORKERS", "two")
        assert main(["sweep", "aging", "--grid", "network=lenet5",
                     "--grid", "num_inferences=2,3"]) == 2
        assert self._error_line(capsys) == (
            "dnn-life: error: DNN_LIFE_MAX_WORKERS must be a non-negative "
            "integer, got 'two'")


class TestStreamStoreCli:
    """The ``--stream-store`` controls and the ``cache --streams`` view."""

    @pytest.fixture(autouse=True)
    def _fresh_stream_cache(self):
        # the process-local LRU would otherwise serve streams built by
        # earlier tests, hiding all store traffic
        from repro.experiments.aging_runner import clear_stream_cache

        clear_stream_cache()
        yield
        clear_stream_cache()

    SWEEP = ["sweep", "aging", "--grid", "network=custom_mnist",
             "--grid", "weight_memory_kb=8", "--grid", "num_inferences=2",
             "--grid", "policy=none,inversion", "--grid", "seed=0",
             "--workers", "1"]

    def test_sweep_reports_cold_build_then_reload(self, tmp_path, capsys,
                                                  monkeypatch):
        monkeypatch.setenv("DNN_LIFE_STREAM_CACHE", "0")  # all traffic via store
        argv = ["--stream-store", str(tmp_path / "streams"),
                "--cache-dir", str(tmp_path / "cache")]
        assert main(argv + self.SWEEP) == 0
        out = capsys.readouterr().out
        assert "1 cold build(s) persisted" in out
        assert "[backend serial]" in out
        # warm rerun, result cache bypassed: the store serves the stream
        assert main(argv + ["--no-cache"] + self.SWEEP) == 0
        out = capsys.readouterr().out
        assert "0 cold build(s) persisted" in out
        assert "2 hit(s)" in out

    def test_sweep_reports_failed_puts(self, tmp_path, capsys, monkeypatch):
        from repro.streamstore import StreamStore

        def disk_full(self, key, packed, describe=None):
            raise OSError(28, "No space left on device")

        monkeypatch.setenv("DNN_LIFE_STREAM_CACHE", "0")
        monkeypatch.setattr(StreamStore, "put", disk_full)
        argv = ["--stream-store", str(tmp_path / "streams"), "--no-cache"]
        assert main(argv + self.SWEEP) == 0
        out = capsys.readouterr().out
        assert "0 cold build(s) persisted, 2 failed to persist" in out

    def test_cache_streams_lists_entries(self, tmp_path, capsys):
        argv = ["--stream-store", str(tmp_path / "streams"),
                "--cache-dir", str(tmp_path / "cache")]
        assert main(argv + self.SWEEP) == 0
        capsys.readouterr()
        assert main(argv + ["cache", "--streams"]) == 0
        out = capsys.readouterr().out
        assert "1 entr(ies)" in out
        assert "custom_mnist" in out
        assert "8KB/8b" in out

    def test_cache_streams_clear_and_gc(self, tmp_path, capsys):
        argv = ["--stream-store", str(tmp_path / "streams"),
                "--cache-dir", str(tmp_path / "cache")]
        assert main(argv + self.SWEEP) == 0
        capsys.readouterr()
        assert main(argv + ["cache", "--streams", "--gc-days", "7"]) == 0
        assert "gc removed 0 stream entr(ies)" in capsys.readouterr().out
        assert main(argv + ["cache", "--streams", "--clear"]) == 0
        assert "removed 1 stream entr(ies)" in capsys.readouterr().out
        assert main(argv + ["cache", "--streams"]) == 0
        assert "0 entr(ies)" in capsys.readouterr().out

    def test_cache_streams_reports_reclaimed_orphans(self, tmp_path, capsys):
        import os
        import time

        from repro.streamstore import ORPHAN_AGE_GUARD_SECONDS

        argv = ["--stream-store", str(tmp_path / "streams"),
                "--cache-dir", str(tmp_path / "cache")]
        assert main(argv + self.SWEEP) == 0
        capsys.readouterr()
        # strand the payload (the pre-fix leak) and age it past the guard
        bucket = next((tmp_path / "streams").glob("??"))
        manifest = next(bucket.glob("*.json"))
        payload = manifest.with_suffix(".bin")
        manifest.unlink()
        stamp = time.time() - 2 * ORPHAN_AGE_GUARD_SECONDS
        os.utime(payload, times=(stamp, stamp))
        # the table view surfaces the orphaned footprint...
        assert main(argv + ["cache", "--streams"]) == 0
        assert "orphaned:" in capsys.readouterr().out
        # ...and --clear reports what it reclaimed
        assert main(argv + ["cache", "--streams", "--clear"]) == 0
        out = capsys.readouterr().out
        assert "removed 0 stream entr(ies)" in out
        assert "reclaimed 1 orphaned file(s)" in out
        assert not payload.exists()

    def test_no_stream_store_disables(self, capsys):
        assert main(["--no-stream-store", "cache", "--streams"]) == 0
        assert "stream store disabled" in capsys.readouterr().out

    def test_no_stream_store_sweep_omits_accounting(self, tmp_path, capsys):
        argv = ["--no-stream-store", "--cache-dir", str(tmp_path / "cache")]
        assert main(argv + self.SWEEP) == 0
        assert "stream store at" not in capsys.readouterr().out

    def test_removed_backend_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "aging", "--grid", "policy=none",
                  "--backend", "serial"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert "unrecognized arguments" in errors[0]
        assert "Traceback" not in err

    def test_unknown_backend_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "aging", "--backend", "threads"])
        assert excinfo.value.code == 2
        assert "Traceback" not in capsys.readouterr().err
