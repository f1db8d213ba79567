"""The benchmark's three workloads and their correctness checks.

Each workload is a closed loop driven by one client process: the next op
starts when the previous one ends.  Ops call the program only through the
public functions of its layers.  A workload has four parts:

* ``setup()`` — the warm-up the workload states; timed as part of ``setup_s``;
* ``op(index, tracer)`` — one op, timed; returns a record for the checks;
* ``observe(index, record)`` — cheap bookkeeping outside the timed window
  (never calls an instrumented function, so it records no span);
* ``check(records)`` — the correctness gate, run after the loop with
  tracing removed; returns ``{op index: [failure, ...]}``.

Run-level checks (the packed-vs-explicit cross-check) count against the
loop's first op.  Checks are invariants only: no SHA of synthesized weights
or of dnn_life draws is pinned, so a change that re-draws them on purpose
does not fail ops.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace
from pathlib import Path
from typing import Dict, List

import numpy as np

#: Epochs per design point, the ``dnn-life run aging`` default.
NUM_INFERENCES = 20

POLICIES = ("none", "inversion", "barrel_shifter", "dnn_life")


def op_seed(seed: int, index: int, purpose: int = 0) -> int:
    """The fresh seed of op ``index`` (``purpose`` 1: set-up) of a run."""
    return int(np.random.SeedSequence([seed, purpose, index]).generate_state(1)[0])


def dnn_life_failures(summary: Dict[str, object]) -> List[str]:
    """Distribution-level check of a dnn_life result: duty centred on 50 %.

    DNN-Life encodes every write with an unbiased random bit, so per-cell
    duty cycles average 0.5, and a cell written n times strays from 0.5 by
    about 0.4 / sqrt(n) on average (n >= NUM_INFERENCES here).  The bounds
    leave room for any correct draw order.
    """
    duty = summary["duty_cycle"]
    failures = []
    if abs(duty["mean"] - 0.5) > 0.02:
        failures.append(f"dnn_life mean duty {duty['mean']:.4f} is not ~0.5")
    if duty["mean_abs_deviation_from_half"] > 0.15:
        failures.append(f"dnn_life duty strays {duty['mean_abs_deviation_from_half']:.4f}"
                        f" from 0.5 on average")
    return failures


def explicit_failures(seed: int) -> List[str]:
    """Packed engine == write-by-write explicit engine on one small point.

    Runs the program's own cross-checks: every deterministic policy
    unleveled, and under every leveler; the duty cycles must agree exactly.
    """
    from repro.bench.aging_bench import (verify_against_explicit,
                                         verify_leveling_against_explicit)

    return [f"packed != explicit for {case}"
            for verify in (verify_against_explicit, verify_leveling_against_explicit)
            for case, match in verify(seed)["policies"].items() if not match]


class Workload:
    """Common shape of a workload (see the module docstring)."""

    name = ""
    #: Ops per loop round; the loop only stops on a round boundary.
    round_ops = 1
    #: Fresh-interpreter set-ups timed per run; ``setup_s`` is their median.
    setup_samples = 5

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.tmp = tmp

    def use_store(self, label: str) -> Path:
        """Point the program's stream store at a fresh directory of this run."""
        root = self.tmp / f"store-{label}"
        os.environ["DNN_LIFE_STREAM_STORE"] = str(root)
        return root

    def setup(self) -> None:
        pass

    def prepare_checks(self) -> None:
        """Untimed: state the checks need, taken right after set-up."""

    def start_loop(self, label: str) -> None:
        """Make a second loop in the same process repeat the first one's work."""

    def observe(self, index: int, record: dict) -> None:
        pass

    def check(self, records: Dict[int, dict]) -> Dict[int, List[str]]:
        raise NotImplementedError


class ColdDesignSweep(Workload):
    """One never-built ``dnn-life run aging`` design point per op."""

    name = "cold_design_sweep"
    round_ops = 4
    NETWORKS = ("alexnet", "googlenet", "custom_mnist", "lenet5")
    FORMATS = ("int8_symmetric", "float32", "q2_14_fixed", "int8_asymmetric")
    MEMORY_KB = (512, 256, 64, 8)

    # The 4 x 4 x 4 x 4 design space as 64 rounds of four ops, one per
    # network, each round using every format, memory size and policy once.
    # The round order is a fixed shuffle so the first rounds, which every run
    # measures, already mix formats and sizes; the benchmark seed only picks
    # the weights and policy draws, so runs stay comparable across seeds.
    ROUNDS = [(a, b, c) for a in range(4) for b in range(4) for c in range(4)]
    ROUND_ORDER = np.random.default_rng(2021).permutation(len(ROUNDS))

    def setup(self) -> None:
        # Each op's stream is new, so the in-memory LRU can only hold dead
        # streams; one slot keeps the process within its memory budget.
        os.environ["DNN_LIFE_STREAM_CACHE"] = "1"
        self.start_loop("untraced")

    def start_loop(self, label: str) -> None:
        from repro.experiments.aging_runner import clear_stream_cache

        clear_stream_cache()
        self.store_root = self.use_store(f"cold-{label}")
        self.seen_keys: set = set()

    def design_point(self, index: int) -> Dict[str, object]:
        from repro.quantization.formats import get_format

        a, b, c = self.ROUNDS[self.ROUND_ORDER[(index // 4) % len(self.ROUNDS)]]
        j = index % 4
        data_format = self.FORMATS[(3 * j + b) % 4]
        memory_kb = self.MEMORY_KB[(j + c) % 4]
        if memory_kb == 8 and get_format(data_format).word_bits > 8:
            memory_kb = 16  # same row count class for 16/32-bit words
        return {"network": self.NETWORKS[j], "data_format": data_format,
                "policy": POLICIES[(j + a) % 4], "weight_memory_kb": memory_kb,
                "num_inferences": NUM_INFERENCES, "seed": op_seed(self.seed, index)}

    def op(self, index: int, tracer) -> dict:
        from repro.experiments.aging_point import run_aging_point

        point = self.design_point(index)
        payload = run_aging_point(**point)
        return {"point": point, "results": payload["results"]}

    def observe(self, index: int, record: dict) -> None:
        from repro.streamstore import StreamStore

        keys = {entry["key"] for entry in StreamStore(self.store_root).entries()}
        record["keys"] = sorted(keys - self.seen_keys)
        self.seen_keys = keys

    def check(self, records: Dict[int, dict]) -> Dict[int, List[str]]:
        from repro.experiments.aging_point import run_aging_point
        from repro.experiments.aging_runner import clear_stream_cache
        from repro.streamstore import StreamStore, packed_content_sha256
        from repro.utils.serialization import canonical_json

        store = StreamStore(self.store_root)
        failures: Dict[int, List[str]] = {}
        for index, record in records.items():
            problems = failures.setdefault(index, [])
            if len(record["keys"]) != 1:
                problems.append(f"op wrote {len(record['keys'])} store entries, not 1")
            for key in record["keys"]:
                manifest = json.loads(store.manifest_path(key).read_text())
                loaded = store.get(key)
                if loaded is None or (packed_content_sha256(loaded)
                                      != manifest["payload_sha256"]):
                    problems.append(f"store entry {key[:12]} does not read back")
            for entry in record["results"].values():
                if entry["policy"] == "dnn_life":
                    problems.extend(dnn_life_failures(entry["summary"]))
        if records:
            first = min(records)
            failures[first].extend(explicit_failures(self.seed))
            # Re-run a sampled op; its stream now comes back from the store.
            sampled = sorted(records)[self.seed % len(records)]
            clear_stream_cache()
            again = run_aging_point(**records[sampled]["point"])["results"]
            if canonical_json(again) != canonical_json(records[sampled]["results"]):
                failures[sampled].append("re-run gives a different summary")
        return failures


class WarmLevelingSweep(Workload):
    """Every policy x leveler on one stream read back from the store."""

    name = "warm_leveling_sweep"
    setup_samples = 3
    LEVELERS = ("none", "rotation", "start_gap", "wear_swap")

    def setup(self) -> None:
        from repro.accelerator.config import tpu_like_config
        from repro.accelerator.tpu import TpuLikeNpu
        from repro.aging.snm import default_degradation_bins, default_snm_model
        from repro.experiments.aging_runner import build_workload_stream
        from repro.experiments.common import ExperimentScale

        self.use_store("warm")
        # Fig. 11 TPU-like geometry: alexnet int8, 256 KB, 4-tile FIFO.
        self.identity = (("alexnet", TpuLikeNpu(config=tpu_like_config()),
                          "int8_symmetric", ExperimentScale.quick()),
                         {"seed": op_seed(self.seed, 0, purpose=1)})
        args, kwargs = self.identity
        build_workload_stream(*args, **kwargs).packed_bits()
        self.bins = default_degradation_bins(default_snm_model())

    def prepare_checks(self) -> None:
        from repro.experiments.aging_runner import (build_workload_stream,
                                                    clear_stream_cache)
        from repro.streamstore import packed_content_sha256

        # The set-up build is still in the in-memory LRU: hash what was built,
        # then drop it so the first op starts from the state of later ones.
        args, kwargs = self.identity
        self.built_sha = packed_content_sha256(
            build_workload_stream(*args, **kwargs).packed_bits())
        clear_stream_cache()

    def combination(self, stream, policy: str, leveler: str, seed: int) -> dict:
        from repro.core.policies import make_policy
        from repro.core.simulation import AgingSimulator
        from repro.experiments.leveling import build_point_leveler
        from repro.memory.wear_map import wear_map_from_result

        tiles = stream.fifo_depth_tiles
        result = AgingSimulator(
            stream, make_policy(policy, stream.geometry.word_bits, seed=seed),
            num_inferences=NUM_INFERENCES, seed=seed,
            leveler=build_point_leveler(leveler, stream.geometry, tiles,
                                        leveling_period=2, rotation_step=1,
                                        swap_fraction=0.5)).run()
        percentages, _edges, _labels = result.histogram(self.bins)
        return {"wear": wear_map_from_result(result, num_regions=tiles).summary(),
                "summary": result.summary(),
                "histogram_percent": np.asarray(percentages).tolist()}

    def op(self, index: int, tracer) -> dict:
        from repro.experiments.aging_runner import (build_workload_stream,
                                                    clear_stream_cache)

        # A fresh sweep worker batch: nothing in memory, the stream is read
        # back from the store.
        clear_stream_cache()
        args, kwargs = self.identity
        stream = build_workload_stream(*args, **kwargs)
        seed = op_seed(self.seed, index)
        results = {f"{policy}+{leveler}": self.combination(stream, policy, leveler, seed)
                   for policy in POLICIES for leveler in self.LEVELERS}
        return {"seed": seed, "stream": stream, "results": results}

    def observe(self, index: int, record: dict) -> None:
        from repro.streamstore import StoredWeightStream, packed_content_sha256

        stream = record.pop("stream")
        record["read_back"] = (isinstance(stream, StoredWeightStream) and
                               packed_content_sha256(stream.packed_bits())
                               == self.built_sha)

    def check(self, records: Dict[int, dict]) -> Dict[int, List[str]]:
        from repro.experiments.aging_runner import build_workload_stream
        from repro.utils.serialization import canonical_json

        failures: Dict[int, List[str]] = {}
        for index, record in records.items():
            problems = failures.setdefault(index, [])
            if not record["read_back"]:
                problems.append("stream was not read back bit-identical from the store")
            for label, entry in record["results"].items():
                if label.startswith("dnn_life+"):
                    problems.extend(dnn_life_failures(entry["summary"]))
        if records:
            failures[min(records)].extend(explicit_failures(self.seed))
            sampled = sorted(records)[self.seed % len(records)]
            labels = sorted(records[sampled]["results"])
            label = labels[self.seed % len(labels)]
            policy, leveler = label.split("+")
            args, kwargs = self.identity
            again = self.combination(build_workload_stream(*args, **kwargs),
                                     policy, leveler, records[sampled]["seed"])
            if canonical_json(again) != canonical_json(records[sampled]["results"][label]):
                failures[sampled].append(f"re-run of {label} gives a different summary")
        return failures


class GeneratedFleet(Workload):
    """A freshly sampled traffic model compiled into a fleet and simulated."""

    name = "generated_fleet"
    MODELS = "0.6*lenet5:int8:dnn_life|0.4*custom_mnist:int8:inversion"
    # 32 epochs a day leaves a few slots under the idle threshold, so the
    # fleets mix retention-limited and wear-limited devices.
    RATE_PER_DAY = 32.0
    HISTORIES = 16
    DEVICES = 384
    MEMORY_KB = 4
    REFERENCE_DEVICES = 3

    def setup(self) -> None:
        from repro.accelerator.baseline import BaselineAccelerator
        from repro.accelerator.config import baseline_config
        from repro.experiments.common import ExperimentScale
        from repro.scenario.driver import scenario_stream_factory
        from repro.scenario.phases import Phase
        from repro.utils.units import KB
        from repro.workloads import parse_model_mix

        self.use_store("fleet")
        config = replace(baseline_config(), name="perfbench_fleet",
                         weight_memory_bytes=self.MEMORY_KB * KB,
                         weight_fifo_depth_tiles=4)
        self.factory = scenario_stream_factory(
            BaselineAccelerator(config=config),
            scale=ExperimentScale(num_inferences=100, max_weights_per_layer=10_000),
            seed=op_seed(self.seed, 0, purpose=1))
        self.models, self.weights = parse_model_mix(self.MODELS)
        for network, data_format, policy in self.models:
            stream = self.factory(Phase.active(network, data_format, policy, 1))
            self.cells = stream.geometry.rows * stream.geometry.word_bits
            stream.packed_bits()

    def fleet_spec(self, seed: int):
        from repro.workloads import TrafficModel, compile_fleet_spec

        model = TrafficModel(models=self.models, model_weights=self.weights,
                             rate_per_day=self.RATE_PER_DAY,
                             burst_probability=0.25, diurnal_amplitude=0.6,
                             night_corner=(0.7, 0.2), ota_interval_days=2.0,
                             idle_threshold=2, horizon_days=7, seed=seed)
        return compile_fleet_spec(model, histories=self.HISTORIES,
                                  devices=self.DEVICES, usage_sigma=0.3,
                                  thermal_sigma_c=5.0, seed_groups=2)

    def op(self, index: int, tracer) -> dict:
        from repro.fleet import FleetSimulator

        seed = op_seed(self.seed, index)
        with tracer.span("workloads.compile"):
            spec = self.fleet_spec(seed)
        tracer.count("workloads.unique_scenarios", len(spec.scenarios))

        def factory(phase):
            tracer.count("scenario.stream_factory_calls")
            with tracer.span("scenario.stream_factory"):
                return self.factory(phase)

        with tracer.span("fleet.run"):
            result = FleetSimulator(spec, stream_factory=(
                factory if tracer.enabled else self.factory)).run()
        tracer.count("fleet.cohorts", len(result.cohorts))
        tracer.count("fleet.device_cells", spec.num_devices * self.cells)
        return {"seed": seed, "spec": spec, "summary": result.summary()}

    def observe(self, index: int, record: dict) -> None:
        from repro.utils.serialization import canonical_json

        spec = record.pop("spec")
        record["recompiled_identical"] = (
            canonical_json(spec.to_payload())
            == canonical_json(self.fleet_spec(record["seed"]).to_payload()))

    def check(self, records: Dict[int, dict]) -> Dict[int, List[str]]:
        from repro.fleet import FleetSimulator, failure_times_from_scenario_result
        from repro.scenario.driver import ScenarioAgingSimulator
        from repro.utils.serialization import canonical_json

        failures: Dict[int, List[str]] = {
            index: ([] if record["recompiled_identical"]
                    else ["recompiled FleetSpec payload differs"])
            for index, record in records.items()}
        if not records:
            return failures
        failures[min(records)].extend(explicit_failures(self.seed))
        sampled = sorted(records)[self.seed % len(records)]
        simulator = FleetSimulator(self.fleet_spec(records[sampled]["seed"]),
                                   stream_factory=self.factory)
        result = simulator.run()
        if canonical_json(result.summary()) != canonical_json(records[sampled]["summary"]):
            failures[sampled].append("re-run gives a different fleet summary")
        # A device subsample against one standalone scenario run per device,
        # including a retention-limited device when the fleet has one.
        sample = result.sample
        devices = set(np.random.default_rng(self.seed).choice(
            sample.num_devices, self.REFERENCE_DEVICES, replace=False).tolist())
        devices.update(np.flatnonzero(np.isfinite(result.retention_years))[:1].tolist())
        for device in sorted(devices):
            reference = failure_times_from_scenario_result(
                ScenarioAgingSimulator(simulator.device_scenario(sample, device),
                                       stream_factory=self.factory,
                                       seed=simulator.device_seed(sample, device)).run(),
                usage=float(sample.usage[device]),
                max_degradation_percent=simulator.max_degradation_percent,
                reference_years=simulator.reference_years)
            for field, values in (("snm_years", result.snm_years),
                                  ("retention_years", result.retention_years)):
                fleet_value, ref_value = float(values[device]), reference[field]
                if not (fleet_value == ref_value or np.isclose(
                        fleet_value, ref_value, rtol=1e-9, atol=0.0)):
                    failures[sampled].append(
                        f"device {device} {field}: fleet {fleet_value} != "
                        f"scenario {ref_value}")
        return failures


WORKLOADS = {workload.name: workload
             for workload in (ColdDesignSweep, WarmLevelingSweep, GeneratedFleet)}
