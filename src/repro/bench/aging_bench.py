"""Engine micro-benchmarks for the aging simulators.

The harness tracks, over the repo's history, how long the packed closed-form
:class:`~repro.core.simulation.AgingSimulator` takes on realistic
weight-memory workloads.  Each benchmark case times the full
mitigation-policy suite on one configuration, and (on small configurations)
the packed engine is cross-validated against the exact write-by-write
:class:`~repro.core.simulation.ExplicitAgingSimulator`.

Results are written to ``BENCH_aging.json`` (schema
:data:`BENCH_SCHEMA`), which CI uploads as a build artifact so the
performance trajectory of the hottest path in the repo is tracked from every
commit.
"""

from __future__ import annotations

import platform
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.accelerator.baseline import BaselineAccelerator
from repro.accelerator.config import baseline_config
from repro.accelerator.scheduler import PackedBitTensor, WeightBlock
from repro.core.policies import MitigationPolicy, make_policy
from repro.core.simulation import AgingSimulator, ExplicitAgingSimulator
from repro.experiments.aging_runner import build_workload_stream
from repro.experiments.common import ExperimentScale
from repro.memory.geometry import MemoryGeometry
from repro.quantization.bitops import random_words
from repro.utils.rng import SeedLike, as_rng
from repro.utils.units import KB
from repro.utils.validation import check_positive_int

#: Schema tag stamped into every benchmark payload.
BENCH_SCHEMA = "dnn-life-bench/v2"

#: Default output file of ``dnn-life bench``.
DEFAULT_OUTPUT = "BENCH_aging.json"

#: Policies timed on every case; ``dnn_life`` is stochastic, the rest are
#: deterministic.
BENCH_POLICIES = ("none", "inversion", "barrel_shifter", "dnn_life")

_DETERMINISTIC = ("none", "inversion", "inversion_per_location", "barrel_shifter")


class SyntheticWeightStream:
    """A scheduler-compatible stream of biased random weight words.

    Lets the bench exercise configurations no registered data format reaches
    (the paper's 64-bit-word accountings) without quantizing a real network:
    the words are random with a DNN-like bit bias, the block structure and
    region placement mirror :class:`~repro.accelerator.scheduler.WeightStreamScheduler`.
    """

    def __init__(self, geometry: MemoryGeometry, num_blocks: int,
                 fifo_depth_tiles: int = 1, seed: SeedLike = 0,
                 probability_of_one: float = 0.35):
        self.geometry = geometry
        self.fifo_depth_tiles = check_positive_int(fifo_depth_tiles, "fifo_depth_tiles")
        if geometry.rows % self.fifo_depth_tiles != 0:
            raise ValueError(f"{geometry.rows} rows cannot be divided into "
                             f"{fifo_depth_tiles} FIFO tiles")
        check_positive_int(num_blocks, "num_blocks")
        rng = as_rng(seed)
        words = random_words(rng, num_blocks * self.words_per_block,
                             geometry.word_bits, probability_of_one)
        self._words = words.reshape(num_blocks, self.words_per_block)
        self._packed: Optional[PackedBitTensor] = None

    @property
    def words_per_block(self) -> int:
        """Words per block (one FIFO tile, or the whole memory)."""
        return self.geometry.rows // self.fifo_depth_tiles

    @property
    def num_blocks(self) -> int:
        """Blocks streamed per inference."""
        return int(self._words.shape[0])

    def iter_blocks(self):
        """Yield the synthetic blocks with round-robin region placement."""
        for index in range(self.num_blocks):
            yield WeightBlock(index=index, words=self._words[index],
                              region=index % self.fifo_depth_tiles,
                              layer_names=("synthetic",))

    def packed_bits(self) -> PackedBitTensor:
        """The stream's packed bit tensor (built lazily once)."""
        if self._packed is None:
            self._packed = PackedBitTensor.from_stream(self)
        return self._packed

    def describe(self) -> dict:
        """Machine-readable description of the synthetic schedule."""
        return {
            "network": "synthetic",
            "word_bits": self.geometry.word_bits,
            "memory_capacity_bytes": self.geometry.capacity_bytes,
            "memory_rows": self.geometry.rows,
            "words_per_block": self.words_per_block,
            "fifo_depth_tiles": self.fifo_depth_tiles,
            "total_weight_words": int(self._words.size),
            "num_blocks_per_inference": self.num_blocks,
        }


@dataclass(frozen=True)
class BenchCase:
    """One benchmark configuration.

    ``network=None`` makes the case synthetic (random words of
    ``word_bits``); otherwise the named model-zoo network is quantized with
    ``data_format`` exactly as the aging experiments do.
    """

    name: str
    description: str
    memory_kb: int
    word_bits: int
    num_inferences: int = 100
    fifo_depth_tiles: int = 1
    network: Optional[str] = None
    data_format: Optional[str] = None
    num_blocks: int = 0  # synthetic cases only
    policies: Tuple[str, ...] = BENCH_POLICIES
    max_weights_per_layer: Optional[int] = 1_000_000

    def build_stream(self, seed: int = 0, store=None):
        """Materialise the case's weight stream.

        The stream store is *disabled* by default (``store=None``) so the
        recorded ``stream_build_seconds`` stays an honest cold build; pass a
        :class:`~repro.streamstore.StreamStore` (or ``"auto"``) to opt in.
        """
        if self.network is None:
            geometry = MemoryGeometry(capacity_bytes=self.memory_kb * KB,
                                      word_bits=self.word_bits)
            return SyntheticWeightStream(geometry, self.num_blocks,
                                         fifo_depth_tiles=self.fifo_depth_tiles,
                                         seed=seed)
        from dataclasses import replace

        config = replace(baseline_config(), name=f"bench_{self.name}",
                         weight_memory_bytes=self.memory_kb * KB,
                         weight_fifo_depth_tiles=self.fifo_depth_tiles)
        scale = ExperimentScale(num_inferences=self.num_inferences,
                                max_weights_per_layer=self.max_weights_per_layer)
        return build_workload_stream(self.network, BaselineAccelerator(config=config),
                                     self.data_format, scale, seed=seed,
                                     store=store)

    def store_identity(self, seed: int = 0) -> Dict[str, object]:
        """The stream-defining parameters this case's store key hashes."""
        if self.network is None:
            return {
                "synthetic": True,
                "memory_kb": self.memory_kb,
                "word_bits": self.word_bits,
                "num_blocks": self.num_blocks,
                "fifo_depth_tiles": self.fifo_depth_tiles,
                "probability_of_one": 0.35,
                "seed": int(seed),
            }
        return {
            "network": self.network,
            "data_format": self.data_format,
            "memory_kb": self.memory_kb,
            "word_bits": self.word_bits,
            "fifo_depth_tiles": self.fifo_depth_tiles,
            "max_weights_per_layer": self.max_weights_per_layer,
            "seed": int(seed),
        }

    def describe(self) -> Dict[str, object]:
        """JSON-safe description of the configuration."""
        return {
            "name": self.name,
            "description": self.description,
            "memory_kb": self.memory_kb,
            "word_bits": self.word_bits,
            "num_inferences": self.num_inferences,
            "fifo_depth_tiles": self.fifo_depth_tiles,
            "network": self.network,
            "data_format": self.data_format,
            "num_blocks": self.num_blocks or None,
            "policies": list(self.policies),
        }


def default_bench_cases() -> List[BenchCase]:
    """The standard case suite: AlexNet/VGG-class memories plus a smoke case.

    ``alexnet_512kb_64bit`` is the acceptance configuration: the paper's
    baseline 512 KB weight memory with 64-bit words (the Table II datapath
    width) under an AlexNet-class block stream.
    """
    return [
        BenchCase(
            name="alexnet_512kb_64bit",
            description="AlexNet-class stream, 512 KB memory, 64-bit words",
            memory_kb=512, word_bits=64, num_blocks=84, num_inferences=100,
        ),
        BenchCase(
            name="alexnet_512kb_8bit",
            description="AlexNet int8 on the paper's baseline accelerator",
            memory_kb=512, word_bits=8, network="alexnet",
            data_format="int8_symmetric", num_inferences=100,
        ),
        BenchCase(
            name="vgg16_512kb_8bit",
            description="VGG-16 int8 on the paper's baseline accelerator",
            memory_kb=512, word_bits=8, network="vgg16",
            data_format="int8_symmetric", num_inferences=100,
        ),
        BenchCase(
            name="alexnet_fifo_256kb_8bit",
            description="AlexNet int8 on the TPU-like 4-tile weight FIFO",
            memory_kb=256, word_bits=8, fifo_depth_tiles=4, network="alexnet",
            data_format="int8_symmetric", num_inferences=100,
        ),
        BenchCase(
            name="smoke_mnist_8bit",
            description="tiny smoke configuration for tests",
            memory_kb=8, word_bits=8, network="custom_mnist",
            data_format="int8_symmetric", num_inferences=10,
            max_weights_per_layer=20_000,
        ),
    ]


def _best_of(repeats: int, function, *args, **kwargs) -> Tuple[float, object]:
    """Run ``function`` ``repeats`` times; return (best seconds, last result)."""
    best = float("inf")
    result = None
    for _ in range(max(repeats, 1)):
        start = time.perf_counter()
        result = function(*args, **kwargs)
        best = min(best, time.perf_counter() - start)
    return best, result


def _policy_for(case: BenchCase, name: str, seed: int) -> MitigationPolicy:
    return make_policy(name, case.word_bits, seed=seed)


def _bench_stream_store(case: BenchCase, stream, cold_seconds: float,
                        seed: int, repeats: int,
                        store=None) -> Dict[str, object]:
    """Measure the stream store's warm-load path against the cold build.

    Persists the case's freshly-built packed tensor, times the memory-mapped
    reload, and pins bitwise identity by comparing the payload SHA-256 of the
    built and the loaded tensor.  With no ``store`` the measurement runs in
    an ephemeral directory, so benching never pollutes (or is flattered by)
    the user's real store.
    """
    import tempfile

    from repro.streamstore import (StreamStore, packed_content_sha256,
                                   stream_store_key)

    packed = stream.packed_bits()
    built_sha = packed_content_sha256(packed)
    created = None
    if store is None:
        created = tempfile.TemporaryDirectory(prefix="dnn-life-bench-streams-")
        store = StreamStore(created.name)
    try:
        kind = "synthetic" if case.network is None else "workload"
        key = stream_store_key(kind, case.store_identity(seed))
        store.put(key, packed, describe=stream.describe())
        warm_seconds, loaded = _best_of(repeats, store.load_stream, key)
        hit = loaded is not None
        loaded_sha = (packed_content_sha256(loaded.packed_bits())
                      if hit else None)
        return {
            "key": key,
            "cold_build_seconds": cold_seconds,
            "warm_load_seconds": warm_seconds,
            "hit": hit,
            "speedup": (cold_seconds / warm_seconds if warm_seconds else None),
            "bit_identical": bool(hit and loaded_sha == built_sha),
            "payload_sha256": built_sha,
            "entry_nbytes": int(store.payload_path(key).stat().st_size),
        }
    finally:
        if created is not None:
            created.cleanup()


def bench_case(case: BenchCase, repeats: int = 3, seed: int = 0,
               stream_store=None) -> Dict[str, object]:
    """Time the packed engine across the case's policy suite.

    The packed tensor build is timed separately and charged to the total:
    it is the one-time cost every policy evaluation after the first gets for
    free.  The ``stream_store`` entry of the result records the store's
    cold-build vs warm-mmap-load trade for this case (measured against
    ``stream_store`` or an ephemeral one).
    """
    build_start = time.perf_counter()
    stream = case.build_stream(seed=seed)
    stream_build_seconds = time.perf_counter() - build_start

    packed_build_seconds, packed = _best_of(1, stream.packed_bits)

    policies: Dict[str, Dict[str, object]] = {}
    packed_total = packed_build_seconds
    for policy_name in case.policies:
        def run():
            return AgingSimulator(stream, _policy_for(case, policy_name, seed),
                                  num_inferences=case.num_inferences,
                                  seed=seed).run()

        packed_seconds, _ = _best_of(repeats, run)
        packed_total += packed_seconds
        policies[policy_name] = {
            "packed_seconds": packed_seconds,
            "deterministic": policy_name in _DETERMINISTIC,
        }

    return {
        "case": case.describe(),
        "stream": stream.describe(),
        "packed_tensor_bytes": packed.nbytes,
        "stream_build_seconds": stream_build_seconds,
        "packed_build_seconds": packed_build_seconds,
        "stream_store": _bench_stream_store(
            case, stream, cold_seconds=stream_build_seconds + packed_build_seconds,
            seed=seed, repeats=repeats, store=stream_store),
        "policies": policies,
        "packed_total_seconds": packed_total,
    }


def verify_against_explicit(seed: int = 0) -> Dict[str, object]:
    """Exact-match check of the packed engine on an explicit-simulable config.

    Runs every deterministic policy (including per-location inversion) on a
    small workload with both the packed engine and the write-by-write
    explicit simulator; the duty-cycles must agree exactly.
    """
    case = BenchCase(name="verify_mnist_8bit",
                     description="explicit-engine cross-check",
                     memory_kb=4, word_bits=8, network="custom_mnist",
                     data_format="int8_symmetric", num_inferences=3,
                     max_weights_per_layer=10_000)
    stream = case.build_stream(seed=seed)
    checks: Dict[str, bool] = {}
    for policy_name in _DETERMINISTIC:
        fast = AgingSimulator(stream, _policy_for(case, policy_name, seed),
                              num_inferences=case.num_inferences,
                              seed=seed).run()
        exact = ExplicitAgingSimulator(stream, _policy_for(case, policy_name, seed),
                                       num_inferences=case.num_inferences).run()
        checks[policy_name] = bool(np.array_equal(fast.duty_cycles, exact.duty_cycles))
    return {
        "case": case.describe(),
        "policies": checks,
        "explicit_match": all(checks.values()),
    }


#: Leveling policies timed by the wear-leveling bench entry, with the
#: constructor options each one is driven with.
LEVELING_BENCH_POLICIES = (
    ("rotation", {"period": 8, "step": 1}),
    ("start_gap", {"interval": 2}),
    ("wear_swap", {"interval": 5, "swap_fraction": 0.25}),
)


#: Leveled-run overhead budget for the schedule-driven levelers (rotation,
#: start-gap): their whole window composes through the fused roll/window
#: path, so a leveled packed run must stay within this factor of the
#: unleveled one.
LEVELING_OVERHEAD_LIMIT = 5.0

#: Separate budget for the feedback-driven wear-swap leveler.  Its mapping is
#: re-derived from observed wear at every swap interval, which serialises the
#: run into one stable ``argsort`` per interval — a cost the batched
#: composition cannot amortise without changing the swap decisions.  The
#: measured floor on the 64 KB case is ~12x; the budget leaves headroom for
#: machine noise while still catching a regression to the pre-batching 48x.
WEAR_SWAP_OVERHEAD_LIMIT = 20.0


#: Per-leveler budgets for the stochastic ``dnn_life`` policy.  Its TRBG
#: kernel draws every span in call order and reduces all of a run's mappings
#: in one fused pass over the packed tensor.  Measured on the 64 KB case
#: (2-vCPU host, best of 3, unleveled baseline 6-11 ms): rotation 3.2-4.1x,
#: start_gap 4.8-7.2x, wear_swap 12-17x.  A literal per-span walk over the
#: same kernel measured 30-39x, 18-37x and 16-20x.  ``dnn_life+rotation``
#: therefore meets the 5x schedule-driven target.  The rotation and
#: start-gap limits sit below the per-span figures, so a return to that path
#: fails the gate.  The wear-swap limit cannot separate the two: the leveler's
#: own per-interval argsort and the per-chunk permutation scatters dominate
#: both paths, so it only catches gross regressions.
DNN_LIFE_OVERHEAD_LIMITS = {"rotation": 10.0, "start_gap": 15.0,
                            "wear_swap": 25.0}


def leveling_overhead_limit(leveler_name: str,
                            policy_name: Optional[str] = None) -> float:
    """The leveled-overhead budget for one leveling policy (and policy)."""
    if policy_name == "dnn_life" and leveler_name in DNN_LIFE_OVERHEAD_LIMITS:
        return DNN_LIFE_OVERHEAD_LIMITS[leveler_name]
    return (WEAR_SWAP_OVERHEAD_LIMIT if leveler_name == "wear_swap"
            else LEVELING_OVERHEAD_LIMIT)


def check_leveling_overheads(leveling_payload: Dict[str, object]) -> List[str]:
    """Budget violations in a ``bench_leveling`` payload (empty = in budget).

    Each ``policy+leveler`` entry's measured overhead is compared against
    :func:`leveling_overhead_limit`; the returned strings are human-readable
    violation reports for the CLI/CI gate.
    """
    violations: List[str] = []
    entries = leveling_payload.get("entries", {})
    for key, entry in entries.items():
        overhead = entry.get("overhead")
        if overhead is None:
            continue
        policy_name, _, leveler_name = key.rpartition("+")
        limit = leveling_overhead_limit(leveler_name, policy_name)
        if float(overhead) > limit:
            violations.append(
                f"{key}: leveled overhead {float(overhead):.2f}x exceeds "
                f"the {limit:g}x budget")
    return violations


def default_leveling_case() -> BenchCase:
    """The wear-leveling overhead configuration of ``BENCH_aging.json``.

    A synthetic 64 KB x 4-tile FIFO stream: large enough that the per-span
    row gathers dominate the leveled run, small enough to keep the bench
    budget modest.
    """
    return BenchCase(
        name="leveling_64kb_8bit_fifo4",
        description="wear-leveling overhead on a 64 KB 4-tile FIFO stream",
        memory_kb=64, word_bits=8, num_blocks=24, fifo_depth_tiles=4,
        num_inferences=50, policies=("none", "inversion", "dnn_life"),
    )


def bench_leveling(case: Optional[BenchCase] = None, repeats: int = 3,
                   seed: int = 0, verify: bool = True) -> Dict[str, object]:
    """Time the packed engine with and without each wear-leveling policy.

    The reference point is the *unleveled* packed run of the same policy:
    the reported ``overhead`` is the factor a leveling schedule adds on top
    of it.  Each entry also records the region-imbalance movement so the
    perf trajectory doubles as a sanity check that the levelers keep doing
    their job.
    """
    from repro.leveling import make_leveler
    from repro.memory.wear_map import WearMap

    case = case or default_leveling_case()
    stream = case.build_stream(seed=seed)
    geometry = stream.geometry

    def run(policy_name: str, leveler_spec=None):
        leveler = None
        if leveler_spec is not None:
            name, options = leveler_spec
            leveler = make_leveler(name, geometry, case.fifo_depth_tiles, **options)
        simulator = AgingSimulator(stream, _policy_for(case, policy_name, seed),
                                   num_inferences=case.num_inferences,
                                   seed=seed, leveler=leveler)
        return simulator.run()

    def imbalance(result) -> float:
        wear = WearMap(result.duty_cycles, num_regions=case.fifo_depth_tiles)
        return float(wear.summary()["region_imbalance_pp"])

    entries: Dict[str, Dict[str, object]] = {}
    for policy_name in case.policies:
        baseline_seconds, baseline_result = _best_of(repeats, run, policy_name)
        baseline_imbalance = imbalance(baseline_result)
        for leveler_spec in LEVELING_BENCH_POLICIES:
            leveled_seconds, leveled_result = _best_of(repeats, run, policy_name,
                                                       leveler_spec)
            entries[f"{policy_name}+{leveler_spec[0]}"] = {
                "baseline_seconds": baseline_seconds,
                "leveled_seconds": leveled_seconds,
                "overhead": (leveled_seconds / baseline_seconds
                             if baseline_seconds else None),
                "region_imbalance_baseline_pp": baseline_imbalance,
                "region_imbalance_leveled_pp": imbalance(leveled_result),
            }
    payload: Dict[str, object] = {"case": case.describe(), "entries": entries}
    if verify:
        payload["verification"] = verify_leveling_against_explicit(seed=seed)
    return payload


def verify_leveling_against_explicit(seed: int = 0) -> Dict[str, object]:
    """Exact-match check of the packed leveling driver on a small config.

    Every deterministic policy runs under every leveling policy on both the
    packed closed-form engine and the write-by-write explicit simulator; the
    physical duty-cycles must agree bit-for-bit.
    """
    from repro.leveling import make_leveler

    case = BenchCase(name="verify_leveling_mnist_8bit",
                     description="leveling explicit-engine cross-check",
                     memory_kb=4, word_bits=8, fifo_depth_tiles=4,
                     network="custom_mnist", data_format="int8_symmetric",
                     num_inferences=6, max_weights_per_layer=10_000)
    stream = case.build_stream(seed=seed)
    geometry = stream.geometry
    checks: Dict[str, bool] = {}
    for policy_name in _DETERMINISTIC:
        for leveler_name, options in LEVELING_BENCH_POLICIES:
            fast = AgingSimulator(
                stream, _policy_for(case, policy_name, seed),
                num_inferences=case.num_inferences, seed=seed,
                leveler=make_leveler(leveler_name, geometry,
                                     case.fifo_depth_tiles, **options)).run()
            exact = ExplicitAgingSimulator(
                stream, _policy_for(case, policy_name, seed),
                num_inferences=case.num_inferences,
                leveler=make_leveler(leveler_name, geometry,
                                     case.fifo_depth_tiles, **options)).run()
            checks[f"{policy_name}+{leveler_name}"] = bool(
                np.array_equal(fast.duty_cycles, exact.duty_cycles))
    return {
        "case": case.describe(),
        "policies": checks,
        "explicit_match": all(checks.values()),
    }


# --------------------------------------------------------------------------- #
# Multi-phase lifetime scenarios
# --------------------------------------------------------------------------- #
#: Timeline of the scenario bench entry: a model swap, an idle retention
#: stretch and two thermal corners across four phases.
SCENARIO_BENCH_SPEC = ("custom_mnist:int8:inversion:20@85C,idle:10@45C,"
                       "lenet5:int8:none:20@45C,lenet5:int8:barrel_shifter:10@85C")

#: Leveling policies the scenario cross-check drives across phase boundaries.
SCENARIO_VERIFY_LEVELERS = (
    (None, {}),
    ("rotation", {"period": 3, "step": 1}),
    ("wear_swap", {"interval": 2, "swap_fraction": 0.25}),
)


def _scenario_bench_factory(memory_kb: int = 8, fifo_depth_tiles: int = 4,
                            seed: int = 0, max_weights_per_layer: int = 20_000):
    """Stream factory of the scenario bench/verify configurations."""
    from dataclasses import replace

    from repro.scenario.driver import scenario_stream_factory

    config = replace(baseline_config(), name="bench_scenario",
                     weight_memory_bytes=memory_kb * KB,
                     weight_fifo_depth_tiles=fifo_depth_tiles)
    scale = ExperimentScale(num_inferences=100,
                            max_weights_per_layer=max_weights_per_layer)
    return scenario_stream_factory(BaselineAccelerator(config=config),
                                   scale=scale, seed=seed)


def bench_scenario(repeats: int = 3, seed: int = 0,
                   verify: bool = True) -> Dict[str, object]:
    """Time the multi-phase scenario driver against its single-phase parts.

    The reference point is the cost of running every active phase as a
    standalone packed :class:`~repro.core.simulation.AgingSimulator` — what
    the scenario driver would cost if phase composition were free.  The
    reported ``overhead`` is the factor the timeline machinery (per-phase
    kernels, stress-time aggregation, idle handling) adds on top.
    """
    from repro.core.policies import make_policy
    from repro.scenario.driver import ScenarioAgingSimulator
    from repro.scenario.phases import LifetimeScenario

    scenario = LifetimeScenario.from_spec(SCENARIO_BENCH_SPEC)
    factory = _scenario_bench_factory(seed=seed)

    def run_scenario():
        return ScenarioAgingSimulator(scenario, stream_factory=factory,
                                      seed=seed).run()

    def run_single_phases():
        results = []
        for phase in scenario.active_phases:
            stream = factory(phase)
            policy = make_policy(phase.policy, stream.geometry.word_bits, seed=seed)
            results.append(AgingSimulator(stream, policy,
                                          num_inferences=phase.duration,
                                          seed=seed).run())
        return results

    # Warm the stream cache so neither side is charged the one-time build.
    run_single_phases()
    scenario_seconds, scenario_result = _best_of(repeats, run_scenario)
    single_seconds, _ = _best_of(repeats, run_single_phases)
    payload: Dict[str, object] = {
        "spec": SCENARIO_BENCH_SPEC,
        "num_phases": len(scenario.phases),
        "active_epochs": scenario.active_epochs,
        "scenario_seconds": scenario_seconds,
        "single_phase_seconds": single_seconds,
        "overhead": (scenario_seconds / single_seconds
                     if single_seconds else None),
        "effective_years": scenario_result.effective_years,
        "wall_years": scenario_result.wall_years,
    }
    if verify:
        payload["verification"] = verify_scenario_against_explicit(seed=seed)
    return payload


def verify_scenario_against_explicit(seed: int = 0) -> Dict[str, object]:
    """Exact-match check of the packed scenario driver on small timelines.

    Three multi-phase scenarios (a model swap across thermal corners, a
    duty-cycled timeline with an idle retention stretch, and a DVFS
    timeline with per-phase operating points and a low-voltage idle corner)
    run with and without wear levelers on both the packed driver and the
    write-by-write phase-replay engine; the per-phase and effective
    duty-cycles — and the idle retention reports, built from the exact
    last-written value of every cell — must agree bit-for-bit.  A
    degenerate single-phase scenario is additionally checked against the
    classic :class:`~repro.core.simulation.AgingSimulator`.
    """
    from repro.core.policies import make_policy
    from repro.leveling import make_leveler
    from repro.scenario.driver import (
        ExplicitScenarioSimulator,
        ScenarioAgingSimulator,
    )
    from repro.scenario.phases import LifetimeScenario

    scenarios = {
        "model_swap_thermal": ("custom_mnist:int8:inversion:4@85C,"
                               "lenet5:int8:none:4@45C,"
                               "lenet5:int8:inversion_per_location:3@85C"),
        "duty_cycling_idle": ("custom_mnist:int8:barrel_shifter:5@85C,"
                              "idle:3@45C,custom_mnist:int8:inversion:4@25C"),
        "dvfs_retention": ("custom_mnist:int8:inversion:4@85C@0.8V:0.5GHz,"
                           "idle:3@45C@0.62V:0.1GHz,"
                           "lenet5:int8:barrel_shifter:4@45C@0.95V:1.2GHz"),
    }
    factory = _scenario_bench_factory(memory_kb=4, seed=seed,
                                      max_weights_per_layer=10_000)
    checks: Dict[str, bool] = {}
    for scenario_name, spec in scenarios.items():
        scenario = LifetimeScenario.from_spec(spec)
        geometry = factory(scenario.active_phases[0]).geometry
        for leveler_name, options in SCENARIO_VERIFY_LEVELERS:
            def build_leveler():
                if leveler_name is None:
                    return None
                return make_leveler(leveler_name, geometry, 4, **options)

            fast = ScenarioAgingSimulator(scenario, stream_factory=factory,
                                          seed=seed, leveler=build_leveler()).run()
            exact = ExplicitScenarioSimulator(scenario, stream_factory=factory,
                                              seed=seed, leveler=build_leveler()).run()
            matches = bool(np.array_equal(fast.effective.duty_cycles,
                                          exact.effective.duty_cycles))
            matches = matches and all(
                np.array_equal(fast_stress.duty, exact_stress.duty)
                for fast_stress, exact_stress in zip(fast.phase_stress,
                                                     exact.phase_stress))
            matches = matches and fast.phase_retention == exact.phase_retention
            checks[f"{scenario_name}+{leveler_name or 'none'}"] = matches

    # Degenerate single-phase scenario == the classic single-stream engine.
    degenerate = LifetimeScenario.from_spec("custom_mnist:int8:inversion:5@85C")
    scenario_result = ScenarioAgingSimulator(degenerate, stream_factory=factory,
                                             seed=seed).run()
    phase = degenerate.phases[0]
    stream = factory(phase)
    classic = AgingSimulator(stream,
                             make_policy(phase.policy, stream.geometry.word_bits,
                                         seed=seed),
                             num_inferences=phase.duration, seed=seed).run()
    checks["degenerate_single_phase"] = bool(
        np.array_equal(scenario_result.effective.duty_cycles, classic.duty_cycles)
        and scenario_result.effective_years == degenerate.years)
    return {
        "scenarios": {name: spec for name, spec in scenarios.items()},
        "checks": checks,
        "explicit_match": all(checks.values()),
    }


#: Timeline of the DVFS bench entry: every phase at its own operating point,
#: with a low-voltage idle corner exercising the retention tracking.
DVFS_BENCH_SPEC = ("custom_mnist:int8:inversion:20@85C@0.95V:1.2GHz,"
                   "idle:10@45C@0.62V:0.1GHz,"
                   "lenet5:int8:none:20@45C@0.8V:0.5GHz,"
                   "lenet5:int8:barrel_shifter:10@85C@0.72V:0.8GHz")


def bench_dvfs(repeats: int = 3, seed: int = 0) -> Dict[str, object]:
    """Time a multi-operating-point scenario against its single-point twin.

    The reference point is the same timeline pinned entirely to the
    reference corner (what PR 4 could express); the reported ``overhead``
    is the factor the operating-point machinery — per-phase voltage/
    frequency weighting, closed-form last-written-value tracking, the idle
    retention report — adds on top of the plain scenario walk.
    """
    from repro.scenario.driver import ScenarioAgingSimulator
    from repro.scenario.phases import LifetimeScenario
    from dataclasses import replace as _replace

    factory = _scenario_bench_factory(seed=seed)
    multi_point = LifetimeScenario.from_spec(DVFS_BENCH_SPEC)
    # The single-point twin: identical phases, operating points stripped.
    single_point = LifetimeScenario(
        phases=tuple(_replace(phase, voltage_v=None, frequency_ghz=None)
                     for phase in multi_point.phases),
        years=multi_point.years,
        reference_temperature_c=multi_point.reference_temperature_c)

    def run(scenario):
        return ScenarioAgingSimulator(scenario, stream_factory=factory,
                                      seed=seed).run()

    run(single_point)  # warm the stream cache for both sides
    dvfs_seconds, dvfs_result = _best_of(repeats, run, multi_point)
    single_seconds, single_result = _best_of(repeats, run, single_point)
    retention = [entry for entry in (dvfs_result.phase_retention or [])
                 if entry is not None]
    return {
        "spec": DVFS_BENCH_SPEC,
        "num_phases": len(multi_point.phases),
        "num_operating_points": sum(phase.has_explicit_point
                                    for phase in multi_point.phases),
        "dvfs_seconds": dvfs_seconds,
        "single_point_seconds": single_seconds,
        "overhead": (dvfs_seconds / single_seconds if single_seconds else None),
        "effective_years_dvfs": dvfs_result.effective_years,
        "effective_years_single_point": single_result.effective_years,
        "idle_retention_mean": (retention[0]["failure_probability_mean"]
                                if retention else None),
    }


#: Population of the fleet bench entry: a deployment/idle-retention mix and a
#: retirement-corner workload, shipped at two DVFS corners with device spread.
FLEET_BENCH_MIX = ("0.6*custom_mnist:int8:inversion:40@85C,idle:10@45C@0.7V:0.2GHz|"
                   "0.4*lenet5:int8:none:40@45C")
FLEET_BENCH_CORNERS = ((0.9, 1.0), (0.8, 0.5))


def bench_fleet(repeats: int = 3, seed: int = 0, devices: int = 1000,
                verify: bool = True) -> Dict[str, object]:
    """Time the cohort-vectorized fleet engine against a per-device loop.

    The fleet engine evaluates the whole population through a handful of
    cohort-shared packed scenario runs plus closed-form per-device math; the
    reference point is what the naive approach would cost — one full
    :class:`~repro.scenario.driver.ScenarioAgingSimulator` run per device —
    measured on a small subsample and extrapolated to the population.  The
    subsample doubles as an equivalence check: the per-device loop must
    reproduce the fleet's failure times through the shared
    :func:`~repro.fleet.simulator.failure_times_from_scenario_result`
    composition.
    """
    from repro.fleet import (
        FleetSimulator,
        FleetSpec,
        failure_times_from_scenario_result,
        parse_mix_spec,
    )
    from repro.scenario.driver import ScenarioAgingSimulator

    scenarios, weights = parse_mix_spec(FLEET_BENCH_MIX)
    spec = FleetSpec(num_devices=devices, scenarios=scenarios,
                     scenario_weights=weights, corners=FLEET_BENCH_CORNERS,
                     usage_sigma=0.3, thermal_sigma_c=5.0, seed_groups=2,
                     seed=seed)
    factory = _scenario_bench_factory(memory_kb=4, seed=seed,
                                      max_weights_per_layer=10_000)
    simulator = FleetSimulator(spec, stream_factory=factory)

    simulator.run()  # warm the stream cache; charge neither side the build
    fleet_seconds, result = _best_of(repeats, simulator.run)

    sample = result.sample
    subsample = min(8, devices)

    def run_per_device_loop():
        references = []
        for device in range(subsample):
            run = ScenarioAgingSimulator(
                simulator.device_scenario(sample, device),
                stream_factory=factory,
                seed=simulator.device_seed(sample, device)).run()
            references.append(failure_times_from_scenario_result(
                run, usage=float(sample.usage[device]),
                max_degradation_percent=simulator.max_degradation_percent,
                reference_years=simulator.reference_years))
        return references

    run_per_device_loop()  # warm the per-device streams too
    loop_seconds, references = _best_of(repeats, run_per_device_loop)
    per_device_seconds = loop_seconds / subsample
    estimated_loop_seconds = per_device_seconds * devices

    payload: Dict[str, object] = {
        "mix": FLEET_BENCH_MIX,
        "corners": [list(corner) for corner in FLEET_BENCH_CORNERS],
        "devices": devices,
        "num_cohorts": len(result.cohorts),
        "fleet_seconds": fleet_seconds,
        "devices_per_second": devices / fleet_seconds if fleet_seconds else None,
        "per_device_scenario_seconds": per_device_seconds,
        "estimated_loop_seconds": estimated_loop_seconds,
        "speedup": (estimated_loop_seconds / fleet_seconds
                    if fleet_seconds else None),
        "modes": result.mode_summary(),
    }
    if verify:
        def close(a: float, b: float) -> bool:
            if np.isinf(a) and np.isinf(b):
                return True
            return bool(np.isclose(a, b, rtol=1e-9, atol=0.0))

        checks = [
            close(float(result.snm_years[device]), ref["snm_years"])
            and close(float(result.retention_years[device]),
                      ref["retention_years"])
            and str(result.modes[device]) == ref["mode"]
            for device, ref in enumerate(references)
        ]
        payload["verification"] = {
            "subsample_devices": subsample,
            "per_device_match": checks,
            "loop_match": all(checks),
        }
        if not all(checks):
            raise AssertionError(
                "fleet engine disagrees with the per-device scenario loop on "
                f"devices {[i for i, ok in enumerate(checks) if not ok]}")
    return payload


#: Model mix of the workload-generator bench: the same two-model 8-bit
#: deployment the ``workload`` experiment defaults to.
WORKLOAD_BENCH_MODELS = ("0.6*lenet5:int8:dnn_life|"
                         "0.4*custom_mnist:int8:inversion")


def bench_workloads(repeats: int = 3, seed: int = 0, histories: int = 256,
                    fleet_histories: int = 12,
                    devices: int = 256) -> Dict[str, object]:
    """Time the stochastic workload generator and its fleet hand-off.

    Two measurements: the pure compiler rate (histories sampled and
    compiled into a weighted :class:`~repro.fleet.spec.FleetSpec` per
    second — bookkeeping only, no simulation) with an in-process
    byte-identity check on the canonical payload, and the end-to-end rate
    of a fleet Monte Carlo whose population came out of the generator
    rather than a hand-written mix.  The fleet leg uses few histories:
    generated timelines are near-unique, so cohort sharing — the fleet
    engine's whole advantage — tracks the number of *unique* scenarios.
    """
    from repro.fleet import FleetSimulator
    from repro.utils.serialization import canonical_json
    from repro.workloads import TrafficModel, compile_fleet_spec, parse_model_mix

    models, weights = parse_model_mix(WORKLOAD_BENCH_MODELS)
    model = TrafficModel(models=models, model_weights=weights,
                         burst_probability=0.25, diurnal_amplitude=0.6,
                         night_corner=(0.7, 0.2), ota_interval_days=2.0,
                         idle_threshold=2, horizon_days=7, seed=seed)

    def compile_batch():
        return compile_fleet_spec(model, histories=histories, devices=devices)

    compile_seconds, spec = _best_of(repeats, compile_batch)
    byte_identical = (canonical_json(spec.to_payload())
                      == canonical_json(compile_batch().to_payload()))

    fleet_spec = compile_fleet_spec(model, histories=fleet_histories,
                                    devices=devices, usage_sigma=0.3,
                                    thermal_sigma_c=5.0, seed_groups=2)
    factory = _scenario_bench_factory(memory_kb=4, seed=seed,
                                      max_weights_per_layer=10_000)
    simulator = FleetSimulator(fleet_spec, stream_factory=factory)
    simulator.run()  # warm the stream cache; time only the simulation
    fleet_seconds, result = _best_of(repeats, simulator.run)

    return {
        "models": WORKLOAD_BENCH_MODELS,
        "histories": histories,
        "compile_seconds": compile_seconds,
        "histories_per_second": (histories / compile_seconds
                                 if compile_seconds else None),
        "byte_identical": byte_identical,
        "fleet_histories": fleet_histories,
        "devices": devices,
        "unique_scenarios": len(fleet_spec.scenarios),
        "num_cohorts": len(result.cohorts),
        "fleet_seconds": fleet_seconds,
        "devices_per_second": (devices / fleet_seconds
                               if fleet_seconds else None),
    }


def run_aging_bench(cases: Optional[Sequence[BenchCase]] = None, repeats: int = 3,
                    seed: int = 0, verify: bool = True,
                    leveling: bool = True, scenario: bool = True,
                    dvfs: bool = True, fleet: bool = True,
                    workloads: bool = True) -> Dict[str, object]:
    """Run the benchmark suite and return the ``BENCH_aging.json`` payload."""
    import tempfile

    from repro.streamstore import StreamStore

    cases = list(cases) if cases is not None else default_bench_cases()
    with tempfile.TemporaryDirectory(prefix="dnn-life-bench-streams-") as root:
        store = StreamStore(root)
        results = [bench_case(case, repeats=repeats, seed=seed,
                              stream_store=store) for case in cases]
    payload: Dict[str, object] = {
        "schema": BENCH_SCHEMA,
        # deliberate wall-clock: the trajectory file records *when* each
        # perf measurement was taken, it never feeds seeds or comparisons
        "created_unix": time.time(),  # dnn-lint: disable=DL002
        "repeats": repeats,
        "seed": seed,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "cases": results,
    }
    if leveling:
        payload["leveling"] = bench_leveling(repeats=repeats, seed=seed, verify=verify)
    if scenario:
        payload["scenario"] = bench_scenario(repeats=repeats, seed=seed, verify=verify)
    if dvfs:
        payload["dvfs"] = bench_dvfs(repeats=repeats, seed=seed)
    if fleet:
        payload["fleet"] = bench_fleet(repeats=repeats, seed=seed, verify=verify)
    if workloads:
        payload["workloads"] = bench_workloads(repeats=repeats, seed=seed)
    if verify:
        payload["verification"] = verify_against_explicit(seed=seed)
    return payload


def render_bench_report(payload: Dict[str, object]) -> str:
    """ASCII rendering of one benchmark payload."""
    from repro.utils.tables import AsciiTable

    table = AsciiTable(
        ["case", "policy", "packed (s)"],
        title=(f"aging-engine benchmark — packed engine "
               f"(best of {payload['repeats']})"),
        precision=4,
    )
    for entry in payload["cases"]:
        case_name = entry["case"]["name"]
        for policy_name, row in entry["policies"].items():
            table.add_row([case_name, policy_name, row["packed_seconds"]])
        table.add_row([case_name, "TOTAL (+pack)",
                       entry["packed_total_seconds"]])
    lines = [table.render()]
    store_lines = []
    for entry in payload["cases"]:
        store_entry = entry.get("stream_store")
        if store_entry is None:
            continue
        speedup = store_entry.get("speedup")
        identity = ("bit-identical" if store_entry.get("bit_identical")
                    else "MISMATCH")
        store_lines.append(
            f"  {entry['case']['name']}: cold build "
            f"{store_entry['cold_build_seconds']:.4f}s -> warm mmap load "
            f"{store_entry['warm_load_seconds'] * 1000:.2f}ms "
            f"({speedup:.0f}x, {identity})" if speedup is not None else
            f"  {entry['case']['name']}: warm load unavailable")
    if store_lines:
        lines.append("stream store (cold build vs memory-mapped reload):")
        lines.extend(store_lines)
    leveling = payload.get("leveling")
    if leveling is not None:
        leveling_table = AsciiTable(
            ["policy+leveler", "baseline (s)", "leveled (s)", "overhead",
             "imbalance (pp)"],
            title=(f"wear-leveling overhead — {leveling['case']['name']} "
                   f"(packed engine, leveled vs unleveled)"),
            precision=4,
        )
        for label, row in leveling["entries"].items():
            leveling_table.add_row([
                label, row["baseline_seconds"], row["leveled_seconds"],
                f"{row['overhead']:.2f}x" if row["overhead"] is not None else "n/a",
                f"{row['region_imbalance_baseline_pp']:.3f}"
                f"->{row['region_imbalance_leveled_pp']:.3f}",
            ])
        lines.append(leveling_table.render())
        leveling_verification = leveling.get("verification")
        if leveling_verification is not None:
            status = "OK" if leveling_verification["explicit_match"] else "FAILED"
            lines.append(f"leveling explicit-engine cross-check: {status}")
    scenario = payload.get("scenario")
    if scenario is not None:
        overhead = scenario["overhead"]
        lines.append(
            f"scenario timeline ({scenario['num_phases']} phases, "
            f"{scenario['active_epochs']} active epochs): "
            f"{scenario['scenario_seconds']:.4f}s vs "
            f"{scenario['single_phase_seconds']:.4f}s single-phase "
            f"({overhead:.2f}x overhead)" if overhead is not None else
            f"scenario timeline: {scenario['scenario_seconds']:.4f}s")
        scenario_verification = scenario.get("verification")
        if scenario_verification is not None:
            status = "OK" if scenario_verification["explicit_match"] else "FAILED"
            lines.append(f"scenario explicit-engine cross-check: {status}")
    dvfs = payload.get("dvfs")
    if dvfs is not None:
        overhead = dvfs["overhead"]
        overhead_text = (f"{overhead:.2f}x overhead" if overhead is not None
                         else "overhead n/a")
        lines.append(
            f"dvfs timeline ({dvfs['num_operating_points']} operating points "
            f"over {dvfs['num_phases']} phases): {dvfs['dvfs_seconds']:.4f}s vs "
            f"{dvfs['single_point_seconds']:.4f}s single-point "
            f"({overhead_text}; effective years "
            f"{dvfs['effective_years_dvfs']:.2f} vs "
            f"{dvfs['effective_years_single_point']:.2f})")
    fleet = payload.get("fleet")
    if fleet is not None:
        speedup = fleet["speedup"]
        speedup_text = (f"{speedup:.1f}x over the per-device loop"
                        if speedup is not None else "loop reference n/a")
        lines.append(
            f"fleet population ({fleet['devices']} devices, "
            f"{fleet['num_cohorts']} cohorts): {fleet['fleet_seconds']:.4f}s "
            f"({fleet['devices_per_second']:.0f} devices/s; {speedup_text}, "
            f"per-device scenario {fleet['per_device_scenario_seconds']:.4f}s)")
        fleet_verification = fleet.get("verification")
        if fleet_verification is not None:
            status = "OK" if fleet_verification["loop_match"] else "FAILED"
            lines.append(
                f"fleet per-device-loop cross-check: {status} "
                f"({fleet_verification['subsample_devices']} devices)")
    workloads = payload.get("workloads")
    if workloads is not None:
        identity = ("byte-identical recompile" if workloads["byte_identical"]
                    else "RECOMPILE MISMATCH")
        lines.append(
            f"workload generator ({workloads['histories']} histories): "
            f"{workloads['histories_per_second']:.0f} histories compiled/s "
            f"({identity}); fleet-from-generator "
            f"({workloads['fleet_histories']} histories -> "
            f"{workloads['unique_scenarios']} scenarios, "
            f"{workloads['devices']} devices): "
            f"{workloads['devices_per_second']:.0f} devices/s")
    verification = payload.get("verification")
    if verification is not None:
        status = "OK" if verification["explicit_match"] else "FAILED"
        lines.append(f"explicit-engine cross-check: {status} "
                     f"({', '.join(sorted(verification['policies']))})")
    return "\n".join(lines)
