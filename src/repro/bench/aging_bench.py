"""The leveled-run overhead gate and the packed == explicit engine oracles.

``dnn-life bench`` runs the two checks only this module makes:

* :func:`bench_leveling` times the packed
  :class:`~repro.core.simulation.AgingSimulator` with and without every
  wear leveler on a synthetic 64 KB FIFO stream, and
  :func:`check_leveling_overheads` holds each leveled run to its budget
  over the unleveled one;
* :func:`verify_against_explicit` and
  :func:`verify_leveling_against_explicit` run every deterministic policy,
  unleveled and under every leveler, on both the packed engine and the
  write-by-write :class:`~repro.core.simulation.ExplicitAgingSimulator`;
  the duty-cycles must agree bit for bit.

Results are written to ``BENCH_aging.json`` (schema :data:`BENCH_SCHEMA`).
End-to-end speed is measured by ``perfbench/`` (see ``BENCHMARK.json``),
which also imports both oracles as its correctness gate.
"""

from __future__ import annotations

import platform
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.accelerator.baseline import BaselineAccelerator
from repro.accelerator.config import baseline_config
from repro.accelerator.scheduler import PackedBitTensor
from repro.core.policies import MitigationPolicy, make_policy
from repro.core.simulation import AgingSimulator, ExplicitAgingSimulator
from repro.experiments.aging_runner import build_workload_stream
from repro.experiments.common import ExperimentScale
from repro.memory.geometry import MemoryGeometry
from repro.quantization.bitops import random_words, unpack_bits
from repro.utils.rng import SeedLike, as_rng
from repro.utils.units import KB
from repro.utils.validation import check_positive_int

#: Schema tag stamped into every benchmark payload.
BENCH_SCHEMA = "dnn-life-bench/v4"

#: Default output file of ``dnn-life bench``.
DEFAULT_OUTPUT = "BENCH_aging.json"

#: The deterministic policies, which the explicit engine reproduces exactly.
_DETERMINISTIC = ("none", "inversion", "inversion_per_location", "barrel_shifter")


def synthetic_weight_stream(geometry: MemoryGeometry, num_blocks: int,
                            fifo_depth_tiles: int = 1, seed: SeedLike = 0,
                            probability_of_one: float = 0.35) -> PackedBitTensor:
    """A packed stream of biased random weight words.

    Builds a stream of any geometry (the leveling gate's 64 KB FIFO case,
    small test memories) without quantizing a real network: the words are
    random with a DNN-like bit bias, the block structure and
    round-robin region placement mirror
    :class:`~repro.accelerator.scheduler.WeightStreamScheduler`.
    """
    check_positive_int(fifo_depth_tiles, "fifo_depth_tiles")
    if geometry.rows % fifo_depth_tiles != 0:
        raise ValueError(f"{geometry.rows} rows cannot be divided into "
                         f"{fifo_depth_tiles} FIFO tiles")
    check_positive_int(num_blocks, "num_blocks")
    words_per_block = geometry.rows // fifo_depth_tiles
    words = random_words(as_rng(seed), num_blocks * words_per_block,
                         geometry.word_bits, probability_of_one)
    bits = np.empty((num_blocks, words_per_block, geometry.word_bits),
                    dtype=np.uint8)
    for index in range(num_blocks):
        bits[index] = unpack_bits(
            words[index * words_per_block:(index + 1) * words_per_block],
            geometry.word_bits)
    return PackedBitTensor(
        bits=bits, regions=np.arange(num_blocks) % fifo_depth_tiles,
        valid_words=np.full(num_blocks, words_per_block),
        geometry=geometry, fifo_depth_tiles=fifo_depth_tiles,
        describe={
            "network": "synthetic",
            "word_bits": geometry.word_bits,
            "memory_capacity_bytes": geometry.capacity_bytes,
            "memory_rows": geometry.rows,
            "words_per_block": words_per_block,
            "fifo_depth_tiles": fifo_depth_tiles,
            "total_weight_words": int(words.size),
            "num_blocks_per_inference": num_blocks,
        })


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
    policies: Tuple[str, ...] = _DETERMINISTIC
    max_weights_per_layer: Optional[int] = 1_000_000

    def build_stream(self, seed: int = 0) -> PackedBitTensor:
        """Materialise the case's weight stream.

        The stream store is skipped, so a bench run neither reads nor
        writes the user's store.
        """
        if self.network is None:
            geometry = MemoryGeometry(capacity_bytes=self.memory_kb * KB,
                                      word_bits=self.word_bits)
            return synthetic_weight_stream(geometry, self.num_blocks,
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
                                     store=None)

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
    for policy_name in case.policies:
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
#: re-derived from observed wear at every swap interval, so the run composes
#: one chunk per interval and ranks the rows between chunks.  The ranking is
#: a radix sort of integer keys and the leveler keeps its inverse map, so a
#: chunk costs a few O(rows) passes.  Measured on the 64 KB case (2-vCPU
#: host, 14 runs at best of 1 and 9 at best of 3): none 2.1-5.6x, inversion
#: 2.2-3.2x; the budget is about 1.5x the highest figure.
WEAR_SWAP_OVERHEAD_LIMIT = 8.5


#: Per-leveler budgets for the stochastic ``dnn_life`` policy.  Its TRBG
#: kernel draws every span in call order and reduces all of a run's mappings
#: in one fused pass over the packed tensor.  Measured on the 64 KB case
#: (2-vCPU host, best of 3, unleveled baseline 6-11 ms): rotation 3.2-4.1x,
#: start_gap 4.8-7.2x.  A literal per-span walk over the same kernel
#: measured 30-39x and 18-37x.  ``dnn_life+rotation`` therefore meets the 5x
#: schedule-driven target.  The rotation and start-gap limits sit below the
#: per-span figures, so a return to that path fails the gate.  wear_swap
#: measures 3.9-7.0x (the same 23 runs as the wear_swap budget above): its
#: feedback comes from a per-word weight table built once per run from the
#: stream's cached popcounts, and its permutation counts are gathered
#: through the leveler's inverse maps; the budget is about 1.5x the highest
#: figure, below the 12-17x of per-chunk scatters and float argsorts.
DNN_LIFE_OVERHEAD_LIMITS = {"rotation": 10.0, "start_gap": 15.0,
                            "wear_swap": 10.5}


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
                   seed: int = 0) -> Dict[str, object]:
    """Time the packed engine with and without each wear-leveling policy.

    The reference point is the *unleveled* packed run of the same policy:
    the reported ``overhead`` is the factor a leveling schedule adds on top
    of it.  Each entry also records the region-imbalance movement so the
    perf trajectory doubles as a sanity check that the levelers keep doing
    their job.  The ``verification`` entry is
    :func:`verify_leveling_against_explicit`.
    """
    from repro.leveling import make_leveler
    from repro.memory.wear_map import wear_map_from_result

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
        wear = wear_map_from_result(result, num_regions=case.fifo_depth_tiles)
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
    return {"case": case.describe(), "entries": entries,
            "verification": verify_leveling_against_explicit(seed=seed)}


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
    for policy_name in case.policies:
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


def run_aging_bench(repeats: int = 3) -> Dict[str, object]:
    """The ``BENCH_aging.json`` payload: the leveling gate and both oracles."""
    return {
        "schema": BENCH_SCHEMA,
        # deliberate wall-clock: the record says *when* it was measured, it
        # never feeds seeds or comparisons
        "created_unix": time.time(),  # dnn-lint: disable=DL002
        "repeats": repeats,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "leveling": bench_leveling(repeats=repeats),
        "verification": verify_against_explicit(),
    }


def render_bench_report(payload: Dict[str, object]) -> str:
    """ASCII rendering of one benchmark payload."""
    from repro.utils.tables import AsciiTable

    leveling = payload["leveling"]
    table = AsciiTable(
        ["policy+leveler", "baseline (s)", "leveled (s)", "overhead",
         "imbalance (pp)"],
        title=(f"wear-leveling overhead — {leveling['case']['name']} "
               f"(packed engine, leveled vs unleveled, best of "
               f"{payload['repeats']})"),
        precision=4,
    )
    for label, row in leveling["entries"].items():
        table.add_row([
            label, row["baseline_seconds"], row["leveled_seconds"],
            f"{row['overhead']:.2f}x" if row["overhead"] is not None else "n/a",
            f"{row['region_imbalance_baseline_pp']:.3f}"
            f"->{row['region_imbalance_leveled_pp']:.3f}",
        ])
    leveling_status = ("OK" if leveling["verification"]["explicit_match"]
                       else "FAILED")
    verification = payload["verification"]
    status = "OK" if verification["explicit_match"] else "FAILED"
    return "\n".join([
        table.render(),
        f"leveling explicit-engine cross-check: {leveling_status}",
        f"explicit-engine cross-check: {status} "
        f"({', '.join(sorted(verification['policies']))})",
    ])
