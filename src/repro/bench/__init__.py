"""The leveled-run overhead gate and the packed == explicit engine oracles.

``dnn-life bench`` times the packed aging engine with and without every wear
leveler, holds each leveled run to its overhead budget, and checks the
packed engine against the write-by-write explicit engine, unleveled and
under every leveler.  It writes the result to ``BENCH_aging.json``.
End-to-end speed is measured by ``perfbench/``, which imports both oracles
as its correctness gate.
"""

from repro.bench.aging_bench import (
    BENCH_SCHEMA,
    DEFAULT_OUTPUT,
    DNN_LIFE_OVERHEAD_LIMITS,
    LEVELING_OVERHEAD_LIMIT,
    WEAR_SWAP_OVERHEAD_LIMIT,
    BenchCase,
    bench_leveling,
    check_leveling_overheads,
    default_leveling_case,
    render_bench_report,
    run_aging_bench,
    synthetic_weight_stream,
    verify_against_explicit,
    verify_leveling_against_explicit,
)

__all__ = [
    "BENCH_SCHEMA",
    "DEFAULT_OUTPUT",
    "DNN_LIFE_OVERHEAD_LIMITS",
    "LEVELING_OVERHEAD_LIMIT",
    "WEAR_SWAP_OVERHEAD_LIMIT",
    "BenchCase",
    "bench_leveling",
    "check_leveling_overheads",
    "default_leveling_case",
    "render_bench_report",
    "run_aging_bench",
    "synthetic_weight_stream",
    "verify_against_explicit",
    "verify_leveling_against_explicit",
]
