"""One fresh workload process: set up, print READY, run the timed loop, check.

Started by ``run.py``; not meant to be run by hand.  The parent times the
interval from starting this interpreter to the ``READY`` line; the line
carries this process's CPU seconds up to that point, which is one ``setup_s``
sample.  With ``--setup-only`` the process exits there.  Otherwise the last
stdout line is a JSON report.

With ``--trace 1`` the loop runs twice on the same ops: once untraced, for
the tracing overhead, then traced, for the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import re
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from tracing import NULL_TRACER, Tracer, instrument
from workloads import WORKLOADS

#: Layer time metrics (self seconds per op) and the span each one sums.
TIME_METRICS = {
    "nn.synthesize_s": "nn.synthesize",
    "experiments.reduce_s": "experiments.reduce",
    "accelerator.schedule_s": "accelerator.schedule",
    "accelerator.pack_s": "accelerator.pack",
    "streamstore.write_s": "streamstore.write",
    "streamstore.load_s": "streamstore.load",
    "core.run_s": "core.run",
    "core.leveled_run_s.dnn_life": "core.leveled_run.dnn_life",
    "core.leveled_run_s.deterministic": "core.leveled_run.deterministic",
    "memory.wear_map_s": "memory.wear_map",
    "aging.histogram_s": "aging.histogram",
    "workloads.compile_s": "workloads.compile",
    "scenario.stream_factory_s": "scenario.stream_factory",
    "fleet.run_s": "fleet.run",
}

#: Layer counters, reported per op.
COUNT_METRICS = (
    "nn.weights_synthesized", "nn.weights_streamed", "accelerator.packed_mb",
    "streamstore.write_mb", "workloads.unique_scenarios",
    "scenario.stream_factory_calls", "fleet.cohorts", "fleet.device_cells",
)


def peak_rss_mb() -> float:
    """Peak RSS since the last :func:`reset_peak_rss`, in MB (10^6 bytes)."""
    try:
        status = Path("/proc/self/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+)", status).group(1)) * 1024 / 1e6
    except (OSError, AttributeError):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def reset_peak_rss() -> None:
    """Restart the peak-RSS count at the start of a round."""
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        pass  # no reset on this kernel: the peak then covers the whole process


def cpu_seconds() -> float:
    """User plus system CPU time of this process (all threads) since it started."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def host_reference_seconds() -> float:
    """Median time of a fixed NumPy kernel: tells a slow host from a regression."""
    import numpy as np

    values = np.random.default_rng(0).standard_normal(1 << 22)
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        np.sort(values).cumsum()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def run_loop(workload, seconds: float, tracer) -> dict:
    """Closed loop of ops until ``seconds`` of op time end on a round boundary.

    The peak RSS is taken per round; the loop's peak is the largest of them.
    """
    records, failures, op_seconds, round_peaks = {}, {}, [], []
    index = 0
    while sum(op_seconds) < seconds or index % workload.round_ops:
        if index % workload.round_ops == 0:
            reset_peak_rss()
        start = time.perf_counter()
        try:
            with tracer.begin_op(index):
                record = workload.op(index, tracer)
        except Exception as exc:  # a raising op is a failed op; the loop goes on
            traceback.print_exc()
            record, failures[index] = None, [f"{type(exc).__name__}: {exc}"]
        op_seconds.append(time.perf_counter() - start)
        if (index + 1) % workload.round_ops == 0:
            round_peaks.append(peak_rss_mb())
        if record is not None:
            workload.observe(index, record)
            records[index] = record
        index += 1
    return {"records": records, "failures": failures, "op_seconds": op_seconds,
            "round_peaks_mb": round_peaks}


def gate(workload, loop: dict) -> dict:
    """Run the workload's checks on a finished loop; summarise it."""
    failures = loop["failures"]
    try:
        found = workload.check(loop["records"])
    except Exception as exc:  # a raising check fails the loop's first op
        traceback.print_exc()
        found = {0: [f"check raised {type(exc).__name__}: {exc}"]}
    for index, problems in found.items():
        if problems:
            failures.setdefault(index, []).extend(problems)
    attempted = len(loop["op_seconds"])
    busy = sum(loop["op_seconds"])
    return {"attempted": attempted, "failed": len(failures),
            "ops_per_s": (attempted - len(failures)) / busy, "loop_s": busy,
            "peak_rss_mb": max(loop["round_peaks_mb"]),
            "round_peaks_mb": loop["round_peaks_mb"], "op_seconds": loop["op_seconds"],
            "failures": {str(index): problems for index, problems in failures.items()}}


def layer_metrics(tracer: Tracer, ops: int) -> dict:
    """Per-layer metrics of a traced loop, per op."""
    table = tracer.self_times()
    counters = tracer.counters
    metrics = {name: table.get(span, {}).get("self_s", 0.0) / ops
               for name, span in TIME_METRICS.items()}
    metrics.update({name: counters.get(name, 0.0) / ops for name in COUNT_METRICS})
    synthesized = counters.get("nn.weights_synthesized", 0.0)
    loads = counters.get("streamstore.loads", 0.0)
    metrics["nn.useful_ratio"] = (counters.get("nn.weights_streamed", 0.0) / synthesized
                                  if synthesized else 0.0)
    metrics["streamstore.hit_ratio"] = (counters.get("streamstore.hits", 0.0) / loads
                                        if loads else 0.0)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", required=True, help="this process's scratch directory")
    parser.add_argument("--trace-out", help="Chrome trace-event JSON path (--trace 1)")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import repro.cli  # noqa: F401  what every ``dnn-life`` call pays

    workload = WORKLOADS[args.workload](args.seed, Path(args.tmp))
    workload.setup()
    print(f"READY {cpu_seconds()!r}", flush=True)
    if args.setup_only:
        return 0
    workload.prepare_checks()

    report = {}
    if args.trace:
        untraced = gate(workload, run_loop(workload, args.seconds, NULL_TRACER))
        workload.start_loop("traced")
        tracer = Tracer()
        undo = instrument(tracer)
        try:
            loop = run_loop(workload, args.seconds, tracer)
        finally:
            undo()
        traced = gate(workload, loop)
        print(tracer.render_table(traced["attempted"]), flush=True)
        tracer.write_chrome_trace(args.trace_out, {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds})
        metrics = layer_metrics(tracer, traced["attempted"])
        metrics["trace.ops_per_s"] = traced["ops_per_s"]
        metrics["trace.overhead_pct"] = 100.0 * (
            1.0 - traced["ops_per_s"] / untraced["ops_per_s"])
        report.update(untraced=untraced, traced=traced, layers=metrics,
                      attempted=untraced["attempted"] + traced["attempted"],
                      failed=untraced["failed"] + traced["failed"])
    else:
        loop = gate(workload, run_loop(workload, args.seconds, NULL_TRACER))
        report.update(untraced=loop, attempted=loop["attempted"], failed=loop["failed"])
    report["host_ref_s"] = host_reference_seconds()
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
