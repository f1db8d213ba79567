"""Benchmark entry point: one workload, one seed, one JSON line of results.

    python3 perfbench/run.py --workload cold_design_sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Each workload runs in its own fresh process (see ``worker.py``), with its
stream store and caches in a scratch directory under ``.perfbench/`` that is
removed afterwards, and BLAS pinned to one thread.

``--trace 0`` reports the end-to-end metrics:

* ``ops_per_s`` — ops finished (attempted minus failed) per second of op
  time in the timed loop;
* ``setup_s`` — median over several fresh interpreters of the CPU time
  each spends from start until the workload is ready for its first op,
  taken after one untimed start has primed the bytecode and page caches;
* ``peak_rss_mb`` — peak RSS of the workload process during the timed loop.

``--trace 1`` reports the per-layer metrics of a traced loop, the
fresh-interpreter ``import repro.cli`` time, the host calibration probe and
the tracing overhead, prints a self-time table and writes a Chrome
trace-event file (open it in Perfetto) under ``.perfbench/traces/``.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``.
Without a program to measure the script exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"

#: Whole-run deadline; the benchmark must end well within 180 s.
DEADLINE_S = 170
#: Fresh-interpreter ``import repro.cli`` timings per traced run.
IMPORT_SAMPLES = 3


def child_env(tmp: Path) -> dict:
    env = dict(os.environ)
    env.pop("REPRO_FULL_EXPERIMENTS", None)
    env.update({
        "PYTHONPATH": str(ROOT / "src"),
        "DNN_LIFE_CACHE_DIR": str(tmp / "cache"),
        "DNN_LIFE_STREAM_STORE": str(tmp / "store"),
        "TMPDIR": str(tmp),
        "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
    })
    return env


class Child:
    """A worker process whose stdout is read line by line."""

    running: list = []

    def __init__(self, args: list, tmp: Path):
        tmp.mkdir(parents=True)
        self.start = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, str(WORKER), *args, "--tmp", str(tmp)],
            stdout=subprocess.PIPE, text=True, env=child_env(tmp), cwd=ROOT)
        Child.running.append(self.process)

    def wait_ready(self) -> tuple:
        """CPU seconds the worker reports at its READY line, and wall seconds."""
        for line in self.process.stdout:
            if line.startswith("READY "):
                return float(line.split()[1]), time.perf_counter() - self.start
            print(line, end="")
        raise RuntimeError("worker exited before it was ready")

    def finish(self) -> list:
        """Wait for exit; return stdout lines, raising on a non-zero exit."""
        lines = self.process.stdout.read().splitlines()
        code = self.process.wait()
        Child.running.remove(self.process)
        if code:
            raise RuntimeError(f"worker exited with code {code}")
        return lines


def import_seconds(tmp: Path) -> float:
    """Fresh-interpreter ``import repro.cli`` time, measured inside the child."""
    code = ("import time; t = time.perf_counter(); import repro.cli; "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=child_env(tmp), cwd=ROOT, check=True)
    return float(out.stdout.strip())


def _timeout(signum, frame):
    raise TimeoutError(f"benchmark exceeded {DEADLINE_S} s")


def run(args, scratch: Path) -> dict:
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    diagnostics = {}
    metrics = {}
    samples = []  # (CPU s, wall s) per timed fresh start

    def set_up(label: str) -> tuple:
        child = Child([*common, "--setup-only"], scratch / label)
        sample = child.wait_ready()
        child.finish()
        return sample

    def sample_setup(count: int) -> None:
        for _ in range(count):
            samples.append(set_up(f"setup-{len(samples)}"))

    set_up("prime")  # untimed: primes the bytecode and page caches

    # The timed run's own set-up is one sample; the others are split before
    # and after it, so the median spans the whole run, not one moment of it.
    extra = 0 if args.trace else WORKLOADS[args.workload].setup_samples - 1
    sample_setup(extra // 2)
    if args.trace:
        cli_import = [import_seconds(scratch) for _ in range(IMPORT_SAMPLES)]
        metrics["cli.import_s"] = statistics.median(cli_import)
        diagnostics["cli.import_s samples"] = cli_import

    trace_out = ROOT / ".perfbench" / "traces" / f"{args.workload}-seed{args.seed}.json"
    options = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_out.parent.mkdir(parents=True, exist_ok=True)
        options += ["--trace-out", str(trace_out)]
    child = Child([*common, *options], scratch / "run")
    samples.append(child.wait_ready())
    lines = child.finish()
    sample_setup(extra - extra // 2)
    print("\n".join(lines[:-1]))
    report = json.loads(lines[-1])
    untraced = report["untraced"]
    diagnostics.update({
        "setup_s samples": [cpu for cpu, _ in samples],
        "setup wall samples": [wall for _, wall in samples],
        "host.ref_s": report["host_ref_s"],
        "op_seconds": untraced["op_seconds"], "round_peaks_mb": untraced["round_peaks_mb"],
        "failures": untraced["failures"]})
    if args.trace:
        traced = report["traced"]
        with trace_out.open() as handle:  # the trace must load as trace-event JSON
            events = json.load(handle)["traceEvents"]
        diagnostics.update({"trace": str(trace_out.relative_to(ROOT)),
                            "trace events": len(events),
                            "traced failures": traced["failures"]})
        metrics.update(report["layers"])
        metrics["ops_attempted"] = report["attempted"]
        metrics["ops_failed"] = report["failed"]
        metrics["host.ref_s"] = report["host_ref_s"]
        print(f"tracing overhead: {metrics['trace.overhead_pct']:.2f} % "
              f"({untraced['ops_per_s']:.4f} ops/s untraced, "
              f"{traced['ops_per_s']:.4f} traced)")
    else:
        metrics.update({"ops_per_s": untraced["ops_per_s"],
                        "setup_s": statistics.median(cpu for cpu, _ in samples),
                        "peak_rss_mb": untraced["peak_rss_mb"]})
    print(json.dumps({"diagnostics": diagnostics}))
    units = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {entry["name"]: entry["unit"]
             for entry in units["end_to_end"] + units["per_layer"]}
    return {"correct": report["failed"] == 0, "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2

    scratch = ROOT / ".perfbench" / f"scratch-{os.getpid()}"
    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(DEADLINE_S)
    try:
        result = run(args, scratch)
    except (RuntimeError, TimeoutError, subprocess.CalledProcessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        for process in Child.running:
            process.kill()
            process.wait()
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
