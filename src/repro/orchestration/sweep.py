"""Parameter-grid sweeps, run inline or on a single-host process pool.

:class:`SweepRunner` expands a parameter grid (e.g. network × quantization
format × mitigation policy × memory geometry) into jobs, gives every job a
deterministic seed derived through :func:`repro.utils.rng.deterministic_hash_seed`,
serves previously-computed jobs from the result cache and groups the rest
into stream-affinity batches.  How the batches run follows from what the
runner sees, not from a setting:

* **inline** in the calling process when ``max_workers <= 1`` or only one
  batch is pending (no process start-up to pay);
* otherwise on a :class:`concurrent.futures.ProcessPoolExecutor`, one future
  per batch, handled as they complete — a dead worker fails only its own
  batch.

:attr:`SweepReport.backend` records which of the two ran (``"serial"`` or
``"process"``).  Because every job runs through
:func:`repro.orchestration.runner.run_experiment`, a sweep job's payload is
byte-identical to the payload of a single ``dnn-life run`` with the same
parameters, whichever way it ran.
"""

from __future__ import annotations

import concurrent.futures
import os
import time
from dataclasses import dataclass, field
from itertools import product
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.orchestration.cache import ResultCache, cache_key
from repro.orchestration.registry import ExperimentRegistry, load_all_experiments
from repro.utils.host import host_cpus
from repro.utils.rng import deterministic_hash_seed
from repro.utils.serialization import canonical_json

__all__ = ["expand_grid", "split_grid_values", "SweepJob", "SweepJobResult",
           "SweepReport", "SweepRunner"]

#: Environment variable overriding the default worker count.
MAX_WORKERS_ENV = "DNN_LIFE_MAX_WORKERS"

#: Characters a ``--grid`` value list may open with to declare an alternate
#: axis separator (sed-style), so values containing commas — multi-phase
#: scenario specs, ``@V:F`` operating-point suffixes — can ride a grid axis.
GRID_AXIS_SEPARATORS = (";", "|", "/")


def split_grid_values(text: str) -> List[str]:
    """Split one ``--grid PARAM=V1,V2,...`` value list into raw value strings.

    The default separator is the comma.  When the list's *first* character is
    one of :data:`GRID_AXIS_SEPARATORS`, that character is consumed as the
    axis separator instead (the sed ``s|…|…|`` convention), letting values
    that legitimately contain commas ride a grid axis::

        --grid policy=none,inversion                       # plain commas
        --grid "spec=;lenet5:int8:none:5,idle:3;lenet5:int8:inversion:5"
                                                           # ';' separates two
                                                           # multi-phase specs

    Empty values are dropped; a list that declares a separator but carries
    no values splits to ``[]``, which the CLI reports as a one-line usage
    error (exit 2).
    """
    if text[:1] in GRID_AXIS_SEPARATORS:
        separator = text[0]
        parts = text[1:].split(separator)
    else:
        parts = text.split(",")
    return [part for part in (piece.strip() for piece in parts) if part]


def expand_grid(grid: Mapping[str, Sequence[Any]]) -> List[Dict[str, Any]]:
    """Expand ``{param: [values...]}`` into the cartesian product of points.

    The expansion order is deterministic: axes vary slowest-first in the
    order the mapping lists them (like nested for-loops), so job indices —
    and therefore derived per-job seeds — are stable across invocations.
    """
    if not grid:
        return [{}]
    axes: List[Tuple[str, List[Any]]] = []
    for name, values in grid.items():
        values = list(values)
        if not values:
            raise ValueError(f"grid axis '{name}' has no values")
        axes.append((name, values))
    names = [name for name, _ in axes]
    return [dict(zip(names, point)) for point in product(*(values for _, values in axes))]


@dataclass(frozen=True)
class SweepJob:
    """One grid point, fully resolved and content-addressed."""

    index: int
    experiment: str
    params: Dict[str, Any]
    cache_key: str


@dataclass
class SweepJobResult:
    """Outcome of one sweep job (``error`` set and ``payload`` ``None`` on failure)."""

    job: SweepJob
    payload: Any
    from_cache: bool
    seconds: float
    worker_pid: int
    error: Optional[str] = None

    @property
    def failed(self) -> bool:
        """Whether the job raised instead of producing a payload."""
        return self.error is not None

    def describe(self) -> Dict[str, Any]:
        """JSON-safe record of the job result."""
        return {
            "index": self.job.index,
            "experiment": self.job.experiment,
            "params": self.job.params,
            "cache_key": self.job.cache_key,
            "from_cache": self.from_cache,
            "seconds": self.seconds,
            "worker_pid": self.worker_pid,
            "error": self.error,
            "payload": self.payload,
        }


@dataclass
class SweepReport:
    """Results and execution statistics of one sweep."""

    experiment: str
    grid: Dict[str, List[Any]]
    results: List[SweepJobResult] = field(default_factory=list)
    seconds: float = 0.0
    #: How the batches ran: ``"serial"`` (inline) or ``"process"`` (pool).
    backend: str = "process"
    #: Stream-store counter totals aggregated across the parent process and
    #: every worker batch (``None`` when the store is disabled everywhere).
    stream_store: Optional[Dict[str, Any]] = None

    @property
    def num_jobs(self) -> int:
        """Total number of grid points."""
        return len(self.results)

    @property
    def num_from_cache(self) -> int:
        """Jobs served from the result cache."""
        return sum(1 for result in self.results if result.from_cache)

    @property
    def num_computed(self) -> int:
        """Jobs actually (re)simulated (successfully)."""
        return self.num_jobs - self.num_from_cache - self.num_failed

    @property
    def num_failed(self) -> int:
        """Jobs that raised instead of producing a payload."""
        return sum(1 for result in self.results if result.failed)

    @property
    def worker_pids(self) -> List[int]:
        """Distinct process ids that successfully computed jobs."""
        return sorted({result.worker_pid for result in self.results
                       if not result.from_cache and not result.failed})

    def payloads(self) -> List[Any]:
        """Per-job payloads in grid order."""
        return [result.payload for result in self.results]

    def summary(self) -> Dict[str, Any]:
        """JSON-safe report: statistics plus every job's params and payload."""
        return {
            "experiment": self.experiment,
            "grid": self.grid,
            "num_jobs": self.num_jobs,
            "num_from_cache": self.num_from_cache,
            "num_computed": self.num_computed,
            "num_failed": self.num_failed,
            "worker_pids": self.worker_pids,
            "seconds": self.seconds,
            "backend": self.backend,
            "stream_store": self.stream_store,
            "jobs": [result.describe() for result in self.results],
        }


def _default_max_workers(num_jobs: int) -> int:
    """Worker-count default: env override, else min(#jobs, max(cpus, 2), 8)."""
    override = os.environ.get(MAX_WORKERS_ENV)
    if override:
        return max(int(override), 1)
    return max(1, min(num_jobs, max(host_cpus(), 2), 8))


#: One batch of jobs: ``[(job index, resolved params), ...]``.
JobBatch = List[Tuple[int, Dict[str, Any]]]

#: Per-job outcome tuple: ``(index, payload, seconds, pid, error)``.
JobOutcome = Tuple[int, Any, float, int, Optional[str]]


def _execute_job_batch(experiment: str, batch: JobBatch
                       ) -> Tuple[List[JobOutcome], Optional[Dict[str, Any]]]:
    """Worker entry point: run a batch of jobs sharing stream affinity.

    Jobs in one batch agree on the experiment's affinity parameters, so
    running them back-to-back in one process lets process-local caches (the
    aging experiments' weight-stream cache) serve every job after the first.
    Failures are isolated per job: each outcome carries either a payload or
    an error string.  The second item is the batch's stream-store counter
    delta: in a fresh worker process the "before" snapshot is all zeros, and
    inline it isolates this batch's traffic from earlier batches.
    """
    from repro.orchestration.runner import run_experiment
    from repro.streamstore import stream_store_stats, stream_store_stats_delta

    before = stream_store_stats()
    outcomes: List[JobOutcome] = []
    for index, params in batch:
        try:
            run = run_experiment(experiment, params, cache=None)
            outcomes.append((index, run.payload, run.seconds, os.getpid(), None))
        except Exception as error:  # job failure must not kill its batch
            outcomes.append((index, None, 0.0, os.getpid(),
                             f"{type(error).__name__}: {error}"))
    return outcomes, stream_store_stats_delta(before, stream_store_stats())


def _pool_batches(experiment: str, batches: List[JobBatch], max_workers: int
                  ) -> Iterator[Tuple[List[JobOutcome], Optional[Dict[str, Any]]]]:
    """Run batches on a process pool, yielding each as it completes.

    A batch whose worker died (or whose result failed to pickle) yields one
    failed outcome per job; the other batches are unaffected.
    """
    with concurrent.futures.ProcessPoolExecutor(
            max_workers=min(max_workers, len(batches))) as pool:
        futures = {pool.submit(_execute_job_batch, experiment, batch): batch
                   for batch in batches}
        for future in concurrent.futures.as_completed(futures):
            try:
                yield future.result()
            except Exception as error:  # a dead worker fails its batch only
                message = f"{type(error).__name__}: {error}"
                yield [(index, None, 0.0, os.getpid(), message)
                       for index, _params in futures[future]], None


def _merge_store_stats(total: Optional[Dict[str, Any]],
                       delta: Optional[Dict[str, Any]]
                       ) -> Optional[Dict[str, Any]]:
    """Accumulate per-batch stream-store counter deltas into a total."""
    if delta is None:
        return total
    if total is None:
        return dict(delta)
    from repro.streamstore import STORE_COUNTERS

    merged = dict(total)
    merged["root"] = delta["root"]
    for counter in STORE_COUNTERS:
        merged[counter] = int(merged.get(counter, 0)) + int(delta.get(counter, 0))
    return merged


class SweepRunner:
    """Expand a parameter grid and run it inline or on a process pool.

    Parameters
    ----------
    cache:
        Result cache shared by all jobs; ``None`` disables caching.
    max_workers:
        Parallelism of the fan-out (worker processes and the affinity-batch
        splitting target). ``None`` picks a default from the usable CPU
        count (overridable with ``DNN_LIFE_MAX_WORKERS``); ``1`` runs every
        job in the calling process.
    registry:
        Experiment registry (defaults to the global one).
    """

    def __init__(self, cache: Optional[ResultCache] = None,
                 max_workers: Optional[int] = None,
                 registry: Optional[ExperimentRegistry] = None):
        self.cache = cache
        self.max_workers = max_workers
        self.registry = registry

    # -- job construction --------------------------------------------------- #
    def build_jobs(self, experiment: str, grid: Mapping[str, Sequence[Any]],
                   base_seed: int = 0, full: bool = False) -> List[SweepJob]:
        """Expand ``grid`` into fully-resolved, deterministically-seeded jobs.

        When the experiment declares a ``seed`` parameter and the grid does
        not pin it, every job gets its own reproducible seed derived through
        :func:`~repro.utils.rng.deterministic_hash_seed` — stable across
        invocations (so the cache keeps working) yet distinct per workload.
        For experiments declaring stream ``affinity``, the seed is derived
        from the *affinity-relevant* subset of the grid point only: points
        that differ in, say, the mitigation policy then share both their
        seed and their weight stream — which matches the paper's evaluation
        protocol (policies compared on identical weights) and is what lets
        the affinity batches actually hit the per-worker stream cache.
        """
        from repro.orchestration.runner import resolve_params

        registry = self.registry or load_all_experiments()
        spec = registry.get(experiment)
        jobs: List[SweepJob] = []
        for index, point in enumerate(expand_grid(grid)):
            params = resolve_params(spec, point, full=full)
            if "seed" in spec.param_names() and "seed" not in point:
                seed_basis = ({name: value for name, value in point.items()
                               if name in spec.affinity}
                              if spec.affinity else point)
                params["seed"] = deterministic_hash_seed(
                    experiment, canonical_json(seed_basis), base_seed) % (2 ** 31)
            jobs.append(SweepJob(index=index, experiment=experiment, params=params,
                                 cache_key=cache_key(experiment, params)))
        return jobs

    # -- execution ----------------------------------------------------------- #
    def run(self, experiment: str, grid: Mapping[str, Sequence[Any]],
            base_seed: int = 0, full: bool = False) -> SweepReport:
        """Run the whole grid; cache hits are served without touching a worker."""
        start = time.perf_counter()
        jobs = self.build_jobs(experiment, grid, base_seed=base_seed, full=full)
        results: Dict[int, SweepJobResult] = {}
        pending: List[SweepJob] = []
        for job in jobs:
            payload = self.cache.get(job.cache_key) if self.cache is not None else None
            if payload is not None:
                results[job.index] = SweepJobResult(job, payload, True, 0.0, os.getpid())
            else:
                pending.append(job)

        max_workers = (self.max_workers if self.max_workers is not None
                       else _default_max_workers(len(pending)))
        batches: List[JobBatch] = [
            [(job.index, job.params) for job in batch]
            for batch in (self._affinity_batches(experiment, pending, max_workers)
                          if pending else [])]
        # One worker or one batch runs inline: no process start-up to pay.
        inline = max_workers <= 1 or len(batches) <= 1
        batch_outcomes = ((_execute_job_batch(experiment, batch) for batch in batches)
                          if inline else _pool_batches(experiment, batches, max_workers))
        jobs_by_index = {job.index: job for job in pending}
        store_totals: Optional[Dict[str, Any]] = None
        for outcomes, store_delta in batch_outcomes:
            for index, payload, seconds, pid, error in outcomes:
                job = jobs_by_index[index]
                results[index] = (self._record(job, payload, seconds, pid)
                                  if error is None else
                                  SweepJobResult(job, None, False, 0.0, pid,
                                                 error=error))
            store_totals = _merge_store_stats(store_totals, store_delta)

        return SweepReport(
            experiment=experiment,
            grid={name: list(values) for name, values in grid.items()},
            results=[results[index] for index in sorted(results)],
            seconds=time.perf_counter() - start,
            backend="serial" if inline else "process",
            stream_store=store_totals,
        )

    def _affinity_batches(self, experiment: str, pending: List[SweepJob],
                          max_workers: int) -> List[List[SweepJob]]:
        """Partition pending jobs into worker batches along stream affinity.

        Jobs sharing the experiment's affinity-parameter values land in the
        same batch, so one worker computes their shared state (e.g. the
        quantized weight stream) once.  When affinity grouping would leave
        workers idle — fewer groups than workers — the largest batches are
        halved until the pool is saturated; splitting only costs the shared
        state one extra build, so saturation wins.  Experiments without an
        affinity declaration dispatch one job per batch, exactly as before.
        """
        registry = self.registry or load_all_experiments()
        spec = registry.get(experiment)
        if not spec.affinity:
            return [[job] for job in pending]
        grouped: Dict[str, List[SweepJob]] = {}
        for job in pending:
            key = canonical_json(list(spec.affinity_key(job.params)))
            grouped.setdefault(key, []).append(job)
        batches = list(grouped.values())
        while len(batches) < max_workers:
            largest = max(batches, key=len)
            if len(largest) <= 1:
                break
            half = len(largest) // 2
            batches.remove(largest)
            batches.extend([largest[:half], largest[half:]])
        # Deterministic dispatch order regardless of dict/split history.
        return sorted(batches, key=lambda batch: batch[0].index)

    def _record(self, job: SweepJob, payload: Any, seconds: float,
                pid: int) -> SweepJobResult:
        """Persist a freshly-computed payload and wrap it in a result record."""
        if self.cache is not None:
            self.cache.put(job.cache_key, payload, experiment=job.experiment,
                           params=job.params, normalized=True)
        return SweepJobResult(job, payload, False, seconds, pid)
