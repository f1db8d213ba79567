"""Parameter-grid sweeps with a pluggable executor backend.

:class:`SweepRunner` expands a parameter grid (e.g. network × quantization
format × mitigation policy × memory geometry) into jobs, gives every job a
deterministic seed derived through :func:`repro.utils.rng.deterministic_hash_seed`,
serves previously-computed jobs from the result cache and hands the rest —
grouped into stream-affinity batches — to a *sweep executor*.

The executor protocol is one method::

    submit_batches(experiment, batches) -> Iterator[BatchOutcome]

where each batch is ``[(job_index, params), ...]`` and outcomes may arrive
in any order.  Two backends implement it:

* :class:`ProcessPoolSweepExecutor` (default) — the original
  :class:`concurrent.futures.ProcessPoolExecutor` single-host fan-out;
* :class:`SerialSweepExecutor` — everything inline in the calling process
  (debugging, coverage, deterministic smoke tests).

Any other object with a ``submit_batches`` method can be handed to
:class:`SweepRunner` as its backend.

Because every job runs through :func:`repro.orchestration.runner.run_experiment`,
a sweep job's payload is byte-identical to the payload of a single
``dnn-life run`` with the same parameters — on every backend.
"""

from __future__ import annotations

import concurrent.futures
import os
import time
from dataclasses import dataclass, field
from itertools import product
from typing import (Any, Dict, Iterable, Iterator, List, Mapping, Optional,
                    Sequence, Tuple, Union)

from repro.orchestration.cache import ResultCache, cache_key
from repro.orchestration.registry import ExperimentRegistry, load_all_experiments
from repro.utils.rng import deterministic_hash_seed
from repro.utils.serialization import canonical_json

__all__ = ["expand_grid", "split_grid_values", "make_executor", "BatchOutcome",
           "ProcessPoolSweepExecutor",
           "SerialSweepExecutor", "SweepJob", "SweepJobResult", "SweepReport",
           "SweepRunner", "SWEEP_BACKENDS"]

#: Environment variable overriding the default worker count.
MAX_WORKERS_ENV = "DNN_LIFE_MAX_WORKERS"

#: The selectable sweep executor backends.
SWEEP_BACKENDS = ("process", "serial")

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
    cpus = os.cpu_count() or 1
    return max(1, min(num_jobs, max(cpus, 2), 8))


def _execute_job_batch(experiment: str,
                       batch: List[Tuple[int, Dict[str, Any]]]
                       ) -> List[Tuple[int, Any, float, int, Optional[str]]]:
    """Worker entry point: run a batch of jobs sharing stream affinity.

    Jobs in one batch agree on the experiment's affinity parameters, so
    running them back-to-back in one process lets process-local caches (the
    aging experiments' weight-stream cache) serve every job after the first.
    Failures are isolated per job: each outcome carries either a payload or
    an error string.
    """
    from repro.orchestration.runner import run_experiment

    outcomes: List[Tuple[int, Any, float, int, Optional[str]]] = []
    for index, params in batch:
        try:
            run = run_experiment(experiment, params, cache=None)
            outcomes.append((index, run.payload, run.seconds, os.getpid(), None))
        except Exception as error:  # job failure must not kill its batch
            outcomes.append((index, None, 0.0, os.getpid(),
                             f"{type(error).__name__}: {error}"))
    return outcomes


#: One batch as handed to an executor: ``[(job index, resolved params), ...]``.
JobBatch = List[Tuple[int, Dict[str, Any]]]

#: Per-job outcome tuple: ``(index, payload, seconds, pid, error)``.
JobOutcome = Tuple[int, Any, float, int, Optional[str]]


@dataclass
class BatchOutcome:
    """Result of one dispatched batch, as yielded by an executor.

    ``outcomes`` carries per-job results when the batch ran (individual jobs
    may still have failed — their ``error`` slot is set); ``error`` is set
    instead when the whole batch was lost (dead worker, serialization
    failure).  ``stream_store`` is the batch's stream-store counter delta,
    measured inside the process that ran it.
    """

    batch: JobBatch
    outcomes: Optional[List[JobOutcome]] = None
    error: Optional[str] = None
    stream_store: Optional[Dict[str, Any]] = None


def _execute_job_batch_tracked(experiment: str, batch: JobBatch
                               ) -> Tuple[List[JobOutcome],
                                          Optional[Dict[str, Any]]]:
    """Run a batch and sample the stream-store counter delta around it.

    In a fresh worker process the "before" snapshot is all zeros, so the
    delta equals the worker's absolute counters; inline (serial backend) it
    isolates this batch's traffic from earlier batches in the same process.
    """
    from repro.streamstore import stream_store_stats, stream_store_stats_delta

    before = stream_store_stats()
    outcomes = _execute_job_batch(experiment, batch)
    delta = stream_store_stats_delta(before, stream_store_stats())
    return outcomes, delta


class SerialSweepExecutor:
    """Run every batch inline in the calling process.

    The debugging/coverage backend: no fork, no pickling, deterministic
    ordering — and the same per-job isolation semantics as the process
    backend, because it reuses the identical batch entry point.
    """

    name = "serial"

    def submit_batches(self, experiment: str, batches: Iterable[JobBatch]
                       ) -> Iterator[BatchOutcome]:
        """Yield each batch's outcome, in submission order."""
        for batch in batches:
            try:
                outcomes, stats = _execute_job_batch_tracked(experiment, batch)
            except Exception as error:  # pragma: no cover - defensive
                yield BatchOutcome(batch=batch,
                                   error=f"{type(error).__name__}: {error}")
                continue
            yield BatchOutcome(batch=batch, outcomes=outcomes,
                               stream_store=stats)


class ProcessPoolSweepExecutor:
    """Fan batches out across a single-host process pool (the default)."""

    name = "process"

    def __init__(self, max_workers: Optional[int] = None):
        self.max_workers = max_workers

    def submit_batches(self, experiment: str, batches: Iterable[JobBatch]
                       ) -> Iterator[BatchOutcome]:
        """Yield batch outcomes as workers complete them (any order)."""
        batches = list(batches)
        if not batches:
            return
        max_workers = (self.max_workers if self.max_workers
                       else _default_max_workers(len(batches)))
        max_workers = min(max_workers, len(batches))
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=max_workers) as pool:
            futures = {
                pool.submit(_execute_job_batch_tracked, experiment, batch): batch
                for batch in batches
            }
            for future in concurrent.futures.as_completed(futures):
                batch = futures[future]
                try:
                    outcomes, stats = future.result()
                except Exception as error:  # a dead worker fails its batch only
                    yield BatchOutcome(batch=batch,
                                       error=f"{type(error).__name__}: {error}")
                    continue
                yield BatchOutcome(batch=batch, outcomes=outcomes,
                                   stream_store=stats)


def make_executor(backend: str = "process", max_workers: Optional[int] = None):
    """Instantiate a sweep executor by backend name.

    Unknown names raise :class:`ValueError`.
    """
    if backend == "process":
        return ProcessPoolSweepExecutor(max_workers=max_workers)
    if backend == "serial":
        return SerialSweepExecutor()
    known = ", ".join(SWEEP_BACKENDS)
    raise ValueError(f"unknown sweep backend '{backend}'; known backends: {known}")


def _merge_store_stats(total: Optional[Dict[str, Any]],
                       delta: Optional[Dict[str, Any]]
                       ) -> Optional[Dict[str, Any]]:
    """Accumulate per-batch stream-store counter deltas into a total."""
    if delta is None:
        return total
    if total is None:
        return dict(delta)
    merged = dict(total)
    merged["root"] = delta["root"]
    for counter in ("hits", "misses", "puts", "corrupt"):
        merged[counter] = int(merged.get(counter, 0)) + int(delta.get(counter, 0))
    return merged


class SweepRunner:
    """Expand a parameter grid and run it through a sweep executor.

    Parameters
    ----------
    cache:
        Result cache shared by all jobs; ``None`` disables caching.
    max_workers:
        Parallelism of the fan-out (worker processes and the affinity-batch
        splitting target). ``None`` picks a default from the
        CPU count (overridable with ``DNN_LIFE_MAX_WORKERS``); ``1`` with
        the default backend runs every job serially in the calling process.
    registry:
        Experiment registry (defaults to the global one).
    backend:
        Executor backend: one of :data:`SWEEP_BACKENDS` (default
        ``"process"``), or any object implementing ``submit_batches``.
    """

    def __init__(self, cache: Optional[ResultCache] = None,
                 max_workers: Optional[int] = None,
                 registry: Optional[ExperimentRegistry] = None,
                 backend: Union[str, Any, None] = None):
        self.cache = cache
        self.max_workers = max_workers
        self.registry = registry
        self.backend = backend

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
        executor = self._resolve_executor(max_workers, len(pending))
        store_totals: Optional[Dict[str, Any]] = None
        if pending:
            batches = self._affinity_batches(experiment, pending, max_workers)
            payload_batches: List[JobBatch] = [
                [(job.index, job.params) for job in batch] for batch in batches]
            jobs_by_index = {job.index: job for job in pending}
            for outcome in executor.submit_batches(experiment, payload_batches):
                if outcome.error is not None:
                    for index, _params in outcome.batch:
                        results[index] = self._failure(jobs_by_index[index],
                                                       outcome.error)
                else:
                    for index, payload, seconds, pid, error in (
                            outcome.outcomes or []):
                        job = jobs_by_index[index]
                        if error is None:
                            results[index] = self._record(job, payload,
                                                          seconds, pid)
                        else:
                            results[index] = SweepJobResult(job, None, False,
                                                            0.0, pid,
                                                            error=error)
                store_totals = _merge_store_stats(store_totals,
                                                  outcome.stream_store)

        report = SweepReport(
            experiment=experiment,
            grid={name: list(values) for name, values in grid.items()},
            results=[results[index] for index in sorted(results)],
            seconds=time.perf_counter() - start,
            backend=getattr(executor, "name", "custom"),
            stream_store=store_totals,
        )
        return report

    def _resolve_executor(self, max_workers: int, num_pending: int) -> Any:
        """The executor instance for this run.

        The default backend keeps the historical shortcut: one worker (or a
        single pending batch-of-one) runs inline instead of paying process
        startup.  Named backends are instantiated fresh per run; an executor
        *instance* is used as-is.
        """
        backend = self.backend
        if backend is not None and not isinstance(backend, str):
            return backend
        name = backend or "process"
        if name == "process" and (max_workers <= 1 or num_pending == 1):
            name = "serial"
        return make_executor(name, max_workers=max_workers)

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

    @staticmethod
    def _failure(job: SweepJob, error: Union[Exception, str]) -> SweepJobResult:
        """Result record for a job that raised (nothing cached)."""
        message = (error if isinstance(error, str)
                   else f"{type(error).__name__}: {error}")
        return SweepJobResult(job, None, False, 0.0, os.getpid(), error=message)
