"""Experiment orchestration: registry, result cache and parallel sweeps.

This subsystem turns the per-figure experiment drivers into one scalable
orchestration layer:

* :mod:`repro.orchestration.registry` — every figure/table/ablation driver
  self-registers with a name, parameter schema and quick/full configurations;
  the CLI dispatches through the registry instead of hand-wired functions.
* :mod:`repro.orchestration.cache` — a content-addressed on-disk result cache
  keyed by (experiment, parameters, code version), so repeated invocations
  and sweeps reuse prior results instead of re-simulating.
* :mod:`repro.orchestration.sweep` — grid expansion with deterministic
  per-job seeding; stream-affinity batches run inline for one worker or
  one batch, on a process pool otherwise.
* :mod:`repro.orchestration.runner` — the shared cached execution path.

Example
-------
>>> from repro.orchestration import ResultCache, SweepRunner
>>> runner = SweepRunner(cache=ResultCache("/tmp/dnn-life-cache"), max_workers=4)
>>> report = runner.run("aging", {"network": ["lenet5", "custom_mnist"],
...                               "policy": ["none", "dnn_life"]})  # doctest: +SKIP
>>> report.num_jobs  # doctest: +SKIP
4
"""

from repro.orchestration.cache import ResultCache, cache_key, code_version, default_cache_dir
from repro.orchestration.registry import (
    REGISTRY,
    ExperimentRegistry,
    ExperimentSpec,
    ParamSpec,
    load_all_experiments,
    register_experiment,
)
from repro.orchestration.runner import ExperimentRun, render_experiment, run_experiment
from repro.orchestration.sweep import (
    SweepJob,
    SweepJobResult,
    SweepReport,
    SweepRunner,
    expand_grid,
    split_grid_values,
)

__all__ = [
    "REGISTRY",
    "ExperimentRegistry",
    "ExperimentSpec",
    "ParamSpec",
    "load_all_experiments",
    "register_experiment",
    "ResultCache",
    "cache_key",
    "code_version",
    "default_cache_dir",
    "ExperimentRun",
    "run_experiment",
    "render_experiment",
    "SweepJob",
    "SweepJobResult",
    "SweepReport",
    "SweepRunner",
    "expand_grid",
    "split_grid_values",
]
