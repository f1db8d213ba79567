"""Command-line interface: ``dnn-life <command>``.

The CLI is a thin shell over the experiment registry
(:mod:`repro.orchestration`): every figure/table/ablation driver registers
itself with a name and parameter schema, and the CLI exposes three generic
verbs plus one convenience subcommand per registered experiment::

    dnn-life list                       # catalogue of every experiment
    dnn-life run fig9 --set seed=3      # run one experiment by name
    dnn-life sweep aging \
        --grid network=custom_mnist,lenet5 \
        --grid policy=none,dnn_life     # parallel parameter-grid sweep
    dnn-life bench                      # leveling gate + oracles -> BENCH_aging.json
    dnn-life fig9 --quick               # per-experiment command (same as run)
    dnn-life compare --network custom_mnist --format int8_symmetric
    dnn-life scenario \
        --spec "lenet5:int8:dnn_life:1000@85C,idle:500,alexnet:int8:inversion:1000@45C"

Results are printed as ASCII tables/histograms; ``--json PATH`` additionally
writes the machine-readable result to a JSON file.  Completed runs are
cached on disk (``~/.cache/dnn-life`` or ``$DNN_LIFE_CACHE_DIR``) keyed by
(experiment, parameters, code version), so repeated invocations are served
from the cache; disable with ``--no-cache`` or redirect with ``--cache-dir``.

Packed weight streams are additionally persisted in the content-addressed
*stream store* (``<cache dir>/streams`` or ``$DNN_LIFE_STREAM_STORE``) and
memory-mapped back on later runs — ``--stream-store PATH`` redirects it,
``--no-stream-store`` disables it and ``dnn-life cache --streams`` inspects
it.  ``dnn-life sweep --workers 1`` runs every job in the calling process;
more workers fan the batches out on a process pool.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.orchestration import (
    REGISTRY,
    ExperimentSpec,
    ResultCache,
    SweepRunner,
    load_all_experiments,
    render_experiment,
    run_experiment,
    split_grid_values,
)
from repro.streamstore import STREAM_STORE_ENV, active_stream_store
from repro.utils.serialization import save_json, to_jsonable
from repro.utils.tables import AsciiTable


#: Extra verb spellings for registered experiments: ``dnn-life level`` runs
#: the ``leveling`` experiment (before/after wear maps + region imbalance).
_COMMAND_ALIASES = {"level": "leveling"}


def _add_param_arguments(sub: argparse.ArgumentParser, spec: ExperimentSpec) -> None:
    """Generate one CLI option per declared parameter of ``spec``.

    Defaults are ``SUPPRESS``ed: only flags the user actually typed land in
    the namespace, so :meth:`ExperimentSpec.resolve` can layer the declared
    defaults and the quick/full configuration *under* the explicit overrides
    (``dnn-life aging --full`` applies the full config's 100 inferences,
    ``dnn-life aging --full --inferences 7`` keeps the explicit 7).
    """
    for param in spec.params:
        if param.type is bool:
            if param.name == "quick":
                sub.add_argument("--quick", dest="quick", action="store_true",
                                 default=argparse.SUPPRESS,
                                 help=param.help or "reduced configuration (default)")
                sub.add_argument("--full", dest="quick", action="store_false",
                                 default=argparse.SUPPRESS,
                                 help="paper-scale configuration (slow)")
            else:
                sub.add_argument(param.cli_flag, dest=param.name,
                                 action=argparse.BooleanOptionalAction,
                                 default=argparse.SUPPRESS, help=param.help)
        else:
            sub.add_argument(param.cli_flag, dest=param.name, type=param.type,
                             default=argparse.SUPPRESS,
                             choices=param.choices, help=param.help)


def _parse_assignment(text: str) -> Tuple[str, str]:
    """Split one ``param=value`` CLI token."""
    if "=" not in text:
        raise argparse.ArgumentTypeError(
            f"expected PARAM=VALUE, got '{text}'")
    name, _, value = text.partition("=")
    return name.strip(), value.strip()


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser from the experiment registry."""
    load_all_experiments()
    parser = argparse.ArgumentParser(
        prog="dnn-life",
        description="DNN-Life aging analysis and mitigation framework (DATE 2021 reproduction)",
    )
    parser.add_argument("--json", type=str, default=None,
                        help="write the machine-readable result to this JSON file")
    parser.add_argument("--cache-dir", type=str, default=None,
                        help="result-cache directory (default: $DNN_LIFE_CACHE_DIR "
                             "or ~/.cache/dnn-life)")
    parser.add_argument("--no-cache", action="store_true",
                        help="neither read nor write the result cache")
    parser.add_argument("--stream-store", type=str, default=None,
                        metavar="PATH",
                        help="packed-stream store directory (default: "
                             "<cache dir>/streams, $DNN_LIFE_STREAM_STORE "
                             "overrides); exported to worker processes")
    parser.add_argument("--no-stream-store", action="store_true",
                        help="neither read nor write the packed-stream store")
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser(
        "list", help="list every registered experiment and its parameters")
    list_parser.add_argument("--tag", type=str, default=None,
                             help="only list experiments carrying this tag")

    run_parser = subparsers.add_parser(
        "run", help="run one registered experiment by name")
    run_parser.add_argument("experiment", help="experiment name (see `dnn-life list`)")
    run_parser.add_argument("--set", dest="assignments", action="append", default=[],
                            metavar="PARAM=VALUE", type=_parse_assignment,
                            help="override one parameter (repeatable)")
    run_parser.add_argument("--full", action="store_true",
                            help="apply the paper-scale configuration")
    run_parser.add_argument("--no-render", action="store_true",
                            help="skip the ASCII rendering (print the JSON payload)")

    sweep_parser = subparsers.add_parser(
        "sweep", help="expand a parameter grid and run it across worker processes")
    sweep_parser.add_argument("experiment", help="experiment name (see `dnn-life list`)")
    sweep_parser.add_argument("--grid", dest="grid", action="append", default=[],
                              metavar="PARAM=V1,V2,...", type=_parse_assignment,
                              help="one grid axis (repeatable); single-value axes pin "
                                   "a parameter; start the value list with ';', '|' "
                                   "or '/' to use that character as the separator "
                                   "instead of ',' (for values containing commas, "
                                   "e.g. multi-phase scenario specs)")
    sweep_parser.add_argument("--workers", type=int, default=None,
                              help="worker processes (default: CPU-based, "
                                   "$DNN_LIFE_MAX_WORKERS overrides; 1 = serial)")
    sweep_parser.add_argument("--base-seed", type=int, default=0,
                              help="base seed for deterministic per-job seeding")
    sweep_parser.add_argument("--full", action="store_true",
                              help="apply the paper-scale configuration to every job")

    cache_parser = subparsers.add_parser(
        "cache", help="inspect or clear the on-disk result cache and the "
                      "packed-stream store")
    cache_parser.add_argument("--clear", action="store_true",
                              help="delete every cached entry (with --streams: "
                                   "every stream-store entry)")
    cache_parser.add_argument("--streams", action="store_true",
                              help="operate on the packed-stream store instead "
                                   "of the result cache")
    cache_parser.add_argument("--gc-days", type=float, default=None,
                              metavar="DAYS",
                              help="with --streams: delete entries not used "
                                   "for DAYS days")

    bench_parser = subparsers.add_parser(
        "bench", help="hold every leveled packed run to its overhead budget, "
                      "check the packed engine against the explicit one, "
                      "and write BENCH_aging.json")
    bench_parser.add_argument("--output", type=str, default=None,
                              metavar="PATH",
                              help="result file (default BENCH_aging.json; "
                                   "'-' skips writing)")
    bench_parser.add_argument("--repeats", type=int, default=3,
                              help="timing repetitions per measurement (best "
                                   "is kept)")

    lint_parser = subparsers.add_parser(
        "lint", help="run the repo's determinism/aliasing static analysis "
                     "(rules DL001-DL006) over the shipped sources")
    lint_parser.add_argument("paths", nargs="*", metavar="PATH",
                             help="files or directories to lint (default: the "
                                  "installed repro package)")
    lint_parser.add_argument("--format", dest="format", default="text",
                             choices=("text", "json"),
                             help="report format (default: text)")
    lint_parser.add_argument("--root", type=str, default=None,
                             help="directory findings are reported relative to "
                                  "(default: the directory containing the "
                                  "repro package; rule allowlists match "
                                  "against these relative paths)")
    lint_parser.add_argument("--list", dest="list_rules", action="store_true",
                             help="print the rule catalog and exit")

    for spec in REGISTRY:
        aliases = [alias for alias, target in _COMMAND_ALIASES.items()
                   if target == spec.name]
        sub = subparsers.add_parser(spec.name, aliases=aliases,
                                    help=f"{spec.artifact}: {spec.description}")
        _add_param_arguments(sub, spec)
    return parser


# --------------------------------------------------------------------------- #
# Verb implementations
# --------------------------------------------------------------------------- #
def _cmd_list(args: argparse.Namespace) -> List[Dict[str, Any]]:
    rows = REGISTRY.describe()
    if args.tag:
        rows = [row for row in rows if args.tag in row["tags"]]
    table = AsciiTable(["experiment", "artifact", "parameters", "description"],
                       title=f"registered experiments ({len(rows)})")
    for row in rows:
        table.add_row([row["name"], row["artifact"],
                       " ".join(row["params"]) or "-", row["description"]])
    print(table.render())
    return rows


def _print_run(run, no_render: bool = False, footer: bool = True) -> None:
    """Print a run's rendering (JSON payload if it has no renderer)."""
    text = None if no_render else render_experiment(run)
    if text is None:
        print(json.dumps(to_jsonable(run.payload), indent=2, sort_keys=True))
    else:
        print(text)
    if footer:
        source = "cache" if run.from_cache else "computed"
        key = run.cache_key[:12] if run.cache_key else "- (cache disabled)"
        print(f"\n[{run.experiment} | {source} in {run.seconds:.2f}s | key {key}]")


def _subcommand_invocation(args: argparse.Namespace):
    """Resolve a per-experiment subcommand's (spec, explicit params, full flag).

    Shared by input validation and execution so the two can't diverge.
    Only flags the user actually typed are in the namespace (defaults are
    ``SUPPRESS``ed); ``--full`` arrives as ``quick=False``, which selects the
    spec's paper-scale configuration underneath the explicit flags.
    """
    spec = REGISTRY.get(_COMMAND_ALIASES.get(args.command, args.command))
    params = {param.name: getattr(args, param.name)
              for param in spec.params if hasattr(args, param.name)}
    return spec, params, params.get("quick") is False


def _parse_grid(args: argparse.Namespace) -> Dict[str, List[Any]]:
    """Parse the repeated ``--grid PARAM=V1,V2,...`` options against the schema.

    Value lists split on commas by default; a list opening with ``;``, ``|``
    or ``/`` uses that character as the axis separator instead
    (:func:`repro.orchestration.sweep.split_grid_values`), so multi-phase
    scenario specs — which contain commas — can ride a grid axis.  Shared by
    input validation and execution so the two can't diverge.  Raises
    ``ValueError`` (a one-line exit-2 usage error) on an empty or duplicated
    axis.
    """
    spec = REGISTRY.get(args.experiment)
    grid: Dict[str, List[Any]] = {}
    for name, values in args.grid:
        param = spec.get_param(name)
        parsed = [param.parse(value) for value in split_grid_values(values)]
        if not parsed:
            raise ValueError(
                f"grid axis '{name}' has no values (separate values with "
                "',', or open the list with ';', '|' or '/' to choose that "
                "separator)")
        if name in grid:
            combined = ",".join(str(value) for value in grid[name] + parsed)
            raise ValueError(
                f"grid axis '{name}' specified twice; list all values in one "
                f"option: --grid {name}={combined}")
        grid[name] = parsed
    return grid


def _cmd_run(args: argparse.Namespace, cache: Optional[ResultCache]) -> Any:
    params = dict(args.assignments)
    run = run_experiment(args.experiment, params, full=args.full, cache=cache)
    _print_run(run, no_render=args.no_render)
    return run.payload


def _cmd_experiment(args: argparse.Namespace, cache: Optional[ResultCache]) -> Any:
    spec, params, full = _subcommand_invocation(args)
    run = run_experiment(spec.name, params, full=full, cache=cache)
    _print_run(run, footer=False)
    return run.payload


def _cmd_sweep(args: argparse.Namespace, cache: Optional[ResultCache]) -> Any:
    grid = _parse_grid(args)
    runner = SweepRunner(cache=cache, max_workers=args.workers)
    report = runner.run(args.experiment, grid, base_seed=args.base_seed, full=args.full)

    failed = f", {report.num_failed} failed" if report.num_failed else ""
    table = AsciiTable(
        ["job", "parameters", "source", "seconds"],
        title=(f"sweep '{args.experiment}': {report.num_jobs} jobs, "
               f"{report.num_from_cache} from cache, "
               f"{report.num_computed} computed across "
               f"{max(len(report.worker_pids), 1)} process(es){failed}, "
               f"{report.seconds:.1f}s total"),
        precision=2,
    )
    varying = [name for name, values in grid.items() if len(values) > 1]
    for result in report.results:
        shown = {name: result.job.params[name] for name in varying} if varying \
            else result.job.params
        if result.failed:
            source = "FAILED"
        elif result.from_cache:
            source = "cache"
        else:
            source = f"pid {result.worker_pid}"
        table.add_row([
            result.job.index,
            " ".join(f"{key}={value}" for key, value in shown.items()) or "-",
            source,
            result.seconds,
        ])
    print(table.render())
    if report.stream_store is not None:
        store = report.stream_store
        failed = (f", {store['failed_puts']} failed to persist"
                  if store.get("failed_puts") else "")
        print(f"stream store at {store['root']}: {store['hits']} hit(s), "
              f"{store['puts']} cold build(s) persisted{failed} "
              f"[backend {report.backend}]")
    for result in report.results:
        if result.failed:
            print(f"job {result.job.index} failed: {result.error}", file=sys.stderr)
    return report.summary()


def _cmd_bench(args: argparse.Namespace) -> Tuple[Any, int]:
    """Run the leveling gate and both oracles; returns (payload, exit code)."""
    from repro.bench import (
        DEFAULT_OUTPUT,
        check_leveling_overheads,
        render_bench_report,
        run_aging_bench,
    )

    payload = run_aging_bench(repeats=max(args.repeats, 1))
    print(render_bench_report(payload))
    output = args.output if args.output is not None else DEFAULT_OUTPUT
    if output != "-":
        path = save_json(payload, output)
        print(f"\nbenchmark record written to {path}")
    exit_code = 0
    if not payload["verification"]["explicit_match"]:
        print("dnn-life bench: explicit-engine cross-check FAILED", file=sys.stderr)
        exit_code = 1
    if not payload["leveling"]["verification"]["explicit_match"]:
        print("dnn-life bench: leveling explicit-engine cross-check FAILED",
              file=sys.stderr)
        exit_code = 1
    for violation in check_leveling_overheads(payload["leveling"]):
        print(f"dnn-life bench: {violation}", file=sys.stderr)
        exit_code = 1
    return payload, exit_code


def _cmd_lint(args: argparse.Namespace) -> Tuple[Any, int]:
    """Run the static-analysis suite; returns (payload, exit code).

    Exit codes follow the usage-error convention: 0 when the tree is clean,
    2 when any rule fires (or a file fails to parse), so CI lanes and
    pre-commit hooks can gate on the result directly.
    """
    from repro.devtools.lint import ALL_RULES, render_report, run_lint

    if args.list_rules:
        table = AsciiTable(["code", "rule", "contract"],
                           title=f"dnn-lint rules ({len(ALL_RULES)})")
        for rule in ALL_RULES:
            table.add_row([rule.code, rule.name, rule.summary])
        print(table.render())
        return [{"code": rule.code, "name": rule.name, "summary": rule.summary}
                for rule in ALL_RULES], 0
    report = run_lint(paths=args.paths or None, root=args.root)
    print(render_report(report, args.format))
    return report.to_payload(), 0 if report.clean else 2


def _cmd_cache(args: argparse.Namespace, cache: Optional[ResultCache]) -> Any:
    if args.streams:
        return _cmd_cache_streams(args)
    if cache is None:
        print("cache disabled (--no-cache)")
        return {"enabled": False}
    if args.clear:
        removed = cache.clear()
        print(f"removed {removed} cached result(s) from {cache.root}")
        return {"cleared": removed, "root": str(cache.root)}
    stats = cache.stats()
    print(f"cache at {stats['root']}: {stats['entries']} entries, "
          f"{stats['bytes'] / 1024:.1f} KiB")
    return stats


def _cmd_cache_streams(args: argparse.Namespace) -> Any:
    """The ``cache --streams`` view of the packed-stream store."""
    import time

    store = active_stream_store()
    if store is None:
        print("stream store disabled (--no-stream-store / "
              f"${STREAM_STORE_ENV})")
        return {"enabled": False}
    if args.clear:
        before_files = store.orphan_files_reclaimed
        before_bytes = store.orphan_bytes_reclaimed
        removed = store.clear()
        orphan_files = store.orphan_files_reclaimed - before_files
        orphan_bytes = store.orphan_bytes_reclaimed - before_bytes
        print(f"removed {removed} stream entr(ies) from {store.root}")
        if orphan_files:
            print(f"reclaimed {orphan_files} orphaned file(s) "
                  f"({orphan_bytes / 2**20:.1f} MiB)")
        return {"cleared": removed, "orphan_files": orphan_files,
                "orphan_bytes": orphan_bytes, "root": str(store.root)}
    if args.gc_days is not None:
        before_files = store.orphan_files_reclaimed
        before_bytes = store.orphan_bytes_reclaimed
        removed = store.gc(args.gc_days * 86400.0)
        orphan_files = store.orphan_files_reclaimed - before_files
        orphan_bytes = store.orphan_bytes_reclaimed - before_bytes
        print(f"gc removed {removed} stream entr(ies) unused for "
              f"{args.gc_days:g}+ days from {store.root}")
        if orphan_files:
            print(f"reclaimed {orphan_files} orphaned file(s) "
                  f"({orphan_bytes / 2**20:.1f} MiB)")
        return {"gc_removed": removed, "unused_days": args.gc_days,
                "orphan_files": orphan_files, "orphan_bytes": orphan_bytes,
                "root": str(store.root)}
    entries = store.entries()
    table = AsciiTable(
        ["key", "network", "geometry", "blocks", "MiB", "unused"],
        title=(f"stream store at {store.root}: {len(entries)} entr(ies), "
               f"{sum(entry['nbytes'] for entry in entries) / 2**20:.1f} MiB"),
    )
    now = time.time()  # dnn-lint: disable=DL002 - display-only entry ages
    for entry in entries:
        geometry = entry.get("geometry") or {}
        describe = entry.get("describe") or {}
        capacity = geometry.get("capacity_bytes")
        geometry_text = (f"{capacity / 1024:.0f}KB/"
                         f"{geometry.get('word_bits', '?')}b"
                         if capacity else "?")
        unused_hours = max(now - (entry.get("last_used_unix") or now), 0) / 3600
        table.add_row([
            entry["key"][:12],
            describe.get("network", "-"),
            geometry_text,
            entry.get("num_blocks", "?"),
            entry["nbytes"] / 2**20,
            f"{unused_hours:.1f}h",
        ])
    print(table.render())
    orphan_bytes = store.orphan_bytes()
    if orphan_bytes:
        print(f"orphaned: {orphan_bytes / 2**20:.1f} MiB not referenced by "
              f"any manifest (reclaimed by --clear / --gc-days)")
    return {"root": str(store.root), "entries": entries,
            "orphan_bytes": orphan_bytes}


def _validate_environment() -> None:
    """Reject a malformed integer override in the environment up front."""
    from repro.experiments.aging_runner import STREAM_CACHE_SIZE_ENV
    from repro.orchestration.sweep import MAX_WORKERS_ENV

    for name in (STREAM_CACHE_SIZE_ENV, MAX_WORKERS_ENV):
        value = os.environ.get(name, "")
        try:
            valid = value == "" or int(value) >= 0
        except ValueError:
            valid = False
        if not valid:
            raise ValueError(f"{name} must be a non-negative integer, "
                             f"got {value!r}")


def _validate_user_input(args: argparse.Namespace) -> None:
    """Resolve the experiment name and parameters named on the command line.

    Raises the registry's ``KeyError``/``ValueError``/``TypeError`` for
    unknown experiments, unknown parameters or values failing the schema,
    and a ``ValueError`` for a malformed integer environment override.
    Validation runs *before* any experiment executes, so ``main`` can map
    these to a clean usage error without masking genuine runtime failures.
    The per-experiment subcommands (``dnn-life aging --inferences -5``,
    ``dnn-life scenario --spec lenet5:...``) pre-validate through the same
    schema, so a non-positive duration or an unknown phase token is a
    one-line usage error there too.
    """
    _validate_environment()
    if args.command == "run":
        spec = REGISTRY.get(args.experiment)
        spec.resolve(dict(args.assignments), full=args.full)
    elif args.command == "sweep":
        _parse_grid(args)
    elif args.command in REGISTRY or args.command in _COMMAND_ALIASES:
        spec, params, full = _subcommand_invocation(args)
        spec.resolve(params, full=full)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point.

    Returns 0 on success and 2 on a usage error (unknown experiment,
    unknown/invalid parameter value), mirroring argparse's convention.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    # The stream-store choice is exported through the environment (not
    # threaded as a parameter) so sweep worker processes inherit it.
    if args.no_stream_store:
        os.environ[STREAM_STORE_ENV] = "0"
    elif args.stream_store:
        os.environ[STREAM_STORE_ENV] = args.stream_store
    try:
        _validate_user_input(args)
    except (KeyError, ValueError, TypeError) as error:
        message = error.args[0] if error.args else str(error)
        print(f"dnn-life: error: {message}", file=sys.stderr)
        return 2
    exit_code = 0
    try:
        if args.command == "list":
            result = _cmd_list(args)
        elif args.command == "run":
            result = _cmd_run(args, cache)
        elif args.command == "sweep":
            result = _cmd_sweep(args, cache)
            if result["num_failed"]:
                exit_code = 1  # partial results are reported/saved, but CI must notice
        elif args.command == "bench":
            result, exit_code = _cmd_bench(args)
        elif args.command == "lint":
            result, exit_code = _cmd_lint(args)
        elif args.command == "cache":
            result = _cmd_cache(args, cache)
        else:
            result = _cmd_experiment(args, cache)
        if args.json:
            path = save_json(result, args.json)
            print(f"\nJSON result written to {path}")
    except BrokenPipeError:
        # Downstream pager/head closed the pipe — the unix-conventional quiet
        # exit.  Point stdout at devnull so the interpreter's shutdown flush
        # doesn't raise a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
