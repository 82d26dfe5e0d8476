"""Command-line interface: regenerate any table/figure of the paper.

The front door is the experiment registry (see ``docs/runner.md``)::

    python -m repro list-experiments
    python -m repro run fig7 --parallel 4
    python -m repro run fig5 fig6 --workloads 8 --refs 30000
    python -m repro run all --cache-dir /tmp/rc --stats-json stats.json
    python -m repro run fig7 --plan

``repro run`` executes through :class:`repro.runner.Runner`: cells fan out
over ``--parallel N`` worker processes and results are memoized in a
content-addressed cache (``--cache-dir``, default ``.repro-cache``;
disable with ``--no-cache``, recompute with ``--force``).  Re-runs and
interrupted sweeps resume from cache with byte-identical output.

An unknown command prints the command groups below and exits 2;
``python -m repro --help`` prints them and exits 0.

Serving mode (see ``docs/service.md``) lives under one extra subcommand
dispatched to :mod:`repro.service.cli`; its studies are registry
experiments like the figures::

    python -m repro serve --shards 4 --data-capacity 4096
    python -m repro serve --obs-port 9900 --flight-dir ./flight
    python -m repro run service-admission cluster-scaling --json serving.json

Static checks (see ``docs/devtools.md``) live under two more
subcommands dispatched to :mod:`repro.devtools.cli`: ``lint`` runs the
REP001-REP013 and FLOW001-FLOW003 rules in one pass over the source::

    python -m repro lint src
    python -m repro check-protocol --format json

Observability (see ``docs/observability.md``) adds a live dashboard,
trace export and the continuous-telemetry tools, dispatched to
:mod:`repro.obs.cli`::

    python -m repro top --port 9876
    python -m repro top --cluster --node node0=127.0.0.1:9876 ...
    python -m repro obs export --format chrome-trace --out trace.json
    python -m repro obs validate --causal trace.json
    python -m repro obs collect node0.jsonl node1.jsonl --out cluster.json
    python -m repro obs flight flight-20260808-120000-sigusr2.json
    python -m repro obs alert-replay --seed 2013 --json replay.json
    python -m repro explain --key storm:0 cluster-trace.json

The benchmark gate (see ``docs/perf.md``) dispatches to
:mod:`repro.perf.cli`; its inputs are ``bench/run.py --json`` files::

    python -m repro perf compare --parent parent.json --change change.json

Cluster mode (see ``docs/cluster.md``) dispatches to
:mod:`repro.cluster.cli`::

    python -m repro cluster serve --nodes 3 --data-capacity 512
    python -m repro cluster serve --nodes 3 --obs-port 9900
    python -m repro cluster smoke
    python -m repro cluster trace --nodes 3 --out cluster-trace.json
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

from .cluster import cli as cluster_cli
from .devtools import cli as devtools_cli
from .experiments import ExperimentParams
from .experiments import registry
from .obs import cli as obs_cli
from .obs.logging import configure as configure_logging
from .perf import cli as perf_cli
from .runner import ResultCache, Runner, cell_key
from .runner.cache import CACHE_DIR_ENV, DEFAULT_CACHE_DIR
from .runner.engine import _env_parallel
from .service import cli as service_cli


def _add_param_args(parser: argparse.ArgumentParser) -> None:
    defaults = ExperimentParams()
    parser.add_argument("--workloads", type=int, default=defaults.n_workloads,
                        help="number of multiprogrammed mixes")
    parser.add_argument("--refs", type=int, default=defaults.n_refs,
                        help="memory references per core")
    parser.add_argument("--scale", type=int, default=defaults.scale,
                        help="capacity divisor (1 = paper-size caches)")
    parser.add_argument("--seed", type=int, default=defaults.seed)
    parser.add_argument(
        "--json",
        metavar="FILE",
        help="also dump the raw result dict as JSON (figure data for plotting)",
    )
    parser.add_argument(
        "--out",
        metavar="FILE",
        help="also append everything printed to FILE (report capture)",
    )


def build_run_parser() -> argparse.ArgumentParser:
    """The ``repro run`` subcommand parser."""
    parser = argparse.ArgumentParser(
        prog="repro run",
        description="Run experiments through the parallel, cached engine.",
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        metavar="EXPERIMENT",
        help="experiment name(s) (see 'list-experiments'), or 'all'",
    )
    _add_param_args(parser)
    parser.add_argument(
        "--parallel", type=int, default=None, metavar="N",
        help="worker processes (default: $REPRO_PARALLEL or serial)",
    )
    parser.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help=f"result cache directory (default: ${CACHE_DIR_ENV} or "
             f"{DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the result cache entirely",
    )
    parser.add_argument(
        "--force", action="store_true",
        help="recompute every cell, overwriting cached entries",
    )
    parser.add_argument(
        "--plan", action="store_true",
        help="show what would run (and what is already cached) and exit",
    )
    parser.add_argument(
        "--stats-json", metavar="FILE",
        help="dump runner statistics (cells run/cached/failed) as JSON",
    )
    return parser


class _Tee:
    """Duplicate stdout writes into a file (for ``--out`` report capture)."""

    def __init__(self, stream, fh):
        self._stream = stream
        self._fh = fh

    def write(self, text):
        self._stream.write(text)
        self._fh.write(text)

    def flush(self):
        self._stream.flush()
        self._fh.flush()


def _jsonable(obj):
    """Best-effort conversion of experiment results to JSON-safe values."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _jsonable(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    if hasattr(obj, "tolist"):
        return obj.tolist()
    return str(obj)


def _resolve_names(requested) -> list:
    """Expand 'all' and validate every requested experiment name."""
    names = []
    for name in requested:
        if name == "all":
            names.extend(registry.names())
        elif name in registry.names():
            names.append(name)
        else:
            raise SystemExit(
                f"unknown experiment {name!r}; try 'repro list-experiments'"
            )
    return names


def _build_runner(args) -> Runner:
    """Translate ``repro run`` flags into a configured engine."""
    if args.parallel is not None and args.parallel < 0:
        raise SystemExit("--parallel must be >= 0")
    parallel = args.parallel
    if parallel is None:
        try:
            parallel = _env_parallel()
        except ValueError as exc:
            raise SystemExit(str(exc)) from None
    cache = None
    if not args.no_cache:
        cache_dir = (args.cache_dir or os.environ.get(CACHE_DIR_ENV)
                     or DEFAULT_CACHE_DIR)
        cache = ResultCache(cache_dir)
    return Runner(parallel=parallel, cache=cache, force=args.force)


def _print_plan(names, params: ExperimentParams, runner: Runner) -> None:
    """Preview the cells each experiment would request and their cache state."""
    for name in names:
        spec = registry.get(name)
        print(f"{name}: {spec.title}")
        if not spec.needs_params:
            print("  analytical (no simulation cells)")
            continue
        if spec.cells is None:
            print("  cells enumerated internally by the driver")
            continue
        cells = spec.cells(params)
        cached = 0
        if runner.cache is not None:
            fingerprint = runner._fingerprint
            cached = sum(
                1 for cell in cells
                if runner.cache.contains(cell_key(cell, fingerprint))
            )
        state = f", {cached} already cached" if runner.cache is not None else ""
        print(f"  {len(cells)} cell(s){state}")
        for cell in cells:
            print(f"    {cell.label}")


def _run_stats_line(runner: Runner) -> str:
    s = runner.stats
    saved = f", saved {s.cached_wall_s:.1f}s" if s.cached else ""
    return (f"[cells: {s.run} run, {s.cached} cached, {s.failed} failed"
            f" | cache hit rate {s.hit_rate:.0%}"
            f" | compute {s.seconds:.1f}s{saved}]")


def run_one(name: str, params: ExperimentParams, runner: Runner,
            json_results=None) -> None:
    """Run one experiment, print its rows, optionally collect JSON."""
    spec = registry.get(name)
    start = time.time()
    result = spec.execute(params, runner=runner)
    print(spec.format(result))
    print(f"[{name}: {time.time() - start:.1f}s]\n")
    if json_results is not None:
        json_results[name] = _jsonable(result)


def cmd_run(argv) -> int:
    """``repro run <name>... `` — the registry + runner front door."""
    args = build_run_parser().parse_args(argv)
    names = _resolve_names(args.experiments)
    params = ExperimentParams(
        n_workloads=args.workloads,
        n_refs=args.refs,
        scale=args.scale,
        seed=args.seed,
    )
    runner = _build_runner(args)
    if args.plan:
        _print_plan(names, params, runner)
        return 0
    json_results = {} if args.json else None
    out_fh = open(args.out, "a") if args.out else None
    original_stdout = sys.stdout
    if out_fh:
        sys.stdout = _Tee(original_stdout, out_fh)
    try:
        for name in names:
            run_one(name, params, runner, json_results)
        print(_run_stats_line(runner))
    finally:
        if out_fh:
            sys.stdout = original_stdout
            out_fh.close()
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(json_results, fh, indent=2)
        print(f"wrote {args.json}")
    if args.stats_json:
        with open(args.stats_json, "w") as fh:
            json.dump(runner.stats.to_dict(), fh, indent=2)
        print(f"wrote {args.stats_json}")
    return 0


def cmd_list_experiments() -> int:
    """``repro list-experiments`` — every registered experiment."""
    width = max(len(name) for name in registry.names())
    for spec in registry.all_specs():
        kind = "analytical" if not spec.needs_params else "/".join(spec.tags)
        print(f"  {spec.name:<{width}}  {spec.title}  [{kind}]")
    return 0


def _print_command_groups(stream) -> None:
    """One line per command group, with where to read its options."""
    groups = (
        ("experiments", ("run", "list-experiments"), "repro run --help"),
        ("serving", service_cli.SERVICE_COMMANDS, "repro serve --help"),
        ("static checks", devtools_cli.DEVTOOLS_COMMANDS, "repro lint --help"),
        ("observability", obs_cli.OBS_COMMANDS, "repro obs --help"),
        ("benchmark gate", perf_cli.PERF_COMMANDS, "repro perf --help"),
        ("cluster mode", cluster_cli.CLUSTER_COMMANDS, "repro cluster --help"),
    )
    print("usage: repro <command> [options]", file=stream)
    for title, commands, help_hint in groups:
        print(f"  {title + ':':<23}{', '.join(commands)}  (see '{help_hint}')",
              file=stream)


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    configure_logging()
    if argv and argv[0] in service_cli.SERVICE_COMMANDS:
        return service_cli.main(argv)
    if argv and argv[0] in devtools_cli.DEVTOOLS_COMMANDS:
        return devtools_cli.main(argv)
    if argv and argv[0] in obs_cli.OBS_COMMANDS:
        return obs_cli.main(argv)
    if argv and argv[0] in perf_cli.PERF_COMMANDS:
        return perf_cli.main(argv)
    if argv and argv[0] in cluster_cli.CLUSTER_COMMANDS:
        return cluster_cli.main(argv[1:])
    if argv and argv[0] == "run":
        return cmd_run(argv[1:])
    if argv and argv[0] == "list-experiments":
        return cmd_list_experiments()

    if argv and argv[0] in ("-h", "--help"):
        _print_command_groups(sys.stdout)
        return 0
    if argv:
        print(f"repro: unknown command {argv[0]!r}", file=sys.stderr)
    _print_command_groups(sys.stderr)
    return 2

if __name__ == "__main__":
    sys.exit(main())
