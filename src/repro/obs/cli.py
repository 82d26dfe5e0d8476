"""CLI commands for observability: ``repro top``, ``repro obs ...``,
``repro explain``.

``top`` is the live dashboard: it polls a running ``repro serve`` instance's
STATS verb and redraws :func:`repro.obs.top.render_dashboard` every
``--interval`` seconds — per-shard hit rates, latency quantiles and request
rates derived from successive snapshots.  With ``--cluster`` (plus
repeatable ``--node NAME=HOST:PORT``) it fans CSTATUS/STATS in across a
whole cluster instead and renders
:func:`repro.obs.top.render_cluster_dashboard`: aggregate hit rate,
pending-INVAL debt, the stale-push fence counter, per-node event-loop lag
and SLO burn-rate gauges.  A node that stops answering mid-drain keeps its
last good row on screen (flagged ``DOWN*n``) rather than crashing the
frame loop.

``obs export`` runs a short instrumented simulation (the fig6 reuse-cache
configuration by default) with tracing enabled and writes the event stream
as Chrome ``trace_event`` JSON (open in ``chrome://tracing`` or
https://ui.perfetto.dev) or JSONL; ``--metrics-out`` additionally dumps the
metrics registry in Prometheus text format.  ``obs validate`` checks that a
trace file will load in those viewers (the CI smoke job gates on it);
``--causal`` additionally rejects traces whose span graph has orphan
parents or cycles.  ``obs collect`` merges per-node trace drains (one
JSONL/Chrome file per node, node name taken from the file stem) into one
causal cluster trace via :func:`repro.obs.dist.merge_node_traces`.

``explain`` is the decision audit: given a collected trace and ``--key``,
it prints the key's cross-node lifecycle — tag-only allocation, reuse
detection, admission verdicts, eviction, replication and invalidation —
glossed against the paper's I/TO/S state machine.

``obs flight`` pretty-prints a flight-recorder bundle (written by a
serving node on SIGUSR2 or a fatal error — see
:mod:`repro.obs.flight`): firing alerts, the alert timeline, sparklined
metric tails, the trace-ring summary and per-shard stats.

``obs alert-replay`` is the deterministic incident rehearsal: it drives
a seeded hot-set → scan-flood → hot-set traffic pattern through an
in-process :class:`~repro.service.sharding.ShardedStore` under a
*logical* clock, sampling the registry and evaluating the built-in alert
rules each tick.  The scan flood collapses the windowed hit rate, the
``hit_rate_drop`` alert fires, the hot set returns, the alert resolves —
and because no wall clock ever enters a decision path, two runs with the
same seed emit byte-identical alert timelines (the CI gate ``cmp``-s
exactly that).

This module sits at the CLI layer (it imports the simulator, the service
client and the cluster client); the rest of :mod:`repro.obs` stays
importable from layer 1.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path

from ..cluster.client import ClusterClient, parse_node_specs
from ..hierarchy.config import LLCSpec, SystemConfig
from ..hierarchy.system import System
from ..service.client import CacheClient
from ..workloads.mixes import EXAMPLE_MIX, build_workload
from . import Observability
from .alerts import AlertEngine, builtin_rules
from .dist import explain_key, format_explain, merge_node_traces
from .flight import load_flight, render_flight
from .logging import configure as configure_logging
from .registry import MetricsRegistry, SLOTracker
from .timeseries import TimeSeriesStore
from .tracing import validate_chrome_trace
from .top import CLEAR_SCREEN, render_cluster_dashboard, render_dashboard

#: CLI names handled by this module (dispatched from repro.__main__)
OBS_COMMANDS = ("top", "obs", "explain")


def build_obs_parser() -> argparse.ArgumentParser:
    """Argument parser for the observability subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Observability tools of the reuse-cache reproduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    top = sub.add_parser("top", help="live dashboard over a running server "
                                     "or a whole cluster")
    top.add_argument("--host", default="127.0.0.1")
    top.add_argument("--port", type=int, default=9876)
    top.add_argument("--interval", type=float, default=1.0,
                     help="seconds between STATS polls")
    top.add_argument("--iterations", type=int, default=0,
                     help="frames to draw (0 = until interrupted)")
    top.add_argument("--no-clear", action="store_true",
                     help="append frames instead of clearing the screen")
    top.add_argument("--cluster", action="store_true",
                     help="cluster dashboard: fan CSTATUS/STATS in over "
                          "every --node")
    top.add_argument("--node", action="append", default=None,
                     metavar="NAME=HOST:PORT",
                     help="cluster node address (repeatable, with --cluster)")
    top.add_argument("--seed", type=int, default=2013,
                     help="ring seed (must match the cluster's)")

    obs = sub.add_parser("obs", help="trace export / validation / collection")
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)

    export = obs_sub.add_parser(
        "export", help="run a traced simulation and write the event stream"
    )
    export.add_argument("--format", choices=("chrome-trace", "jsonl"),
                        default="chrome-trace")
    export.add_argument("--out", metavar="FILE", default="trace.json",
                        help="trace output path")
    export.add_argument("--refs", type=int, default=5000,
                        help="memory references per core")
    export.add_argument("--scale", type=int, default=32,
                        help="capacity divisor (matches the experiments)")
    export.add_argument("--seed", type=int, default=2013)
    export.add_argument("--tag-mbeq", type=float, default=8.0,
                        help="reuse-cache tag array size (MBeq)")
    export.add_argument("--data-mb", type=float, default=4.0,
                        help="reuse-cache data array size (MB)")
    export.add_argument("--sample-every", type=int, default=1,
                        help="record every Nth event")
    export.add_argument("--trace-capacity", type=int, default=1 << 18,
                        help="ring-buffer capacity (older events drop)")
    export.add_argument("--metrics-out", metavar="FILE", default=None,
                        help="also dump the metrics registry (Prometheus text)")

    validate = obs_sub.add_parser(
        "validate", help="check a Chrome-trace file for viewer compatibility"
    )
    validate.add_argument("file", help="trace JSON file to validate")
    validate.add_argument("--causal", action="store_true",
                          help="also reject orphan parents and span cycles")

    collect = obs_sub.add_parser(
        "collect",
        help="merge per-node trace drains into one causal cluster trace",
    )
    collect.add_argument("files", nargs="+", metavar="NODE_TRACE",
                         help="one JSONL or Chrome-trace file per node; "
                              "the node name is the file stem")
    collect.add_argument("--out", metavar="FILE", default="cluster-trace.json",
                         help="merged Chrome trace output path")

    flight = obs_sub.add_parser(
        "flight", help="pretty-print a flight-recorder bundle"
    )
    flight.add_argument("file", help="flight bundle JSON (written on "
                                     "SIGUSR2 or a fatal server error)")
    flight.add_argument("--width", type=int, default=72,
                        help="render width in columns")

    replay = obs_sub.add_parser(
        "alert-replay",
        help="deterministic hit-rate-collapse rehearsal: seeded scan "
             "flood under a logical clock; the hit_rate_drop alert must "
             "fire and resolve identically every run",
    )
    replay.add_argument("--seed", type=int, default=2013)
    replay.add_argument("--ticks", type=int, default=90,
                        help="logical seconds to simulate")
    replay.add_argument("--ops-per-tick", type=int, default=50)
    replay.add_argument("--json", metavar="FILE", default=None,
                        help="write the full timeline/state report here")

    explain = sub.add_parser(
        "explain", help="per-key lifecycle audit from a collected trace"
    )
    explain.add_argument("file", help="trace JSON/JSONL file (e.g. the "
                                      "output of 'repro cluster trace')")
    explain.add_argument("--key", required=True,
                         help="cache key whose lifecycle to report")
    return parser


# -- repro top ---------------------------------------------------------------


#: sparkline history shown by ``repro top`` (seconds of trailing window)
_SPARK_WINDOW_S = 60.0


def _spark_feed(history: TimeSeriesStore, snapshot, prev, interval, t):
    """Record windowed hit rate + ops/s into the local history store.

    The loop keeps its own :class:`TimeSeriesStore` under a *logical*
    clock (frame number × interval), derived entirely from STATS counter
    deltas — so the sparklines show recent behaviour, not lifetime
    averages, and the renderer stays pure.
    """
    if prev is None or not interval:
        return
    total = snapshot.get("total", {})
    prev_total = prev.get("total", {})
    d_hits = total.get("hits", 0) - prev_total.get("hits", 0)
    d_misses = total.get("misses", 0) - prev_total.get("misses", 0)
    if d_hits + d_misses > 0:
        history.record("hit_rate", {}, d_hits / (d_hits + d_misses), now=t)
    d_gets = total.get("gets", 0) - prev_total.get("gets", 0)
    d_sets = (total.get("reuse_admissions", 0) + total.get("tag_only_sets", 0)
              - prev_total.get("reuse_admissions", 0)
              - prev_total.get("tag_only_sets", 0))
    history.record("ops_per_s", {},
                   max(0.0, (d_gets + d_sets) / interval), now=t)


def _spark_columns(history: TimeSeriesStore, t) -> dict:
    spark = {}
    for label in ("hit_rate", "ops_per_s"):
        points = history.window(label, {}, duration=_SPARK_WINDOW_S, now=t)
        if points:
            spark[label] = [v for _, v in points]
    return spark


async def _top_loop(args) -> int:
    client = CacheClient(args.host, args.port)
    prev = None
    frames = 0
    history = TimeSeriesStore(clock=lambda: 0.0)
    try:
        while True:
            snapshot = await client.stats()
            t = frames * args.interval
            _spark_feed(history, snapshot, prev, args.interval, t)
            frame = render_dashboard(
                snapshot, prev, interval=args.interval if prev else None,
                spark=_spark_columns(history, t),
            )
            if not args.no_clear:
                sys.stdout.write(CLEAR_SCREEN)
            print(frame, flush=True)
            prev = snapshot
            frames += 1
            if args.iterations and frames >= args.iterations:
                return 0
            await asyncio.sleep(args.interval)
    finally:
        await client.close()


async def _top_cluster_loop(args) -> int:
    """Poll CSTATUS/STATS across the cluster and redraw the dashboard.

    Degradation contract (a dashboard must outlive the incidents it is
    watching): ``cstatus_summary`` already reports down nodes instead of
    raising; on top of that this loop keeps each node's *last good*
    CSTATUS block on screen, flagged with how many polls ago it was
    taken, and treats a failed STATS fan-in as "no hit-rate line this
    frame" rather than a crash.
    """
    nodes = parse_node_specs(args.node)
    registry = MetricsRegistry(enabled=True)
    slos = {
        # fraction of node-polls answered: burns when nodes are down
        "availability": SLOTracker("availability", 0.99, registry=registry),
        # fraction of lookups NOT saved from staleness by the version
        # fence: burns when INVAL debt turns into fenced stale pushes
        "freshness": SLOTracker("freshness", 0.999, registry=registry),
    }
    polls_total = polls_ok = 0
    last_good = {}  # name -> last reachable CSTATUS block
    stale_polls = {}  # name -> consecutive polls served from last_good
    frames = 0
    async with ClusterClient(nodes, seed=args.seed) as client:
        while True:
            summary = await client.cstatus_summary()
            for name, block in summary["nodes"].items():
                if block.get("unreachable"):
                    stale_polls[name] = stale_polls.get(name, 0) + 1
                    if name in last_good:
                        summary["nodes"][name] = {
                            **last_good[name],
                            "unreachable": True,
                            "stale_polls": stale_polls[name],
                        }
                else:
                    last_good[name] = block
                    stale_polls[name] = 0
            polls_total += len(summary["nodes"])
            polls_ok += len(summary["nodes"]) - len(summary["unreachable"])
            try:
                stats = await client.stats()
            except (ConnectionError, asyncio.TimeoutError, OSError):
                stats = None  # mid-drain node: skip the hit-rate line
            # display the *windowed* burn (this poll's delta): a healthy
            # window shows 0.0x even if the lifetime ratio is scarred
            slos["availability"].observe(polls_ok, polls_total)
            burn = {"availability": slos["availability"].window_burn}
            if stats is not None:
                total = stats.get("total", {})
                lookups = total.get("hits", 0) + total.get("misses", 0)
                fenced = min(
                    summary["totals"].get("stale_rejects", 0), lookups
                )
                slos["freshness"].observe(lookups - fenced, lookups)
                burn["freshness"] = slos["freshness"].window_burn
            frame = render_cluster_dashboard(
                summary, stats=stats,
                interval=args.interval if frames else None, burn=burn,
            )
            if not args.no_clear:
                sys.stdout.write(CLEAR_SCREEN)
            print(frame, flush=True)
            frames += 1
            if args.iterations and frames >= args.iterations:
                return 0
            await asyncio.sleep(args.interval)


def cmd_top(args) -> int:
    """Poll STATS (or cluster CSTATUS) and redraw until interrupted."""
    if args.cluster:
        if not args.node:
            print("repro top: --cluster needs at least one "
                  "--node NAME=HOST:PORT", file=sys.stderr)
            return 2
        try:
            return asyncio.run(_top_cluster_loop(args))
        except KeyboardInterrupt:
            return 0
    try:
        return asyncio.run(_top_loop(args))
    except KeyboardInterrupt:
        return 0
    except ConnectionError as exc:
        print(f"repro top: cannot reach {args.host}:{args.port} ({exc})",
              file=sys.stderr)
        return 1


# -- repro obs export / validate / collect ------------------------------------


def cmd_export(args) -> int:
    """Run one traced simulation and write its event stream."""
    obs = Observability.enabled(
        tracing=True,
        trace_capacity=args.trace_capacity,
        sample_every=args.sample_every,
        time_unit="cycles",
    )
    workload = build_workload(
        EXAMPLE_MIX, n_refs=args.refs, seed=args.seed, scale=args.scale
    )
    spec = LLCSpec.reuse(args.tag_mbeq, args.data_mb)
    config = SystemConfig(
        llc=spec, num_cores=workload.num_cores, scale=args.scale,
        seed=args.seed,
    )
    result = System(config, workload, obs=obs).run()
    tracer = obs.tracer
    tracer.write(args.out, fmt=args.format)
    print(f"{spec.label} on {workload.name}: IPC {result.performance:.3f}, "
          f"{tracer.recorded} event(s) recorded "
          f"({tracer.dropped} dropped by the ring)")
    print(f"wrote {args.out} [{args.format}]"
          + (" — open in chrome://tracing or ui.perfetto.dev"
             if args.format == "chrome-trace" else ""))
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            fh.write(obs.registry.to_prometheus())
        print(f"wrote {args.metrics_out} [prometheus]")
    return 0


def cmd_validate(args) -> int:
    """Validate a Chrome-trace file; exit 1 when a viewer would reject it."""
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"repro obs validate: {args.file}: {exc}", file=sys.stderr)
        return 1
    problems = validate_chrome_trace(doc, causal=args.causal)
    if problems:
        for problem in problems:
            print(f"{args.file}: {problem}", file=sys.stderr)
        return 1
    events = doc["traceEvents"] if isinstance(doc, dict) else doc
    print(f"{args.file}: OK ({len(events)} event(s)"
          + (", causally complete" if args.causal else "") + ")")
    return 0


def _load_trace_events(path: Path) -> list:
    """Event dicts from either a JSONL drain or a Chrome-trace document."""
    text = path.read_text(encoding="utf-8")
    stripped = text.lstrip()
    if stripped.startswith("["):
        return json.loads(text)
    if stripped.startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError:
            pass  # not one document: fall through to JSONL, line per event
        else:
            events = doc.get("traceEvents")
            if isinstance(events, list):
                return events
            if "ph" in doc:  # a one-line JSONL drain: one bare event
                return [doc]
            raise ValueError("object has no 'traceEvents' list")
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def cmd_collect(args) -> int:
    """Merge per-node trace files into one causally-validated trace."""
    node_events = {}
    for spec in args.files:
        path = Path(spec)
        name = path.stem
        if name in node_events:
            print(f"repro obs collect: duplicate node name {name!r} "
                  f"(from {spec})", file=sys.stderr)
            return 1
        try:
            node_events[name] = _load_trace_events(path)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"repro obs collect: {spec}: {exc}", file=sys.stderr)
            return 1
    merged = merge_node_traces(node_events, time_unit="s")
    problems = validate_chrome_trace(merged, causal=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(merged, fh, indent=1)
    other = merged["otherData"]
    print(f"collected {len(merged['traceEvents'])} event(s) from "
          f"{len(other['nodes'])} node(s), "
          f"{other['cross_node_edges']} cross-node edge(s)")
    print(f"wrote {args.out}")
    if problems:
        for problem in problems[:10]:
            print(f"{args.out}: {problem}", file=sys.stderr)
        return 1
    return 0


# -- repro obs flight / alert-replay ------------------------------------------


def cmd_flight(args) -> int:
    """Render one flight-recorder bundle for human eyes."""
    try:
        bundle = load_flight(args.file)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"repro obs flight: {args.file}: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(render_flight(bundle, width=args.width))
    return 0


def cmd_alert_replay(args) -> int:
    """Seeded hit-rate-collapse rehearsal under a logical clock.

    Three acts over ``--ticks`` logical seconds: a hot set the reuse
    cache learns, a scan flood of never-repeating keys (the adversarial
    pattern the paper's selective allocation defends the data array
    against — but which still collapses the *observed* hit rate), then
    the hot set again.  The built-in ``hit_rate_drop`` rule must fire
    during the flood and resolve after it; exit is non-zero otherwise.
    All randomness is ``random.Random(--seed)``, all time is the tick
    counter, so the emitted timeline is byte-identical across runs.
    """
    import random

    from ..service.sharding import ShardedStore

    obs = Observability.enabled()
    store = ShardedStore(
        num_shards=2, data_capacity=128, admission="reuse",
        seed=args.seed, obs=obs,
    )
    ts = TimeSeriesStore(registry=obs.registry, clock=lambda: 0.0)
    engine = AlertEngine(ts, builtin_rules(window_s=30.0))
    rng = random.Random(args.seed)
    hot_keys = [f"hot:{i}" for i in range(64)]
    scan_next = 0
    act_len = max(1, args.ticks // 3)
    for tick in range(args.ticks):
        scanning = act_len <= tick < 2 * act_len
        for _ in range(args.ops_per_tick):
            if scanning:
                key = f"scan:{scan_next}"
                scan_next += 1
            else:
                key = rng.choice(hot_keys)
            if store.get(key) is None:
                store.set(key, b"v" * 32)
        t = float(tick + 1)
        ts.sample(now=t)
        engine.evaluate(now=t)
    fired = any(e["alert"] == "hit_rate_drop" and e["to"] == "firing"
                for e in engine.timeline)
    resolved = any(e["alert"] == "hit_rate_drop" and e["to"] == "resolved"
                   for e in engine.timeline)
    report = {
        "seed": args.seed,
        "ticks": args.ticks,
        "ops_per_tick": args.ops_per_tick,
        "fired": fired,
        "resolved": resolved,
        "timeline": engine.timeline,
        "states": engine.states(),
    }
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json}")
    for event in engine.timeline:
        print(f"t={event['t']:<6g} {event['alert']:<22} "
              f"{event['from']} -> {event['to']} "
              f"(value={event['value']})")
    verdict = ("fired and resolved" if fired and resolved
               else "fired only" if fired else "never fired")
    alerts_seen = len({e["alert"] for e in engine.timeline})
    print(f"hit_rate_drop: {verdict} "
          f"({len(engine.timeline)} transition(s), {alerts_seen} alert(s))")
    return 0 if fired and resolved else 1


# -- repro explain ------------------------------------------------------------


def cmd_explain(args) -> int:
    """Print one key's cross-node lifecycle from a collected trace."""
    try:
        doc = _load_trace_events(Path(args.file))
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"repro explain: {args.file}: {exc}", file=sys.stderr)
        return 1
    # _load_trace_events flattens to an event list, which loses the
    # process_name metadata lookup only if absent; merged traces keep
    # their metadata events in the list, so node names still resolve
    records = explain_key(doc, args.key)
    print(format_explain(args.key, records))
    return 0 if records else 1


def main(argv) -> int:
    """Entry point for the observability subcommands."""
    configure_logging()
    args = build_obs_parser().parse_args(argv)
    if args.command == "top":
        return cmd_top(args)
    if args.command == "explain":
        return cmd_explain(args)
    if args.obs_command == "export":
        return cmd_export(args)
    if args.obs_command == "collect":
        return cmd_collect(args)
    if args.obs_command == "flight":
        return cmd_flight(args)
    if args.obs_command == "alert-replay":
        return cmd_alert_replay(args)
    return cmd_validate(args)
