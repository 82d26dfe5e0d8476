"""CLI verbs for the cache cluster: ``repro cluster serve|status|smoke|trace``.

``serve`` boots an N-node :class:`~repro.cluster.local.LocalCluster` in the
foreground (SIGINT/SIGTERM drain every node before exit) and prints the
node addresses clients route to.

``status`` queries a running cluster's ``CSTATUS`` blocks over the wire
(``--node name=host:port``, repeatable).

``smoke`` is the CI gate: boot a 3-node cluster, drive loadgen through a
routing client, then run the invalidation storm of
:mod:`repro.cluster.consistency` and fail on any stale read.

``trace`` produces the distributed-tracing artifact of
:mod:`repro.obs.dist`: either boot a local cluster with per-node tracers,
drive a deterministic write/invalidate storm and drain every ring over the
``TRACE`` verb, or (with ``--node``) drain already-running nodes; the
per-node batches merge into one causally-validated Chrome trace
(``repro obs validate --causal`` compatible, cross-node edges included).

The scaling sweep — hit rate against node count at equal per-node RAM —
is the registry experiment ``cluster-scaling``
(``repro run cluster-scaling``).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal

from ..obs import Observability, validate_chrome_trace
from ..obs.dist import merge_node_traces
from ..obs.logging import configure as configure_logging
from ..service.loadgen import replay_interleaved, replay_with_client
from ..service.sharding import ShardedStore
from ..workloads.mixes import EXAMPLE_MIX, build_workload
from .client import ClusterClient, parse_node_specs
from .consistency import run_storm
from .local import LocalCluster

#: CLI names handled by this module (dispatched from repro.__main__)
CLUSTER_COMMANDS = ("cluster",)


def build_cluster_parser() -> argparse.ArgumentParser:
    """Argument parser for ``repro cluster ...``."""
    parser = argparse.ArgumentParser(
        prog="repro cluster",
        description="Multi-node cache cluster with coherence-based "
                    "cross-node invalidation.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_cluster_args(p):
        p.add_argument("--nodes", type=int, default=3,
                       help="number of cluster nodes")
        p.add_argument("--data-capacity", type=int, default=512,
                       help="data-store entries PER NODE")
        p.add_argument("--tag-capacity", type=int, default=None,
                       help="tag-directory entries per node (default 4x data)")
        p.add_argument("--shards", type=int, default=2,
                       help="store shards per node")
        p.add_argument("--admission", choices=("reuse", "always"),
                       default="reuse", help="admission policy")
        p.add_argument("--replicas", type=int, default=1,
                       help="replication factor (1 = owner only)")
        p.add_argument("--seed", type=int, default=2013)

    serve = sub.add_parser("serve", help="run an N-node cluster in the "
                                         "foreground until interrupted")
    add_cluster_args(serve)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--base-port", type=int, default=0,
                       help="first node port; consecutive ports follow "
                            "(0 = ephemeral)")
    serve.add_argument("--no-metrics", action="store_true",
                       help="disable the obs metrics registry")
    serve.add_argument("--obs-port", type=int, default=None,
                       help="base port for per-node telemetry HTTP "
                            "endpoints (node i serves on obs-port+i); "
                            "each answers /metrics /healthz /readyz "
                            "/varz /history /alertz")
    serve.add_argument("--obs-interval", type=float, default=1.0,
                       help="telemetry sampling interval in seconds")
    serve.add_argument("--flight-dir", metavar="DIR", default=".",
                       help="directory for flight-recorder bundles "
                            "(SIGUSR2 dumps one per node)")

    status = sub.add_parser("status", help="query CSTATUS from running nodes")
    status.add_argument("--node", action="append", required=True,
                        metavar="NAME=HOST:PORT",
                        help="node address (repeatable)")
    status.add_argument("--seed", type=int, default=2013,
                        help="ring seed (must match the servers')")

    smoke = sub.add_parser(
        "smoke",
        help="boot a cluster, run load + an invalidation storm, "
             "fail on any stale read",
    )
    add_cluster_args(smoke)
    smoke.set_defaults(replicas=2)
    smoke.add_argument("--refs", type=int, default=4_000,
                       help="loadgen references per core")
    smoke.add_argument("--scale", type=int, default=32)
    smoke.add_argument("--storm-writes", type=int, default=40,
                       help="storm writes per writer")
    smoke.add_argument("--json", metavar="FILE", default=None,
                       help="dump the smoke report as JSON")

    trace = sub.add_parser(
        "trace",
        help="storm a traced local cluster (or drain running nodes with "
             "--node) and write one merged causal Chrome trace",
    )
    add_cluster_args(trace)
    trace.set_defaults(replicas=2)
    trace.add_argument("--node", action="append", default=None,
                       metavar="NAME=HOST:PORT",
                       help="drain these already-running nodes instead of "
                            "booting a local storm (repeatable)")
    trace.add_argument("--refs", type=int, default=2_000,
                       help="loadgen references per core before the storm")
    trace.add_argument("--scale", type=int, default=32)
    trace.add_argument("--storm-writes", type=int, default=64,
                       help="deterministic get/set/del rounds in the storm")
    trace.add_argument("--sample-every", type=int, default=1,
                       help="tracer sampling period (>1 WILL orphan spans)")
    trace.add_argument("--trace-capacity", type=int, default=65536,
                       help="per-node trace ring capacity")
    trace.add_argument("--out", metavar="FILE", default="cluster-trace.json",
                       help="merged Chrome trace output path")
    return parser


# -- serve --------------------------------------------------------------------


def _build_cluster(args, obs=None, host="127.0.0.1",
                   obs_factory=None) -> LocalCluster:
    return LocalCluster(
        num_nodes=args.nodes,
        data_capacity_per_node=args.data_capacity,
        tag_capacity_per_node=args.tag_capacity,
        shards_per_node=args.shards,
        admission=args.admission,
        replicas=args.replicas,
        host=host,
        seed=args.seed,
        obs=obs,
        obs_factory=obs_factory,
    )


def _node_health(node):
    """Health callable bound to one node's drain state and server."""

    def health() -> dict:
        serving = node.server._server is not None
        draining = node.draining or node.server.draining
        return {
            "healthy": serving and not draining,
            "ready": serving and not draining,
            "draining": draining,
            "node": node.name,
            "uptime_s": node.server.uptime_s,
        }

    return health


def _install_cluster_sigusr2(telemetries) -> None:
    """One SIGUSR2 handler dumping a flight bundle per node.

    ``add_signal_handler`` replaces rather than chains, so per-node
    handlers would leave only the last node dumping.
    """
    if not telemetries:
        return

    def dump_all():
        for telemetry in telemetries:
            path = telemetry.dump_flight("sigusr2")
            print(f"repro.cluster: flight bundle written to {path}")

    try:
        asyncio.get_running_loop().add_signal_handler(
            signal.SIGUSR2, dump_all
        )
    except (NotImplementedError, RuntimeError, AttributeError, ValueError):
        pass  # no SIGUSR2 on this platform


async def _serve_cluster(args) -> None:
    obs = (Observability.disabled() if args.no_metrics
           else Observability.enabled())
    cluster = _build_cluster(args, obs=obs, host=args.host)
    if args.base_port:
        for i, node in enumerate(cluster.nodes.values()):
            node.server.port = args.base_port + i
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError):  # non-unix event loops
            pass
    await cluster.start()
    print(f"repro.cluster: {len(cluster.nodes)} node(s), "
          f"{args.data_capacity} entries/node, replicas={args.replicas}, "
          f"{args.admission} admission")
    for name, (host, port) in sorted(cluster.addresses().items()):
        print(f"repro.cluster:   {name} @ {host}:{port}")
    # one telemetry plane per node on consecutive ports; the in-process
    # harness shares one registry (metrics are node-labelled), but health
    # and /varz are bound to each node's own drain state and server
    telemetries = []
    if getattr(args, "obs_port", None) is not None:
        from ..service.telemetry import ServiceTelemetry

        for i, (name, node) in enumerate(sorted(cluster.nodes.items())):
            telemetry = ServiceTelemetry(
                node.server, port=args.obs_port + i,
                interval=args.obs_interval, flight_dir=args.flight_dir,
                health=_node_health(node), signal_handler=False,
            )
            await telemetry.start()
            telemetries.append(telemetry)
            print(f"repro.cluster:   {name} telemetry @ "
                  f"http://{telemetry.http.host}:{telemetry.http.port}")
        _install_cluster_sigusr2(telemetries)
    try:
        await stop.wait()
    finally:
        for telemetry in telemetries:
            await telemetry.stop()
        snapshot = cluster.status_snapshot()
        await cluster.stop()
        print(f"repro.cluster: drained and stopped "
              f"({snapshot['stored']} stored, "
              f"{snapshot['replicas_held']} replicas held, "
              f"{snapshot['protocol_races']} protocol races)")


def cmd_cluster_serve(args) -> int:
    try:
        asyncio.run(_serve_cluster(args))
    except KeyboardInterrupt:
        pass
    return 0


# -- status -------------------------------------------------------------------


async def _cluster_status(nodes: dict, seed: int) -> dict:
    async with ClusterClient(nodes, seed=seed) as client:
        return await client.status()


def cmd_cluster_status(args) -> int:
    nodes = parse_node_specs(args.node)
    status = asyncio.run(_cluster_status(nodes, args.seed))
    print(json.dumps(status, indent=2, sort_keys=True))
    return 0 if not any(
        blk.get("unreachable") for blk in status.values()
    ) else 1


# -- smoke --------------------------------------------------------------------


async def _smoke(args) -> dict:
    mix = EXAMPLE_MIX
    workload = build_workload(mix, n_refs=args.refs, seed=args.seed,
                              scale=args.scale)
    cluster = _build_cluster(args)
    async with cluster:
        client = cluster.client(read_replicas=True)
        load = await replay_with_client(client, workload)
        storm = await run_storm(
            client, writes_per_writer=args.storm_writes,
        )
        stats = await client.stats()
        snapshot = cluster.status_snapshot()
    return {
        "nodes": args.nodes,
        "replicas": args.replicas,
        "load": load.summary(),
        "storm": storm.to_dict(),
        "server_hit_rate": stats["total"]["hit_rate"],
        "stored_entries": stats["total"]["stored_entries"],
        "replicas_held": snapshot["replicas_held"],
        "protocol_races": snapshot["protocol_races"],
        "ok": storm.ok,
    }


def cmd_cluster_smoke(args) -> int:
    report = asyncio.run(_smoke(args))
    storm = report["storm"]
    print(f"cluster smoke — {report['nodes']} node(s), "
          f"replicas={report['replicas']}")
    print(f"  load:  {report['load']['ops']} ops, "
          f"hit rate {report['load']['hit_rate']:.4f}, "
          f"{report['stored_entries']} stored, "
          f"{report['replicas_held']} replicas held")
    print(f"  storm: {storm['writes']} writes, {storm['deletes']} deletes, "
          f"{storm['reads']} reads "
          f"({storm['read_hits']} hits / {storm['read_misses']} misses)")
    print(f"  stale reads: {storm['stale_reads']}"
          + ("" if report["ok"] else f"  violations: {storm['violations']}"))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=2)
        print(f"wrote {args.json}")
    print("cluster smoke: " + ("PASS" if report["ok"] else "FAIL"))
    return 0 if report["ok"] else 1


# -- trace --------------------------------------------------------------------


async def _sequential_storm(client, writes: int, keys: int = 8) -> dict:
    """Deterministic GET→SET(→DEL) rounds that exercise every trace edge.

    The GET before each SET is what makes the storm produce cross-node
    traffic under reuse admission: round one tags the key (SET declined),
    round two detects reuse and stores, which replicates; later rounds
    update in place, which INVALs the replica holders before re-pushing —
    owner-write → INVAL fan-out → peer ack, the tree the merged trace
    must connect.  Every 7th round deletes, adding DEL→INVAL edges.
    """
    ops = {"gets": 0, "sets": 0, "stored": 0, "deletes": 0}
    for i in range(writes):
        key = f"storm:{i % keys}"
        await client.get(key)
        ops["gets"] += 1
        if await client.set(key, b"storm-value-%d" % i):
            ops["stored"] += 1
        ops["sets"] += 1
        if i % 7 == 6:
            await client.delete(key)
            ops["deletes"] += 1
    return ops


async def collect_cluster_trace(args) -> dict:
    """Run the traced storm (or drain live nodes) and merge the rings.

    Returns ``{"merged": <chrome doc>, "problems": [...], "storm": ...}``;
    importable so tests drive the same path as ``repro cluster trace``.
    """
    if args.node:
        nodes = parse_node_specs(args.node)
        async with ClusterClient(nodes, seed=args.seed) as client:
            node_events = await client.traces()
        storm = None
    else:
        def obs_factory(name, index):
            return Observability.enabled(
                tracing=True,
                trace_capacity=args.trace_capacity,
                sample_every=args.sample_every,
                time_unit="s",
            )

        cluster = _build_cluster(args, obs_factory=obs_factory)
        async with cluster:
            client = cluster.client()
            if args.refs:
                workload = build_workload(EXAMPLE_MIX, n_refs=args.refs,
                                          seed=args.seed, scale=args.scale)
                await replay_interleaved(client, workload)
            storm = await _sequential_storm(client, args.storm_writes)
            # let the final request's span land in its ring before draining
            # (spans are recorded right after the response is flushed)
            await asyncio.sleep(0.05)
            node_events = await client.traces()
    merged = merge_node_traces(node_events, time_unit="s")
    problems = validate_chrome_trace(merged, causal=True)
    return {"merged": merged, "problems": problems, "storm": storm}


def cmd_cluster_trace(args) -> int:
    result = asyncio.run(collect_cluster_trace(args))
    merged, problems = result["merged"], result["problems"]
    events = merged["traceEvents"]
    other = merged["otherData"]
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(merged, fh, indent=1)
    mode = "drained live nodes" if args.node else (
        f"storm over {args.nodes} node(s), replicas={args.replicas}"
    )
    print(f"cluster trace — {mode}")
    if result["storm"]:
        storm = result["storm"]
        print(f"  storm: {storm['gets']} gets, {storm['sets']} sets "
              f"({storm['stored']} stored), {storm['deletes']} deletes")
    print(f"  merged: {len(events)} event(s) from "
          f"{len(other['nodes'])} node(s), "
          f"{other['cross_node_edges']} cross-node edge(s)")
    print(f"  wrote {args.out}")
    if problems:
        for problem in problems[:10]:
            print(f"  CAUSAL PROBLEM: {problem}")
        print("cluster trace: FAIL")
        return 1
    print("cluster trace: PASS (causally complete — no orphans, no cycles)")
    return 0


def check_store_sizes(args) -> None:
    """Exit with an error line when a node's store rejects the sizes.

    As ``repro serve`` does: ``repro cluster <cmd>: <reason>`` and status
    1, for example for a ``--tag-capacity`` that rounds below the data
    store, instead of a traceback from inside the running cluster.
    """
    try:
        ShardedStore(
            num_shards=args.shards,
            data_capacity=args.data_capacity,
            tag_capacity=args.tag_capacity,
            admission=args.admission,
        )
    except ValueError as exc:
        raise SystemExit(f"repro cluster {args.subcommand}: {exc}") from None


def main(argv) -> int:
    """Entry point for ``repro cluster ...`` (argv excludes "cluster")."""
    configure_logging()
    args = build_cluster_parser().parse_args(argv)
    # every subcommand but status, and trace draining live nodes, builds
    # a cluster from the size arguments
    if args.subcommand != "status" and not getattr(args, "node", None):
        check_store_sizes(args)
    handler = {
        "serve": cmd_cluster_serve,
        "status": cmd_cluster_status,
        "smoke": cmd_cluster_smoke,
        "trace": cmd_cluster_trace,
    }[args.subcommand]
    return handler(args)
