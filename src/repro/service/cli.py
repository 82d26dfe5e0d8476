"""CLI commands for the serving stack: ``repro serve`` / ``repro bench-service``.

``serve`` runs a :class:`~repro.service.server.CacheServer` in the
foreground until interrupted.  Both SIGINT and SIGTERM trigger a graceful
drain — stop accepting, let in-flight requests finish — followed by a
final stats flush: the closing hit/admission summary is printed (and the
full STATS snapshot written, with ``--final-stats-json``), so supervised
deployments (systemd, Kubernetes) keep the run's numbers on termination.
With ``--obs-port`` the node additionally runs the continuous-telemetry
plane (:class:`~repro.service.telemetry.ServiceTelemetry`): a scrapeable
HTTP endpoint (``/metrics`` ``/healthz`` ``/readyz`` ``/varz``
``/history`` ``/alertz``), per-second registry sampling into a
time-series store, the built-in alert rules, and a flight recorder that
dumps a forensic bundle into ``--flight-dir`` on SIGUSR2 or a fatal
server error.

``bench-service`` is the serving twin of the figure benchmarks: it replays
one synthetic workload twice against in-process servers that differ *only*
in admission policy — the paper's reuse-based selective allocation vs
admit-always — at identical data capacity, and reports hit rate, hit rate
per MB of data capacity, throughput and latency quantiles for both.
:func:`run_service_benchmark` is importable so ``benchmarks/bench_service.py``
persists the same comparison to ``BENCH_service.json``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal

from ..obs import Observability
from ..obs.prof import process_resources
from ..obs.logging import configure as configure_logging
from ..workloads.mixes import EXAMPLE_MIX, build_workload
from .client import CacheClient
from .loadgen import VALUE_BYTES, replay_batched, run_load
from .protocol import install_uvloop
from .server import CacheServer
from .sharding import ShardedStore

#: CLI names handled by this module (dispatched from repro.__main__)
SERVICE_COMMANDS = ("serve", "bench-service")


def build_service_parser() -> argparse.ArgumentParser:
    """Argument parser for the service subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Serving mode of the reuse-cache reproduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_store_args(p):
        p.add_argument("--shards", type=int, default=4,
                       help="number of store shards")
        p.add_argument("--data-capacity", type=int, default=4096,
                       help="total data-store entries across shards")
        p.add_argument("--tag-capacity", type=int, default=None,
                       help="total tag-directory entries (default 4x data)")
        p.add_argument("--tag-assoc", type=int, default=8,
                       help="tag-directory associativity")
        p.add_argument("--admission", choices=("reuse", "always"),
                       default="reuse", help="admission policy")
        p.add_argument("--seed", type=int, default=2013)

    serve = sub.add_parser("serve", help="run the cache server in the foreground")
    add_store_args(serve)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=9876)
    serve.add_argument("--max-connections", type=int, default=256)
    serve.add_argument("--request-timeout", type=float, default=5.0)
    serve.add_argument("--no-metrics", action="store_true",
                       help="disable the obs metrics registry (and METRICS)")
    serve.add_argument("--trace-file", metavar="FILE", default=None,
                       help="record request spans; write a Chrome trace "
                            "(chrome://tracing / Perfetto) on shutdown")
    serve.add_argument("--trace-sample", type=int, default=1,
                       help="record every Nth request span (default: all)")
    serve.add_argument("--final-stats-json", metavar="FILE", default=None,
                       help="write the final STATS snapshot (plus obs "
                            "registry) on shutdown")
    serve.add_argument("--obs-port", type=int, default=None,
                       help="serve the telemetry HTTP endpoint on this "
                            "port (/metrics /healthz /readyz /varz "
                            "/history /alertz); enables continuous "
                            "sampling + the built-in alert rules")
    serve.add_argument("--obs-interval", type=float, default=1.0,
                       help="telemetry sampling interval in seconds")
    serve.add_argument("--flight-dir", metavar="DIR", default=".",
                       help="directory for flight-recorder bundles "
                            "(SIGUSR2 or fatal error; needs --obs-port)")
    serve.add_argument("--uvloop", action="store_true",
                       help="use uvloop's event loop if installed "
                            "(silently ignored when unavailable)")

    bench = sub.add_parser(
        "bench-service",
        help="compare reuse-admission vs admit-always on live traffic",
    )
    add_store_args(bench)
    # downsized data store: the regime where selective allocation pays
    # (a plentiful capacity hides admission mistakes, cf. paper Fig. 6)
    bench.set_defaults(data_capacity=512)
    bench.add_argument("--refs", type=int, default=20_000,
                       help="memory references per core")
    bench.add_argument("--scale", type=int, default=32,
                       help="workload footprint divisor (matches simulator)")
    bench.add_argument("--mix", nargs="*", default=None,
                       help=f"application mix (default: {' '.join(EXAMPLE_MIX)})")
    bench.add_argument("--value-bytes", type=int, default=VALUE_BYTES)
    bench.add_argument("--pipeline", type=int, default=1,
                       help="concurrent workers per trace in the admission "
                            "legs (v2 multiplexes them over one connection)")
    bench.add_argument("--batch", type=int, default=64,
                       help="MGET/MSET batch size for the wire-protocol "
                            "comparison legs")
    bench.add_argument("--no-wire", action="store_true",
                       help="skip the v1-vs-v2 wire-protocol comparison")
    bench.add_argument("--uvloop", action="store_true",
                       help="use uvloop's event loop if installed")
    bench.add_argument("--json", metavar="FILE", default=None,
                       help="also dump the comparison as JSON")
    bench.add_argument("--stats-json", metavar="FILE", default=None,
                       help="dump the servers' final STATS snapshots as "
                            "JSON (mirrors 'repro run --stats-json')")
    return parser


def make_store(args, obs: Observability | None = None) -> ShardedStore:
    """Build a :class:`ShardedStore` from parsed CLI arguments; sizes the
    store rejects end the command with the reason."""
    try:
        return ShardedStore(
            num_shards=args.shards,
            data_capacity=args.data_capacity,
            tag_capacity=args.tag_capacity,
            tag_assoc=args.tag_assoc,
            admission=args.admission,
            seed=args.seed,
            obs=obs,
        )
    except ValueError as exc:
        raise SystemExit(f"repro serve: {exc}") from None


def _serve_obs(args) -> Observability:
    """Observability bundle for ``repro serve``: metrics on by default."""
    tracing = args.trace_file is not None
    if args.no_metrics and not tracing:
        return Observability.disabled()
    obs = Observability.enabled(
        tracing=tracing, sample_every=args.trace_sample, time_unit="s"
    )
    if args.no_metrics:
        obs.registry.enabled = False
    return obs


def _final_stats_flush(server: CacheServer, args) -> None:
    """Print (and optionally persist) the closing STATS/obs snapshot."""
    snapshot = server.store.stats_snapshot()
    snapshot["process"] = {"pid": os.getpid(), **process_resources()}
    if server.obs.registry.enabled:
        snapshot["obs"] = server.obs.registry.snapshot()
    total = snapshot["total"]
    print(f"repro.service: final stats — {total['hits']} hits / "
          f"{total['misses']} misses (hit rate {total['hit_rate']:.4f}), "
          f"{snapshot['stored_entries']} stored, "
          f"{total['reuse_admissions']} admitted, "
          f"{total['tag_only_sets']} tagged-only")
    if args.final_stats_json:
        with open(args.final_stats_json, "w") as fh:
            json.dump(snapshot, fh, indent=2)
        print(f"repro.service: wrote {args.final_stats_json}")


async def _serve(args) -> None:
    obs = _serve_obs(args)
    server = CacheServer(
        make_store(args, obs=obs),
        host=args.host,
        port=args.port,
        max_connections=args.max_connections,
        request_timeout=args.request_timeout,
        obs=obs,
    )
    # SIGTERM (systemd/Kubernetes stop) and SIGINT (Ctrl-C) both request a
    # graceful drain; the event lets serve_forever unwind normally so the
    # finally block runs the connection drain and final stats flush
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError):  # non-unix event loops
            pass
    await server.start()
    print(f"repro.service: {args.admission}-admission store, "
          f"{args.shards} shards x {args.data_capacity // args.shards} entries, "
          f"listening on {server.host}:{server.port}")
    if not args.no_metrics:
        print("repro.service: metrics on — `repro top` or the METRICS verb")
    telemetry = None
    if args.obs_port is not None:
        from .telemetry import ServiceTelemetry

        telemetry = ServiceTelemetry(
            server, port=args.obs_port, interval=args.obs_interval,
            flight_dir=args.flight_dir,
        )
        await telemetry.start()
        print(f"repro.service: telemetry on "
              f"http://{telemetry.http.host}:{telemetry.http.port} "
              f"(/metrics /healthz /readyz /varz /history /alertz; "
              f"SIGUSR2 dumps a flight bundle to {args.flight_dir})")
    serve_task = asyncio.ensure_future(server.serve_forever())
    try:
        stop_wait = asyncio.ensure_future(stop.wait())
        await asyncio.wait(
            (serve_task, stop_wait), return_when=asyncio.FIRST_COMPLETED
        )
        stop_wait.cancel()
        # a serve_forever that *raised* (not cancelled/stopped) is a fatal
        # server error: capture the last N minutes before going down
        if serve_task.done() and not serve_task.cancelled():
            exc = serve_task.exception()
            if exc is not None and telemetry is not None:
                path = telemetry.dump_flight("fatal-error")
                print(f"repro.service: fatal error ({exc!r}); "
                      f"flight bundle written to {path}")
    finally:
        serve_task.cancel()
        if telemetry is not None:
            await telemetry.stop()
        await server.stop()
        if args.trace_file:
            obs.tracer.write(args.trace_file, fmt="chrome-trace")
            print(f"repro.service: wrote {obs.tracer.recorded} request "
                  f"span(s) to {args.trace_file}")
        _final_stats_flush(server, args)
        print("repro.service: drained and stopped")


def cmd_serve(args) -> int:
    """Run the server until SIGINT/SIGTERM, then drain and flush stats."""
    if getattr(args, "uvloop", False) and install_uvloop():
        print("repro.service: uvloop event loop installed")
    try:
        asyncio.run(_serve(args))
    except KeyboardInterrupt:
        pass
    return 0


async def _bench_one(admission, workload, args) -> dict:
    """Serve the workload once under ``admission`` and summarise."""
    store = ShardedStore(
        num_shards=args.shards,
        data_capacity=args.data_capacity,
        tag_capacity=args.tag_capacity,
        tag_assoc=args.tag_assoc,
        admission=admission,
        seed=args.seed,
    )
    server = CacheServer(store, port=0)
    await server.start()
    try:
        result = await run_load(
            server.host, server.port, workload,
            value_bytes=args.value_bytes, sample_every=4,
            pipeline=getattr(args, "pipeline", 1),
        )
    finally:
        await server.stop()
    summary = result.summary()
    summary["admission"] = admission
    data_bytes = store.data_capacity * args.value_bytes
    summary["data_capacity_entries"] = store.data_capacity
    summary["data_capacity_bytes"] = data_bytes
    summary["hit_rate_per_mb"] = result.hit_rate / (data_bytes / 2**20)
    summary["server_total"] = result.server_stats.get("total", {})
    return summary, result.server_stats


async def _wire_one(protocol: str, workload, args) -> dict:
    """Replay the workload batched over one pinned wire framing.

    Fresh identically-seeded store per leg and a deterministic batched
    replay (one worker, pinned arrival order, v1 expands batches to the
    same singles), so the two legs differ in *framing only* and must
    report identical hit rates — the parity gate behind the quoted
    speedup.
    """
    store = ShardedStore(
        num_shards=args.shards,
        data_capacity=args.data_capacity,
        tag_capacity=args.tag_capacity,
        tag_assoc=args.tag_assoc,
        admission=args.admission,
        seed=args.seed,
    )
    server = CacheServer(store, port=0)
    await server.start()
    try:
        client = CacheClient(server.host, server.port, protocol=protocol)
        try:
            result = await replay_batched(
                client, workload,
                value_bytes=args.value_bytes,
                batch=args.batch,
                sample_every=4,
            )
        finally:
            await client.close()
    finally:
        await server.stop()
    summary = result.summary()
    summary["protocol"] = protocol
    summary["batch"] = args.batch
    return summary


def run_wire_benchmark(args, workload) -> dict:
    """v1 text vs v2 binary framing at a matched batched workload."""

    async def _run():
        v1 = await _wire_one("v1", workload, args)
        v2 = await _wire_one("v2", workload, args)
        return v1, v2

    v1, v2 = asyncio.run(_run())
    return {
        "v1": v1,
        "v2": v2,
        "batch": args.batch,
        "speedup": (v2["throughput_rps"] / v1["throughput_rps"]
                    if v1["throughput_rps"] else 0.0),
        "hit_rate_match": v1["hit_rate"] == v2["hit_rate"],
    }


def run_service_benchmark(args=None, **overrides) -> dict:
    """Run the reuse-vs-always comparison; returns a JSON-safe dict.

    ``args`` is a parsed ``bench-service`` namespace; keyword overrides are
    applied on top (so tests and the bench harness can shrink the run).
    The result carries a ``"wire"`` block — v1 text vs v2 binary framing
    at a matched batched workload — unless ``--no-wire`` skipped it.
    """
    if args is None:
        args = build_service_parser().parse_args(["bench-service"])
    for name, value in overrides.items():
        setattr(args, name, value)
    mix = args.mix if args.mix else EXAMPLE_MIX
    workload = build_workload(mix, n_refs=args.refs, seed=args.seed,
                              scale=args.scale)

    async def _run():
        reuse = await _bench_one("reuse", workload, args)
        always = await _bench_one("always", workload, args)
        return reuse, always

    (reuse, reuse_stats), (always, always_stats) = asyncio.run(_run())
    result = {
        "server_stats": {"reuse": reuse_stats, "always": always_stats},
        "workload": workload.name,
        "refs_per_core": args.refs,
        "cores": workload.num_cores,
        "scale": args.scale,
        "shards": args.shards,
        "value_bytes": args.value_bytes,
        "reuse": reuse,
        "always": always,
        "hit_rate_gain": reuse["hit_rate"] - always["hit_rate"],
        "hit_rate_per_mb_gain":
            reuse["hit_rate_per_mb"] - always["hit_rate_per_mb"],
    }
    if not getattr(args, "no_wire", False):
        result["wire"] = run_wire_benchmark(args, workload)
    return result


def format_service_benchmark(result: dict) -> str:
    """Human-readable table of the admission comparison."""
    lines = [
        f"service benchmark — workload {result['workload']} "
        f"({result['cores']} cores x {result['refs_per_core']} refs, "
        f"scale {result['scale']})",
        f"{'admission':<10} {'hit rate':>9} {'hr/MB':>8} {'stored':>8} "
        f"{'tagged':>8} {'rps':>9} {'p50 ms':>8} {'p99 ms':>8}",
    ]
    for mode in ("reuse", "always"):
        row = result[mode]
        lines.append(
            f"{mode:<10} {row['hit_rate']:>9.4f} {row['hit_rate_per_mb']:>8.3f} "
            f"{row['sets_stored']:>8} {row['sets_tagged']:>8} "
            f"{row['throughput_rps']:>9.0f} {row['p50_ms']:>8.3f} "
            f"{row['p99_ms']:>8.3f}"
        )
    lines.append(
        f"hit-rate gain (reuse - always) at equal data capacity: "
        f"{result['hit_rate_gain']:+.4f} "
        f"({result['hit_rate_per_mb_gain']:+.3f} per MB)"
    )
    wire = result.get("wire")
    if wire:
        lines.append(
            f"wire protocol — batched replay (batch {wire['batch']}):"
        )
        lines.append(
            f"{'framing':<10} {'hit rate':>9} {'rps':>9} {'p50 ms':>8} "
            f"{'p99 ms':>8}"
        )
        for leg in ("v1", "v2"):
            row = wire[leg]
            lines.append(
                f"{leg:<10} {row['hit_rate']:>9.4f} "
                f"{row['throughput_rps']:>9.0f} {row['p50_ms']:>8.3f} "
                f"{row['p99_ms']:>8.3f}"
            )
        parity = "identical" if wire["hit_rate_match"] else "MISMATCH"
        lines.append(
            f"v2/v1 speedup: {wire['speedup']:.2f}x (hit rates {parity})"
        )
    return "\n".join(lines)


def cmd_bench_service(args) -> int:
    """Run the comparison, print it, optionally dump JSON."""
    if getattr(args, "uvloop", False) and install_uvloop():
        print("repro.service: uvloop event loop installed")
    result = run_service_benchmark(args)
    # the full per-server STATS snapshots go to --stats-json, not --json
    server_stats = result.pop("server_stats", {})
    print(format_service_benchmark(result))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(result, fh, indent=2)
        print(f"wrote {args.json}")
    if getattr(args, "stats_json", None):
        with open(args.stats_json, "w") as fh:
            json.dump(server_stats, fh, indent=2)
        print(f"wrote {args.stats_json}")
    return 0


def main(argv) -> int:
    """Entry point for the service subcommands."""
    configure_logging()
    args = build_service_parser().parse_args(argv)
    if args.command == "serve":
        return cmd_serve(args)
    return cmd_bench_service(args)
