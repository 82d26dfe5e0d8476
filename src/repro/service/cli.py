"""CLI command for the serving stack: ``repro serve``.

``serve`` runs a :class:`~repro.service.server.CacheServer` in the
foreground until interrupted.  Both SIGINT and SIGTERM trigger a graceful
drain — stop accepting, let in-flight requests finish — followed by a
final stats flush: the closing hit/admission summary is printed (and the
full STATS document written, with ``--final-stats-json``), so supervised
deployments (systemd, Kubernetes) keep the run's numbers on termination.
With ``--obs-port`` the node additionally runs the continuous-telemetry
plane (:class:`~repro.service.telemetry.ServiceTelemetry`): a scrapeable
HTTP endpoint (``/metrics`` ``/healthz`` ``/readyz`` ``/varz``
``/history`` ``/alertz``), per-second registry sampling into a
time-series store, the built-in alert rules, and a flight recorder that
dumps a forensic bundle into ``--flight-dir`` on SIGUSR2 or a fatal
server error.

The admission comparison on live traffic is the registry experiment
``service-admission`` (``repro run service-admission``).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal

from ..obs import Observability
from ..obs.logging import configure as configure_logging
from .server import CacheServer
from .sharding import ShardedStore

#: CLI names handled by this module (dispatched from repro.__main__)
SERVICE_COMMANDS = ("serve",)


def build_service_parser() -> argparse.ArgumentParser:
    """Argument parser for the service subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Serving mode of the reuse-cache reproduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run the cache server in the foreground")
    serve.add_argument("--shards", type=int, default=4,
                       help="number of store shards")
    serve.add_argument("--data-capacity", type=int, default=4096,
                       help="total data-store entries across shards")
    serve.add_argument("--tag-capacity", type=int, default=None,
                       help="total tag-directory entries (default 4x data)")
    serve.add_argument("--tag-assoc", type=int, default=8,
                       help="tag-directory associativity")
    serve.add_argument("--admission", choices=("reuse", "always"),
                       default="reuse", help="admission policy")
    serve.add_argument("--seed", type=int, default=2013)
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
                       help="write the final STATS document on shutdown")
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
    """Print (and optionally persist) the closing STATS document."""
    snapshot = server.stats_snapshot()
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
    try:
        asyncio.run(_serve(args))
    except KeyboardInterrupt:
        pass
    return 0


def main(argv) -> int:
    """Entry point for the service subcommands."""
    configure_logging()
    return cmd_serve(build_service_parser().parse_args(argv))
