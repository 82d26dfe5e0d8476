"""Asyncio TCP front end for a :class:`~repro.service.sharding.ShardedStore`.

Every wire verb is one handler, registered once with :func:`wire_verb`:
a coroutine method taking the verb's typed fields in ``REQUEST_FIELDS``
order and returning a :class:`~repro.service.protocol.Reply`.
:class:`CacheServer` owns that table; the cluster's ``ClusterServer``
extends it with its peer verbs.

Connections speak the binary v2 frame protocol of
:mod:`repro.service.protocol`: pipelined requests, batch verbs and a
typed trace field (see ``docs/protocol.md``).  The service verbs:

=============================  =====================================
request                        response
=============================  =====================================
``GET key``                    ``VALUE`` (the bytes) or ``MISS``
``SET key value``              ``STORED`` or ``TAGGED``
``DEL key``                    ``DELETED`` or ``NOTFOUND``
``MGET keys``                  ``VALUES`` (one value or none per key)
``MSET items``                 ``STATUSES`` (one stored-flag per item)
``MDEL keys``                  ``STATUSES`` (one removed-flag per key)
``STATS``                      ``STATS`` (a JSON document)
``METRICS``                    ``METRICS`` (Prometheus text)
``PING``                       ``PONG``
``QUIT``                       ``BYE`` and the connection closes
``TRACE``                      ``TRACE`` (drains the trace ring, JSONL)
=============================  =====================================

Every request may carry a trace field ``T=<trace-id>/<span-id>`` (see
:mod:`repro.obs.dist`): the server opens its request span as a *child*
of the caller's span, so a cluster write and the INVAL fan-out it
triggers on peer nodes merge into one causal tree.  The field is ignored
when tracing is off.

``TAGGED`` is the protocol-visible face of selective allocation: the server
*declined* to store the value but recorded the key in the tag directory, so
a client re-offering after the next miss will see ``STORED``.  A malformed
payload, or a request that exceeds ``request_timeout``, is answered with an
``ERR`` frame and the connection stays open; a byte stream that is not
v2 frames is dropped.

Operational guards:

* ``max_connections`` — further clients get an ``ERR busy`` frame and are
  closed;
* per-request timeouts: each request runs inside its connection's task
  under a :class:`~repro.service.deadline.deadline`, so a request costs
  no Task, timer-future pair or extra event-loop turn of its own;
* graceful shutdown — :meth:`CacheServer.stop` stops accepting, waits for
  in-flight requests to drain (bounded by ``drain_timeout``), then closes
  idle connections.

Request latency is recorded into the owning shard's stats, so STATS reports
per-shard p50/p99 and accumulated busy seconds alongside hit and admission
counters, plus a ``"process"`` block (pid, cumulative CPU seconds, peak
RSS) for the serving process as a whole.

Observability (:mod:`repro.obs`) is opt-in via the ``obs`` constructor
argument: with an enabled registry the server labels request counters and
latency histograms by command, samples its own event-loop lag, exposes
connection gauges, serves the whole registry over the ``METRICS`` verb
and embeds a registry snapshot under the ``"obs"`` key of STATS.  With an
enabled tracer every request becomes a Chrome-trace span on the owning
shard's process lane, with the connection id as the thread lane.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os

from ..obs import Observability
from ..obs.dist import (
    DECISION_EVENTS,
    CAT_AUDIT,
    SpanIds,
    current_context,
    leaf_args,
    parse_token,
    span_args,
    use_context,
)
from ..obs.logging import get_logger
from ..obs.prof import clock, process_resources
from ..obs.tracing import CAT_REQUEST
from .deadline import deadline
from .protocol import (
    STATUS_IDS,
    VERB_NAMES,
    FieldError,
    FrameEncoder,
    FrameError,
    Reply,
    decode_request_fields,
    decode_trace,
    encode_reply,
    read_frame,
)
from .sharding import ShardedStore

log = get_logger(__name__)

#: default span-id prefixes for servers not given one (cluster nodes pass
#: their node name); a plain counter keeps ids deterministic per process
_SERVER_SEQ = itertools.count(1)


class ProtocolError(Exception):
    """Client spoke a malformed request; reported as ``ERR <reason>``."""


class _Quit(Exception):
    """Internal: client sent QUIT; close the connection cleanly."""


def wire_verb(name: str):
    """Register the decorated coroutine method as the handler of ``name``.

    FLOW003 reads these decorators as the layer's verb table.
    """
    def register(method):
        method.wire_verb = name
        return method
    return register


class CacheServer:
    """Serve a :class:`ShardedStore` over TCP with asyncio."""

    def __init__(
        self,
        store: ShardedStore,
        host: str = "127.0.0.1",
        port: int = 0,
        max_connections: int = 256,
        request_timeout: float = 5.0,
        obs: Observability | None = None,
        trace_ids: SpanIds | None = None,
    ):
        self.store = store
        self.host = host
        self.port = port  # rewritten with the bound port after start()
        self.max_connections = max_connections
        self.request_timeout = request_timeout
        self.obs = obs if obs is not None else Observability.disabled()
        self._trace_ids = (trace_ids if trace_ids is not None
                           else SpanIds(f"srv{next(_SERVER_SEQ)}"))
        #: most recent event-loop lag sample (0.0 until measured); CSTATUS
        #: surfaces it so ``repro top --cluster`` can show saturation
        self.eventloop_lag = 0.0
        #: clock() at bind time (None before start()); STATS reports uptime
        self.started_at = None
        #: connections whose first frame decoded, and connections dropped
        #: before one did (their first bytes were not a v2 frame header):
        #: STATS/CSTATUS and ``repro top`` report both
        self.connections_v2 = 0
        self.connections_v1 = 0
        #: verb -> bound handler, subclass registrations included
        self._handlers = {
            method.wire_verb: getattr(self, name)
            for klass in reversed(type(self).__mro__)
            for name, method in vars(klass).items()
            if hasattr(method, "wire_verb")
        }
        if (self.obs.tracer.enabled
                and hasattr(store, "set_decision_listener")):
            store.set_decision_listener(self._on_store_decision)
        self._server = None
        self._writers = set()
        self._inflight = 0
        self._stopping = False
        self._next_conn_id = 0
        self._lag_task = None
        #: verb -> (requests counter, latency histogram), looked up on the
        #: verb's first request so a verb never requested exports no series
        self._request_metrics = {}
        registry = self.obs.registry
        if registry.enabled:
            registry.gauge_callback(
                "repro_service_connections",
                lambda: float(len(self._writers)),
                help="currently open client connections",
            )
            registry.gauge_callback(
                "repro_service_inflight",
                lambda: float(self._inflight),
                help="requests currently being processed",
            )
            registry.gauge(
                "repro_service_max_connections",
                help="connection cap (further clients get ERR busy)",
            ).set(float(max_connections))

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting; ``self.port`` holds the real port."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.started_at = clock()
        if self.obs.registry.enabled:
            self._lag_task = asyncio.ensure_future(self._measure_eventloop_lag())
        log.info("serving on %s:%d (%d shards, admission=%s)",
                 self.host, self.port, self.store.num_shards, self.store.admission)

    async def serve_forever(self) -> None:
        """Block serving requests until cancelled or :meth:`stop` is called."""
        if self._server is None:
            # repro: atomic=lifecycle is driven by one owner task; a racing second start() raises rather than double-binding
            await self.start()
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass

    async def stop(self, drain_timeout: float = 5.0) -> None:
        """Graceful shutdown: stop accepting, drain in-flight, close idle.

        Requests already being processed are given ``drain_timeout``
        seconds to complete and be answered; connections sitting idle
        between requests are then closed.
        """
        self._stopping = True
        log.info("stopping: draining %d in-flight request(s)", self._inflight)
        if self._lag_task is not None:
            self._lag_task.cancel()
            self._lag_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        loop = asyncio.get_running_loop()
        drain_until = loop.time() + drain_timeout
        while self._inflight and loop.time() < drain_until:
            await asyncio.sleep(0.005)
        for writer in list(self._writers):
            writer.close()
        while self._writers and loop.time() < drain_until:
            await asyncio.sleep(0.005)
        log.info("stopped")

    async def _measure_eventloop_lag(self, interval: float = 0.25) -> None:
        """Sample how late ``asyncio.sleep`` wakes: a saturation signal.

        A healthy loop wakes within a millisecond or two of the deadline;
        lag grows when request handlers monopolise the loop.
        """
        gauge = self.obs.registry.gauge(
            "repro_service_eventloop_lag_seconds",
            help="how late the event loop wakes from a timed sleep",
        )
        loop = asyncio.get_running_loop()
        try:
            while True:
                before = loop.time()
                await asyncio.sleep(interval)
                self.eventloop_lag = max(0.0, loop.time() - before - interval)
                gauge.set(self.eventloop_lag)
        except asyncio.CancelledError:
            pass

    @property
    def connections(self) -> int:
        """Number of currently open client connections."""
        return len(self._writers)

    @property
    def draining(self) -> bool:
        """True once :meth:`stop` began: rejecting new work, draining old.

        ``/healthz`` and ``/readyz`` (:mod:`repro.obs.http`) read this so
        a load balancer stops routing to a node the moment it drains.
        """
        return self._stopping

    @property
    def uptime_s(self) -> float:
        """Seconds since the listener bound (0.0 before :meth:`start`)."""
        if self.started_at is None:
            return 0.0
        return max(0.0, clock() - self.started_at)

    @property
    def inflight(self) -> int:
        """Number of requests currently being processed."""
        return self._inflight

    # -- connection handling --------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        if self._stopping or len(self._writers) >= self.max_connections:
            log.warning(
                "rejecting connection: %s",
                "shutting down" if self._stopping else "connection cap reached",
            )
            writer.write(FrameEncoder().simple(STATUS_IDS["ERR"], 0, b"busy"))
            try:
                await writer.drain()
            except (ConnectionError, asyncio.CancelledError):
                pass
            writer.close()
            return
        self._next_conn_id += 1
        conn_id = self._next_conn_id
        log.debug("connection %d opened", conn_id)
        self._writers.add(writer)
        try:
            await self._serve_connection(reader, writer, conn_id)
        except FrameError as exc:
            log.warning("connection %d: unframeable stream (%s), dropping",
                        conn_id, exc)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client vanished mid-request
        finally:
            self._writers.discard(writer)
            log.debug("connection %d closed", conn_id)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _serve_connection(self, reader, writer, conn_id: int) -> None:
        """Serve frames one at a time, in arrival order.

        Pipelining falls out of the framing: every request is fully read
        before dispatch, so the loop never waits on the client mid-request
        and many frames can be in flight per connection.  A malformed
        payload or a timed-out handler answers with an ERR frame and the
        connection stays usable (the stream framing is still trusted);
        only an unframeable byte stream (:class:`FrameError`), or a first
        frame header that has not arrived within ``request_timeout``,
        drops it.  The deadline covers the header only, so a large first
        payload on a slow link is still read in full.

        Each request runs in this connection's task under a
        :class:`deadline`, so frames already buffered are served back to
        back without an event-loop turn between them, unless a handler
        awaits or the send buffer is full.
        """
        enc = FrameEncoder()
        try:
            # a peer that never sends a frame header must not hold its slot
            frame = await read_frame(reader, header_timeout=self.request_timeout)
        except FrameError:
            self.connections_v1 += 1
            raise
        except asyncio.TimeoutError:
            log.warning("connection %d: no frame header within %ss, dropping",
                        conn_id, self.request_timeout)
            self.connections_v1 += 1
            return
        if frame is not None:
            self.connections_v2 += 1
        while frame is not None and not self._stopping:
            self._inflight += 1
            try:
                async with deadline(self.request_timeout):
                    await self._serve_request(frame, enc, writer, conn_id)
            except asyncio.TimeoutError:
                log.warning("connection %d: request timed out", conn_id)
                writer.write(enc.simple(STATUS_IDS["ERR"], frame.seq,
                                        b"timeout"))
                await writer.drain()
            except (ProtocolError, FieldError) as exc:
                writer.write(enc.simple(STATUS_IDS["ERR"], frame.seq,
                                        str(exc).encode("utf-8")))
                await writer.drain()
            except _Quit:
                break
            finally:
                self._inflight -= 1
            frame = await read_frame(reader)

    async def _serve_request(self, frame, enc, writer, conn_id: int) -> None:
        """Decode one frame's trace token and typed fields and serve it."""
        verb = VERB_NAMES.get(frame.verb_id)
        if verb is None:
            raise ProtocolError(f"unknown verb id {frame.verb_id}")
        token, rd = decode_trace(frame)
        fields = decode_request_fields(verb, rd)
        handler = self._handlers.get(verb)
        if handler is None:
            raise ProtocolError(f"unknown command {verb!r}")
        wire_ctx = parse_token(token) if token is not None else None
        await self._serve(handler, verb, fields, wire_ctx, conn_id, writer,
                          enc, frame.seq)

    async def _serve(self, handler, verb: str, fields: list, wire_ctx,
                     conn_id: int, writer, enc, seq: int) -> None:
        """Run one decoded request through its handler and answer it.

        With tracing enabled the handler runs under the request's span
        context (:func:`use_context`), which is how fan-outs deep inside
        the cluster layer find their parent.  ``enc`` is the
        connection's :class:`FrameEncoder`.
        """
        start = clock()
        if self.obs.tracer.enabled:
            ctx = self._trace_ids.begin(wire_ctx)
            with use_context(ctx):
                reply = await handler(*fields)
        else:
            ctx = None
            reply = await handler(*fields)
        writer.write(encode_reply(enc, reply, seq))
        await writer.drain()
        if reply.status == "BYE":
            raise _Quit
        # latency is attributed to the first key's shard; a batch to its
        # first item's — the approximation STATS makes for per-shard latency
        key = fields[0] if fields else None
        if isinstance(key, list):
            key = key[0] if key else None
            if isinstance(key, tuple):
                key = key[0]
        self._record_request(verb, key, start, clock() - start, conn_id,
                             ctx, reply.outcome)

    # -- the verb table ---------------------------------------------------------
    #
    # One handler per verb.  Each takes the verb's fields in
    # REQUEST_FIELDS order and returns a Reply.

    @wire_verb("GET")
    async def _verb_get(self, key: str) -> Reply:
        value = self.store.get(key)
        if value is None:
            return Reply("MISS", outcome="miss")
        return Reply("VALUE", value, outcome="hit")

    @wire_verb("SET")
    async def _verb_set(self, key: str, value: bytes) -> Reply:
        if await self._apply_set(key, value):
            return Reply("STORED", outcome="stored")
        return Reply("TAGGED", outcome="tagged")

    @wire_verb("DEL")
    async def _verb_del(self, key: str) -> Reply:
        if await self._apply_delete(key):
            return Reply("DELETED", outcome="deleted")
        return Reply("NOTFOUND", outcome="notfound")

    @wire_verb("MGET")
    async def _verb_mget(self, keys: list) -> Reply:
        return Reply("VALUES", values=self.store.get_many(keys))

    @wire_verb("MSET")
    async def _verb_mset(self, items: list) -> Reply:
        return Reply("STATUSES", values=await self._apply_sets(items))

    @wire_verb("MDEL")
    async def _verb_mdel(self, keys: list) -> Reply:
        return Reply("STATUSES", values=[
            await self._apply_delete(key) for key in keys
        ])

    @wire_verb("STATS")
    async def _verb_stats(self) -> Reply:
        return Reply("STATS", self._stats_payload())

    @wire_verb("METRICS")
    async def _verb_metrics(self) -> Reply:
        return Reply("METRICS",
                     self.obs.registry.to_prometheus().encode("utf-8"))

    @wire_verb("TRACE")
    async def _verb_trace(self) -> Reply:
        return Reply("TRACE", self.obs.tracer.drain().encode("utf-8"))

    @wire_verb("PING")
    async def _verb_ping(self) -> Reply:
        return Reply("PONG")

    @wire_verb("QUIT")
    async def _verb_quit(self) -> Reply:
        return Reply("BYE")  # the connection closes after it

    # -- write hooks (the cluster layer overrides these for coherence) --------

    async def _apply_set(self, key: str, value: bytes) -> bool:
        """Apply one SET; subclasses add cross-node invalidation."""
        return self.store.set(key, value)

    async def _apply_sets(self, items: list) -> list:
        """Apply one MSET's items in order; one stored-bool per item."""
        return self.store.set_many(items)

    async def _apply_delete(self, key: str) -> bool:
        """Apply one DEL; subclasses add cross-node invalidation."""
        return self.store.delete(key)

    def server_info(self) -> dict:
        """The ``"server"`` block of STATS: uptime and connection mix."""
        return {
            "uptime_s": self.uptime_s,
            "connections_open": len(self._writers),
            "connections_v1": self.connections_v1,
            "connections_v2": self.connections_v2,
            "draining": self._stopping,
            "eventloop_lag_s": self.eventloop_lag,
        }

    def _stats_payload(self) -> bytes:
        """The STATS JSON document (also read by the telemetry sampler)."""
        snapshot = self.store.stats_snapshot()
        snapshot["process"] = {"pid": os.getpid(), **process_resources()}
        snapshot["server"] = self.server_info()
        if self.obs.registry.enabled:
            snapshot["obs"] = self.obs.registry.snapshot()
        return json.dumps(snapshot).encode("utf-8")

    def _record_request(self, cmd: str, key, start: float, elapsed: float,
                        conn_id: int, ctx, outcome) -> None:
        """Latency, counters and the request span for one answered request.

        ``key`` is the request's first key (None for keyless verbs).
        """
        shard_idx = 0
        if key is not None:
            shard_idx = self.store.shard_of(key)
            self.store.shards[shard_idx].stats.record_latency(elapsed)
        registry = self.obs.registry
        if registry.enabled:
            handles = self._request_metrics.get(cmd)
            if handles is None:
                handles = self._request_metrics[cmd] = (
                    registry.counter(
                        "repro_service_requests_total",
                        help="requests answered, by command",
                        cmd=cmd,
                    ),
                    registry.histogram(
                        "repro_service_request_latency_seconds",
                        help="request service time, by command",
                        cmd=cmd,
                    ),
                )
            counter, latency = handles
            counter.inc()
            latency.observe(elapsed)
        tr = self.obs.tracer
        # the TRACE verb's own span would pollute the batch after a drain
        if tr.enabled and cmd != "TRACE":
            extra = {}
            if key is not None:
                extra["key"] = key
            if outcome is not None:
                extra["outcome"] = outcome
            tr.emit(
                cmd, cat=CAT_REQUEST, ts=start, pid=shard_idx, tid=conn_id,
                dur=elapsed, args=span_args(ctx, **extra),
            )

    def _on_store_decision(self, key: str, decision: str) -> None:
        """Store decision hook -> audit instant on the active request span.

        Installed only when tracing is on (the obs-off store keeps a bare
        ``None`` listener); runs inside a store transition on the event-loop
        thread and must not re-enter the store, so it only appends to the
        ring.
        """
        name = DECISION_EVENTS.get(decision)
        if name is None:
            return
        self.obs.tracer.emit(
            name, cat=CAT_AUDIT, ts=clock(), pid=self.store.shard_of(key),
            tid=0, args=leaf_args(current_context(), key=key),
        )


async def run_server(server: CacheServer) -> None:
    """Start ``server`` and serve until cancelled, then stop gracefully."""
    await server.start()
    try:
        await server.serve_forever()
    finally:
        await server.stop()
