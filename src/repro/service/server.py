"""Asyncio TCP front end for a :class:`~repro.service.sharding.ShardedStore`.

Every wire verb is one handler, registered once with :func:`wire_verb`:
a method taking the verb's typed fields in ``REQUEST_FIELDS`` order and
returning a :class:`~repro.service.protocol.Reply`.
:class:`CacheServer` owns that table; the cluster's ``ClusterServer``
extends it with its peer verbs and overrides its write verbs.

Each connection is one ``asyncio.BufferedProtocol``: the socket is read
straight into the connection's one reused buffer
(:class:`~repro.service.protocol.FrameBuffer`), and every complete frame
is parsed from it as bytes arrive.  A verb whose handler is a plain
``def`` (every service verb) is served inline, in arrival order, with
one ``transport.write`` per reply: no task, future or timer per
request.  A coroutine handler (the cluster's writes, which wait for
their invalidation fan-out) runs in a task, and the connection parses
no further frame until that task has answered, so replies keep request
order on every connection.  The connection's one ``call_at`` timer
bounds that task too, with no timer of its own.

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
* ``request_timeout`` bounds an awaiting request (answered ``ERR
  timeout``), every frame header from its first byte (the connection
  drops), and a peer that stops reading its replies: once the socket's
  send buffer is full, parsing stops, and the connection drops if it
  stays full that long.  Payloads are not timed, nor is an idle
  connection between frames;
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
import inspect
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
# bench/serve_traced.py times the server by wrapping decode_request_fields,
# decode_trace and read_frame by name on this module: all three stay
# importable here, though the server parses frames with FrameBuffer
from .protocol import (  # noqa: F401  (read_frame: see above)
    HEADER_SIZE,
    RECV_BUFFER_BYTES,
    STATUS_IDS,
    VERB_IDS,
    VERB_NAMES,
    FieldError,
    FrameBuffer,
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

#: the status id of an error reply
_ERR = STATUS_IDS["ERR"]

#: bytes a connection buffers while its parsing waits (on an awaiting
#: verb or on a peer that stopped reading); at this it stops reading.
#: It is the receive buffer's initial size, so the buffer never fills
#: with frames nobody parsed: only a frame whose header was checked
#: makes it grow
_READ_LIMIT = RECV_BUFFER_BYTES

#: what a connection's one timer is armed for
_HEADER, _STALL, _TASK = "header", "stall", "task"

#: Task.uncancel/cancelling arrived in 3.11
_COUNTS_CANCELS = hasattr(asyncio.Task, "uncancel")


class ProtocolError(Exception):
    """Client spoke a malformed request; reported as ``ERR <reason>``."""


def wire_verb(name: str):
    """Register the decorated method as the handler of ``name``.

    A plain ``def`` handler is served inline as its frame is parsed; a
    coroutine handler runs in a task bounded by ``request_timeout``.
    FLOW003 reads these decorators as the layer's verb table.
    """
    def register(method):
        method.wire_verb = name
        return method
    return register


def set_reply(stored: bool) -> Reply:
    """The reply to a SET that ``stored`` its value or only tagged it."""
    if stored:
        return Reply("STORED", outcome="stored")
    return Reply("TAGGED", outcome="tagged")


def del_reply(removed: bool) -> Reply:
    """The reply to a DEL that ``removed`` its key or found none."""
    if removed:
        return Reply("DELETED", outcome="deleted")
    return Reply("NOTFOUND", outcome="notfound")


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
        handlers = {
            method.wire_verb: getattr(self, name)
            for klass in reversed(type(self).__mro__)
            for name, method in vars(klass).items()
            if hasattr(method, "wire_verb")
        }
        #: verb id -> (verb, bound handler, whether the handler awaits),
        #: subclass registrations included
        self._verbs = {
            VERB_IDS[verb]: (verb, handler,
                             inspect.iscoroutinefunction(handler))
            for verb, handler in handlers.items()
        }
        if (self.obs.tracer.enabled
                and hasattr(store, "set_decision_listener")):
            store.set_decision_listener(self._on_store_decision)
        self._server = None
        self._conns = set()
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
                lambda: float(len(self._conns)),
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
        loop = asyncio.get_running_loop()
        self._server = await loop.create_server(
            lambda: _Connection(self), self.host, self.port,
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
        for conn in list(self._conns):
            conn.transport.close()
        while self._conns and loop.time() < drain_until:
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
        return len(self._conns)

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

    # -- request serving ----------------------------------------------------

    def _serve_frame(self, conn: "_Connection", frame) -> None:
        """Serve one request frame of ``conn``, in its arrival order.

        A plain-``def`` handler is run and answered here, inline.  A
        coroutine handler is started in a task (:meth:`_serve_awaiting`)
        and ``conn`` parses no further frame until that task has
        answered.  A malformed payload is answered with an ERR frame and
        the connection stays usable.
        """
        entry = self._verbs.get(frame.verb_id)
        try:
            if entry is None:
                verb = VERB_NAMES.get(frame.verb_id)
                if verb is None:
                    raise ProtocolError(f"unknown verb id {frame.verb_id}")
                raise ProtocolError(f"unknown command {verb!r}")
            verb, handler, awaits = entry
            token, rd = decode_trace(frame)
            fields = decode_request_fields(verb, rd)
            wire_ctx = parse_token(token) if token is not None else None
            if awaits:
                conn.start_task(self._serve_awaiting(
                    conn, handler, verb, fields, wire_ctx, frame.seq))
                return
            self._inflight += 1
            try:
                start = clock()
                if self.obs.tracer.enabled:
                    ctx = self._trace_ids.begin(wire_ctx)
                    with use_context(ctx):
                        reply = handler(*fields)
                else:
                    ctx = None
                    reply = handler(*fields)
                self._answer(conn, verb, fields, reply, frame.seq, start, ctx)
            finally:
                self._inflight -= 1
        except (ProtocolError, FieldError) as exc:
            conn.reply_error(frame.seq, str(exc).encode("utf-8"))

    async def _serve_awaiting(self, conn: "_Connection", handler, verb: str,
                              fields: list, wire_ctx, seq: int) -> None:
        """Run one coroutine handler in ``conn``'s task and answer it.

        Past ``request_timeout`` the connection's timer cancels the task
        and the request is answered ``ERR timeout``; a cancel the timer
        did not make propagates.  Whatever the outcome, ``conn`` then
        resumes parsing its buffer.  With tracing enabled the handler
        runs under the request's span context (:func:`use_context`),
        which is how fan-outs deep inside the cluster layer find their
        parent.
        """
        self._inflight += 1
        try:
            start = clock()
            if self.obs.tracer.enabled:
                ctx = self._trace_ids.begin(wire_ctx)
                with use_context(ctx):
                    reply = await handler(*fields)
            else:
                ctx = None
                reply = await handler(*fields)
            if not conn.transport.is_closing():
                self._answer(conn, verb, fields, reply, seq, start, ctx)
        except asyncio.CancelledError:
            # the timer's cancel is the timeout; any cancel beyond it
            # (or instead of it) is someone else's, and propagates
            if not conn.task_expired or (
                    _COUNTS_CANCELS
                    and asyncio.current_task().uncancel() > 0):
                raise
            log.warning("connection %d: request timed out", conn.conn_id)
            conn.reply_error(seq, b"timeout")
        except (ProtocolError, FieldError) as exc:
            conn.reply_error(seq, str(exc).encode("utf-8"))
        except Exception:
            log.exception("connection %d: %s failed, dropping",
                          conn.conn_id, verb)
            conn.transport.close()
        finally:
            self._inflight -= 1
            conn.task = None
            conn.resume()

    def _answer(self, conn: "_Connection", verb: str, fields: list,
                reply: Reply, seq: int, start: float, ctx) -> None:
        """Write ``reply`` as one frame, then record the request."""
        conn.transport.write(encode_reply(conn.enc, reply, seq))
        if reply.status == "BYE":
            conn.transport.close()  # after the reply is flushed
            return
        # latency is attributed to the first key's shard; a batch to its
        # first item's — the approximation STATS makes for per-shard latency
        key = fields[0] if fields else None
        if isinstance(key, list):
            key = key[0] if key else None
            if isinstance(key, tuple):
                key = key[0]
        self._record_request(verb, key, start, clock() - start,
                             conn.conn_id, ctx, reply.outcome)

    # -- the verb table ---------------------------------------------------------
    #
    # One handler per verb.  Each takes the verb's fields in
    # REQUEST_FIELDS order and returns a Reply.  None of these awaits, so
    # each is a plain def and is served inline; a subclass may register a
    # coroutine handler in its place (the cluster's writes do).

    @wire_verb("GET")
    def _verb_get(self, key: str) -> Reply:
        value = self.store.get(key)
        if value is None:
            return Reply("MISS", outcome="miss")
        return Reply("VALUE", value, outcome="hit")

    @wire_verb("SET")
    def _verb_set(self, key: str, value: bytes) -> Reply:
        return set_reply(self.store.set(key, value))

    @wire_verb("DEL")
    def _verb_del(self, key: str) -> Reply:
        return del_reply(self.store.delete(key))

    @wire_verb("MGET")
    def _verb_mget(self, keys: list) -> Reply:
        return Reply("VALUES", values=self.store.get_many(keys))

    @wire_verb("MSET")
    def _verb_mset(self, items: list) -> Reply:
        return Reply("STATUSES", values=self.store.set_many(items))

    @wire_verb("MDEL")
    def _verb_mdel(self, keys: list) -> Reply:
        delete = self.store.delete
        return Reply("STATUSES", values=[delete(key) for key in keys])

    @wire_verb("STATS")
    def _verb_stats(self) -> Reply:
        return Reply("STATS", self._stats_payload())

    @wire_verb("METRICS")
    def _verb_metrics(self) -> Reply:
        return Reply("METRICS",
                     self.obs.registry.to_prometheus().encode("utf-8"))

    @wire_verb("TRACE")
    def _verb_trace(self) -> Reply:
        return Reply("TRACE", self.obs.tracer.drain().encode("utf-8"))

    @wire_verb("PING")
    def _verb_ping(self) -> Reply:
        return Reply("PONG")

    @wire_verb("QUIT")
    def _verb_quit(self) -> Reply:
        return Reply("BYE")  # the connection closes after it

    def record_connection(self, framed: bool) -> None:
        """Count a connection: its first frame decoded, or it dropped first.

        STATS reports the two counts as ``connections_v2`` and
        ``connections_v1``.
        """
        if framed:
            self.connections_v2 += 1
        else:
            self.connections_v1 += 1

    def server_info(self) -> dict:
        """The ``"server"`` block of STATS: uptime and connection mix."""
        return {
            "uptime_s": self.uptime_s,
            "connections_open": len(self._conns),
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


class _Connection(asyncio.BufferedProtocol):
    """One client connection: frames parsed from its buffer, in order.

    The socket is read into the connection's :class:`FrameBuffer`
    (``get_buffer``), and ``buffer_updated`` hands every complete frame
    to :meth:`CacheServer._serve_frame`.  Parsing stops while a
    coroutine verb's task is answering (so replies keep request order),
    while the peer is not reading its replies (``pause_writing``), and
    once the connection closes.  While parsing is stopped the connection
    reads at most ``_READ_LIMIT`` bytes ahead, no more than the buffer
    holds, so the buffer grows only for a frame whose header has been
    checked.

    One ``call_at`` timer bounds, by ``request_timeout``, what a peer can
    hold a connection slot with and how long a request may run.  It
    runs while a coroutine verb's task is answering, from the task's
    start (the task is cancelled and answered ``ERR timeout``); while
    writing is paused, from the pause; and while part of a frame header
    (1 to 11 bytes) is buffered, from its first byte, or from connect
    until the first header is in.  In the last two cases the connection
    drops.  A payload is not timed, nor is an idle connection between
    frames.

    The timer is re-pointed, not re-armed: each wait's due time is
    fixed when the wait begins, and a timer that fires before the
    current wait is due re-arms itself for it.  A wait always falls due
    after every earlier one, so an armed timer is never late, and a
    connection arms at most about one ``call_at`` per
    ``request_timeout`` however many requests it serves.
    """

    __slots__ = ("server", "loop", "transport", "frames", "enc", "conn_id",
                 "task", "task_due", "task_expired", "paused", "stall_due",
                 "eof", "decoded", "timer", "timer_for", "due")

    def __init__(self, server: CacheServer):
        self.server = server
        self.loop = asyncio.get_running_loop()
        self.transport = None
        self.frames = FrameBuffer()
        self.enc = FrameEncoder()
        self.conn_id = 0
        #: the task answering a coroutine verb (parsing waits for it)
        self.task = None
        #: when the task falls due, and whether the timer cancelled it
        self.task_due = 0.0
        self.task_expired = False
        #: the peer's receive window is full (pause_writing), since when
        self.paused = False
        self.stall_due = 0.0
        #: the peer half-closed; close once the buffer is served
        self.eof = False
        #: a first frame decoded (the peer speaks v2)
        self.decoded = False
        #: the armed call_at handle, if any (it may fall due before the
        #: current wait does, and then re-arms itself: _expire)
        self.timer = None
        #: what the connection waits on now, if anything, and its due time
        self.timer_for = None
        self.due = 0.0

    # -- asyncio.BufferedProtocol -------------------------------------------

    def connection_made(self, transport) -> None:
        self.transport = transport
        server = self.server
        if server._stopping or len(server._conns) >= server.max_connections:
            log.warning(
                "rejecting connection: %s",
                "shutting down" if server._stopping
                else "connection cap reached",
            )
            transport.write(self.enc.simple(_ERR, 0, b"busy"))
            transport.close()
            return
        server._next_conn_id += 1
        self.conn_id = server._next_conn_id
        server._conns.add(self)
        log.debug("connection %d opened", self.conn_id)
        # a peer that never sends a frame header must not hold its slot
        self._retime()

    def get_buffer(self, sizehint: int) -> memoryview:
        return self.frames.get_buffer(sizehint)

    def buffer_updated(self, nbytes: int) -> None:
        self.frames.buffer_updated(nbytes)
        if self.task is None and not self.paused:
            self._serve_buffered()
        elif self.frames.pending >= _READ_LIMIT:
            self.transport.pause_reading()

    def eof_received(self) -> bool:
        self.eof = True
        if self.task is None and not self.paused:
            self._close_at_eof()
        return True  # the transport stays open until the answers are out

    def connection_lost(self, exc) -> None:
        self._disarm()
        self.server._conns.discard(self)
        if self.conn_id:
            log.debug("connection %d closed", self.conn_id)

    def pause_writing(self) -> None:
        self.paused = True
        self.stall_due = self.loop.time() + self.server.request_timeout
        self._retime()

    def resume_writing(self) -> None:
        self.paused = False
        self.resume()

    # -- serving ------------------------------------------------------------

    def _serve_buffered(self) -> None:
        """Serve the buffered frames in order until one must wait."""
        server, frames, transport = self.server, self.frames, self.transport
        try:
            while (self.task is None and not self.paused
                   and not transport.is_closing()):
                frame = frames.next_frame()
                if frame is None:
                    break
                if not self.decoded:
                    self.decoded = True
                    server.record_connection(framed=True)
                if server._stopping:
                    transport.close()
                    break
                server._serve_frame(self, frame)
        except FrameError as exc:
            log.warning("connection %d: unframeable stream (%s), dropping",
                        self.conn_id, exc)
            if not self.decoded:
                server.record_connection(framed=False)
            transport.close()
            return
        if self.eof and self.task is None and not self.paused:
            self._close_at_eof()
        else:
            self._retime()

    def start_task(self, coro) -> None:
        """Answer a coroutine verb in a task; parsing waits for it."""
        self.task = asyncio.ensure_future(coro)
        self.task_due = self.loop.time() + self.server.request_timeout
        self.task_expired = False

    def resume(self) -> None:
        """Parsing may go on: the task answered or the peer reads again."""
        transport = self.transport
        if transport.is_closing():
            return
        transport.resume_reading()
        self._serve_buffered()

    def reply_error(self, seq: int, reason: bytes) -> None:
        """Answer request ``seq`` with ``ERR reason``, if still connected."""
        if not self.transport.is_closing():
            self.transport.write(self.enc.simple(_ERR, seq, reason))

    def _close_at_eof(self) -> None:
        """The peer half-closed and every whole frame is served: close."""
        if self.frames.pending:
            log.warning("connection %d: truncated frame at EOF, dropping",
                        self.conn_id)
            if not self.decoded:
                self.server.record_connection(framed=False)
        self.transport.close()

    # -- the connection's one timer -------------------------------------------

    def _retime(self) -> None:
        """Point the timer at what the connection now waits on, if anything.

        A running task's due time comes first (parsing, and so a task's
        start, never happens while writing is paused, so it is the
        earlier one); a pause keeps its due time through the task.  A
        header's due time counts from its first byte, however slowly the
        rest trickles in.
        """
        if self.task is not None:
            want, due = _TASK, self.task_due
        elif self.paused:
            want, due = _STALL, self.stall_due
        else:
            pending = self.frames.pending
            if pending < HEADER_SIZE and (pending or not self.decoded):
                want = _HEADER
                due = (self.due if self.timer_for == _HEADER else
                       self.loop.time() + self.server.request_timeout)
            else:
                want, due = None, 0.0
        self.timer_for, self.due = want, due
        if want is not None and self.timer is None:
            self.timer = self.loop.call_at(due, self._expire)

    def _disarm(self) -> None:
        if self.timer is not None:
            self.timer.cancel()
        self.timer = self.timer_for = None

    def _expire(self) -> None:
        self.timer = None
        want = self.timer_for
        if want is None:
            return  # the wait it was armed for ended in time
        if self.due > self.loop.time():
            # armed for an earlier wait that ended: time the current one
            self.timer = self.loop.call_at(self.due, self._expire)
            return
        self.timer_for = None
        timeout = self.server.request_timeout
        if want == _TASK:
            if self.task is not None:
                self.task_expired = True
                self.task.cancel()  # answered ERR timeout by the task
            return
        if want == _STALL:
            # close() would wait for the peer to read what is queued
            log.warning("connection %d: replies unread for %ss, dropping",
                        self.conn_id, timeout)
            self.transport.abort()
            return
        log.warning("connection %d: no frame header within %ss, dropping",
                    self.conn_id, timeout)
        if not self.decoded:
            self.server.record_connection(framed=False)
        self.transport.close()


async def run_server(server: CacheServer) -> None:
    """Start ``server`` and serve until cancelled, then stop gracefully."""
    await server.start()
    try:
        await server.serve_forever()
    finally:
        await server.stop()
