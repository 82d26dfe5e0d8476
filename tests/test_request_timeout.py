"""Per-request timeouts of the cache server and of the client transport.

A handler slower than ``request_timeout`` is answered with an
``ERR timeout`` frame and the connection serves its next frame.  The
in-flight count returns to zero, and with tracing on no trace context
leaks from the cancelled handler into the next request.  Each end times
its requests with its connection's one timer: the server's bounds the
task answering an awaiting verb, the client's every pipelined call.  A
cluster node's peer calls are timed by that client timer alone: one
attempt each, retried only by the node's own second round.
"""

import asyncio
import logging
import socket
from functools import partial

import pytest

from repro.cluster import ClusterNode, HashRing, InvalidationError
from repro.obs import Observability
from repro.obs.dist import TraceContext, current_context, wire_token
from repro.service import CacheServer, ShardedStore
from repro.service.protocol import (
    STATUS_NAMES,
    VERB_NAMES,
    FrameBuffer,
    FrameEncoder,
    Reply,
    encode_reply,
    encode_request,
    read_frame,
)
from repro.service.server import wire_verb
from repro.service.transport import Transport

#: server-side bound on every request in these tests
TIMEOUT_S = 0.2


def run(coro):
    """Drive one async test body (no pytest-asyncio in the toolchain)."""
    return asyncio.run(asyncio.wait_for(coro, 60))


class _SlowServer(CacheServer):
    """A GET of a key starting with ``slow`` outlives any request timeout.

    The slow GET touches the store first, so its admission decisions are
    recorded under its own request span before it stalls.  ``ambient``
    records the trace context each frame is dispatched under: a
    request's context must never outlive it.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: the trace context active as each frame is dispatched
        self.ambient = []

    def _serve_frame(self, conn, frame):
        self.ambient.append(current_context())
        return super()._serve_frame(conn, frame)

    @wire_verb("GET")
    async def _verb_get(self, key: str):
        if key.startswith("slow"):
            self.store.get(key)
            await asyncio.sleep(30)
        return super()._verb_get(key)


async def _slow_server(obs=None):
    server = _SlowServer(ShardedStore(num_shards=2, data_capacity=64),
                         port=0, request_timeout=TIMEOUT_S, obs=obs)
    await server.start()
    return server


async def _settled(server):
    """Wait (bounded) until the server has no request in flight."""
    for _ in range(200):
        if server.inflight == 0:
            return 0
        await asyncio.sleep(0.005)
    return server.inflight


def _frame(enc, verb, fields, seq, trace=None):
    token = wire_token(trace) if trace is not None else None
    return bytes(encode_request(enc, verb, fields, seq, token))


async def _replies(reader, n):
    """``n`` reply frames as ``(seq, status, payload)``."""
    out = []
    for _ in range(n):
        frame = await read_frame(reader)
        out.append((frame.seq, STATUS_NAMES[frame.verb_id],
                    bytes(frame.payload)))
    return out


class TestV2Timeout:
    def test_timed_out_frame_gets_err_and_connection_serves_next(self):
        async def body():
            server = await _slow_server()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                enc = FrameEncoder()
                # pipelined: the second frame waits behind the slow one
                writer.write(_frame(enc, "GET", ["slow1"], 1)
                             + _frame(enc, "GET", ["k"], 2))
                await writer.drain()
                assert await _replies(reader, 2) == [
                    (1, "ERR", b"timeout"), (2, "MISS", b"")]
                writer.write(_frame(enc, "PING", [], 3))
                await writer.drain()
                assert await _replies(reader, 1) == [(3, "PONG", b"")]
                assert await _settled(server) == 0
                writer.close()
            finally:
                await server.stop()
        run(body())

    def test_inflight_returns_to_zero_after_repeated_timeouts(self):
        async def body():
            server = await _slow_server()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                enc = FrameEncoder()
                writer.write(b"".join(
                    _frame(enc, "GET", [f"slow{i}"], i) for i in (1, 2, 3)))
                await writer.drain()
                replies = await _replies(reader, 3)
                assert [r[:2] for r in replies] == [
                    (1, "ERR"), (2, "ERR"), (3, "ERR")]
                assert await _settled(server) == 0
                # the timed-out requests were never answered, so never
                # counted as served
                snap = server.store.stats_snapshot()["total"]
                assert snap["latency_samples"] == 0
                writer.close()
            finally:
                await server.stop()
        run(body())


class TestTimeoutTracing:
    def test_next_request_gets_its_own_parent_span(self):
        async def body():
            obs = Observability.enabled(tracing=True, time_unit="s")
            server = await _slow_server(obs)
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                enc = FrameEncoder()
                slow_ctx = TraceContext("t-slow", "c-slow")
                next_ctx = TraceContext("t-next", "c-next")
                writer.write(_frame(enc, "GET", ["slow1"], 1, slow_ctx)
                             + _frame(enc, "GET", ["fresh"], 2, next_ctx)
                             + _frame(enc, "GET", ["plain"], 3))
                await writer.drain()
                replies = await _replies(reader, 3)
                assert [r[:2] for r in replies] == [
                    (1, "ERR"), (2, "MISS"), (3, "MISS")]
                writer.close()
            finally:
                await server.stop()
            assert server.ambient == [None, None, None]
            events = obs.tracer.events()
            spans = {ev.args["key"]: ev.args for ev in events
                     if ev.dur is not None and ev.name == "GET"}
            assert set(spans) == {"fresh", "plain"}  # slow1 never answered
            fresh, plain = spans["fresh"], spans["plain"]
            assert (fresh["trace"], fresh["parent"]) == ("t-next", "c-next")
            assert "parent" not in plain  # no caller context: a root span
            # every admission decision hangs off the request that made it
            leaves = {}
            for ev in events:
                if ev.dur is None:
                    leaves.setdefault(ev.args["key"], set()).add(
                        (ev.args.get("trace"), ev.args.get("parent")))
            assert leaves["fresh"] == {("t-next", fresh["span"])}
            assert leaves["plain"] == {(plain["trace"], plain["span"])}
            (slow_leaf,) = leaves["slow1"]
            assert slow_leaf[0] == "t-slow"
            assert slow_leaf[1] not in (fresh["span"], plain["span"])
        run(body())


def _count_call_at(loop):
    """Wrap ``loop.call_at``; returns the list of the callbacks armed
    (``del loop.call_at`` restores the loop's own)."""
    armed = []
    call_at = loop.call_at

    def counting_call_at(when, callback, *args, **kwargs):
        armed.append(callback)
        return call_at(when, callback, *args, **kwargs)

    loop.call_at = counting_call_at
    return armed


class _QuickServer(CacheServer):
    """GET awaits once before answering: every GET runs in a task."""

    @wire_verb("GET")
    async def _verb_get(self, key: str):
        await asyncio.sleep(0)
        return super()._verb_get(key)


class TestConnectionTimer:
    """The server connection's one timer bounds its awaiting task."""

    def test_pipelined_awaiting_requests_arm_no_timer_each(self):
        async def body():
            server = _QuickServer(ShardedStore(num_shards=2, data_capacity=64),
                                  port=0, request_timeout=5.0)
            await server.start()
            loop = asyncio.get_running_loop()
            armed = _count_call_at(loop)
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                enc = FrameEncoder()
                writer.write(b"".join(_frame(enc, "GET", [f"k{i}"], i)
                                      for i in range(1, 51)))
                await writer.drain()
                replies = await _replies(reader, 50)
                assert [r[:2] for r in replies] == [
                    (i, "MISS") for i in range(1, 51)]
                writer.close()
            finally:
                del loop.call_at
                await server.stop()
            # the first header's timer, still armed, timed every task
            assert len(armed) == 1
        run(body())

    def test_pause_and_resume_keep_the_tasks_due_time(self):
        async def body():
            server = await _slow_server()
            loop = asyncio.get_running_loop()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                writer.write(_frame(FrameEncoder(), "GET", ["slow1"], 1))
                await writer.drain()
                sent = loop.time()
                await asyncio.sleep(0.75 * TIMEOUT_S)
                (conn,) = server._conns
                due = conn.task_due
                conn.pause_writing()
                conn.resume_writing()
                assert (conn.timer_for, conn.due) == ("task", due)
                assert await _replies(reader, 1) == [(1, "ERR", b"timeout")]
                # restarted at the pause, it would answer at 1.75x
                assert loop.time() - sent < 1.5 * TIMEOUT_S
                writer.close()
            finally:
                await server.stop()
        run(body())

    def test_a_cancel_the_timer_did_not_make_propagates(self):
        async def body():
            server = await _slow_server()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                enc = FrameEncoder()
                writer.write(_frame(enc, "GET", ["slow1"], 1))
                await writer.drain()
                for _ in range(100):
                    if server.inflight:
                        break
                    await asyncio.sleep(0.005)
                (conn,) = server._conns
                task = conn.task
                task.cancel()
                await asyncio.sleep(0.01)
                assert task.cancelled()  # not turned into ERR timeout
                assert await _settled(server) == 0
                # the connection parses on; seq 1 is never answered
                writer.write(_frame(enc, "PING", [], 2))
                await writer.drain()
                assert await _replies(reader, 1) == [(2, "PONG", b"")]
                writer.close()
            finally:
                await server.stop()
        run(body())


#: client-side bound on every call in the tests below
CLIENT_TIMEOUT_S = 0.1


class _RawServer:
    """A bare asyncio server whose connections run ``handler``.

    ``close`` aborts every connection it accepted, so a handler that
    never answers or never reads leaves nothing open.
    """

    def __init__(self, handler):
        self.handler = handler
        self.writers = []
        self.release = None
        self.server = None
        self.port = None

    async def start(self):
        self.release = asyncio.Event()
        self.server = await asyncio.start_server(self._serve, "127.0.0.1", 0)
        self.port = self.server.sockets[0].getsockname()[1]
        return self

    async def _serve(self, reader, writer):
        self.writers.append(writer)
        await self.handler(reader, writer, self.release)

    async def close(self):
        self.release.set()
        for writer in self.writers:
            writer.transport.abort()
        self.server.close()
        await self.server.wait_closed()


async def _silent(reader, writer, release):
    """Read every request, answer none."""
    while await reader.read(65536):
        pass


async def _deaf(reader, writer, release):
    """Read nothing: the client's send window fills."""
    await release.wait()


async def _pong(reader, writer, release, late_first=False):
    """Answer every request PONG (with ``late_first``, the first one
    only after three client timeouts)."""
    frames, enc = FrameBuffer(), FrameEncoder()
    while True:
        data = await reader.read(65536)
        if not data:
            return
        frames.feed(data)
        frame = frames.next_frame()
        while frame is not None:
            if late_first:
                late_first = False
                await asyncio.sleep(3 * CLIENT_TIMEOUT_S)
            writer.write(bytes(encode_reply(enc, Reply("PONG"), frame.seq)))
            frame = frames.next_frame()


def _client(port, timeout=CLIENT_TIMEOUT_S):
    return Transport("127.0.0.1", port, max_retries=0, timeout=timeout)


class TestClientTimer:
    """The client connection's one timer bounds every pipelined call."""

    def test_pipelined_calls_to_a_silent_peer_time_out_together(self):
        calls = 50

        async def body():
            peer = await _RawServer(_silent).start()
            transport = _client(peer.port)
            loop = asyncio.get_running_loop()
            try:
                conn = await transport._dial()
                armed = _count_call_at(loop)
                try:
                    start = loop.time()
                    sent = [asyncio.ensure_future(transport.call(
                        "GET", f"k{i}")) for i in range(calls)]
                    await asyncio.sleep(0)  # every call has sent its frame
                    assert len(conn.pending) == calls
                    # one timer for the oldest call, not one per call
                    assert len(armed) == 1
                    results = await asyncio.gather(*sent,
                                                   return_exceptions=True)
                    elapsed = loop.time() - start
                finally:
                    del loop.call_at
                for result in results:
                    assert isinstance(result, ConnectionError)
                    assert isinstance(result.__cause__, asyncio.TimeoutError)
                assert elapsed < 2 * CLIENT_TIMEOUT_S
                assert conn.pending == {} and not conn.dead
            finally:
                await transport.close()
                await peer.close()
        run(body())

    def test_calls_answered_in_time_arm_one_timer(self):
        calls = 200

        async def body():
            peer = await _RawServer(_pong).start()
            transport = _client(peer.port, timeout=5.0)
            await transport._dial()
            loop = asyncio.get_running_loop()
            armed = _count_call_at(loop)
            try:
                for _ in range(4):
                    replies = await asyncio.gather(
                        *[transport.call("PING") for _ in range(calls // 4)])
                    assert {r.status for r in replies} == {"PONG"}
                assert transport._conn.pending == {}
            finally:
                del loop.call_at
                await transport.close()
                await peer.close()
            assert len(armed) == 1
        run(body())

    def test_a_late_reply_is_dropped_and_the_connection_serves_on(self):
        async def body():
            peer = await _RawServer(partial(_pong, late_first=True)).start()
            transport = _client(peer.port)
            try:
                with pytest.raises(ConnectionError, match="1 attempts"):
                    await transport.call("PING")
                conn = transport._conn
                # the late PONG arrives meanwhile, for an abandoned seq
                await asyncio.sleep(3 * CLIENT_TIMEOUT_S)
                assert conn.pending == {} and not conn.dead
                assert (await transport.call("PING")).status == "PONG"
                assert transport._conn is conn
            finally:
                await transport.close()
                await peer.close()
        run(body())

    def test_a_caller_parked_on_a_full_send_window_is_bounded(self):
        async def body():
            peer = await _RawServer(_deaf).start()
            transport = _client(peer.port)
            loop = asyncio.get_running_loop()
            try:
                conn = await transport._dial()
                start = loop.time()
                # far more than the socket buffers hold: writing pauses
                big = transport.call("SET", "big", b"x" * (8 << 20))
                small = transport.call("PING")
                results = await asyncio.gather(big, small,
                                               return_exceptions=True)
                elapsed = loop.time() - start
                assert conn.paused
                for result in results:
                    assert isinstance(result, ConnectionError)
                    assert isinstance(result.__cause__, asyncio.TimeoutError)
                assert elapsed < 2 * CLIENT_TIMEOUT_S
                # the callers' timeouts left the shared future standing
                assert conn.drained is not None and not conn.drained.done()
                assert conn.pending == {} and not conn.dead
            finally:
                await peer.close()
                await transport.close()
        run(body())


#: the cluster node's peer timeout in the tests below
PEER_TIMEOUT_S = 0.2


async def _recording(verbs, reader, writer, release):
    """Read every request and record its verb; answer none."""
    frames = FrameBuffer()
    while True:
        data = await reader.read(65536)
        if not data:
            return
        frames.feed(data)
        frame = frames.next_frame()
        while frame is not None:
            verbs.append(VERB_NAMES[frame.verb_id])
            frame = frames.next_frame()


def _owner(port):
    """A cluster node (not serving) whose one peer, ``holder``, is at
    ``port``."""
    node = ClusterNode("owner", ShardedStore(num_shards=1, data_capacity=64),
                       HashRing(), peer_timeout=PEER_TIMEOUT_S)
    node.connect_peer("holder", "127.0.0.1", port)
    return node


def _count_dials(loop):
    """Wrap ``loop.create_connection``; returns the list of dials made
    (``del loop.create_connection`` restores the loop's own)."""
    dials = []
    create_connection = loop.create_connection

    def counting(*args, **kwargs):
        dials.append(args[1:3])
        return create_connection(*args, **kwargs)

    loop.create_connection = counting
    return dials


class TestPeerCallTimer:
    """A node's peer call is one transport attempt under the client
    connection's one timer; the node's second round is the only retry."""

    def test_a_silent_holder_gets_one_inval_per_round(self):
        async def body():
            verbs = []
            holder = await _RawServer(partial(_recording, verbs)).start()
            node = _owner(holder.port)
            loop = asyncio.get_running_loop()
            try:
                start = loop.time()
                with pytest.raises(InvalidationError):
                    await node._invalidate("k", 1, ["holder"])
                elapsed = loop.time() - start
                await asyncio.sleep(0.01)  # the last frame has arrived
                assert verbs == ["INVAL", "INVAL"]
                assert elapsed < 3 * PEER_TIMEOUT_S
                assert node._pending_invals["k"] == {"holder"}
            finally:
                await node._peers["holder"].close()
                await holder.close()
        run(body())

    def test_concurrent_fanouts_to_a_silent_holder_share_the_timer(self):
        fanouts = 50

        async def body():
            holder = await _RawServer(_silent).start()
            node = _owner(holder.port)
            loop = asyncio.get_running_loop()
            try:
                conn = await node._peers["holder"].transport._dial()
                armed = _count_call_at(loop)
                try:
                    sent = asyncio.gather(
                        *[node._invalidate(f"k{i}", 1, ["holder"])
                          for i in range(fanouts)],
                        return_exceptions=True)
                    while len(conn.pending) < fanouts:
                        await asyncio.sleep(0)
                    # one timer for the oldest INVAL, not one per call
                    assert len(armed) == 1
                    results = await sent
                finally:
                    del loop.call_at
                for result in results:
                    assert isinstance(result, InvalidationError)
                assert all(node._pending_invals[f"k{i}"] == {"holder"}
                           for i in range(fanouts))
            finally:
                await node._peers["holder"].close()
                await holder.close()
        run(body())

    def test_a_refused_holder_fails_after_one_dial_per_round(self):
        async def body():
            # bound, never listening: every dial is refused
            with socket.socket() as sock:
                sock.bind(("127.0.0.1", 0))
                node = _owner(sock.getsockname()[1])
                loop = asyncio.get_running_loop()
                dials = _count_dials(loop)
                try:
                    start = loop.time()
                    with pytest.raises(InvalidationError):
                        await node._invalidate("k", 1, ["holder"])
                    elapsed = loop.time() - start
                finally:
                    del loop.create_connection
                    await node._peers["holder"].close()
                assert len(dials) == 2
                # no backoff: neither round waits for the timer
                assert elapsed < PEER_TIMEOUT_S
                assert node._pending_invals["k"] == {"holder"}
        run(body())

    def test_a_cancelled_fanout_parks_its_holders(self):
        # the request running the fan-out times out mid-round: the holder
        # was popped from the directory, so unparked nothing reaches it
        async def body():
            verbs = []
            holder = await _RawServer(partial(_recording, verbs)).start()
            node = _owner(holder.port)
            warnings = []
            handler = logging.Handler(logging.WARNING)
            handler.emit = warnings.append
            logger = logging.getLogger("repro.cluster.node")
            logger.addHandler(handler)
            try:
                task = asyncio.ensure_future(
                    node._invalidate("k", 1, ["holder"]))
                for _ in range(100):
                    if verbs:
                        break
                    await asyncio.sleep(0.005)
                assert verbs == ["INVAL"]
                task.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await task
                assert node._pending_invals["k"] == {"holder"}
                assert warnings == []  # a cancel is not an unacked retry
            finally:
                logger.removeHandler(handler)
                await node._peers["holder"].close()
                await holder.close()
        run(body())
