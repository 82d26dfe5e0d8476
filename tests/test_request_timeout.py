"""Per-request timeouts of the cache server, on both framings.

A handler slower than ``request_timeout`` is answered ``ERR timeout``:
a v2 connection then serves its next frame, a v1 connection is dropped.
Either way the in-flight count returns to zero, and with tracing on no
trace context leaks from the cancelled handler into the next request.
"""

import asyncio

from repro.obs import Observability
from repro.obs.dist import TraceContext, current_context, wire_token
from repro.service import CacheServer, ShardedStore
from repro.service.protocol import (
    STATUS_NAMES,
    FrameEncoder,
    encode_request,
    read_frame,
)
from repro.service.server import wire_verb

#: server-side bound on every request in these tests
TIMEOUT_S = 0.2


def run(coro):
    """Drive one async test body (no pytest-asyncio in the toolchain)."""
    return asyncio.run(asyncio.wait_for(coro, 60))


class _SlowServer(CacheServer):
    """A GET of a key starting with ``slow`` outlives any request timeout.

    The slow GET touches the store first, so its admission decisions are
    recorded under its own request span before it stalls.  ``ambient``
    records the trace context each v2 frame is dispatched under: a
    request's context must never outlive it.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: the trace context active as each v2 frame is dispatched
        self.ambient = []

    async def _serve_v2_request(self, frame, *args):
        self.ambient.append(current_context())
        return await super()._serve_v2_request(frame, *args)

    @wire_verb("GET")
    async def _verb_get(self, key: str):
        if key.startswith("slow"):
            self.store.get(key)
            await asyncio.sleep(30)
        return await super()._verb_get(key)


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


class TestV1Timeout:
    def test_timed_out_request_gets_err_and_connection_closes(self):
        async def body():
            server = await _slow_server()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                writer.write(b"PING\n")
                assert await reader.readline() == b"PONG\n"
                writer.write(b"GET slow1\n")
                assert await reader.readline() == b"ERR timeout\n"
                assert await reader.read() == b""  # dropped
                assert await _settled(server) == 0
                writer.close()
                # the server itself is fine: a new connection is served
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                writer.write(b"GET k\n")
                assert await reader.readline() == b"MISS\n"
                writer.close()
            finally:
                await server.stop()
        run(body())

    def test_value_body_that_never_arrives_times_out(self):
        async def body():
            server = await _slow_server()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                writer.write(b"SET k 5\n")  # the 5 body bytes never come
                assert await reader.readline() == b"ERR timeout\n"
                assert await reader.read() == b""
                assert await _settled(server) == 0
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
