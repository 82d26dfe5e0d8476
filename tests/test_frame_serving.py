"""Frames served from the connection's buffer, on both ends.

Both ends receive into their connection's one reused ``FrameBuffer``
(``get_buffer``/``buffer_updated``), so a socket read allocates nothing.
The server parses every complete frame in ``buffer_updated`` and answers
plain-``def`` verbs inline; a coroutine verb runs in a task and holds
the connection's parsing until it answers.  The client's ``_MuxConn``
resolves each caller's future as its reply frame is parsed.  These
tests pin that the cut of the byte stream never changes what is
answered, that replies keep request order, and that a peer can hold a
connection slot neither with a stalled frame header nor by not reading
its replies.
"""

import asyncio
import random
import socket
import tracemalloc

import pytest

from repro.obs.dist import TraceContext, wire_token
from repro.service import CacheClient, CacheServer, ShardedStore
from repro.service.protocol import (
    HEADER_SIZE,
    MAGIC,
    RECV_BUFFER_BYTES,
    STATUS_IDS,
    STATUS_NAMES,
    FrameBuffer,
    FrameEncoder,
    FrameError,
    Reply,
    encode_reply,
    encode_request,
    read_frame,
)
from repro.service.server import _Connection, wire_verb
from repro.service.transport import _MuxConn


def run(coro):
    """Drive one async test body (no pytest-asyncio in the toolchain)."""
    return asyncio.run(asyncio.wait_for(coro, 60))


class _FakeTransport(asyncio.Transport):
    """Collects what a protocol writes; never pauses, never closes alone."""

    def __init__(self):
        super().__init__()
        self.out = bytearray()
        self.closing = False

    def write(self, data):
        self.out += data

    def is_closing(self):
        return self.closing

    def close(self):
        self.closing = True

    def abort(self):
        self.closing = True

    def pause_reading(self):
        pass

    def resume_reading(self):
        pass


def _store_burst():
    """A pipelined burst of every store verb; one frame carries a trace."""
    enc = FrameEncoder()
    trace = wire_token(TraceContext("t-burst", "s-burst"))
    frames = [
        encode_request(enc, "GET", ["a"], 1),
        encode_request(enc, "SET", ["a", b"va"], 2, trace),
        encode_request(enc, "GET", ["a"], 3),
        encode_request(enc, "SET", ["a", b"va" * 300], 4),
        encode_request(enc, "GET", ["a"], 5),
        encode_request(enc, "MGET", [["a", "b", "c"]], 6),
        encode_request(enc, "MSET", [[("b", b"vb"), ("c", b"")]], 7),
        encode_request(enc, "MSET", [[("b", b"vb"), ("c", b"")]], 8),
        encode_request(enc, "MGET", [["a", "b", "c"]], 9),
        encode_request(enc, "DEL", ["a"], 10),
        encode_request(enc, "MDEL", [["a", "b", "zz"]], 11),
        encode_request(enc, "PING", [], 12),
        encode_request(enc, "MGET", [["a", "b", "c"]], 13),
    ]
    return b"".join(frames)


def _cuts(rng, data):
    """``data`` in seeded random chunks, 1-byte chunks included."""
    chunks, pos = [], 0
    while pos < len(data):
        size = rng.choice((1, 1, 2, 5, 11, 12, 13, 40, 300))
        chunks.append(data[pos:pos + size])
        pos += size
    return chunks


def _receive(protocol, data):
    """Hand ``data`` to a buffered protocol as asyncio's socket reads do:
    copied into the view ``get_buffer`` returns, then ``buffer_updated``."""
    data = memoryview(data)
    while data:
        free = protocol.get_buffer(-1)
        assert len(free), "get_buffer returned an empty view"
        n = min(len(free), len(data))
        free[:n] = data[:n]
        protocol.buffer_updated(n)
        data = data[n:]


def _fed(chunks):
    """The reply bytes a fresh server writes for ``chunks``, read in order."""
    server = CacheServer(ShardedStore(num_shards=2, data_capacity=64), port=0)
    conn = _Connection(server)
    transport = _FakeTransport()
    conn.connection_made(transport)
    for chunk in chunks:
        _receive(conn, chunk)
    conn.connection_lost(None)
    return bytes(transport.out)


def _replies(data):
    frames, out = FrameBuffer(), []
    frames.feed(data)
    frame = frames.next_frame()
    while frame is not None:
        out.append((frame.seq, STATUS_NAMES[frame.verb_id]))
        frame = frames.next_frame()
    assert frames.pending == 0
    return out


class TestFrameBuffer:
    def test_frames_come_out_whole_however_the_bytes_are_cut(self):
        data = _store_burst()
        whole = FrameBuffer()
        whole.feed(data)
        expected = []
        frame = whole.next_frame()
        while frame is not None:
            expected.append((frame.verb_id, frame.flags, frame.seq,
                             frame.payload))
            frame = whole.next_frame()
        for seed in range(5):
            frames, got = FrameBuffer(), []
            for chunk in _cuts(random.Random(seed), data):
                frames.feed(chunk)
                frame = frames.next_frame()
                while frame is not None:
                    assert type(frame.payload) is bytes
                    got.append((frame.verb_id, frame.flags, frame.seq,
                                frame.payload))
                    frame = frames.next_frame()
            assert got == expected
            assert frames.pending == 0

    def test_a_bad_header_fails_before_its_payload_arrives(self):
        frames = FrameBuffer()
        frames.feed(bytes([MAGIC, 1]) + bytes(HEADER_SIZE - 2))
        with pytest.raises(FrameError, match="version"):
            frames.next_frame()
        oversized = FrameBuffer(max_payload=8)
        raw = encode_request(FrameEncoder(), "GET", ["k" * 20], 1)
        oversized.feed(raw[:HEADER_SIZE])
        with pytest.raises(FrameError, match="too large"):
            oversized.next_frame()

    def test_an_oversized_length_fails_without_growing_the_buffer(self):
        frames = FrameBuffer(max_payload=RECV_BUFFER_BYTES * 4)
        frame = encode_request(FrameEncoder(), "SET",
                               ["k", bytes(RECV_BUFFER_BYTES * 4)], 1)
        frames.feed(frame[:HEADER_SIZE])
        with pytest.raises(FrameError, match="too large"):
            frames.next_frame()
        # a full buffer whose header nobody parsed: get_buffer checks it
        # before it would grow
        frames = FrameBuffer(max_payload=RECV_BUFFER_BYTES * 2)
        frames.feed(frame[:RECV_BUFFER_BYTES])
        with pytest.raises(FrameError, match="too large"):
            frames.get_buffer()
        assert len(frames._buf) == RECV_BUFFER_BYTES

    def test_get_buffer_never_returns_an_empty_view(self):
        big = encode_request(FrameEncoder(), "SET",
                             ["k", bytes(3 * RECV_BUFFER_BYTES)], 1)
        # a partial frame fills the whole buffer, parsed or not
        for parse in (True, False):
            frames = FrameBuffer()
            frames.feed(big[:RECV_BUFFER_BYTES])
            if parse:
                assert frames.next_frame() is None
            assert frames.pending == RECV_BUFFER_BYTES
            free = frames.get_buffer()
            assert len(free) == len(big) - RECV_BUFFER_BYTES
            free[:] = big[RECV_BUFFER_BYTES:]
            frames.buffer_updated(len(free))
            assert len(frames.get_buffer()) > 0
            assert frames.next_frame().payload == big[HEADER_SIZE:]
            # drained: back to its initial size
            assert len(frames.get_buffer()) == RECV_BUFFER_BYTES
        # whole frames fill the buffer, the last of them cut at each
        # offset, taken or not: the buffer is reset, compacted or grown
        enc = FrameEncoder()
        small = encode_request(enc, "GET", ["k"], 2)
        for pad in range(len(small)):
            burst = (encode_request(enc, "GET", ["k" * (1 + pad)], 1)
                     + small * (RECV_BUFFER_BYTES // len(small)))
            for parse in (True, False):
                frames = FrameBuffer()
                frames.feed(burst[:RECV_BUFFER_BYTES])
                while parse and frames.next_frame() is not None:
                    pass
                assert len(frames.get_buffer()) > 0

    def test_a_partial_frame_is_pending(self):
        raw = encode_request(FrameEncoder(), "SET", ["k", b"v" * 50], 1)
        frames = FrameBuffer()
        frames.feed(raw[:5])
        assert frames.next_frame() is None and frames.pending == 5
        frames.feed(raw[5:HEADER_SIZE + 1])
        assert frames.next_frame() is None
        assert frames.pending == HEADER_SIZE + 1
        frames.feed(raw[HEADER_SIZE + 1:] + raw[:3])
        assert frames.next_frame().seq == 1
        assert frames.pending == 3


class TestServerParsing:
    def test_chunked_burst_is_answered_byte_for_byte_as_a_whole_one(self):
        async def body():
            data = _store_burst()
            whole = _fed([data])
            assert [seq for seq, _ in _replies(whole)] == list(range(1, 14))
            for seed in range(4):
                assert _fed(_cuts(random.Random(seed), data)) == whole
            assert _fed([data[i:i + 1] for i in range(len(data))]) == whole
            for cut in range(1, len(data)):
                assert _fed([data[:cut], data[cut:]]) == whole
        run(body())


class _AwaitingPingServer(CacheServer):
    """PING awaits before it answers: a coroutine verb, served in a task."""

    @wire_verb("PING")
    async def _verb_ping(self):
        await asyncio.sleep(0.05)
        return super()._verb_ping()


class TestReplyOrder:
    def test_an_awaiting_verb_holds_the_frames_behind_it(self):
        async def body():
            server = _AwaitingPingServer(
                ShardedStore(num_shards=2, data_capacity=64), port=0)
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                enc = FrameEncoder()
                writer.write(encode_request(enc, "GET", ["a"], 1)
                             + encode_request(enc, "PING", [], 2)
                             + encode_request(enc, "GET", ["b"], 3)
                             + encode_request(enc, "GET", ["c"], 4))
                await writer.drain()
                got = []
                for _ in range(4):
                    frame = await read_frame(reader)
                    got.append((frame.seq, STATUS_NAMES[frame.verb_id]))
                assert got == [(1, "MISS"), (2, "PONG"), (3, "MISS"),
                               (4, "MISS")]
                writer.close()
            finally:
                await server.stop()
        run(body())


class TestClientParsing:
    def test_split_interleaved_replies_reach_their_own_callers(self):
        async def body():
            conn = _MuxConn(timeout=5.0)
            transport = _FakeTransport()
            conn.connection_made(transport)
            keys = [f"k{i}" for i in range(40)]
            calls = [asyncio.ensure_future(conn.call("GET", [key], None))
                     for key in keys]
            await asyncio.sleep(0)  # every call has written its frame
            sent = FrameBuffer()
            sent.feed(bytes(transport.out))
            seq_of = {}
            frame = sent.next_frame()
            while frame is not None:
                seq_of[frame.payload[2:].decode()] = frame.seq
                frame = sent.next_frame()
            assert sorted(seq_of) == sorted(keys)
            rng = random.Random(7)
            order = list(keys)
            rng.shuffle(order)
            enc = FrameEncoder()
            # a late reply to an abandoned seq is dropped on arrival
            burst = encode_reply(enc, Reply("MISS"), 0xFFFF)
            for key in order:
                burst += encode_reply(enc, Reply("VALUE", key.encode() * 3),
                                      seq_of[key])
            for chunk in _cuts(rng, burst):
                _receive(conn, chunk)
            frames = await asyncio.gather(*calls)
            assert [bytes(f.payload) for f in frames] == \
                [key.encode() * 3 for key in keys]
            assert conn.pending == {} and not conn.dead
        run(body())

    def test_busy_rejection_fails_every_caller_with_its_reason(self):
        async def body():
            conn = _MuxConn(timeout=5.0)
            conn.connection_made(_FakeTransport())
            call = asyncio.ensure_future(conn.call("PING", [], None))
            await asyncio.sleep(0)
            _receive(conn, FrameEncoder().simple(
                STATUS_IDS["ERR"], 0, b"busy"))
            with pytest.raises(ConnectionError, match="rejected.*busy"):
                await call
            with pytest.raises(ConnectionError, match="busy"):
                await conn.call("PING", [], None)
        run(body())


class TestReceiveBuffers:
    def test_a_socket_read_allocates_no_read_sized_buffer(self):
        # asyncio reads a plain Protocol's socket into a fresh 256 KiB
        # bytes object per read; a BufferedProtocol reads into its own
        async def body():
            server = CacheServer(ShardedStore(num_shards=2, data_capacity=64),
                                 port=0)
            await server.start()
            client = CacheClient("127.0.0.1", server.port)
            try:
                assert await client.ping()  # both ends' buffers exist
                tracemalloc.reset_peak()
                start = tracemalloc.get_traced_memory()[0]
                for i in range(200):
                    await client.set(f"k{i}", b"v" * 100)
                    await client.get(f"k{i}")
                return tracemalloc.get_traced_memory()[1] - start
            finally:
                await client.close()
                await server.stop()

        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            growth = run(body())
        finally:
            if not tracing:
                tracemalloc.stop()
        assert growth < 128 * 1024

    def test_a_1_mib_value_grows_both_buffers_and_round_trips(self):
        value = random.Random(1).randbytes(1 << 20)

        async def body():
            server = CacheServer(ShardedStore(num_shards=2, data_capacity=64,
                                              admission="always"), port=0)
            await server.start()
            client = CacheClient("127.0.0.1", server.port)
            try:
                assert await client.set("big", value)
                (conn,) = server._conns
                assert len(conn.frames._buf) > len(value)
                assert await client.get("big") == value
                mux = client.transport._conn
                assert len(mux.frames._buf) > len(value)
                # drained, each end's next read goes back to the small buffer
                assert await client.ping()
                assert len(conn.frames._buf) == RECV_BUFFER_BYTES
                assert len(mux.frames._buf) == RECV_BUFFER_BYTES
            finally:
                await client.close()
                await server.stop()
        run(body())


class TestSlotHolders:
    def test_a_stalled_second_header_drops_the_connection(self):
        async def body():
            server = CacheServer(ShardedStore(num_shards=2, data_capacity=64),
                                 port=0, max_connections=1,
                                 request_timeout=0.2)
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                enc = FrameEncoder()
                writer.write(encode_request(enc, "GET", ["k"], 1))
                await writer.drain()
                reply = await read_frame(reader)
                assert (reply.seq, STATUS_NAMES[reply.verb_id]) == (1, "MISS")
                writer.write(encode_request(enc, "GET", ["k"], 2)[:5])
                await writer.drain()
                await asyncio.sleep(1.0)
                client = CacheClient("127.0.0.1", server.port, max_retries=0)
                try:
                    assert await client.ping()
                finally:
                    await client.close()
                assert await reader.read() == b""  # dropped, unanswered
                # the first frame decoded: not counted as a non-v2 peer
                assert (server.connections_v2, server.connections_v1) == (2, 0)
                writer.close()
            finally:
                await server.stop()
        run(body())

    def test_a_peer_that_never_reads_its_replies_is_dropped(self):
        async def body():
            server = CacheServer(ShardedStore(num_shards=2, data_capacity=64),
                                 port=0, max_connections=1,
                                 request_timeout=0.2)
            await server.start()
            try:
                # a small receive window, so the replies back up into the
                # server instead of into this host's socket buffers
                sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
                sock.setblocking(False)
                await asyncio.get_running_loop().sock_connect(
                    sock, ("127.0.0.1", server.port))
                reader, writer = await asyncio.open_connection(sock=sock)
                stats = encode_request(FrameEncoder(), "STATS", [], 1)
                # thousands of ~1 KB STATS replies, none of them read
                writer.write(stats * 3000)
                await writer.drain()
                await asyncio.sleep(2.0)
                client = CacheClient("127.0.0.1", server.port, max_retries=0)
                try:
                    assert await client.ping()
                finally:
                    await client.close()
                assert server.inflight == 0
                writer.close()
            finally:
                await server.stop()
        run(body())


class TestInTaskServing:
    def test_pipelined_requests_create_no_task_per_request(self):
        requests = 64

        async def body():
            server = CacheServer(ShardedStore(num_shards=2, data_capacity=64),
                                 port=0)
            await server.start()
            loop = asyncio.get_running_loop()
            created = []

            def counting_factory(loop, coro, **kwargs):
                created.append(coro)
                return asyncio.Task(coro, loop=loop, **kwargs)

            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                enc = FrameEncoder()
                writer.write(bytes(encode_request(enc, "PING", [], 0)))
                await writer.drain()
                await read_frame(reader)  # the connection task is running
                loop.set_task_factory(counting_factory)
                try:
                    writer.write(b"".join(
                        bytes(encode_request(enc, "GET", [f"k{i}"], i))
                        for i in range(1, requests + 1)))
                    await writer.drain()
                    seen = []
                    for _ in range(requests):
                        frame = await read_frame(reader)
                        seen.append((frame.seq, STATUS_NAMES[frame.verb_id]))
                finally:
                    loop.set_task_factory(None)
                assert seen == [(i, "MISS") for i in range(1, requests + 1)]
                assert created == []
                writer.close()
            finally:
                await server.stop()
        run(body())
