"""Frames served from the connection's buffer, on both ends.

The server parses every complete frame in ``data_received`` and answers
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

import pytest

from repro.obs.dist import TraceContext, wire_token
from repro.service import CacheClient, CacheServer, ShardedStore
from repro.service.protocol import (
    HEADER_SIZE,
    MAGIC,
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


def _fed(chunks):
    """The reply bytes a fresh server writes for ``chunks``, fed in order."""
    server = CacheServer(ShardedStore(num_shards=2, data_capacity=64), port=0)
    conn = _Connection(server)
    transport = _FakeTransport()
    conn.connection_made(transport)
    for chunk in chunks:
        conn.data_received(chunk)
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
            conn = _MuxConn()
            transport = _FakeTransport()
            conn.connection_made(transport)
            keys = [f"k{i}" for i in range(40)]
            calls = [asyncio.ensure_future(conn.call("GET", [key], None, 5.0))
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
                conn.data_received(chunk)
            frames = await asyncio.gather(*calls)
            assert [bytes(f.payload) for f in frames] == \
                [key.encode() * 3 for key in keys]
            assert conn.pending == {} and not conn.dead
        run(body())

    def test_busy_rejection_fails_every_caller_with_its_reason(self):
        async def body():
            conn = _MuxConn()
            conn.connection_made(_FakeTransport())
            call = asyncio.ensure_future(conn.call("PING", [], None, 5.0))
            await asyncio.sleep(0)
            conn.data_received(FrameEncoder().simple(
                STATUS_IDS["ERR"], 0, b"busy"))
            with pytest.raises(ConnectionError, match="rejected.*busy"):
                await call
            with pytest.raises(ConnectionError, match="busy"):
                await conn.call("PING", [], None, 5.0)
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
