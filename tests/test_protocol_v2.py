"""Tests for the v2 wire protocol: codec, framing fuzz cases, the
transport's one connection, pipelining, batch verbs, and conformance of
every spec verb against a cache server and a cluster node."""

import asyncio
import json
import struct

import pytest

from repro.cluster.local import LocalCluster
from repro.cluster.node import PeerClient
from repro.devtools.flow.protocol_spec import SPEC
from repro.obs.dist import TraceContext
from repro.service import CacheClient, CacheServer, ServerError, ShardedStore
from repro.service.protocol import (
    FLAG_TRACE,
    HEADER_SIZE,
    MAGIC,
    MAX_BATCH_ITEMS,
    MAX_FRAME_PAYLOAD,
    MAX_VALUE_BYTES,
    REQUEST_FIELDS,
    STATUS_IDS,
    STATUS_NAMES,
    VERB_IDS,
    VERB_NAMES,
    VERSION,
    FieldError,
    FrameBuffer,
    FrameEncoder,
    FrameError,
    Reply,
    decode_flags,
    decode_request_fields,
    decode_trace,
    decode_values,
    encode_reply,
    encode_request,
    read_frame,
)
from repro.service.transport import Transport


def run(coro):
    """Drive one async test body (no pytest-asyncio in the toolchain)."""
    return asyncio.run(asyncio.wait_for(coro, 60))


def feed(*chunks, eof=True):
    """A StreamReader pre-loaded with ``chunks``."""
    reader = asyncio.StreamReader()
    for chunk in chunks:
        reader.feed_data(chunk)
    if eof:
        reader.feed_eof()
    return reader


async def _started_server(max_connections=256, **kwargs):
    kwargs.setdefault("num_shards", 2)
    kwargs.setdefault("data_capacity", 64)
    store = ShardedStore(**kwargs)
    server = CacheServer(store, port=0, max_connections=max_connections)
    await server.start()
    return server


# ---------------------------------------------------------------------------
# codec round-trips
# ---------------------------------------------------------------------------


SAMPLE_FIELDS = {
    "key": "line:deadbeef",
    "peer": "127.0.0.1:7070",
    "value": b"\x00\x01payload",
    "version": 2 ** 40 + 7,
    "keys": ["a", "b", "c"],
    "items": [("a", b"1"), ("b", b"")],
}


class TestCodecRoundtrip:
    def test_every_verb_roundtrips(self):
        async def body():
            enc = FrameEncoder()
            for verb, kinds in REQUEST_FIELDS.items():
                fields = [SAMPLE_FIELDS[k] for k in kinds]
                raw = encode_request(enc, verb, fields, seq=17)
                frame = await read_frame(feed(raw))
                assert frame.verb_id == VERB_IDS[verb]
                assert frame.seq == 17
                assert decode_request_fields(
                    verb, frame.flags, frame.payload) == (None, fields)
        run(body())

    def test_trace_token_roundtrips(self):
        async def body():
            enc = FrameEncoder()
            raw = encode_request(
                enc, "GET", ["k"], seq=1, trace="T=abc123/0007"
            )
            frame = await read_frame(feed(raw))
            assert frame.flags & FLAG_TRACE
            assert decode_trace(frame.payload) == ("T=abc123/0007", 15)
            assert decode_request_fields("GET", frame.flags, frame.payload) \
                == ("T=abc123/0007", ["k"])
        run(body())

    def test_encoder_buffer_reuse_is_clean(self):
        # a short frame after a long one must not leak stale bytes
        async def body():
            enc = FrameEncoder()
            encode_request(enc, "SET", ["k", b"x" * 4096], seq=1)
            raw = encode_request(enc, "GET", ["k"], seq=2)
            frame = await read_frame(feed(raw))
            assert frame.payload == b"\x00\x01k"
            assert decode_request_fields("GET", frame.flags, frame.payload) \
                == (None, ["k"])
        run(body())

    def test_clean_eof_returns_none(self):
        async def body():
            assert await read_frame(feed(b"")) is None
        run(body())

    def test_status_names_cover_ids(self):
        assert set(STATUS_NAMES) == set(STATUS_IDS.values())

    def test_retired_handshake_id_stays_unused(self):
        assert 1 not in VERB_NAMES and 1 not in STATUS_NAMES


# ---------------------------------------------------------------------------
# framing fuzz: truncation, corruption, oversize
# ---------------------------------------------------------------------------


class TestFramingErrors:
    def _whole(self):
        return FrameEncoder().simple(
            VERB_IDS["SET"], 3, b"\x00\x01k\x00\x00\x00\x01v"
        )

    def test_every_truncation_point_raises(self):
        async def body():
            raw = self._whole()
            for cut in range(1, len(raw)):
                with pytest.raises(FrameError):
                    await read_frame(feed(raw[:cut]))
        run(body())

    def test_bad_magic_raises(self):
        async def body():
            raw = bytearray(self._whole())
            raw[0] = 0x41  # 'A' — looks like a v1 line
            with pytest.raises(FrameError, match="bad magic"):
                await read_frame(feed(bytes(raw)))
        run(body())

    def test_bad_version_raises(self):
        async def body():
            raw = bytearray(self._whole())
            raw[1] = VERSION + 1
            with pytest.raises(FrameError, match="version"):
                await read_frame(feed(bytes(raw)))
        run(body())

    def test_oversized_payload_is_rejected_without_reading_it(self):
        async def body():
            header = struct.pack(
                ">BBBBII", MAGIC, VERSION, VERB_IDS["SET"], 0, 1,
                MAX_FRAME_PAYLOAD + 1,
            )
            with pytest.raises(FrameError, match="too large"):
                await read_frame(feed(header, eof=False))
        run(body())

    def test_payload_truncated_mid_field_is_field_error(self):
        async def body():
            enc = FrameEncoder()
            raw = encode_request(enc, "SET", ["k", b"vvvv"], seq=1)
            # keep the frame boundary intact but lie about a field length
            body_bytes = bytearray(raw)
            # key u16 length claims more bytes than the payload holds
            struct.pack_into(">H", body_bytes, HEADER_SIZE, 0x4000)
            frame = await read_frame(feed(bytes(body_bytes)))
            with pytest.raises(FieldError):
                decode_request_fields("SET", frame.flags, frame.payload)
        run(body())

    def test_batch_over_cap_is_field_error(self):
        enc = FrameEncoder()
        with pytest.raises(FieldError, match="batch too large"):
            encode_request(
                enc, "MGET", [["k"] * (MAX_BATCH_ITEMS + 1)], seq=1
            )

    @pytest.mark.parametrize("verb, field", [
        ("MGET", ["a", "", "line:\u00e9"]),
        ("MSET", [("a", b"1"), ("", b""), ("line:\u00e9", b"xyz")]),
    ])
    def test_every_truncation_of_a_batch_request_is_field_error(
            self, verb, field):
        payload = encode_request(FrameEncoder(), verb, [field], 1)[HEADER_SIZE:]
        assert decode_request_fields(verb, 0, payload) == (None, [field])
        for cut in range(len(payload)):
            with pytest.raises(FieldError):
                decode_request_fields(verb, 0, payload[:cut])

    @pytest.mark.parametrize("reply", [
        Reply("VALUES", values=[b"1", None, b"", b"xyz"]),
        Reply("STATUSES", values=[True, False, True]),
    ])
    def test_every_truncation_of_a_batch_reply_is_field_error(self, reply):
        raw = encode_reply(FrameEncoder(), reply, 1)
        status_id, payload = raw[2], raw[HEADER_SIZE:]
        transport = Transport()
        got = transport._reply(status_id, payload)
        assert got.values == reply.values
        for cut in range(len(payload)):
            with pytest.raises(FieldError):
                transport._reply(status_id, payload[:cut])

    def test_non_utf8_key_in_a_batch_is_field_error(self):
        bad = struct.pack(">H", 2) + b"\xff\xfe"
        mget = struct.pack(">I", 2) + struct.pack(">H", 1) + b"a" + bad
        with pytest.raises(FieldError, match="utf-8"):
            decode_request_fields("MGET", 0, mget)
        mset = struct.pack(">I", 1) + bad + struct.pack(">I", 1) + b"v"
        with pytest.raises(FieldError, match="utf-8"):
            decode_request_fields("MSET", 0, mset)

    def test_over_cap_reply_value_is_rejected_before_reading_it(self):
        # the length alone decides: no value bytes follow it
        payload = struct.pack(">IBI", 1, 1, MAX_VALUE_BYTES + 1)
        with pytest.raises(FieldError, match="value too large"):
            Transport()._reply(STATUS_IDS["VALUES"], payload)

    def test_pipelined_frames_split_across_reads(self):
        async def body():
            enc = FrameEncoder()
            raws = [
                encode_request(enc, "GET", [f"k{i}"], seq=i)
                for i in range(4)
            ]
            stream = b"".join(raws)
            # split at awkward boundaries: mid-header and mid-payload
            cuts = [3, HEADER_SIZE + 1, len(raws[0]) + 5, len(stream) - 2]
            chunks, prev = [], 0
            for cut in cuts:
                chunks.append(stream[prev:cut])
                prev = cut
            chunks.append(stream[prev:])
            reader = feed(*chunks)
            for i in range(4):
                frame = await read_frame(reader)
                assert frame.seq == i
                assert decode_request_fields(
                    "GET", frame.flags, frame.payload) == (None, [f"k{i}"])
            assert await read_frame(reader) is None
        run(body())


#: one request per verb: (verb, fields), SAMPLE_FIELDS per REQUEST_FIELDS
SAMPLE_REQUESTS = [
    (verb, [SAMPLE_FIELDS[kind] for kind in kinds])
    for verb, kinds in REQUEST_FIELDS.items()
]
TOKEN = "T=abc123/0007"


class TestFieldDecoding:
    """Requests decode in place, within their bounds, from any buffer."""

    def test_fields_decode_in_order_within_their_bounds(self):
        # every verb, with and without a trace token, decoded where the
        # frame buffer holds it, between other frames and their bytes
        enc = FrameEncoder()
        frames = FrameBuffer()
        expected = []
        for seq, (verb, fields) in enumerate(SAMPLE_REQUESTS * 2, 1):
            token = TOKEN if seq % 2 else None
            frames.feed(encode_request(enc, verb, fields, seq, token))
            expected.append((verb, token, fields))
        for verb, token, fields in expected:
            verb_id, flags, _, start, stop = frames.next_header()
            assert verb_id == VERB_IDS[verb]
            assert bool(flags & FLAG_TRACE) == (token is not None)
            assert decode_request_fields(
                verb, flags, frames.buf, start, stop) == (token, fields)
            # the same payload, copied out or left in a bytearray
            payload = bytes(frames.buf[start:stop])
            for buf in (payload, bytearray(payload)):
                got_token, got = decode_request_fields(verb, flags, buf)
                assert (got_token, got) == (token, fields)
                assert all(type(v) is bytes for v in got
                           if not isinstance(v, (str, int, list)))
        assert frames.next_header() is None and frames.pending == 0

    def test_every_truncation_of_every_request_is_field_error(self):
        # cut anywhere inside its payload, with the next frame's bytes
        # right behind the cut: never IndexError or struct.error
        enc = FrameEncoder()
        for verb, fields in SAMPLE_REQUESTS:
            for token in (None, TOKEN):
                raw = encode_request(enc, verb, fields, 1, token)
                flags, payload = raw[3], raw[HEADER_SIZE:]
                trailer = encode_request(enc, "SET", ["k", b"\xff" * 40], 2)
                for cut in range(len(payload)):
                    buf = bytearray(b"\x07" * 5 + payload[:cut] + trailer)
                    with pytest.raises(FieldError):
                        decode_request_fields(verb, flags, buf, 5, 5 + cut)

    def test_non_utf8_strings_are_field_errors(self):
        bad = struct.pack(">H", 2) + b"\xff\xfe"
        for verb, payload in (
                ("GET", bad),
                ("PUTS", struct.pack(">H", 1) + b"k" + bad),
                ("MGET", struct.pack(">I", 1) + bad),
                ("MSET", struct.pack(">I", 1) + bad + struct.pack(">I", 0))):
            with pytest.raises(FieldError, match="string field not utf-8"):
                decode_request_fields(verb, 0, payload)
        with pytest.raises(FieldError, match="trace token not utf-8"):
            decode_request_fields("GET", FLAG_TRACE, bad + bad)
        with pytest.raises(FieldError, match="trace token not utf-8"):
            decode_trace(bad)

    def test_over_cap_values_are_rejected_before_they_are_read(self):
        over = struct.pack(">I", MAX_VALUE_BYTES + 1)
        key = struct.pack(">H", 1) + b"k"
        for verb, payload in (
                ("SET", key + over),
                ("REPL", key + struct.pack(">Q", 3) + over),
                ("MSET", struct.pack(">I", 1) + key + over)):
            with pytest.raises(FieldError, match="value too large"):
                decode_request_fields(verb, 0, payload)
        with pytest.raises(FieldError, match="value too large"):
            decode_values(struct.pack(">IB", 1, 1) + over)

    def test_batch_count_over_cap_is_field_error(self):
        over = struct.pack(">I", MAX_BATCH_ITEMS + 1)
        for verb in ("MGET", "MSET", "MDEL"):
            with pytest.raises(FieldError, match="batch too large"):
                decode_request_fields(verb, 0, over)
        for decode in (decode_values, decode_flags):
            with pytest.raises(FieldError, match="batch too large"):
                decode(over)


class TestPayloadReader:
    """A payload is read field by field, each field starting where the
    last one stopped, and never past the payload's end."""

    def test_reads_are_sequential_and_bounded(self):
        payload = (struct.pack(">H", 1) + b"k" + struct.pack(">Q", 9)
                   + struct.pack(">I", 2) + b"vv")
        buf = b"\x07" * 3 + payload + b"\x07" * 3
        start, stop = 3, 3 + len(payload)
        assert decode_request_fields("REPL", 0, buf, start, stop) == (
            None, ["k", 9, b"vv"])
        # INVAL's key and version end where REPL's value starts
        assert decode_request_fields("INVAL", 0, buf, start, stop - 6) == (
            None, ["k", 9])
        # the bytes past ``stop`` are never read into a field
        for verb, cut in (("REPL", stop - 1), ("REPL", stop - 6),
                          ("INVAL", stop - 7)):
            with pytest.raises(FieldError):
                decode_request_fields(verb, 0, buf, start, cut)

    def test_batch_reads_continue_where_they_stop(self):
        enc = FrameEncoder()
        enc.begin(0, 0)
        enc.set_trace(TOKEN)
        enc.put_keys(["a", "bc"])
        enc.put_items([("d", b"e")])
        raw = enc.finish()
        flags = raw[3]
        payload = raw[HEADER_SIZE:] + struct.pack(">H", 1) + b"k" + \
            struct.pack(">Q", 9)
        token, pos = decode_trace(payload)
        assert token == TOKEN
        keys_end = pos + 4 + (2 + 1) + (2 + 2)
        items_end = keys_end + 4 + (2 + 1) + (4 + 1)
        assert decode_request_fields("MGET", flags, payload, 0, keys_end) == (
            TOKEN, [["a", "bc"]])
        assert decode_request_fields("MSET", 0, payload, keys_end,
                                     items_end) == (None, [[("d", b"e")]])
        assert decode_request_fields("INVAL", 0, payload, items_end) == (
            None, ["k", 9])
        assert items_end + 3 + 8 == len(payload)


# ---------------------------------------------------------------------------
# the transport's one connection
# ---------------------------------------------------------------------------


async def _settled(server, connections):
    """Wait (bounded) until the server holds ``connections`` open."""
    for _ in range(200):
        if server.connections == connections:
            return
        await asyncio.sleep(0.005)


class TestTransport:
    def test_concurrent_first_calls_share_one_connection(self):
        # the dial is serialised: eight callers that all find no live
        # connection still leave exactly one open
        async def body():
            server = await _started_server()
            try:
                async with CacheClient("127.0.0.1", server.port) as c:
                    assert all(await asyncio.gather(
                        *[c.ping() for _ in range(8)]))
                    assert server.connections == 1
                    assert server.connections_v2 == 1
            finally:
                await server.stop()
        run(body())

    def test_busy_rejection_does_not_downgrade_the_client(self):
        # a full server turns the dial away with an ERR busy frame: the
        # call fails as a transport error, and once a slot frees the same
        # client is served, batch verbs included
        async def body():
            server = await _started_server(max_connections=1)
            try:
                holder = CacheClient("127.0.0.1", server.port)
                assert await holder.ping()
                c = CacheClient("127.0.0.1", server.port, max_retries=0)
                with pytest.raises(ConnectionError):
                    await c.ping()
                await holder.close()
                await _settled(server, 0)
                assert await c.mget(["a", "b"]) == [None, None]
                await c.close()
            finally:
                await server.stop()
        run(body())

    def test_client_accepts_only_the_v2_protocol(self):
        assert CacheClient(pool_size=1, protocol="v2").transport is not None
        with pytest.raises(ValueError, match="'v1'"):
            CacheClient(protocol="v1")

    def test_dial_failure_leaves_no_connection(self):
        async def body():
            transport = Transport("127.0.0.1", 1, max_retries=0)
            with pytest.raises((ConnectionError, OSError)):
                await transport.call("PING")
            assert transport._conn is None
            await transport.close()
        run(body())

    def test_non_v2_server_fails_closed_on_its_first_reply(self):
        async def body():
            async def text_server(reader, writer):
                await reader.read(1)
                writer.write(b"ERR unknown command\n")
                await writer.drain()
                writer.close()

            server = await asyncio.start_server(text_server, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            transport = Transport("127.0.0.1", port, max_retries=0)
            try:
                with pytest.raises(ConnectionError, match="bad magic"):
                    await transport.call("PING")
            finally:
                await transport.close()
                server.close()
                await server.wait_closed()
        run(body())


# ---------------------------------------------------------------------------
# pipelining and the mux connection
# ---------------------------------------------------------------------------


class TestPipelining:
    def test_interleaved_responses_match_seq(self):
        async def body():
            server = await _started_server(num_shards=2, data_capacity=1024,
                                           admission="always")
            try:
                async with CacheClient("127.0.0.1", server.port) as c:
                    keys = [f"k{i}" for i in range(32)]
                    await c.mset([(k, k.encode()) for k in keys])
                    # 32 concurrent GETs share one framed connection;
                    # every response must come back to its own caller
                    values = await asyncio.gather(
                        *[c.get(k) for k in keys]
                    )
                    assert values == [k.encode() for k in keys]
                    assert server.connections == 1
            finally:
                await server.stop()
        run(body())

    def test_cancelled_call_does_not_poison_the_connection(self):
        async def body():
            server = await _started_server(admission="always")
            try:
                async with CacheClient("127.0.0.1", server.port) as c:
                    await c.ping()
                    task = asyncio.ensure_future(c.get("k"))
                    task.cancel()
                    try:
                        await task
                    except asyncio.CancelledError:
                        pass
                    # the mux must survive an abandoned sequence id
                    await c.set("k2", b"v")
                    assert await c.ping()
            finally:
                await server.stop()
        run(body())

    def test_server_error_frame_keeps_connection(self):
        async def body():
            server = await _started_server()
            try:
                async with CacheClient("127.0.0.1", server.port) as c:
                    with pytest.raises(ServerError):
                        await c.transport.call("RGET", "k")  # wrong layer
                    assert await c.ping()  # same transport still live
            finally:
                await server.stop()
        run(body())


# ---------------------------------------------------------------------------
# batch verbs
# ---------------------------------------------------------------------------


class TestBatchVerbs:
    def test_mset_mget_mdel_roundtrip(self):
        async def body():
            server = await _started_server(num_shards=2, data_capacity=1024,
                                           admission="always")
            try:
                c = CacheClient("127.0.0.1", server.port)
                try:
                    flags = await c.mset([("a", b"1"), ("b", b"2")])
                    assert flags == [True, True]
                    assert await c.mget(["a", "missing", "b"]) == \
                        [b"1", None, b"2"]
                    assert await c.mdel(["a", "missing"]) == [True, False]
                    assert await c.mget(["a", "b"]) == [None, b"2"]
                finally:
                    await c.close()
            finally:
                await server.stop()
        run(body())

    def test_empty_batches_short_circuit(self):
        async def body():
            server = await _started_server()
            try:
                async with CacheClient("127.0.0.1", server.port) as c:
                    assert await c.mget([]) == []
                    assert await c.mset([]) == []
                    assert await c.mdel([]) == []
            finally:
                await server.stop()
        run(body())

    def test_batch_admission_matches_singles(self):
        # batch verbs must see the same admission decisions as singles:
        # first touch tags, second touch admits
        async def body():
            server = await _started_server()
            try:
                async with CacheClient("127.0.0.1", server.port) as c:
                    assert await c.mget(["x"]) == [None]         # tag
                    assert await c.mset([("x", b"v")]) == [False]  # declined
                    assert await c.mget(["x"]) == [None]         # reuse
                    assert await c.mset([("x", b"v")]) == [True]   # stored
                    assert await c.mget(["x"]) == [b"v"]
            finally:
                await server.stop()
        run(body())

    def test_empty_value_roundtrips(self):
        async def body():
            server = await _started_server(admission="always")
            try:
                async with CacheClient("127.0.0.1", server.port) as c:
                    assert await c.set("k", b"") is True
                    assert await c.get("k") == b""
                    assert await c.mget(["k"]) == [b""]
            finally:
                await server.stop()
        run(body())


async def _short_reply_server():
    """A v2 server answering every batch with one entry, whatever its size."""

    async def handle(reader, writer):
        enc = FrameEncoder()
        while True:
            try:
                frame = await read_frame(reader)
            except (ConnectionError, FrameError):
                break
            if frame is None:
                break
            verb = VERB_NAMES[frame.verb_id]
            if verb == "MGET":
                reply = Reply("VALUES", values=[b"x"])
            else:
                reply = Reply("STATUSES", values=[True])
            writer.write(encode_reply(enc, reply, frame.seq))
            await writer.drain()
        writer.close()

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[1]


class TestBatchReplyLength:
    def test_a_short_batch_reply_is_a_server_error(self):
        async def body():
            server, port = await _short_reply_server()
            try:
                async with CacheClient("127.0.0.1", port) as c:
                    with pytest.raises(ServerError, match="of 3 items"):
                        await c.mget(["a", "b", "c"])
                    with pytest.raises(ServerError, match="of 2 items"):
                        await c.mset([("a", b"1"), ("b", b"2")])
                    with pytest.raises(ServerError, match="of 2 items"):
                        await c.mdel(["a", "b"])
                    # a reply of the right length still passes
                    assert await c.mget(["a"]) == [b"x"]
            finally:
                server.close()
                await server.wait_closed()
        run(body())




# ---------------------------------------------------------------------------
# conformance: every spec verb against a cache server and a cluster node
# ---------------------------------------------------------------------------


#: (verb, fields) per call against a plain cache server, in order: the
#: TAGGED -> STORED admission walk, the read-only verbs, a cluster verb
#: the plain server does not serve (ERR) and QUIT last
SERVICE_CALLS = (
    ("PING", ()),
    ("GET", ("k",)),
    ("SET", ("k", b"abc")),       # first offer: TAGGED
    ("GET", ("k",)),              # reuse recorded
    ("SET", ("k", b"abc")),       # re-offer: STORED
    ("GET", ("k",)),
    ("DEL", ("k",)),
    ("DEL", ("k",)),
    ("STATS", ()),
    ("METRICS", ()),
    ("TRACE", ()),
    ("RGET", ("k",)),             # not served by a plain cache server
    ("QUIT", ()),
)

#: the batch verbs: the same admission walk over two keys at once, then
#: a read and a delete with a missing key
BATCH_CALLS = (
    ("MGET", (["a", "b"],)),                 # tag
    ("MSET", ([("a", b"1"), ("b", b"")],)),  # declined
    ("MGET", (["a", "b"],)),                 # reuse recorded
    ("MSET", ([("a", b"1"), ("b", b"")],)),  # stored
    ("MGET", (["a", "b", "zz"],)),
    ("MDEL", (["a", "zz"],)),
)

#: the same for one node of a 2-node cluster; DRAIN stops the node, so
#: it runs last
CLUSTER_CALLS = (
    ("GET", ("k",)),
    ("SET", ("k", b"abc")),
    ("GET", ("k",)),
    ("SET", ("k", b"abc")),
    ("GET", ("k",)),
    ("REPL", ("r", 3, b"xyz")),
    ("RGET", ("r",)),
    ("REPL", ("r", 2, b"old")),   # below the held version: STALE
    ("INVAL", ("r", 5)),
    ("RGET", ("r",)),
    ("REPL", ("r", 4, b"new")),   # below the INVAL floor: STALE
    ("PUTS", ("k", "node1")),
    ("DEL", ("k",)),
    ("CSTATUS", ()),
    ("DRAIN", ()),
)


async def _reuse_server():
    server = CacheServer(ShardedStore(num_shards=2, data_capacity=64,
                                      admission="reuse", seed=7), port=0)
    await server.start()
    return server


def _view(reply):
    """A comparable view of one reply (or of the ServerError raised)."""
    if isinstance(reply, ServerError):
        return ("ERR", str(reply))
    return (reply.status, reply.body, reply.values)


async def _walk(transport, calls, trace=None):
    replies = []
    for verb, fields in calls:
        try:
            reply = await transport.call(verb, *fields, trace=trace)
        except ServerError as exc:
            reply = exc
        replies.append((verb, _view(reply)))
    return replies


async def _on_fresh_server(calls, trace=None):
    server = await _reuse_server()
    transport = Transport("127.0.0.1", server.port)
    try:
        return await _walk(transport, calls, trace)
    finally:
        await transport.close()
        await server.stop()


class TestConformance:
    def test_every_spec_verb_is_exercised(self):
        called = {v for calls in (SERVICE_CALLS, BATCH_CALLS, CLUSTER_CALLS)
                  for v, _ in calls}
        assert {verb.name for verb in SPEC} == called

    def test_cache_server_status_walk(self):
        replies = run(_on_fresh_server(SERVICE_CALLS))
        assert [reply[0] for _, reply in replies] == [
            "PONG", "MISS", "TAGGED", "MISS", "STORED", "VALUE", "DELETED",
            "NOTFOUND", "STATS", "METRICS", "TRACE", "ERR", "BYE",
        ]
        assert replies[5] == ("GET", ("VALUE", b"abc", None))
        assert ("RGET", ("ERR", "unknown command 'RGET'")) in replies
        stats = json.loads(dict(replies)["STATS"][1].decode("utf-8"))
        assert stats["num_shards"] == 2

    def test_traced_walk_answers_alike(self):
        ctx = TraceContext("t1", "s1")
        plain = run(_on_fresh_server(SERVICE_CALLS[1:6]))
        traced = run(_on_fresh_server(SERVICE_CALLS[1:6], trace=ctx))
        assert traced == plain
        assert [reply[0] for _, reply in traced] == [
            "MISS", "TAGGED", "MISS", "STORED", "VALUE"]

    def test_batch_replies(self):
        assert run(_on_fresh_server(BATCH_CALLS)) == [
            ("MGET", ("VALUES", None, [None, None])),
            ("MSET", ("STATUSES", None, [False, False])),
            ("MGET", ("VALUES", None, [None, None])),
            ("MSET", ("STATUSES", None, [True, True])),
            ("MGET", ("VALUES", None, [b"1", b"", None])),
            ("MDEL", ("STATUSES", None, [True, False])),
        ]

    def test_cluster_node_status_walk(self):
        async def body():
            async with LocalCluster(2, data_capacity_per_node=32,
                                    admission="reuse") as cluster:
                node = cluster.nodes["node0"]
                # the peer client's transport: the one that carries
                # CSTATUS bodies
                transport = PeerClient(node.host, node.port).transport
                try:
                    return await _walk(transport, CLUSTER_CALLS)
                finally:
                    await transport.close()
        replies = run(body())
        assert [reply[0] for _, reply in replies] == [
            "MISS", "TAGGED", "MISS", "STORED", "VALUE", "REPLICATED",
            "VALUE", "STALE", "INVALED", "MISS", "STALE", "OK", "DELETED",
            "CSTATUS", "DRAINING",
        ]
        assert replies[6] == ("RGET", ("VALUE", b"xyz", None))
        status = json.loads(dict(replies)["CSTATUS"][1].decode("utf-8"))
        assert status["name"] == "node0"
