"""Tests for the v2 wire protocol: codec, framing fuzz cases, negotiation,
pipelining, batch verbs, and the unified transport."""

import asyncio
import struct

import pytest

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
    Frame,
    FrameEncoder,
    FrameError,
    PayloadReader,
    Reply,
    decode_request_fields,
    decode_trace,
    encode_reply,
    encode_request,
    read_frame,
)
from repro.service.transport import Transport, _v1_payload


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


async def _started_server(**kwargs):
    kwargs.setdefault("num_shards", 2)
    kwargs.setdefault("data_capacity", 64)
    store = ShardedStore(**kwargs)
    server = CacheServer(store, port=0)
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
    "blob": b"raw tail bytes",
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
                token, rd = decode_trace(frame)
                assert token is None
                assert decode_request_fields(verb, rd) == fields
        run(body())

    def test_trace_token_roundtrips(self):
        async def body():
            enc = FrameEncoder()
            raw = encode_request(
                enc, "GET", ["k"], seq=1, trace="T=abc123/0007"
            )
            frame = await read_frame(feed(raw))
            assert frame.flags & FLAG_TRACE
            token, rd = decode_trace(frame)
            assert token == "T=abc123/0007"
            assert decode_request_fields("GET", rd) == ["k"]
        run(body())

    def test_encoder_buffer_reuse_is_clean(self):
        # a short frame after a long one must not leak stale bytes
        async def body():
            enc = FrameEncoder()
            encode_request(enc, "SET", ["k", b"x" * 4096], seq=1)
            raw = encode_request(enc, "GET", ["k"], seq=2)
            frame = await read_frame(feed(raw))
            _, rd = decode_trace(frame)
            assert decode_request_fields("GET", rd) == ["k"]
            assert rd.exhausted
        run(body())

    def test_clean_eof_returns_none(self):
        async def body():
            assert await read_frame(feed(b"")) is None
        run(body())

    def test_sniffed_first_byte_is_prepended(self):
        async def body():
            raw = FrameEncoder().simple(VERB_IDS["PING"], 9)
            frame = await read_frame(feed(raw[1:]), first_byte=raw[:1])
            assert frame.verb_id == VERB_IDS["PING"]
            assert frame.seq == 9
        run(body())


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
            _, rd = decode_trace(frame)
            with pytest.raises(FieldError):
                decode_request_fields("SET", rd)
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
        assert decode_request_fields(verb, PayloadReader(payload)) == [field]
        for cut in range(len(payload)):
            with pytest.raises(FieldError):
                decode_request_fields(verb, PayloadReader(payload[:cut]))

    @pytest.mark.parametrize("reply", [
        Reply("VALUES", values=[b"1", None, b"", b"xyz"]),
        Reply("STATUSES", values=[True, False, True]),
    ])
    def test_every_truncation_of_a_batch_reply_is_field_error(self, reply):
        raw = encode_reply(FrameEncoder(), reply, 1)
        status_id, payload = raw[2], raw[HEADER_SIZE:]
        transport = Transport()
        got = transport._reply_v2(Frame(status_id, 0, 1, payload))
        assert got.values == reply.values
        for cut in range(len(payload)):
            with pytest.raises(FieldError):
                transport._reply_v2(Frame(status_id, 0, 1, payload[:cut]))

    def test_non_utf8_key_in_a_batch_is_field_error(self):
        bad = struct.pack(">H", 2) + b"\xff\xfe"
        mget = struct.pack(">I", 2) + struct.pack(">H", 1) + b"a" + bad
        with pytest.raises(FieldError, match="utf-8"):
            decode_request_fields("MGET", PayloadReader(mget))
        mset = struct.pack(">I", 1) + bad + struct.pack(">I", 1) + b"v"
        with pytest.raises(FieldError, match="utf-8"):
            decode_request_fields("MSET", PayloadReader(mset))

    def test_over_cap_reply_value_is_rejected_before_reading_it(self):
        # the length alone decides: no value bytes follow it
        payload = struct.pack(">IBI", 1, 1, MAX_VALUE_BYTES + 1)
        frame = Frame(STATUS_IDS["VALUES"], 0, 1, payload)
        with pytest.raises(FieldError, match="value too large"):
            Transport()._reply_v2(frame)

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
                _, rd = decode_trace(frame)
                assert decode_request_fields("GET", rd) == [f"k{i}"]
            assert await read_frame(reader) is None
        run(body())


class TestPayloadReader:
    def test_reads_are_sequential_and_bounded(self):
        rd = PayloadReader(struct.pack(">HIQ", 7, 8, 9))
        assert rd.u16() == 7
        assert rd.u32() == 8
        assert rd.u64() == 9
        assert rd.exhausted
        with pytest.raises(FieldError):
            rd.u8()

    def test_non_utf8_string_is_field_error(self):
        rd = PayloadReader(struct.pack(">H", 2) + b"\xff\xfe")
        with pytest.raises(FieldError, match="utf-8"):
            rd.string()

    def test_batch_reads_continue_where_they_stop(self):
        enc = FrameEncoder()
        enc.begin(0, 0)
        enc.put_keys(["a", "bc"])
        enc.put_items([("d", b"e")])
        enc.put_u64(9)
        rd = PayloadReader(enc.finish()[HEADER_SIZE:])
        assert rd.batch_keys() == ["a", "bc"]
        assert rd.batch_items() == [("d", b"e")]
        assert rd.u64() == 9
        assert rd.exhausted

    def test_batch_count_over_cap_is_field_error(self):
        over = struct.pack(">I", MAX_BATCH_ITEMS + 1)
        for read in ("batch_keys", "batch_items", "batch_values",
                     "batch_flags"):
            with pytest.raises(FieldError, match="batch too large"):
                getattr(PayloadReader(over), read)()


# ---------------------------------------------------------------------------
# negotiation: v2 preferred, v1 fallback
# ---------------------------------------------------------------------------


async def _v1_only_server():
    """A minimal line-framed v1 server (pre-v2 software, for fallback)."""

    async def handle(reader, writer):
        while True:
            try:
                line = await reader.readline()
            except (ConnectionError, OSError):
                break
            if not line:
                break
            try:
                parts = line.decode("utf-8").split()
            except UnicodeDecodeError:
                writer.write(b"ERR request not utf-8\n")
                await writer.drain()
                continue
            if parts and parts[0].upper() == "PING":
                writer.write(b"PONG\n")
            else:
                writer.write(b"ERR unknown\n")
            await writer.drain()
        writer.close()

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[1]


class TestNegotiation:
    def test_auto_picks_v2_against_new_server(self):
        async def body():
            server = await _started_server()
            try:
                async with CacheClient("127.0.0.1", server.port) as c:
                    assert await c.ping()
                    assert c.protocol_version == 2
            finally:
                await server.stop()
        run(body())

    def test_auto_falls_back_to_v1_against_old_server(self):
        async def body():
            server, port = await _v1_only_server()
            try:
                async with CacheClient("127.0.0.1", port) as c:
                    assert await c.ping()
                    assert c.protocol_version == 1
            finally:
                server.close()
                await server.wait_closed()
        run(body())

    def test_forced_v2_against_old_server_errors(self):
        async def body():
            server, port = await _v1_only_server()
            try:
                transport = Transport("127.0.0.1", port, mode="v2",
                                      max_retries=0)
                with pytest.raises(ConnectionError):
                    await transport.call("PING")
                await transport.close()
            finally:
                server.close()
                await server.wait_closed()
        run(body())

    def test_forced_v1_against_new_server_works(self):
        async def body():
            server = await _started_server()
            try:
                c = CacheClient("127.0.0.1", server.port, protocol="v1")
                try:
                    assert await c.ping()
                    assert c.protocol_version == 1
                finally:
                    await c.close()
            finally:
                await server.stop()
        run(body())

    def test_probe_failure_leaves_no_connections(self):
        async def body():
            transport = Transport("127.0.0.1", 1, max_retries=0)
            with pytest.raises((ConnectionError, OSError)):
                await transport.call("PING")
            assert transport._open == 0
            await transport.close()
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
                    assert c.transport._open == 1
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
# batch verbs, on both framings
# ---------------------------------------------------------------------------


class TestBatchVerbs:
    def test_mset_mget_mdel_roundtrip(self):
        async def body():
            server = await _started_server(num_shards=2, data_capacity=1024,
                                           admission="always")
            try:
                c = CacheClient("127.0.0.1", server.port, protocol="v2")
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

    def test_batch_verbs_over_v1_fail_closed(self):
        # v1 is the singles-only codec: a batch verb names protocol v2 in
        # its error and puts no byte on the wire
        async def body():
            server = await _started_server(admission="always")
            try:
                c = CacheClient("127.0.0.1", server.port, protocol="v1")
                try:
                    assert await c.set("a", b"1") is True
                    before = server.store.stats_snapshot()["total"]
                    for verb, call in (
                            ("MGET", c.mget(["a"])),
                            ("MSET", c.mset([("b", b"2")])),
                            ("MDEL", c.mdel(["a"]))):
                        with pytest.raises(ServerError,
                                           match=f"{verb} needs wire "
                                                 "protocol v2"):
                            await call
                    assert server.store.stats_snapshot()["total"] == before
                    # the pooled connection is still in step
                    assert await c.get("a") == b"1"
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
            if verb == "HELLO":
                reply = Reply("HELLO", b"v2")
            elif verb == "MGET":
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
                    assert c.protocol_version == 2
            finally:
                server.close()
                await server.wait_closed()
        run(body())


# ---------------------------------------------------------------------------
# v1 payload builder (the transport's line framing table)
# ---------------------------------------------------------------------------


class TestV1Payload:
    def test_simple_verbs(self):
        assert _v1_payload("PING", (), None) == b"PING\n"
        assert _v1_payload("GET", ("k",), None) == b"GET k\n"

    def test_value_becomes_sized_body(self):
        assert _v1_payload("SET", ("k", b"abc"), None) == b"SET k 3\nabc\n"

    def test_trace_token_is_trailing_field(self):
        assert _v1_payload("GET", ("k",), "T=1/2") == b"GET k T=1/2\n"

    def test_status_names_cover_ids(self):
        assert set(STATUS_NAMES) == set(STATUS_IDS.values())
