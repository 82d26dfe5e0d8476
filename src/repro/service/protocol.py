"""Wire protocol v2: length-prefixed binary frames for :mod:`repro.service`.

The one framing every server and client in the tree speaks.  Each
request and response is a compact binary record, so a connection can
carry many requests in flight at once (pipelining) and both ends can
reuse their encode buffers.

Frame layout (big-endian, 12-byte header)::

    offset  size  field
    ------  ----  -----------------------------------------------
    0       1     magic      0xA8
    1       1     version    2
    2       1     verb id    requests: VERB_IDS; responses: STATUS_IDS
    3       1     flags      bit 0 (FLAG_TRACE): payload starts with a
                             u16-length-prefixed trace token
                             ("T=<trace-id>/<span-id>", see
                             :func:`repro.obs.dist.wire_token`)
    4       4     sequence   u32; responses echo the request's sequence,
                             which is how a pipelining client matches
                             interleaved responses to callers
    8       4     length     u32 payload byte count (after the header)

Payload fields are typed (see ``REQUEST_FIELDS``): strings are
u16-length-prefixed UTF-8, values are u32-length-prefixed bytes, versions
are u64, batches are u32-counted repetitions.  Responses are a status id
plus either a raw blob (VALUE/STATS/METRICS/TRACE/ERR/CSTATUS bodies) or
a typed batch payload (VALUES/STATUSES).  Both ends exchange a
:class:`Reply`.

Both ends receive into one reused :class:`FrameBuffer` per connection
and serve each frame in one pass: :meth:`FrameBuffer.next_header`
checks the header and leaves the payload in the buffer, and the server
decodes a request's trace token and fields from there
(:func:`decode_request_fields`).  A single-key frame is written as one
``HEADER.pack`` joined to its payload; a batch frame is built in the
:class:`FrameEncoder`'s reused buffer.  :func:`read_frame` and
:meth:`FrameBuffer.next_frame` return a :class:`Frame` with its payload
copied out, for raw test peers and tools.

Errors split by trust in the stream: :class:`FrameError` means the frame
boundary itself is gone (bad magic or version, truncation, oversize) and
the connection must drop — this is also how a peer that does not speak
v2 fails closed on its first frame; :class:`FieldError` means one
well-framed payload was malformed — the server answers with an ERR frame
and the connection stays usable.
"""

from __future__ import annotations

import asyncio
import struct

#: hard cap on a single value accepted over the wire (16 MiB)
MAX_VALUE_BYTES = 16 * 1024 * 1024
#: hard cap on one frame's payload (a batch of values plus framing)
MAX_FRAME_PAYLOAD = 32 * 1024 * 1024
#: hard cap on items in one MGET/MSET/MDEL frame
MAX_BATCH_ITEMS = 4096

MAGIC = 0xA8
VERSION = 2
HEADER = struct.Struct(">BBBBII")
HEADER_SIZE = HEADER.size
_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
#: a VALUES reply item: u8 present flag, then the value's u32 length
_PRESENT_LEN = struct.Struct(">BI")

#: flags bit 0: payload begins with a u16-prefixed trace token
FLAG_TRACE = 0x01

# Request verb ids.  Plain literals on purpose: FLOW003 cross-checks these
# keys (and those of REQUEST_FIELDS) against the protocol spec
# (devtools/flow).  Id 1, in both tables, belonged to the retired HELLO
# handshake and is never reused.
VERB_IDS = {
    "GET": 2,
    "SET": 3,
    "DEL": 4,
    "MGET": 5,
    "MSET": 6,
    "MDEL": 7,
    "STATS": 8,
    "METRICS": 9,
    "TRACE": 10,
    "PING": 11,
    "QUIT": 12,
    "REPL": 16,
    "INVAL": 17,
    "PUTS": 18,
    "RGET": 19,
    "CSTATUS": 20,
    "DRAIN": 21,
}

# Response status ids (the verb-id byte of a response frame).
STATUS_IDS = {
    "VALUE": 2,
    "MISS": 3,
    "STORED": 4,
    "TAGGED": 5,
    "DELETED": 6,
    "NOTFOUND": 7,
    "PONG": 8,
    "BYE": 9,
    "ERR": 10,
    "STATS": 11,
    "METRICS": 12,
    "TRACE": 13,
    "VALUES": 14,
    "STATUSES": 15,
    "REPLICATED": 16,
    "STALE": 17,
    "INVALED": 18,
    "OK": 19,
    "CSTATUS": 20,
    "DRAINING": 21,
}

VERB_NAMES = {v: k for k, v in VERB_IDS.items()}
STATUS_NAMES = {v: k for k, v in STATUS_IDS.items()}

#: typed payload schema per request verb.  Field kinds:
#: ``key``/``peer`` — u16-prefixed UTF-8 string; ``value`` — u32-prefixed
#: bytes; ``version`` — u64; ``keys`` — u32 count + strings; ``items`` —
#: u32 count + (string, bytes) pairs.
REQUEST_FIELDS = {
    "GET": ("key",),
    "SET": ("key", "value"),
    "DEL": ("key",),
    "MGET": ("keys",),
    "MSET": ("items",),
    "MDEL": ("keys",),
    "STATS": (),
    "METRICS": (),
    "TRACE": (),
    "PING": (),
    "QUIT": (),
    "REPL": ("key", "version", "value"),
    "INVAL": ("key", "version"),
    "PUTS": ("key", "peer"),
    "RGET": ("key",),
    "CSTATUS": (),
    "DRAIN": (),
}

class Reply:
    """One response, as handlers return it and the transport decodes it.

    ``status`` is the status name (``"VALUE"``, ``"STORED"``, ...);
    ``body`` carries blob payloads (VALUE, STATS, METRICS, TRACE,
    CSTATUS); ``values`` carries batch payloads — a list of
    ``bytes | None`` for VALUES, a list of ``bool`` for STATUSES.
    Server handlers may set ``outcome``, the request span's label
    (``"hit"``, ``"tagged"``, ...); it never goes on the wire.
    """

    __slots__ = ("status", "body", "values", "outcome")

    def __init__(self, status, body=None, values=None, outcome=None):
        self.status = status
        self.body = body
        self.values = values
        self.outcome = outcome

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Reply({self.status}, body={self.body!r:.40}, values={self.values!r:.40})"


class CodecError(Exception):
    """Base class for frame and field errors."""


class FrameError(CodecError):
    """Frame boundary violated (bad magic/version, truncation, oversize).

    The byte stream can no longer be trusted: drop the connection.
    """


class FieldError(CodecError):
    """One well-framed payload was malformed; the connection survives."""


class Frame:
    """One decoded v2 frame: verb/status id, flags, sequence, payload."""

    __slots__ = ("verb_id", "flags", "seq", "payload")

    def __init__(self, verb_id: int, flags: int, seq: int, payload: bytes):
        self.verb_id = verb_id
        self.flags = flags
        self.seq = seq
        self.payload = payload

    def __repr__(self):  # pragma: no cover - debugging aid
        name = VERB_NAMES.get(self.verb_id) or STATUS_NAMES.get(self.verb_id)
        return (f"Frame({name or self.verb_id}, flags={self.flags:#x}, "
                f"seq={self.seq}, len={len(self.payload)})")


class FrameEncoder:
    """Builds outgoing frames.

    A frame whose payload is one blob or a few scalar fields is built as
    one ``HEADER.pack`` joined to its payload (:meth:`simple`,
    :func:`encode_request`).  A batch frame is built in one reused
    ``bytearray``, cleared (not reallocated) per frame, and copied once
    by :meth:`finish`.  Not task-safe: each connection/writer owns its
    encoder.
    """

    __slots__ = ("_buf",)

    def __init__(self, initial: int = 4096):
        self._buf = bytearray(initial)
        del self._buf[:]

    def begin(self, verb_id: int, seq: int) -> bytearray:
        """Start a batch frame; returns the buffer to append payload bytes to."""
        buf = self._buf
        del buf[:]
        buf += HEADER.pack(MAGIC, VERSION, verb_id, 0, seq, 0)
        return buf

    def put_keys(self, keys) -> None:
        """A ``keys`` field, in one loop: u32 count, then the strings."""
        if len(keys) > MAX_BATCH_ITEMS:
            raise FieldError(f"batch too large ({len(keys)} items)")
        buf = self._buf
        buf += _U32.pack(len(keys))
        pack = _U16.pack
        for key in keys:
            raw = key.encode("utf-8")
            if len(raw) > 0xFFFF:
                raise FieldError(f"string field too long ({len(raw)} bytes)")
            buf += pack(len(raw))
            buf += raw

    def put_items(self, items) -> None:
        """An ``items`` field, in one loop: u32 count, then the pairs."""
        if len(items) > MAX_BATCH_ITEMS:
            raise FieldError(f"batch too large ({len(items)} items)")
        buf = self._buf
        buf += _U32.pack(len(items))
        pack_key, pack_value = _U16.pack, _U32.pack
        for key, value in items:
            raw = key.encode("utf-8")
            if len(raw) > 0xFFFF:
                raise FieldError(f"string field too long ({len(raw)} bytes)")
            if len(value) > MAX_VALUE_BYTES:
                raise FieldError(f"value too large ({len(value)} bytes)")
            buf += pack_key(len(raw))
            buf += raw
            buf += pack_value(len(value))
            buf += value

    def set_trace(self, token: str) -> None:
        """Mark FLAG_TRACE and prepend the u16-prefixed trace token.

        Must be called right after :meth:`begin`, before payload fields.
        """
        raw = _trace_bytes(token)
        buf = self._buf
        buf[3] |= FLAG_TRACE
        buf += _U16.pack(len(raw))
        buf += raw

    def finish(self) -> bytes:
        """Patch the payload length in and snapshot the batch frame."""
        buf = self._buf
        payload_len = len(buf) - HEADER_SIZE
        if payload_len > MAX_FRAME_PAYLOAD:
            raise FieldError(f"frame payload too large ({payload_len} bytes)")
        _U32.pack_into(buf, 8, payload_len)
        return bytes(buf)

    def simple(self, verb_id: int, seq: int, payload: bytes = b"",
               trace: "str | None" = None) -> bytes:
        """A frame whose payload is a ready blob: one ``HEADER.pack`` plus it."""
        length = len(payload)
        if trace is None:
            if length > MAX_FRAME_PAYLOAD:
                raise FieldError(f"frame payload too large ({length} bytes)")
            return HEADER.pack(MAGIC, VERSION, verb_id, 0, seq, length) + payload
        raw = _trace_bytes(trace)
        length += 2 + len(raw)
        if length > MAX_FRAME_PAYLOAD:
            raise FieldError(f"frame payload too large ({length} bytes)")
        return b"".join((
            HEADER.pack(MAGIC, VERSION, verb_id, FLAG_TRACE, seq, length),
            _U16.pack(len(raw)), raw, payload,
        ))


def _trace_bytes(token: str) -> bytes:
    """A trace token's UTF-8 bytes, checked against its u16 length prefix."""
    raw = token.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise FieldError("trace token too long")
    return raw


def check_header(buf, pos: int = 0,
                 max_payload: int = MAX_FRAME_PAYLOAD) -> tuple:
    """Unpack the frame header at ``buf[pos]``: ``(verb_id, flags, seq, length)``.

    A wrong magic or version, or a payload length over ``max_payload``,
    raises :class:`FrameError`.  :func:`read_frame` and
    :class:`FrameBuffer` both check every header here.
    """
    magic, version, verb_id, flags, seq, length = HEADER.unpack_from(buf, pos)
    if magic != MAGIC:
        raise FrameError(f"bad magic {magic:#x}")
    if version != VERSION:
        raise FrameError(f"unsupported protocol version {version}")
    if length > max_payload:
        raise FrameError(f"frame payload too large ({length} bytes)")
    return verb_id, flags, seq, length


#: a :class:`FrameBuffer`'s size while no frame larger than it is in
#: flight: the one ``bytearray`` each connection receives into
RECV_BUFFER_BYTES = 64 * 1024


class FrameBuffer:
    """One connection's receive buffer, cut into frames as they complete.

    Both ends' ``asyncio.BufferedProtocol`` receive straight into it:
    :meth:`get_buffer` hands out the free tail of one reused
    ``bytearray`` and :meth:`buffer_updated` records how many bytes the
    socket wrote there, so a read allocates nothing.  :meth:`next_header`
    takes complete frames from between the read and the write cursor and
    leaves each payload in place, for its owner to decode from ``buf``
    (:func:`decode_request_fields`) or copy out.  Each header is checked
    (:func:`check_header`) as soon as its 12 bytes are in, so an
    unframeable stream fails before its payload is buffered.

    The buffer is compacted, grown and shrunk only in :meth:`get_buffer`
    (asyncio keeps the last view alive while :meth:`buffer_updated`
    runs).  It holds :data:`RECV_BUFFER_BYTES` until it is full; then it
    grows to twice its size or to fit the frame at the read cursor,
    whichever is larger, once that frame's header has passed
    :func:`check_header`, so an oversized length fails before anything
    is allocated.  Once drained, it returns to its initial size.
    """

    __slots__ = ("buf", "view", "_start", "_end", "_max_payload")

    def __init__(self, max_payload: int = MAX_FRAME_PAYLOAD):
        self.buf = bytearray(RECV_BUFFER_BYTES)
        self.view = memoryview(self.buf)
        #: the read cursor (the next frame's first byte) and the write one
        self._start = self._end = 0
        self._max_payload = max_payload

    def get_buffer(self, sizehint: int = -1) -> memoryview:
        """The free tail to receive into; never empty.

        ``sizehint`` is ignored, as asyncio allows.  Raises
        :class:`FrameError` if the buffer is full and the header at the
        read cursor is bad.
        """
        start, end = self._start, self._end
        if start == end:
            if len(self.buf) > RECV_BUFFER_BYTES:
                self._resize(RECV_BUFFER_BYTES)
            self._start = self._end = 0
        elif start:
            # move the partial frame to the front
            view = self.view
            view[:end - start] = view[start:end]
            self._start, self._end = 0, end - start
        if self._end == len(self.buf):
            length = check_header(self.buf, 0, self._max_payload)[3]
            self._resize(max(HEADER_SIZE + length, 2 * len(self.buf)))
        return self.view[self._end:]

    def buffer_updated(self, nbytes: int) -> None:
        """``nbytes`` were written at the start of the last free tail."""
        self._end += nbytes

    def _resize(self, size: int) -> None:
        """Move the pending bytes into a new buffer of ``size`` bytes."""
        start, end = self._start, self._end
        buf = bytearray(size)
        buf[:end - start] = self.view[start:end]
        self.buf, self.view = buf, memoryview(buf)
        self._start, self._end = 0, end - start

    def feed(self, chunk) -> None:
        """Copy ``chunk`` in as socket reads would (raw test peers)."""
        chunk = memoryview(chunk)
        while chunk:
            free = self.get_buffer()
            n = min(len(free), len(chunk))
            free[:n] = chunk[:n]
            self.buffer_updated(n)
            chunk = chunk[n:]

    def next_header(self):
        """The next complete frame, or ``None`` until one is in.

        Returns ``(verb_id, flags, seq, start, stop)``: the frame's
        payload is ``buf[start:stop]`` (or ``view[start:stop]``) until
        the next :meth:`get_buffer`, so it is decoded in place, with no
        copy of the frame.  Raises :class:`FrameError` on a bad header.
        """
        start, buf = self._start, self.buf
        if self._end - start < HEADER_SIZE:
            return None
        magic, version, verb_id, flags, seq, length = HEADER.unpack_from(
            buf, start)
        if (magic != MAGIC or version != VERSION
                or length > self._max_payload):
            check_header(buf, start, self._max_payload)  # raises
        start += HEADER_SIZE
        stop = start + length
        if stop > self._end:
            return None
        self._start = stop
        return verb_id, flags, seq, start, stop

    def next_frame(self):
        """The next complete :class:`Frame`, with its payload copied out.

        ``None`` until one is in; for raw test peers and tools.  Raises
        :class:`FrameError` on a bad header.
        """
        head = self.next_header()
        if head is None:
            return None
        verb_id, flags, seq, start, stop = head
        return Frame(verb_id, flags, seq, bytes(self.view[start:stop]))

    @property
    def pending(self) -> int:
        """Bytes received past the last frame taken: a partial frame, or
        whole frames its owner has not parsed yet."""
        return self._end - self._start


async def read_frame(reader, max_payload: int = MAX_FRAME_PAYLOAD):
    """Read one v2 frame from a ``StreamReader``; ``None`` on clean EOF.

    The servers and :class:`~repro.service.transport.Transport` parse
    frames with :class:`FrameBuffer`; this stream reader serves raw
    test peers and tools.  Truncation mid-frame, a wrong magic/version,
    or an oversized payload raise :class:`FrameError` — the stream is
    unframeable and the connection must drop.
    """
    try:
        header = await reader.readexactly(HEADER_SIZE)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean EOF between frames
        raise FrameError("truncated frame header") from None
    verb_id, flags, seq, length = check_header(header, 0, max_payload)
    if length:
        try:
            payload = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise FrameError("truncated frame payload") from None
    else:
        payload = b""
    return Frame(verb_id, flags, seq, payload)


# -- decoding a payload in place ---------------------------------------------
#
# Every reader takes ``(buf, pos, end)`` over any bytes-like ``buf`` (a
# frame buffer's ``bytearray`` on both ends, ``bytes`` for raw peers) and
# returns ``(field, pos past it)``.  Each checks ``end`` before it reads,
# so a truncated payload raises FieldError, never IndexError or
# struct.error, and a value's length is checked against MAX_VALUE_BYTES
# before it is copied.


def _truncated() -> FieldError:
    return FieldError("payload truncated")


def _read_str(buf, pos: int, end: int, what: str = "string field") -> tuple:
    """A u16-prefixed UTF-8 string."""
    stop = pos + 2
    if stop > end:
        raise _truncated()
    stop += (buf[pos] << 8) | buf[pos + 1]
    if stop > end:
        raise _truncated()
    try:
        return str(buf[pos + 2:stop], "utf-8"), stop
    except UnicodeDecodeError:
        raise FieldError(f"{what} not utf-8") from None


def _read_value(buf, pos: int, end: int) -> tuple:
    """A u32-prefixed value, as ``bytes``."""
    start = pos + 4
    if start > end:
        raise _truncated()
    length = _U32.unpack_from(buf, pos)[0]
    if length > MAX_VALUE_BYTES:
        raise FieldError(f"value too large ({length} bytes)")
    stop = start + length
    if stop > end:
        raise _truncated()
    return bytes(buf[start:stop]), stop


def _read_u64(buf, pos: int, end: int) -> tuple:
    stop = pos + 8
    if stop > end:
        raise _truncated()
    return _U64.unpack_from(buf, pos)[0], stop


def _read_count(buf, pos: int, end: int) -> tuple:
    """A batch's u32 item count, checked against MAX_BATCH_ITEMS."""
    stop = pos + 4
    if stop > end:
        raise _truncated()
    count = _U32.unpack_from(buf, pos)[0]
    if count > MAX_BATCH_ITEMS:
        raise FieldError(f"batch too large ({count} items)")
    return count, stop


def _read_keys(buf, pos: int, end: int) -> tuple:
    """A ``keys`` field, in one loop: u32 count, then that many strings."""
    count, pos = _read_count(buf, pos, end)
    keys = []
    append = keys.append
    try:
        for _ in range(count):
            stop = pos + 2
            if stop > end:
                raise _truncated()
            stop += (buf[pos] << 8) | buf[pos + 1]
            if stop > end:
                raise _truncated()
            append(str(buf[pos + 2:stop], "utf-8"))
            pos = stop
    except UnicodeDecodeError:
        raise FieldError("string field not utf-8") from None
    return keys, pos


def _read_items(buf, pos: int, end: int) -> tuple:
    """An ``items`` field, in one loop: u32 count, then (string, value) pairs."""
    count, pos = _read_count(buf, pos, end)
    unpack_value = _U32.unpack_from
    items = []
    append = items.append
    try:
        for _ in range(count):
            key_stop = pos + 2
            if key_stop > end:
                raise _truncated()
            key_stop += (buf[pos] << 8) | buf[pos + 1]
            if key_stop + 4 > end:
                raise _truncated()
            length = unpack_value(buf, key_stop)[0]
            if length > MAX_VALUE_BYTES:
                raise FieldError(f"value too large ({length} bytes)")
            stop = key_stop + 4 + length
            if stop > end:
                raise _truncated()
            append((str(buf[pos + 2:key_stop], "utf-8"),
                    bytes(buf[key_stop + 4:stop])))
            pos = stop
    except UnicodeDecodeError:
        raise FieldError("string field not utf-8") from None
    return items, pos


#: verb -> the readers of its fields, in REQUEST_FIELDS order
_FIELD_READERS = {
    verb: tuple({"key": _read_str, "peer": _read_str, "value": _read_value,
                 "version": _read_u64, "keys": _read_keys,
                 "items": _read_items}[kind] for kind in kinds)
    for verb, kinds in REQUEST_FIELDS.items()
}


def decode_trace(buf, pos: int = 0, end: "int | None" = None) -> tuple:
    """The u16-prefixed trace token at ``buf[pos]``: ``(token, pos past it)``.

    A payload carries one first when its frame has FLAG_TRACE set.
    """
    return _read_str(buf, pos, len(buf) if end is None else end,
                     "trace token")


def decode_request_fields(verb: str, flags: int, buf, pos: int = 0,
                          end: "int | None" = None) -> tuple:
    """Decode one request payload, ``buf[pos:end]``, in place.

    Returns ``(token, fields)``: the trace token when ``flags`` has
    FLAG_TRACE (else ``None``) and ``REQUEST_FIELDS[verb]`` as a list.
    The server passes its frame buffer and the payload's bounds
    (:meth:`FrameBuffer.next_header`), so no frame or reader object is
    built per request.  Bytes past the last field are ignored.
    """
    if end is None:
        end = len(buf)
    token = None
    if flags & FLAG_TRACE:
        token, pos = decode_trace(buf, pos, end)
    fields = []
    for read in _FIELD_READERS[verb]:
        field, pos = read(buf, pos, end)
        fields.append(field)
    return token, fields


def decode_values(payload) -> list:
    """A ``VALUES`` reply: u32 count, then one optional value each.

    An item is a u8 present flag, followed by a value when it is set.
    """
    end = len(payload)
    count, pos = _read_count(payload, 0, end)
    unpack = _U32.unpack_from
    values = []
    append = values.append
    for _ in range(count):
        if pos >= end:
            raise _truncated()
        if not payload[pos]:
            append(None)
            pos += 1
            continue
        if pos + 5 > end:
            raise _truncated()
        length = unpack(payload, pos + 1)[0]
        if length > MAX_VALUE_BYTES:
            raise FieldError(f"value too large ({length} bytes)")
        stop = pos + 5 + length
        if stop > end:
            raise _truncated()
        append(bytes(payload[pos + 5:stop]))
        pos = stop
    return values


def decode_flags(payload) -> list:
    """A ``STATUSES`` reply: u32 count, then one u8 flag per item."""
    count, pos = _read_count(payload, 0, len(payload))
    if pos + count > len(payload):
        raise _truncated()
    return [flag != 0 for flag in payload[pos:pos + count]]


# -- encoding ---------------------------------------------------------------

#: the request shapes built in the encoder's buffer, one loop per batch
_BATCH_FIELDS = (("keys",), ("items",))


def encode_request(enc: FrameEncoder, verb: str, fields, seq: int,
                   trace: "str | None" = None) -> bytes:
    """Encode one request frame for ``verb`` with positional ``fields``.

    A batch request is built in ``enc``'s buffer; any other is one
    ``HEADER.pack`` joined to its fields, with no buffer in between.
    """
    kinds = REQUEST_FIELDS[verb]
    if len(fields) != len(kinds):
        raise FieldError(f"{verb} takes {len(kinds)} fields, got {len(fields)}")
    if kinds in _BATCH_FIELDS:
        enc.begin(VERB_IDS[verb], seq)
        if trace is not None:
            enc.set_trace(trace)
        if kinds[0] == "keys":
            enc.put_keys(fields[0])
        else:
            enc.put_items(fields[0])
        return enc.finish()
    parts = [b""]  # the header, once the length is known
    flags = length = 0
    if trace is not None:
        raw = _trace_bytes(trace)
        parts += (_U16.pack(len(raw)), raw)
        flags, length = FLAG_TRACE, 2 + len(raw)
    for kind, field in zip(kinds, fields):
        if kind == "value":
            if len(field) > MAX_VALUE_BYTES:
                raise FieldError(f"value too large ({len(field)} bytes)")
            parts += (_U32.pack(len(field)), field)
            length += 4 + len(field)
        elif kind == "version":
            parts.append(_U64.pack(field))
            length += 8
        else:  # key, peer
            raw = field.encode("utf-8")
            if len(raw) > 0xFFFF:
                raise FieldError(f"string field too long ({len(raw)} bytes)")
            parts += (_U16.pack(len(raw)), raw)
            length += 2 + len(raw)
    parts[0] = HEADER.pack(MAGIC, VERSION, VERB_IDS[verb], flags, seq, length)
    return b"".join(parts)


def encode_reply(enc: FrameEncoder, reply: Reply, seq: int) -> bytes:
    """Encode one response frame for ``reply``, answering request ``seq``."""
    values = reply.values
    if values is None:
        return enc.simple(STATUS_IDS[reply.status], seq, reply.body or b"")
    buf = enc.begin(STATUS_IDS[reply.status], seq)
    buf += _U32.pack(len(values))
    if reply.status == "VALUES":
        pack = _PRESENT_LEN.pack
        for value in values:
            if value is None:
                buf.append(0)
                continue
            if len(value) > MAX_VALUE_BYTES:
                raise FieldError(f"value too large ({len(value)} bytes)")
            buf += pack(1, len(value))
            buf += value
    else:  # STATUSES
        buf += bytes([1 if flag else 0 for flag in values])
    return enc.finish()
