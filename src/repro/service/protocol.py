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
and parse it one complete frame at a time; :func:`read_frame` reads one
frame from a ``StreamReader`` for raw test peers.

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
    """Builds outgoing frames into one reused ``bytearray``.

    The buffer is cleared (not reallocated) per frame, so steady-state
    encoding does zero per-request allocations beyond the final
    ``bytes()`` snapshot handed to the transport.  Not task-safe: each
    connection/writer owns its encoder.
    """

    __slots__ = ("_buf",)

    def __init__(self, initial: int = 4096):
        self._buf = bytearray(initial)
        del self._buf[:]

    def begin(self, verb_id: int, seq: int) -> bytearray:
        """Start a frame; returns the buffer to append payload bytes to."""
        buf = self._buf
        del buf[:]
        buf += HEADER.pack(MAGIC, VERSION, verb_id, 0, seq, 0)
        return buf

    def put_str(self, text: str) -> None:
        raw = text.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise FieldError(f"string field too long ({len(raw)} bytes)")
        buf = self._buf
        buf += struct.pack(">H", len(raw))
        buf += raw

    def put_bytes(self, value: bytes) -> None:
        if len(value) > MAX_VALUE_BYTES:
            raise FieldError(f"value too large ({len(value)} bytes)")
        buf = self._buf
        buf += struct.pack(">I", len(value))
        buf += value

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

    def put_u64(self, value: int) -> None:
        self._buf += struct.pack(">Q", value)

    def put_blob(self, raw: bytes) -> None:
        self._buf += raw

    def set_trace(self, token: str) -> None:
        """Mark FLAG_TRACE and prepend the u16-prefixed trace token.

        Must be called right after :meth:`begin`, before payload fields.
        """
        raw = token.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise FieldError("trace token too long")
        buf = self._buf
        buf[3] |= FLAG_TRACE
        buf += struct.pack(">H", len(raw))
        buf += raw

    def finish(self) -> bytes:
        """Patch the payload length in and snapshot the frame."""
        buf = self._buf
        payload_len = len(buf) - HEADER_SIZE
        if payload_len > MAX_FRAME_PAYLOAD:
            raise FieldError(f"frame payload too large ({payload_len} bytes)")
        struct.pack_into(">I", buf, 8, payload_len)
        return bytes(buf)

    def simple(self, verb_id: int, seq: int, payload: bytes = b"",
               trace: "str | None" = None) -> bytes:
        """One-call encode for frames whose payload is a ready blob."""
        self.begin(verb_id, seq)
        if trace is not None:
            self.set_trace(trace)
        self.put_blob(payload)
        return self.finish()


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
    socket wrote there, so a read allocates nothing.  :meth:`next_frame`
    takes complete frames from between the read and the write cursor,
    copying each payload once, into its :class:`Frame`.  Each header is
    checked (:func:`check_header`) as soon as its 12 bytes are in, so an
    unframeable stream fails before its payload is buffered.

    The buffer is compacted, grown and shrunk only in :meth:`get_buffer`
    (asyncio keeps the last view alive while :meth:`buffer_updated`
    runs).  It holds :data:`RECV_BUFFER_BYTES` until it is full; then it
    grows to twice its size or to fit the frame at the read cursor,
    whichever is larger, once that frame's header has passed
    :func:`check_header`, so an oversized length fails before anything
    is allocated.  Once drained, it returns to its initial size.
    """

    __slots__ = ("_buf", "_view", "_start", "_end", "_max_payload")

    def __init__(self, max_payload: int = MAX_FRAME_PAYLOAD):
        self._buf = bytearray(RECV_BUFFER_BYTES)
        self._view = memoryview(self._buf)
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
            if len(self._buf) > RECV_BUFFER_BYTES:
                self._resize(RECV_BUFFER_BYTES)
            self._start = self._end = 0
        elif start:
            # move the partial frame to the front
            view = self._view
            view[:end - start] = view[start:end]
            self._start, self._end = 0, end - start
        if self._end == len(self._buf):
            length = check_header(self._buf, 0, self._max_payload)[3]
            self._resize(max(HEADER_SIZE + length, 2 * len(self._buf)))
        return self._view[self._end:]

    def buffer_updated(self, nbytes: int) -> None:
        """``nbytes`` were written at the start of the last free tail."""
        self._end += nbytes

    def _resize(self, size: int) -> None:
        """Move the pending bytes into a new buffer of ``size`` bytes."""
        start, end = self._start, self._end
        buf = bytearray(size)
        buf[:end - start] = self._view[start:end]
        self._buf, self._view = buf, memoryview(buf)
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

    def next_frame(self):
        """The next complete :class:`Frame`, or ``None`` until one is in.

        Raises :class:`FrameError` on a bad header.
        """
        start = self._start
        if self._end - start < HEADER_SIZE:
            return None
        verb_id, flags, seq, length = check_header(self._buf, start,
                                                   self._max_payload)
        stop = start + HEADER_SIZE + length
        if stop > self._end:
            return None
        self._start = stop
        return Frame(verb_id, flags, seq,
                     bytes(self._view[start + HEADER_SIZE:stop]))

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


class PayloadReader:
    """Sequential typed-field decoder over one frame's payload.

    A scalar field is sliced from a ``memoryview`` without copying; only
    terminal ``bytes()``/``str`` conversions allocate.  A batch field
    decodes in one loop (:meth:`batch_keys`, :meth:`batch_items`,
    :meth:`batch_values`, :meth:`batch_flags`) over the payload
    ``bytes``, not one call per item.  Every read checks the payload
    bound first and raises :class:`FieldError` past it, and a value's
    length is checked against :data:`MAX_VALUE_BYTES` before it is
    copied.
    """

    __slots__ = ("_buf", "_view", "_pos")

    def __init__(self, payload: bytes):
        self._buf = payload
        self._view = memoryview(payload)
        self._pos = 0

    def _take(self, n: int) -> memoryview:
        view, pos = self._view, self._pos
        if pos + n > len(view):
            raise FieldError("payload truncated")
        self._pos = pos + n
        return view[pos:pos + n]

    def u8(self) -> int:
        return self._take(1)[0]

    def u16(self) -> int:
        return struct.unpack(">H", self._take(2))[0]

    def u32(self) -> int:
        return struct.unpack(">I", self._take(4))[0]

    def u64(self) -> int:
        return struct.unpack(">Q", self._take(8))[0]

    def string(self) -> str:
        raw = self._take(self.u16())
        try:
            return str(raw, "utf-8")
        except UnicodeDecodeError:
            raise FieldError("string field not utf-8") from None

    def value(self) -> bytes:
        length = self.u32()
        if length > MAX_VALUE_BYTES:
            raise FieldError(f"value too large ({length} bytes)")
        return bytes(self._take(length))

    def _count(self) -> int:
        count = self.u32()
        if count > MAX_BATCH_ITEMS:
            raise FieldError(f"batch too large ({count} items)")
        return count

    def batch_keys(self) -> list:
        """A ``keys`` field: u32 count, then that many strings."""
        count = self._count()
        buf, pos, end = self._buf, self._pos, len(self._buf)
        unpack = _U16.unpack_from
        keys = []
        append = keys.append
        try:
            for _ in range(count):
                if pos + 2 > end:
                    raise FieldError("payload truncated")
                stop = pos + 2 + unpack(buf, pos)[0]
                if stop > end:
                    raise FieldError("payload truncated")
                append(str(buf[pos + 2:stop], "utf-8"))
                pos = stop
        except UnicodeDecodeError:
            raise FieldError("string field not utf-8") from None
        self._pos = pos
        return keys

    def batch_items(self) -> list:
        """An ``items`` field: u32 count, then (string, value) pairs."""
        count = self._count()
        buf, pos, end = self._buf, self._pos, len(self._buf)
        unpack_key, unpack_value = _U16.unpack_from, _U32.unpack_from
        items = []
        append = items.append
        try:
            for _ in range(count):
                if pos + 2 > end:
                    raise FieldError("payload truncated")
                key_stop = pos + 2 + unpack_key(buf, pos)[0]
                if key_stop + 4 > end:
                    raise FieldError("payload truncated")
                length = unpack_value(buf, key_stop)[0]
                if length > MAX_VALUE_BYTES:
                    raise FieldError(f"value too large ({length} bytes)")
                stop = key_stop + 4 + length
                if stop > end:
                    raise FieldError("payload truncated")
                append((str(buf[pos + 2:key_stop], "utf-8"),
                        buf[key_stop + 4:stop]))
                pos = stop
        except UnicodeDecodeError:
            raise FieldError("string field not utf-8") from None
        self._pos = pos
        return items

    def batch_values(self) -> list:
        """A ``VALUES`` reply: u32 count, then one optional value each.

        An item is a u8 present flag, followed by a value when it is set.
        """
        count = self._count()
        buf, pos, end = self._buf, self._pos, len(self._buf)
        unpack = _U32.unpack_from
        values = []
        append = values.append
        for _ in range(count):
            if pos >= end:
                raise FieldError("payload truncated")
            if not buf[pos]:
                append(None)
                pos += 1
                continue
            if pos + 5 > end:
                raise FieldError("payload truncated")
            length = unpack(buf, pos + 1)[0]
            if length > MAX_VALUE_BYTES:
                raise FieldError(f"value too large ({length} bytes)")
            stop = pos + 5 + length
            if stop > end:
                raise FieldError("payload truncated")
            append(buf[pos + 5:stop])
            pos = stop
        self._pos = pos
        return values

    def batch_flags(self) -> list:
        """A ``STATUSES`` reply: u32 count, then one u8 flag per item."""
        count = self._count()
        return [flag != 0 for flag in self._take(count)]

    @property
    def exhausted(self) -> bool:
        return self._pos >= len(self._view)


def decode_trace(frame: Frame):
    """Split a frame's trace token (if flagged) from its payload reader.

    Returns ``(token_or_None, PayloadReader)`` positioned past the token.
    """
    rd = PayloadReader(frame.payload)
    token = None
    if frame.flags & FLAG_TRACE:
        raw = rd._take(rd.u16())
        try:
            token = str(raw, "utf-8")
        except UnicodeDecodeError:
            raise FieldError("trace token not utf-8") from None
    return token, rd


def decode_request_fields(verb: str, rd: PayloadReader) -> list:
    """Decode ``REQUEST_FIELDS[verb]`` from ``rd`` into a python list."""
    fields = []
    for kind in REQUEST_FIELDS[verb]:
        if kind in ("key", "peer"):
            fields.append(rd.string())
        elif kind == "value":
            fields.append(rd.value())
        elif kind == "version":
            fields.append(rd.u64())
        elif kind == "keys":
            fields.append(rd.batch_keys())
        else:  # items
            fields.append(rd.batch_items())
    return fields


def encode_request(enc: FrameEncoder, verb: str, fields, seq: int,
                   trace: "str | None" = None) -> bytes:
    """Encode one request frame for ``verb`` with positional ``fields``."""
    enc.begin(VERB_IDS[verb], seq)
    if trace is not None:
        enc.set_trace(trace)
    kinds = REQUEST_FIELDS[verb]
    if len(fields) != len(kinds):
        raise FieldError(f"{verb} takes {len(kinds)} fields, got {len(fields)}")
    for kind, field in zip(kinds, fields):
        if kind in ("key", "peer"):
            enc.put_str(field)
        elif kind == "value":
            enc.put_bytes(field)
        elif kind == "version":
            enc.put_u64(field)
        elif kind == "keys":
            enc.put_keys(field)
        else:  # items
            enc.put_items(field)
    return enc.finish()


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



def install_uvloop() -> bool:
    """Install uvloop's event-loop policy if the package is available.

    Purely optional: the container may not ship uvloop, so this gates on
    ImportError and reports whether the fast loop is in effect.
    """
    try:
        import uvloop  # type: ignore
    except ImportError:
        return False
    uvloop.install()
    return True
