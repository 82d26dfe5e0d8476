"""One shared client transport for the service and cluster protocols.

Every client in the tree — :class:`~repro.service.client.CacheClient`,
the cluster's ``PeerClient`` and ``ClusterClient`` — used to reimplement
the same ``_request`` plumbing: a lazy connection pool, retry with
exponential backoff, and v1 text framing.  :class:`Transport` is that
plumbing extracted once, extended with wire protocol v2
(:mod:`repro.service.protocol`): binary frames, request pipelining over
multiplexed connections, and batch verbs.

Protocol negotiation happens on first use.  In ``auto`` mode the
transport dials one connection and sends a v2 ``HELLO`` probe frame; a
v2 server answers with a ``HELLO`` frame (magic first byte) and the
probe connection becomes the first multiplexed v2 connection, while a
v1 server answers a text ``ERR`` line (the probe frame decodes as one
newline-terminated garbage line) and the transport falls back to v1
text on pooled connections.  ``mode="v1"``/``mode="v2"`` pin the
framing; forced v2 against a v1-only server raises
:class:`ConnectionError` instead of falling back.

The v1 line framing is derived from the codec's ``REQUEST_FIELDS``
(:func:`_v1_payload`), so the transport keeps no per-verb table.  v1 is
the singles-only codec: a verb without a v1 spelling (the batch verbs
``MGET``/``MSET``/``MDEL``) fails closed on a v1 connection, before any
byte is written.
"""

from __future__ import annotations

import asyncio

from ..obs.dist import wire_token
from .deadline import deadline
from .protocol import (
    BLOB_STATUSES,
    HELLO_PAYLOAD,
    MAGIC,
    MAX_VALUE_BYTES,
    REQUEST_FIELDS,
    V1_VERBS,
    FrameEncoder,
    FrameError,
    PayloadReader,
    Reply,
    STATUS_NAMES,
    VERB_IDS,
    encode_request,
    read_frame,
)

class ServerError(Exception):
    """An ``ERR`` answer, or a verb v1 cannot carry (not retried)."""


class _MuxConn:
    """One multiplexed v2 connection: many in-flight frames, one reader.

    Requests are tagged with a per-connection sequence id; a background
    read loop matches response frames back to caller futures, so any
    number of tasks can pipeline through one socket.  A caller that
    times out or is cancelled just abandons its sequence id — the late
    response is dropped on arrival and the connection stays healthy
    (unlike v1, where an unconsumed response poisons the stream).
    """

    __slots__ = ("transport", "reader", "writer", "enc", "pending",
                 "next_seq", "dead", "task")

    def __init__(self, transport, reader, writer):
        self.transport = transport
        self.reader = reader
        self.writer = writer
        self.enc = FrameEncoder()
        self.pending = {}  # seq -> Future[Frame]
        self.next_seq = 1
        self.dead = False
        self.task = asyncio.ensure_future(self._read_loop())

    async def _read_loop(self):
        try:
            while True:
                frame = await read_frame(self.reader)
                if frame is None:
                    raise ConnectionError("server closed connection")
                fut = self.pending.pop(frame.seq, None)
                if fut is not None and not fut.done():
                    fut.set_result(frame)
        except asyncio.CancelledError:
            raise
        except (FrameError, ConnectionError, OSError,
                asyncio.IncompleteReadError) as exc:
            self._fail(exc)

    def _fail(self, exc) -> None:
        """Mark the connection dead and fail every in-flight caller."""
        self.dead = True
        pending, self.pending = self.pending, {}
        for fut in pending.values():
            if not fut.done():
                fut.set_exception(ConnectionError(str(exc)))
        self.writer.close()
        self.transport._drop_mux(self)

    async def call(self, verb: str, fields, token, timeout: float):
        """Send one frame and await its matching response frame."""
        seq = self.next_seq
        self.next_seq = (self.next_seq % 0xFFFFFFFF) + 1
        payload = encode_request(self.enc, verb, fields, seq, token)
        fut = asyncio.get_event_loop().create_future()
        self.pending[seq] = fut
        try:
            self.writer.write(payload)
            await self.writer.drain()
            async with deadline(timeout):
                return await fut
        finally:
            self.pending.pop(seq, None)

    async def aclose(self):
        self.dead = True
        self.task.cancel()
        try:
            await self.task
        except (asyncio.CancelledError, Exception):
            pass
        pending, self.pending = self.pending, {}
        for fut in pending.values():
            if not fut.done():
                fut.set_exception(ConnectionError("transport closed"))
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class Transport:
    """Pooled, retrying, version-negotiating request transport.

    One instance per (host, port) client; shared by many concurrent
    coroutines.  v1 requests check pooled connections in and out
    (``pool_size`` caps dials); v2 requests pipeline through up to
    ``mux_conns`` multiplexed connections.  Transient transport failures
    are retried with exponential backoff up to ``max_retries`` attempts;
    ``ERR`` answers raise :class:`ServerError` immediately and are never
    retried.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 9876,
        pool_size: int = 4,
        max_retries: int = 3,
        backoff: float = 0.05,
        timeout: float = 5.0,
        mode: str = "auto",
        mux_conns: int = 1,
    ):
        if pool_size <= 0:
            raise ValueError(f"pool_size must be positive, got {pool_size}")
        if mode not in ("auto", "v1", "v2"):
            raise ValueError(f"mode must be auto/v1/v2, got {mode!r}")
        self.host = host
        self.port = port
        self.pool_size = pool_size
        self.max_retries = max_retries
        self.backoff = backoff
        self.timeout = timeout
        self.mode = mode
        self.mux_conns = max(1, mux_conns)
        #: negotiated protocol version: None until first use, then 1 or 2
        self.version = 1 if mode == "v1" else None
        self._pool = asyncio.Queue()  # idle v1 (reader, writer) pairs
        self._open = 0  # pooled/checked-out v1 conns + live mux conns
        self._mux = []  # live _MuxConn instances
        self._next_mux = 0
        self._neg_lock = None  # created lazily: needs a running loop on 3.9
        self._closed = False

    # -- negotiation ----------------------------------------------------------

    async def _negotiate(self) -> None:
        """Resolve ``self.version`` by probing the server once.

        Serialised under a lazy lock so concurrent first requests probe
        exactly once; dial failures retry with the transport's backoff.
        """
        if self.version is not None:
            return
        if self._neg_lock is None:
            self._neg_lock = asyncio.Lock()
        async with self._neg_lock:
            if self.version is not None:
                return
            attempt = 0
            while True:
                try:
                    await self._probe_once()
                    return
                except asyncio.CancelledError:
                    raise
                except (ConnectionError, OSError, asyncio.TimeoutError,
                        asyncio.IncompleteReadError) as exc:
                    attempt += 1
                    if attempt > self.max_retries:
                        raise ConnectionError(
                            f"negotiation failed after {attempt} attempts: {exc}"
                        ) from exc
                    await asyncio.sleep(self.backoff * (2 ** (attempt - 1)))

    async def _probe_once(self) -> None:
        """One HELLO probe: dial, send, sniff the first response byte.

        On success the probe connection is committed — as the first mux
        connection (v2) or into the v1 pool — so negotiation costs no
        extra round trip.  On any failure (including cancellation) the
        connection is closed and ``_open`` is untouched: the probe is
        only counted once committed.
        """
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(self.host, self.port), self.timeout
        )
        try:
            enc = FrameEncoder()
            writer.write(enc.simple(VERB_IDS["HELLO"], 0, HELLO_PAYLOAD))
            await writer.drain()
            first = await asyncio.wait_for(reader.readexactly(1), self.timeout)
            if first[0] == MAGIC:
                # v2 server: consume the HELLO response frame, keep the conn
                frame = await asyncio.wait_for(
                    read_frame(reader, first_byte=first), self.timeout
                )
                if frame is None or STATUS_NAMES.get(frame.verb_id) != "HELLO":
                    raise ConnectionError("malformed HELLO response")
                self.version = 2
                # repro: atomic=committed under _neg_lock with no await between the version flip and the counter bump
                self._open += 1
                self._mux.append(_MuxConn(self, reader, writer))
                return
            if self.mode == "v2":
                raise ConnectionError(
                    f"server at {self.host}:{self.port} does not speak "
                    f"protocol v2 (forced mode=v2)"
                )
            # v1 server: the probe frame read as one garbage line and was
            # answered "ERR request not utf-8" — drain it, pool the conn
            line = first + await asyncio.wait_for(reader.readline(), self.timeout)
            if not line.endswith(b"\n"):
                raise ConnectionError("server closed during negotiation")
            self.version = 1
            # repro: atomic=committed under _neg_lock with no await between the version flip and the counter bump
            self._open += 1
            self._pool.put_nowait((reader, writer))
        except FrameError as exc:
            writer.close()
            raise ConnectionError(str(exc)) from exc
        except BaseException:
            # repro: atomic=probe conns are counted only once committed, so every failure path (cancel included) just closes
            writer.close()
            raise

    # -- unified request API --------------------------------------------------

    async def call(self, verb: str, *fields, trace=None) -> Reply:
        """Send ``verb`` with positional ``fields``; returns a :class:`Reply`.

        Negotiates the protocol on first use, frames the request for the
        negotiated version, retries transient transport failures, and
        raises :class:`ServerError` on an ``ERR`` answer, or without
        sending anything for a v2-only verb over v1.  ``trace`` is a
        :class:`~repro.obs.dist.TraceContext` carried as the typed trace
        frame field (v2) or the trailing ``T=`` text field (v1).
        """
        if self._closed:
            raise RuntimeError("client is closed")
        if self.version is None:
            await self._negotiate()
        if self.version == 1 and verb not in V1_VERBS:
            raise ServerError(
                f"{verb} needs wire protocol v2; this connection speaks v1"
            )
        token = wire_token(trace) if trace is not None else None
        attempt = 0
        while True:
            try:
                if self.version == 2:
                    conn = await self._pick_mux()
                    frame = await conn.call(verb, fields, token, self.timeout)
                    return self._reply_v2(frame)
                tokens, body = await self._request_once(
                    _v1_payload(verb, fields, token)
                )
                return Reply(tokens[0], body=body)
            except asyncio.CancelledError:
                raise
            except (ConnectionError, asyncio.IncompleteReadError,
                    asyncio.TimeoutError, OSError) as exc:
                attempt += 1
                if attempt > self.max_retries:
                    raise ConnectionError(
                        f"request failed after {attempt} attempts: {exc}"
                    ) from exc
                await asyncio.sleep(self.backoff * (2 ** (attempt - 1)))

    def _reply_v2(self, frame) -> Reply:
        status = STATUS_NAMES.get(frame.verb_id)
        if status is None:
            raise ConnectionError(f"unknown status id {frame.verb_id}")
        if status == "ERR":
            raise ServerError(frame.payload.decode("utf-8", "replace"))
        if status == "VALUES":
            rd = PayloadReader(frame.payload)
            values = [rd.value() if rd.u8() else None
                      for _ in range(rd.u32())]
            return Reply(status, values=values)
        if status == "STATUSES":
            rd = PayloadReader(frame.payload)
            values = [bool(rd.u8()) for _ in range(rd.u32())]
            return Reply(status, values=values)
        return Reply(status, body=frame.payload if frame.payload else None)

    # -- v2 connection management ---------------------------------------------

    async def _pick_mux(self) -> _MuxConn:
        """Round-robin over live mux connections, dialing up to the cap."""
        self._mux = [c for c in self._mux if not c.dead]
        if len(self._mux) < self.mux_conns:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(self.host, self.port), self.timeout
            )
            # repro: atomic=counter bumped in the same step the conn is registered; _drop_mux is the single decrement path
            self._open += 1
            conn = _MuxConn(self, reader, writer)
            # repro: atomic=concurrent dialers may briefly overshoot mux_conns; every conn is registered+counted, so close() still reaps all of them
            self._mux.append(conn)
            return conn
        self._next_mux = (self._next_mux + 1) % len(self._mux)
        return self._mux[self._next_mux]

    def _drop_mux(self, conn) -> None:
        if conn in self._mux:
            self._mux.remove(conn)
            self._open -= 1

    # -- v1 pool management ---------------------------------------------------

    async def _acquire(self):
        """Check a v1 connection out of the pool, dialing if allowed."""
        if self._closed:
            raise RuntimeError("client is closed")
        while True:
            try:
                conn = self._pool.get_nowait()
            except asyncio.QueueEmpty:
                break
            if not conn[1].is_closing():
                return conn
            self._open -= 1  # stale connection: drop and look again
        if self._open < self.pool_size:
            self._open += 1
            try:
                return await asyncio.wait_for(
                    asyncio.open_connection(self.host, self.port), self.timeout
                )
            except BaseException:
                # repro: atomic=releases the slot the += above reserved; every path balances the counter, no read is re-used across the await
                self._open -= 1
                raise
        return await self._pool.get()

    def _release(self, conn) -> None:
        if self._closed or conn[1].is_closing():
            self._discard(conn)
        else:
            self._pool.put_nowait(conn)

    def _discard(self, conn) -> None:
        self._open -= 1
        conn[1].close()

    # -- v1 request plumbing --------------------------------------------------

    async def _request_once(self, payload: bytes):
        """One v1 attempt on a pooled connection: no retries here."""
        conn = None
        try:
            conn = await self._acquire()
            reader, writer = conn
            writer.write(payload)
            await writer.drain()
            async with deadline(self.timeout):
                header = await reader.readline()
            if not header:
                raise ConnectionError("server closed connection")
            tokens = header.decode("utf-8").split()
            body = None
            if tokens and tokens[0] in BLOB_STATUSES:
                length = int(tokens[1])
                if not 0 <= length <= MAX_VALUE_BYTES:
                    raise ConnectionError(f"insane body length {length}")
                async with deadline(self.timeout):
                    body = await reader.readexactly(length + 1)
                body = body[:-1]
        except asyncio.CancelledError:
            # cancelled from outside (e.g. a caller's wait_for) with the
            # request possibly already on the wire: the pending response
            # would poison the next request on this connection, so tear
            # it down instead of repooling it
            if conn is not None:
                self._discard(conn)
            raise
        except (ConnectionError, asyncio.IncompleteReadError,
                asyncio.TimeoutError, OSError):
            if conn is not None:  # dial failures never joined the pool
                self._discard(conn)
            raise
        self._release(conn)
        if tokens and tokens[0] == "ERR":
            raise ServerError(" ".join(tokens[1:]))
        return tokens, body

    # -- lifecycle ------------------------------------------------------------

    async def close(self) -> None:
        """Close every connection; in-flight v1 requests finish first."""
        self._closed = True
        for conn in list(self._mux):
            await conn.aclose()
            # repro: atomic=iterating a snapshot; _drop_mux is a no-op for conns a concurrent _read_loop failure already removed
            self._drop_mux(conn)
        while self._open > 0:
            try:
                reader, writer = await asyncio.wait_for(self._pool.get(), 1.0)
            except asyncio.TimeoutError:
                break  # still checked out; the holder discards on release
            # repro: atomic=loop re-reads _open each pass; concurrent _discard only decrements, so the worst case is an early exit
            self._open -= 1
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass


def _v1_payload(verb: str, fields, token) -> bytes:
    """Build the v1 request ``VERB f0 f1 ... [T=..]\\n[body\\n]``.

    One token per ``REQUEST_FIELDS`` entry; a ``value`` field is sent as
    its byte length on the line and as the body after it.
    """
    body = None
    args = [verb]
    for kind, field in zip(REQUEST_FIELDS[verb], fields):
        if kind == "value":
            body = field
            field = len(field)
        args.append(str(field))
    if token is not None:
        args.append(token)
    payload = " ".join(args).encode("utf-8") + b"\n"
    if body is not None:
        payload += body + b"\n"
    return payload
