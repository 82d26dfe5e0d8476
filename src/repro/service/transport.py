"""One shared client transport for the service and cluster protocols.

Every client in the tree — :class:`~repro.service.client.CacheClient`,
the cluster's ``PeerClient`` and ``ClusterClient`` — sends its requests
through :class:`Transport`: wire protocol v2 frames
(:mod:`repro.service.protocol`) pipelined over one multiplexed
connection, with retry and exponential backoff.

There is no handshake.  Every frame header carries the magic and
version bytes, and :func:`~repro.service.protocol.read_frame` rejects a
wrong one with :class:`~repro.service.protocol.FrameError`, so a peer
that does not speak v2 fails closed on its first reply: the connection
drops and the call fails as a transport error.
"""

from __future__ import annotations

import asyncio

from ..obs.dist import wire_token
from .deadline import deadline
from .protocol import (
    FrameEncoder,
    FrameError,
    PayloadReader,
    Reply,
    STATUS_NAMES,
    encode_request,
    read_frame,
)


class ServerError(Exception):
    """An ``ERR`` answer from the server (not retried)."""


class _MuxConn:
    """One multiplexed connection: many in-flight frames, one reader.

    Requests are tagged with a per-connection sequence id; a background
    read loop matches response frames back to caller futures, so any
    number of tasks can pipeline through one socket.  A caller that
    times out or is cancelled just abandons its sequence id — the late
    response is dropped on arrival and the connection stays healthy.
    """

    __slots__ = ("reader", "writer", "enc", "pending", "next_seq", "dead",
                 "task")

    def __init__(self, reader, writer):
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
    """Retrying request transport over one multiplexed connection.

    One instance per (host, port) client; shared by many concurrent
    coroutines, which all pipeline through the same connection.  The
    connection is dialed on first use and redialed after it drops.
    Transient transport failures are retried with exponential backoff up
    to ``max_retries`` attempts; ``ERR`` answers raise
    :class:`ServerError` immediately and are never retried.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 9876,
        max_retries: int = 3,
        backoff: float = 0.05,
        timeout: float = 5.0,
    ):
        self.host = host
        self.port = port
        self.max_retries = max_retries
        self.backoff = backoff
        self.timeout = timeout
        self._conn = None  # the live _MuxConn, once dialed
        self._dial_lock = None  # created lazily: needs a running loop on 3.9
        self._closed = False

    async def call(self, verb: str, *fields, trace=None) -> Reply:
        """Send ``verb`` with positional ``fields``; returns a :class:`Reply`.

        Retries transient transport failures and raises
        :class:`ServerError` on an ``ERR`` answer.  ``trace`` is a
        :class:`~repro.obs.dist.TraceContext` carried as the frame's
        typed trace field.
        """
        if self._closed:
            raise RuntimeError("client is closed")
        token = wire_token(trace) if trace is not None else None
        attempt = 0
        while True:
            try:
                conn = self._conn
                if conn is None or conn.dead:
                    conn = await self._dial()
                frame = await conn.call(verb, fields, token, self.timeout)
                return self._reply(frame)
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

    async def _dial(self) -> _MuxConn:
        """The live connection, dialing it if there is none.

        Serialised under a lazy lock, so concurrent first callers share
        the one connection the first of them dials.
        """
        if self._dial_lock is None:
            self._dial_lock = asyncio.Lock()
        async with self._dial_lock:
            conn = self._conn
            if conn is None or conn.dead:
                reader, writer = await asyncio.wait_for(
                    asyncio.open_connection(self.host, self.port),
                    self.timeout,
                )
                conn = self._conn = _MuxConn(reader, writer)
            return conn

    def _reply(self, frame) -> Reply:
        status = STATUS_NAMES.get(frame.verb_id)
        if status is None:
            raise ConnectionError(f"unknown status id {frame.verb_id}")
        if status == "ERR":
            raise ServerError(frame.payload.decode("utf-8", "replace"))
        if status == "VALUES":
            return Reply(status,
                         values=PayloadReader(frame.payload).batch_values())
        if status == "STATUSES":
            return Reply(status,
                         values=PayloadReader(frame.payload).batch_flags())
        return Reply(status, body=frame.payload if frame.payload else None)

    async def close(self) -> None:
        """Close the connection; in-flight callers get ConnectionError."""
        self._closed = True
        conn, self._conn = self._conn, None
        if conn is not None:
            await conn.aclose()
