"""One shared client transport for the service and cluster protocols.

Every client in the tree — :class:`~repro.service.client.CacheClient`,
the cluster's ``PeerClient`` and ``ClusterClient`` — sends its requests
through :class:`Transport`: wire protocol v2 frames
(:mod:`repro.service.protocol`) pipelined over one multiplexed
connection, with retry and exponential backoff.

The connection is one ``asyncio.Protocol``: each reply frame is parsed
from the connection's :class:`~repro.service.protocol.FrameBuffer` as
its bytes arrive and resolves its caller's future there, so there is no
reader task and no read call per reply.

There is no handshake.  Every frame header carries the magic and
version bytes, and the frame parser rejects a wrong one with
:class:`~repro.service.protocol.FrameError`, so a peer that does not
speak v2 fails closed on its first reply: the connection drops and the
call fails as a transport error.
"""

from __future__ import annotations

import asyncio

from ..obs.dist import wire_token
from .deadline import deadline
from .protocol import (
    STATUS_IDS,
    STATUS_NAMES,
    FrameBuffer,
    FrameEncoder,
    FrameError,
    PayloadReader,
    Reply,
    encode_request,
)

#: the status id of an error reply
_ERR = STATUS_IDS["ERR"]


class ServerError(Exception):
    """An ``ERR`` answer from the server (not retried)."""


class _MuxConn(asyncio.Protocol):
    """One multiplexed connection: many in-flight frames, one buffer.

    Requests are tagged with a per-connection sequence id.  The replies
    are parsed from the connection's :class:`FrameBuffer` as they arrive
    (``data_received``), and each resolves its caller's future there, so
    any number of tasks can pipeline through one socket without a reader
    task.  A caller that times out or is cancelled just abandons its
    sequence id: the late reply is dropped on arrival and the connection
    stays healthy.
    """

    __slots__ = ("transport", "frames", "enc", "pending", "next_seq",
                 "dead", "error", "paused", "drained", "lost")

    def __init__(self):
        loop = asyncio.get_running_loop()
        self.transport = None
        self.frames = FrameBuffer()
        self.enc = FrameEncoder()
        self.pending = {}  # seq -> Future[Frame]
        self.next_seq = 1
        self.dead = False
        #: why the connection died (raised to a caller that finds it dead)
        self.error = None
        #: the server's receive window is full (pause_writing)
        self.paused = False
        #: resolved by resume_writing while callers wait for the window
        self.drained = None
        #: resolved once the socket is closed
        self.lost = loop.create_future()

    # -- asyncio.Protocol ---------------------------------------------------

    def connection_made(self, transport) -> None:
        self.transport = transport

    def data_received(self, data: bytes) -> None:
        frames, pending = self.frames, self.pending
        frames.feed(data)
        try:
            frame = frames.next_frame()
            while frame is not None:
                if frame.seq == 0 and frame.verb_id == _ERR:
                    # no request has seq 0: the server turned us away
                    self._fail(ConnectionError(
                        "server rejected connection: "
                        + frame.payload.decode("utf-8", "replace")))
                    return
                fut = pending.pop(frame.seq, None)
                if fut is not None and not fut.done():
                    fut.set_result(frame)
                frame = frames.next_frame()
        except FrameError as exc:
            self._fail(exc)

    def eof_received(self) -> bool:
        self._fail(ConnectionError("server closed connection"))
        return False

    def connection_lost(self, exc) -> None:
        self._fail(exc or ConnectionError("server closed connection"))
        if not self.lost.done():
            self.lost.set_result(None)

    def pause_writing(self) -> None:
        self.paused = True

    def resume_writing(self) -> None:
        self.paused = False
        drained, self.drained = self.drained, None
        if drained is not None and not drained.done():
            drained.set_result(None)

    # -- calls --------------------------------------------------------------

    def _fail(self, exc) -> None:
        """Mark the connection dead and fail every in-flight caller."""
        if not self.dead:
            self.dead = True
            self.error = exc
            self.transport.close()
        pending, self.pending = self.pending, {}
        for fut in pending.values():
            if not fut.done():
                fut.set_exception(ConnectionError(str(exc)))
        self.resume_writing()  # wake writers; their replies never come

    async def call(self, verb: str, fields, token, timeout: float):
        """Send one frame and await its matching response frame."""
        if self.dead:
            raise ConnectionError(str(self.error))
        seq = self.next_seq
        self.next_seq = (self.next_seq % 0xFFFFFFFF) + 1
        payload = encode_request(self.enc, verb, fields, seq, token)
        loop = asyncio.get_running_loop()
        fut = loop.create_future()
        self.pending[seq] = fut
        try:
            self.transport.write(payload)
            async with deadline(timeout):
                if self.paused:
                    if self.drained is None:
                        self.drained = loop.create_future()
                    # shared by every waiting caller: one caller's
                    # timeout must not cancel it under the others
                    await asyncio.shield(self.drained)
                return await fut
        finally:
            self.pending.pop(seq, None)

    async def aclose(self):
        self._fail(ConnectionError("transport closed"))
        await self.lost


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
                loop = asyncio.get_running_loop()
                _, conn = await asyncio.wait_for(
                    loop.create_connection(_MuxConn, self.host, self.port),
                    self.timeout,
                )
                self._conn = conn
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
