"""Asyncio client for the :mod:`repro.service` cache protocol.

:class:`CacheClient` is a thin verb layer over one shared
:class:`~repro.service.transport.Transport`: the multiplexed v2
connection, retry with exponential backoff and request framing all live
in the transport, so the cluster's ``PeerClient`` and ``ClusterClient``
reuse the exact same plumbing instead of reimplementing it.
Protocol-level errors (``ERR ...``) are *not* retried, they raise
:class:`ServerError` immediately.

Typical use::

    async with CacheClient("127.0.0.1", 9876) as client:
        value = await client.get("user:42")
        if value is None:                       # miss: read through
            value = await fetch_from_backend()
            await client.set("user:42", value)  # admitted only on reuse
        hot = await client.mget(["user:42", "user:43"])  # one round trip
"""

from __future__ import annotations

import json

from .transport import Reply, ServerError, Transport  # noqa: F401  (re-export)


class CacheClient:
    """Asyncio cache client with retry/backoff over one v2 connection.

    The key/value verbs accept an optional ``trace`` keyword — a
    :class:`repro.obs.dist.TraceContext` carried as the frame's typed
    trace field — so a caller's span becomes the parent of the
    server-side request span (distributed causal tracing).
    ``trace=None`` (the default) sends no trace field.

    ``pool_size`` and ``protocol`` remain only because the benchmark
    harness (``bench/svcwork.py``) passes ``pool_size=1,
    protocol="v2"``: ``pool_size`` is ignored, and ``protocol`` must be
    ``"v2"``, the one framing, or the constructor raises ``ValueError``.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 9876,
        pool_size: int = 1,
        max_retries: int = 3,
        backoff: float = 0.05,
        timeout: float = 5.0,
        protocol: str = "v2",
    ):
        if protocol != "v2":
            raise ValueError(f"protocol must be 'v2', got {protocol!r}")
        self.host = host
        self.port = port
        self.max_retries = max_retries
        self.backoff = backoff
        self.timeout = timeout
        self.transport = Transport(
            host, port,
            max_retries=max_retries,
            backoff=backoff,
            timeout=timeout,
        )

    # -- lifecycle ----------------------------------------------------------

    async def close(self) -> None:
        """Close every connection; in-flight requests finish first."""
        await self.transport.close()

    async def __aenter__(self):
        return self

    async def __aexit__(self, *exc):
        await self.close()

    # -- protocol commands -----------------------------------------------------

    async def get(self, key: str, trace=None):
        """Value bytes for ``key``, or ``None`` on a miss."""
        reply = await self.transport.call("GET", key, trace=trace)
        if reply.status == "MISS":
            return None
        if reply.status == "VALUE":
            return reply.body if reply.body is not None else b""
        raise ServerError(f"unexpected response {reply.status!r}")

    async def set(self, key: str, value: bytes, trace=None) -> bool:
        """Offer ``value``; True if stored, False if only tagged (declined)."""
        reply = await self.transport.call("SET", key, value, trace=trace)
        if reply.status == "STORED":
            return True
        if reply.status == "TAGGED":
            return False
        raise ServerError(f"unexpected response {reply.status!r}")

    async def delete(self, key: str, trace=None) -> bool:
        """Delete ``key``; True iff a stored value was removed."""
        reply = await self.transport.call("DEL", key, trace=trace)
        if reply.status == "DELETED":
            return True
        if reply.status == "NOTFOUND":
            return False
        raise ServerError(f"unexpected response {reply.status!r}")

    async def mget(self, keys, trace=None) -> list:
        """Batch get in one round trip: ``bytes | None`` per key, in order."""
        keys = list(keys)
        if not keys:
            return []
        reply = await self.transport.call("MGET", keys, trace=trace)
        return _batch_reply(reply, "VALUES", len(keys))

    async def mset(self, items, trace=None) -> list:
        """Batch set of ``(key, value)`` pairs: one stored-bool per item."""
        items = list(items)
        if not items:
            return []
        reply = await self.transport.call("MSET", items, trace=trace)
        return _batch_reply(reply, "STATUSES", len(items))

    async def mdel(self, keys, trace=None) -> list:
        """Batch delete: one removed-bool per key, in key order."""
        keys = list(keys)
        if not keys:
            return []
        reply = await self.transport.call("MDEL", keys, trace=trace)
        return _batch_reply(reply, "STATUSES", len(keys))

    async def stats(self) -> dict:
        """The server's stats snapshot (per shard + aggregate)."""
        reply = await self.transport.call("STATS")
        if reply.status != "STATS":
            raise ServerError(f"unexpected response {reply.status!r}")
        return json.loads((reply.body or b"{}").decode("utf-8"))

    async def metrics(self) -> str:
        """The server's obs registry in Prometheus text format.

        Empty when the server runs with observability disabled.
        """
        reply = await self.transport.call("METRICS")
        if reply.status != "METRICS":
            raise ServerError(f"unexpected response {reply.status!r}")
        return (reply.body or b"").decode("utf-8")

    async def trace(self) -> list:
        """Drain the server's trace ring; returns the events as dicts.

        Each call hands back a disjoint batch (the server clears its ring
        on drain), so a collector polling several nodes never
        double-counts.  Empty list when tracing is disabled server-side.
        """
        reply = await self.transport.call("TRACE")
        if reply.status != "TRACE":
            raise ServerError(f"unexpected response {reply.status!r}")
        text = (reply.body or b"").decode("utf-8")
        return [json.loads(line) for line in text.splitlines() if line.strip()]

    async def ping(self) -> bool:
        """Round-trip health check."""
        reply = await self.transport.call("PING")
        return reply.status == "PONG"

    async def quit(self) -> bool:
        """Ask the server to close this connection after acking.

        The server hangs up right after the ``BYE``; the transport
        dials a fresh connection for the next request.
        """
        reply = await self.transport.call("QUIT")
        return reply.status == "BYE"


def _batch_reply(reply: Reply, status: str, count: int) -> list:
    """A batch reply's values, checked to hold one entry per item.

    A reply of another length raises :class:`ServerError`: a short one
    would otherwise pass the missing items off as misses.
    """
    if reply.status != status:
        raise ServerError(f"unexpected response {reply.status!r}")
    if len(reply.values) != count:
        raise ServerError(
            f"batch of {count} items answered with {len(reply.values)}"
        )
    return reply.values
