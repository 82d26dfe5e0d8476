"""Load generation: replay simulator workloads as GET/SET cache traffic.

The generator converts the reference streams of
:mod:`repro.workloads.synthetic` / :mod:`repro.workloads.mixes` into
read-through cache traffic: each line address becomes a key, each reference
a GET, and every miss is followed by a SET offering the (deterministic)
value a backing store would have returned.  Because the key stream *is* the
simulator's address stream, the hit rates the service reports are directly
comparable to the simulator's SLLC hit rates on the same workload — the
point of the exercise is seeing the paper's selective allocation act as an
admission policy on live traffic.

One read-through step (:func:`_read_through`) serves three replays, which
report counts, not speed (speed numbers come from ``bench/run.py``):

* :func:`replay_store` — drive a store in-process (no sockets), in the
  same order as :func:`replay_interleaved`;
* :func:`replay_interleaved` — one worker round-robins the traces ref by
  ref through a client, so the arrival order is deterministic;
* :func:`replay_with_client` — one worker per trace through a shared
  client, all concurrent.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass

from ..workloads.trace import Workload

#: default value payload size (one cache line, matching the simulator)
VALUE_BYTES = 64


def key_of(addr: int) -> str:
    """Stable key for a line address (``line:<hex>``)."""
    return f"line:{addr:x}"


def value_of(addr: int, size: int = VALUE_BYTES) -> bytes:
    """Deterministic value payload a backing store would return."""
    seed = addr.to_bytes(8, "little", signed=True)
    reps = size // len(seed) + 1
    return (seed * reps)[:size]


@dataclass
class LoadResult:
    """Client-side counts of one replay."""

    name: str
    ops: int = 0
    gets: int = 0
    hits: int = 0
    sets: int = 0
    sets_stored: int = 0
    sets_tagged: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of GETs answered from the cache (client-observed)."""
        return self.hits / self.gets if self.gets else 0.0

    def summary(self) -> dict:
        """JSON-safe summary: the counts and the hit rate."""
        return {
            "name": self.name,
            "ops": self.ops,
            "gets": self.gets,
            "hits": self.hits,
            "hit_rate": self.hit_rate,
            "sets": self.sets,
            "sets_stored": self.sets_stored,
            "sets_tagged": self.sets_tagged,
        }


async def _read_through(cache, addr: int, result: LoadResult,
                        value_bytes: int) -> None:
    """GET ``addr``'s key; on a miss SET its value; count both."""
    key = key_of(addr)
    result.gets += 1
    result.ops += 1
    if await cache.get(key) is not None:
        result.hits += 1
        return
    result.sets += 1
    result.ops += 1
    if await cache.set(key, value_of(addr, value_bytes)):
        result.sets_stored += 1
    else:
        result.sets_tagged += 1


class _InProcess:
    """Async ``get``/``set`` over a store's synchronous ones."""

    def __init__(self, store):
        self._store = store

    async def get(self, key):
        return self._store.get(key)

    async def set(self, key, value):
        return self._store.set(key, value)


def replay_store(store, workload: Workload,
                 value_bytes: int = VALUE_BYTES) -> LoadResult:
    """Replay ``workload`` against a store object in-process.

    ``store`` is anything with ``get``/``set`` (a
    :class:`~repro.service.store.ReuseStore` or
    :class:`~repro.service.sharding.ShardedStore`).  The order is
    :func:`replay_interleaved`'s, so a live server holding the same store
    configuration counts exactly the same hits.  Must not be called from
    a running event loop.
    """
    return asyncio.run(
        replay_interleaved(_InProcess(store), workload, value_bytes)
    )


async def replay_interleaved(client, workload: Workload,
                             value_bytes: int = VALUE_BYTES) -> LoadResult:
    """Replay ``workload`` through ``client`` in deterministic arrival order.

    One worker round-robins the traces ref by ref, approximating the
    concurrent arrival order the simulator's cores would produce.
    Concurrent workers (:func:`replay_with_client`) reach a different
    interleaving on every run and for every topology, which perturbs
    replacement locality by more than a capacity change moves the hit
    rate; studies that *compare* hit rates (the ``service-admission`` and
    ``cluster-scaling`` experiments) pin the order so that the store is
    the only variable.  The caller keeps ownership of the client.
    """
    result = LoadResult(name=workload.name)
    streams = [t.addrs for t in workload.traces]
    for i in range(max(len(addrs) for addrs in streams)):
        for addrs in streams:
            if i < len(addrs):
                await _read_through(client, addrs[i], result, value_bytes)
    return result


async def replay_with_client(client, workload: Workload,
                             value_bytes: int = VALUE_BYTES) -> LoadResult:
    """Replay ``workload`` through an existing client, traces concurrent.

    ``client`` is anything with async ``get``/``set`` — a
    :class:`~repro.service.client.CacheClient` or a cluster-routing
    client — and is *shared* by all trace workers (its connection
    multiplexes them).  The caller keeps ownership: the client is not
    closed.
    """
    result = LoadResult(name=workload.name)

    async def worker(addrs) -> None:
        for addr in addrs:
            await _read_through(client, addr, result, value_bytes)

    await asyncio.gather(*[worker(t.addrs) for t in workload.traces])
    return result
