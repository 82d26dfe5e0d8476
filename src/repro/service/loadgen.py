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

Two harnesses share that conversion:

* :func:`replay_store` — drive a store in-process (no sockets), the fastest
  way to compare admission policies at equal data capacity;
* :func:`run_load` — closed-loop load against a running server: one
  asyncio client per core-trace, each issuing its trace's requests
  back-to-back, measuring client-side throughput and latency quantiles.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

from ..obs.logging import get_logger
from ..obs.prof import clock
from ..workloads.trace import Trace, Workload
from .client import CacheClient
from .stats import quantile

log = get_logger(__name__)

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
    """Client-side measurements of one load-generation run."""

    name: str
    ops: int = 0
    gets: int = 0
    hits: int = 0
    sets: int = 0
    sets_stored: int = 0
    sets_tagged: int = 0
    wall_s: float = 0.0
    latencies_s: list = field(default_factory=list, repr=False)
    server_stats: dict = field(default_factory=dict, repr=False)

    @property
    def hit_rate(self) -> float:
        """Fraction of GETs answered from the cache (client-observed)."""
        return self.hits / self.gets if self.gets else 0.0

    @property
    def throughput(self) -> float:
        """Requests per second over the whole run."""
        return self.ops / self.wall_s if self.wall_s else 0.0

    def summary(self) -> dict:
        """JSON-safe summary (what the bench harness persists)."""
        return {
            "name": self.name,
            "ops": self.ops,
            "gets": self.gets,
            "hits": self.hits,
            "hit_rate": self.hit_rate,
            "sets": self.sets,
            "sets_stored": self.sets_stored,
            "sets_tagged": self.sets_tagged,
            "wall_s": self.wall_s,
            "throughput_rps": self.throughput,
            "p50_ms": quantile(self.latencies_s, 0.50) * 1e3,
            "p99_ms": quantile(self.latencies_s, 0.99) * 1e3,
        }


# -- in-process replay (no sockets) -----------------------------------------


def replay_store(store, workload: Workload, value_bytes: int = VALUE_BYTES) -> LoadResult:
    """Replay ``workload`` against a store object in-process.

    ``store`` is anything with ``get``/``set`` (a
    :class:`~repro.service.store.ReuseStore` or
    :class:`~repro.service.sharding.ShardedStore`).  Traces are interleaved
    round-robin, approximating the concurrent arrival order the simulator's
    cores would produce.
    """
    result = LoadResult(name=workload.name)
    start = clock()
    streams = [(t.addrs, len(t.addrs)) for t in workload.traces]
    longest = max(n for _, n in streams)
    for i in range(longest):
        for addrs, n in streams:
            if i >= n:
                continue
            addr = addrs[i]
            key = key_of(addr)
            result.gets += 1
            result.ops += 1
            if store.get(key) is not None:
                result.hits += 1
                continue
            result.sets += 1
            result.ops += 1
            if store.set(key, value_of(addr, value_bytes)):
                result.sets_stored += 1
            else:
                result.sets_tagged += 1
    result.wall_s = clock() - start
    return result


# -- closed-loop load against a live server ----------------------------------


async def _replay_trace(
    client: CacheClient,
    trace: Trace,
    result: LoadResult,
    value_bytes: int,
    sample_every: int,
) -> None:
    """One worker: issue the trace's read-through traffic back-to-back."""
    await _replay_addrs(client, trace.addrs, result, value_bytes, sample_every)


async def _replay_addrs(
    client,
    addrs,
    result: LoadResult,
    value_bytes: int,
    sample_every: int,
) -> None:
    """Issue one address stream's read-through traffic back-to-back."""
    for i, addr in enumerate(addrs):
        key = key_of(addr)
        t0 = clock()
        value = await client.get(key)
        if i % sample_every == 0:
            result.latencies_s.append(clock() - t0)
        result.gets += 1
        result.ops += 1
        if value is not None:
            result.hits += 1
            continue
        stored = await client.set(key, value_of(addr, value_bytes))
        result.sets += 1
        result.ops += 1
        if stored:
            result.sets_stored += 1
        else:
            result.sets_tagged += 1


async def replay_with_client(
    client,
    workload: Workload,
    value_bytes: int = VALUE_BYTES,
    sample_every: int = 1,
) -> LoadResult:
    """Replay ``workload`` through an existing client, traces concurrent.

    ``client`` is anything with async ``get``/``set`` — a
    :class:`CacheClient` or a cluster-routing client — and is *shared* by
    all trace workers (its connection multiplexes them).  The caller
    keeps ownership: the client is not closed.
    """
    result = LoadResult(name=workload.name)
    start = clock()
    await asyncio.gather(*[
        _replay_trace(client, trace, result, value_bytes, sample_every)
        for trace in workload.traces
    ])
    result.wall_s = clock() - start
    return result


async def replay_interleaved(
    client,
    workload: Workload,
    value_bytes: int = VALUE_BYTES,
    sample_every: int = 1,
) -> LoadResult:
    """Replay ``workload`` through ``client`` in deterministic arrival order.

    One worker round-robins the traces ref by ref — the live twin of
    :func:`replay_store`'s interleaving.  Concurrent workers
    (:func:`replay_with_client`) reach a different interleaving for every
    topology, which perturbs replacement locality by more than a
    capacity change moves the hit rate; sweeps that *compare* hit rates
    across topologies (``repro cluster bench``) need the arrival order
    pinned so capacity is the only variable.  The caller keeps ownership
    of the client.
    """
    result = LoadResult(name=workload.name)
    start = clock()
    streams = [(t.addrs, len(t.addrs)) for t in workload.traces]
    longest = max(n for _, n in streams)
    step = 0
    for i in range(longest):
        for addrs, n in streams:
            if i >= n:
                continue
            addr = addrs[i]
            key = key_of(addr)
            t0 = clock()
            value = await client.get(key)
            if step % sample_every == 0:
                result.latencies_s.append(clock() - t0)
            step += 1
            result.gets += 1
            result.ops += 1
            if value is not None:
                result.hits += 1
                continue
            stored = await client.set(key, value_of(addr, value_bytes))
            result.sets += 1
            result.ops += 1
            if stored:
                result.sets_stored += 1
            else:
                result.sets_tagged += 1
    result.wall_s = clock() - start
    return result


async def _replay_addrs_batched(
    client,
    addrs,
    result: LoadResult,
    value_bytes: int,
    batch: int,
    sample_every: int,
) -> None:
    """Issue one address stream as MGET/MSET batches of ``batch`` refs.

    Each chunk is one MGET for the keys followed by one MSET offering
    values for the misses (read-through), so round trips drop by
    ~``batch``×.
    """
    for start in range(0, len(addrs), batch):
        chunk = addrs[start:start + batch]
        keys = [key_of(addr) for addr in chunk]
        t0 = clock()
        values = await client.mget(keys)
        if (start // batch) % sample_every == 0:
            result.latencies_s.append(clock() - t0)
        result.gets += len(chunk)
        result.ops += len(chunk)
        misses = [(addr, key) for addr, key, value
                  in zip(chunk, keys, values) if value is None]
        result.hits += len(chunk) - len(misses)
        if not misses:
            continue
        flags = await client.mset(
            [(key, value_of(addr, value_bytes)) for addr, key in misses]
        )
        result.sets += len(misses)
        result.ops += len(misses)
        stored = sum(1 for flag in flags if flag)
        result.sets_stored += stored
        result.sets_tagged += len(misses) - stored


async def run_load(
    host: str,
    port: int,
    workload: Workload,
    value_bytes: int = VALUE_BYTES,
    sample_every: int = 1,
    fetch_server_stats: bool = True,
    pipeline: int = 1,
    batch: int = 1,
) -> LoadResult:
    """Closed-loop run: one client (one connection) per trace.

    Every core-trace of ``workload`` gets its own worker coroutine and
    client, all running concurrently; each worker issues its next request as
    soon as the previous response arrives (closed loop).  Client-side
    latency is sampled every ``sample_every`` GETs to bound memory on long
    runs.

    ``pipeline`` splits each trace over N concurrent workers sharing the
    trace's client (they multiplex its connection — many requests in
    flight per socket); ``batch`` > 1 chunks each worker's refs into
    MGET/MSET batch verbs.
    """
    result = LoadResult(name=workload.name)
    log.debug(
        "load %s: %d trace(s) against %s:%d",
        workload.name, len(workload.traces), host, port,
    )
    clients = [CacheClient(host, port) for _ in workload.traces]
    start = clock()
    try:
        workers = []
        for client, trace in zip(clients, workload.traces):
            if pipeline <= 1:
                slices = [trace.addrs]
            else:
                # stride slices: worker w takes refs w, w+N, w+2N, ... so
                # every worker sees the trace's locality, not one segment
                slices = [trace.addrs[w::pipeline] for w in range(pipeline)]
            for addrs in slices:
                if len(addrs) == 0:
                    continue
                if batch > 1:
                    workers.append(_replay_addrs_batched(
                        client, addrs, result, value_bytes, batch,
                        sample_every,
                    ))
                else:
                    workers.append(_replay_addrs(
                        client, addrs, result, value_bytes, sample_every
                    ))
        await asyncio.gather(*workers)
        result.wall_s = clock() - start
        log.debug(
            "load %s: %d ops in %.2fs (hit rate %.4f)",
            workload.name, result.ops, result.wall_s, result.hit_rate,
        )
        if fetch_server_stats:
            result.server_stats = await clients[0].stats()
    finally:
        for client in clients:
            await client.close()
    return result
