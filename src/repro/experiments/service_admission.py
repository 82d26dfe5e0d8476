"""Extension study: the paper's selective allocation as a live admission policy.

The serving twin of Figs. 6 and 8: the same synthetic workload the
simulator uses is replayed as read-through GET/SET traffic against two
live :class:`~repro.service.server.CacheServer` instances that differ
*only* in admission — the paper's reuse-based selective allocation vs
admit-always — at identical, downsized data capacity.  The claim is
``hit_rate_per_mb_gain > 0``: selective allocation serves more hits per
byte of data store.

Both legs replay in :func:`~repro.service.loadgen.replay_interleaved`'s
deterministic order and report counts only, so the result is
byte-identical on every run and equals what
:func:`~repro.service.loadgen.replay_store` counts in-process for the
same store configuration.  Speed numbers come from ``bench/run.py``.
Like ``cluster-scaling``, the driver runs live asyncio servers rather
than simulator cells, so the ``runner`` argument is accepted for
registry uniformity but unused.
"""

from __future__ import annotations

import asyncio

from ..service.client import CacheClient
from ..service.loadgen import VALUE_BYTES, replay_interleaved
from ..service.server import CacheServer
from ..service.sharding import ShardedStore
from ..workloads.mixes import EXAMPLE_MIX, build_workload
from .common import ExperimentParams

#: store shards of each server
SHARDS = 4

#: total data-store entries of each server: the downsized regime where
#: admission quality matters (a plentiful capacity hides admission
#: mistakes, cf. paper Fig. 6)
DATA_CAPACITY = 512

#: references per core at most: each leg replays one request at a time
#: over a live socket, so the wall time grows with the refs
MAX_REFS = 25_000


def admission_store(admission: str, seed: int) -> ShardedStore:
    """The store one leg of the study serves from."""
    return ShardedStore(num_shards=SHARDS, data_capacity=DATA_CAPACITY,
                        admission=admission, seed=seed)


async def _serve_one(admission: str, workload, seed: int) -> dict:
    """Replay the workload through one live server; summarise the counts."""
    server = CacheServer(admission_store(admission, seed), port=0)
    await server.start()
    try:
        async with CacheClient(server.host, server.port) as client:
            result = await replay_interleaved(client, workload)
            stats = await client.stats()
    finally:
        await server.stop()
    data_bytes = DATA_CAPACITY * VALUE_BYTES
    return {
        **result.summary(),
        "admission": admission,
        "data_capacity_entries": DATA_CAPACITY,
        "data_capacity_bytes": data_bytes,
        "hit_rate_per_mb": result.hit_rate / (data_bytes / 2**20),
        "stored_entries": stats["stored_entries"],
        "server_hit_rate": stats["total"]["hit_rate"],
    }


def run_service_admission(params: ExperimentParams | None = None,
                          runner=None) -> dict:
    """Reuse admission vs admit-always on live servers; returns a dict."""
    if params is None:
        params = ExperimentParams.from_env()
    refs = min(params.n_refs, MAX_REFS)
    workload = build_workload(EXAMPLE_MIX, n_refs=refs, seed=params.seed,
                              scale=params.scale)

    async def _run():
        return [await _serve_one(admission, workload, params.seed)
                for admission in ("reuse", "always")]

    reuse, always = asyncio.run(_run())
    return {
        "workload": workload.name,
        "refs_per_core": refs,
        "cores": workload.num_cores,
        "scale": params.scale,
        "seed": params.seed,
        "shards": SHARDS,
        "value_bytes": VALUE_BYTES,
        "reuse": reuse,
        "always": always,
        "hit_rate_gain": reuse["hit_rate"] - always["hit_rate"],
        "hit_rate_per_mb_gain":
            reuse["hit_rate_per_mb"] - always["hit_rate_per_mb"],
    }


def format_service_admission(result: dict) -> str:
    """Render the admission comparison as aligned text rows."""
    lines = [
        f"service admission — workload {result['workload']} "
        f"({result['cores']} cores x {result['refs_per_core']} refs, "
        f"scale {result['scale']}, seed {result['seed']})",
        f"{'admission':<10} {'hit rate':>9} {'hr/MB':>8} {'stored':>8} "
        f"{'tagged':>8}",
    ]
    for mode in ("reuse", "always"):
        row = result[mode]
        lines.append(
            f"{mode:<10} {row['hit_rate']:>9.4f} "
            f"{row['hit_rate_per_mb']:>8.3f} "
            f"{row['sets_stored']:>8} {row['sets_tagged']:>8}"
        )
    lines.append(
        f"hit-rate gain (reuse - always) at equal data capacity: "
        f"{result['hit_rate_gain']:+.4f} "
        f"({result['hit_rate_per_mb_gain']:+.3f} per MB)"
    )
    return "\n".join(lines)
