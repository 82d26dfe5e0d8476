#!/usr/bin/env python
"""Serving mode end-to-end: server + client + load generator in one process.

Starts a sharded reuse-admission cache server on an ephemeral port, walks
one key through the paper's admission state machine with a client
(first touch tags, second touch admits), then replays a synthetic workload
through the load generator and prints the per-shard STATS the server
exposes — the serving-stack face of the reuse cache's selective allocation.

Run from the repo root::

    PYTHONPATH=src python examples/service_demo.py
"""

import asyncio

from repro.service import CacheClient, CacheServer, ShardedStore
from repro.service.loadgen import replay_with_client
from repro.workloads.mixes import build_workload


async def admission_walkthrough(client: CacheClient) -> None:
    """One key through I -> TO -> S, narrated."""
    key, value = "user:42", b"profile-bytes"
    print(f"GET {key}:      miss={await client.get(key) is None}   (first touch: tag only)")
    print(f"SET {key}:    stored={await client.set(key, value)}  (declined: no reuse yet)")
    print(f"GET {key}:      miss={await client.get(key) is None}   (second touch: reuse detected)")
    print(f"SET {key}:    stored={await client.set(key, value)}   (admitted to the data store)")
    hit = await client.get(key)
    print(f"GET {key}:       hit={hit == value}   (served from the data store)")


async def main() -> None:
    store = ShardedStore(num_shards=4, data_capacity=512, admission="reuse")
    server = CacheServer(store, port=0)  # ephemeral port
    await server.start()
    print(f"server: 4 shards x {store.data_capacity // 4} entries "
          f"on 127.0.0.1:{server.port}\n")

    async with CacheClient("127.0.0.1", server.port) as client:
        await admission_walkthrough(client)

        print("\nreplaying a 2-core synthetic workload as GET/SET traffic ...")
        workload = build_workload(["gcc", "mcf"], n_refs=5_000, seed=7)
        result = await replay_with_client(client, workload)
        print(f"  {result.ops} requests, hit rate {result.hit_rate:.3f}, "
              f"stored {result.sets_stored}, declined {result.sets_tagged}")

        stats = await client.stats()
        print("\nper-shard STATS:")
        for i, shard in enumerate(stats["shards"]):
            print(f"  shard {i}: hits={shard['hits']:<6} "
                  f"misses={shard['misses']:<6} "
                  f"admitted={shard['reuse_admissions']:<5} "
                  f"evicted={shard['data_evictions']:<5} "
                  f"p99={shard['p99_s'] * 1e3:.2f}ms")
        total = stats["total"]
        print(f"  total:   hit_rate={total['hit_rate']:.3f} "
              f"bytes_stored={total['bytes_stored']}")

    await server.stop()
    print("\nserver drained and stopped")


if __name__ == "__main__":
    asyncio.run(main())
