"""repro.service — serving-stack machinery built on the paper's policies.

The simulator answers "would the reuse cache have hit?"; this package serves
real GET/SET traffic with the same decision logic:

* :class:`~repro.service.store.ReuseStore` — object cache whose admission
  is the paper's selective allocation (NRR tag directory, Clock data
  store); owned by the server's event-loop thread, not thread-safe;
* :class:`~repro.service.sharding.ShardedStore` — hash-sharded front end;
* :class:`~repro.service.server.CacheServer` — asyncio TCP server
  (binary v2 frames, connection limits, graceful shutdown);
* :class:`~repro.service.client.CacheClient` — asyncio client with
  retry/backoff over one multiplexed connection;
* :mod:`~repro.service.loadgen` — replays :mod:`repro.workloads` traces as
  read-through cache traffic, so hit rates line up with the simulator's;
* :class:`~repro.service.stats.ShardStats` — per-shard counters and
  latency quantiles surfaced through STATS.

Start a server with ``python -m repro serve`` (or the ``repro`` console
script); compare admission policies with ``repro run service-admission``.
"""

from .client import CacheClient, ServerError
from .loadgen import LoadResult, key_of, replay_store, value_of
from .server import CacheServer, ProtocolError, run_server
from .sharding import ShardedStore
from .stats import ShardStats, merge_snapshots
from .store import ReuseStore, stable_hash

__all__ = [
    "ReuseStore",
    "ShardedStore",
    "CacheServer",
    "CacheClient",
    "ServerError",
    "ProtocolError",
    "ShardStats",
    "LoadResult",
    "run_server",
    "replay_store",
    "key_of",
    "value_of",
    "stable_hash",
    "merge_snapshots",
]
