"""Hash-based sharding of :class:`~repro.service.store.ReuseStore` instances.

:class:`ShardedStore` spreads keys across N independent stores the way a
banked SLLC spreads line addresses across banks: a stable hash of the key
(low 32 bits of :func:`~repro.service.store.stable_hash`; the stores' tag
directories index with the high bits, so the two maps stay decorrelated)
picks the shard.  The front end hashes each key once and hands the hash to
the shard, so a tag miss does not hash it again.

Like its shards, a sharded store is owned by the server's event-loop thread
and is not thread-safe; no store operation awaits, so requests interleave
only between operations.  Listeners must not re-enter the store.

The key→shard map depends only on ``(key, num_shards)``, never on process
state or insertion order, so a client computing shards locally and a server
routing internally always agree.
"""

from __future__ import annotations

from functools import lru_cache

from ..obs import Observability
from .stats import merge_snapshots
from .store import ReuseStore, stable_hash


class ShardedStore:
    """N-way sharded front end over independent :class:`ReuseStore` shards.

    :attr:`key_hash` memoises :func:`~repro.service.store.stable_hash` in
    one LRU memo bounded by the shards' summed ``tag_capacity``, the number
    of keys the tags can track: a key whose tag is resident is usually
    still in the memo, so routing it costs no blake2b.
    """

    def __init__(
        self,
        num_shards: int = 4,
        data_capacity: int = 1024,
        tag_capacity: int | None = None,
        tag_assoc: int = 8,
        admission: str = "reuse",
        seed: int = 0,
        obs: Observability | None = None,
    ):
        if num_shards <= 0:
            raise ValueError(f"num_shards must be positive, got {num_shards}")
        if data_capacity < num_shards:
            raise ValueError(
                f"data_capacity ({data_capacity}) must be >= num_shards "
                f"({num_shards}) so every shard holds at least one entry"
            )
        self.num_shards = num_shards
        self.admission = admission
        per_shard_data = data_capacity // num_shards
        per_shard_tags = tag_capacity // num_shards if tag_capacity else None
        self.shards = [
            ReuseStore(
                data_capacity=per_shard_data,
                tag_capacity=per_shard_tags,
                tag_assoc=tag_assoc,
                admission=admission,
                seed=seed + i,
            )
            for i in range(num_shards)
        ]
        self.data_capacity = per_shard_data * num_shards
        #: memoised ``stable_hash``; every routing site goes through it
        self.key_hash = lru_cache(
            maxsize=sum(shard.tag_capacity for shard in self.shards)
        )(stable_hash)
        #: observability bundle (disabled by default: zero overhead).  When
        #: metrics are on, a collector mirrors each shard's ShardStats into
        #: the registry at snapshot time — the request path stays plain ints.
        self.obs = obs if obs is not None else Observability.disabled()
        if self.obs.registry.enabled:
            self.obs.registry.register_collector(self._publish_metrics)

    # -- routing -------------------------------------------------------------

    def shard_of(self, key: str) -> int:
        """Deterministic shard index for ``key`` (stable across processes)."""
        return (self.key_hash(key) & 0xFFFFFFFF) % self.num_shards

    def shard_for(self, key: str) -> ReuseStore:
        """The shard instance responsible for ``key``."""
        return self.shards[self.shard_of(key)]

    # -- key/value API (delegates to the owning shard) -----------------------

    def get(self, key: str):
        """Look up ``key`` on its shard; value bytes or ``None``."""
        key_hash = self.key_hash(key)
        return (self.shards[(key_hash & 0xFFFFFFFF) % self.num_shards]
                .get(key, key_hash))

    def set(self, key: str, value: bytes) -> bool:
        """Offer ``value`` on the owning shard; True iff stored."""
        key_hash = self.key_hash(key)
        return (self.shards[(key_hash & 0xFFFFFFFF) % self.num_shards]
                .set(key, value, key_hash))

    def get_many(self, keys) -> list:
        """:meth:`get` of every key in ``keys``; one result per key.

        Each key is hashed once, for its shard and its tag set both, and
        served in request order, never regrouped by shard: every shard
        sees the same operations in the same order as from singles.
        """
        shards, num_shards, hash_of = self.shards, self.num_shards, self.key_hash
        out = []
        append = out.append
        for key in keys:
            key_hash = hash_of(key)
            append(shards[(key_hash & 0xFFFFFFFF) % num_shards]
                   .get(key, key_hash))
        return out

    def set_many(self, items) -> list:
        """:meth:`set` of every ``(key, value)`` pair; one stored-bool each.

        Hashed once per key and served in request order, as
        :meth:`get_many`.
        """
        shards, num_shards, hash_of = self.shards, self.num_shards, self.key_hash
        out = []
        append = out.append
        for key, value in items:
            key_hash = hash_of(key)
            append(shards[(key_hash & 0xFFFFFFFF) % num_shards]
                   .set(key, value, key_hash))
        return out

    def delete(self, key: str) -> bool:
        """Remove ``key`` from its shard; True iff a value was held."""
        return self.shard_for(key).delete(key)

    def force_set(self, key: str, value: bytes) -> bool:
        """Store bypassing admission (cluster migration; see ReuseStore)."""
        return self.shard_for(key).force_set(key, value)

    def contains(self, key: str) -> bool:
        """True iff ``key``'s value is stored on its shard."""
        return self.shard_for(key).contains(key)

    def keys(self) -> list:
        """Every stored key across shards, sorted (deterministic order)."""
        out = []
        for shard in self.shards:
            out.extend(shard.keys())
        return sorted(out)

    def set_evict_listener(self, fn) -> None:
        """Install ``fn(key, kind)`` as every shard's eviction listener."""
        for shard in self.shards:
            shard.evict_listener = fn

    def set_decision_listener(self, fn) -> None:
        """Install ``fn(key, decision)`` as every shard's decision listener."""
        for shard in self.shards:
            shard.decision_listener = fn

    def __len__(self) -> int:
        return sum(len(shard) for shard in self.shards)

    def clear(self) -> None:
        """Clear every shard (entries and stats)."""
        for shard in self.shards:
            shard.clear()

    # -- stats ---------------------------------------------------------------

    #: monotonic ShardStats fields mirrored as registry counters
    _COUNTER_KEYS = (
        "hits", "misses", "reuse_admissions", "tag_only_sets",
        "data_evictions", "tag_evictions", "deletes", "bytes_written",
        "latency_samples",
    )

    def _publish_metrics(self, registry) -> None:
        """Collector mirroring per-shard ShardStats into the obs registry."""
        for i, shard in enumerate(self.shards):
            snap = shard.stats.snapshot()
            label = str(i)
            for key in self._COUNTER_KEYS:
                registry.counter(
                    f"repro_service_shard_{key}",
                    help="per-shard ShardStats counter",
                    shard=label,
                ).set_total(snap[key])
            registry.gauge(
                "repro_service_shard_bytes_stored", shard=label
            ).set(float(snap["bytes_stored"]))
            registry.gauge(
                "repro_service_shard_hit_rate", shard=label
            ).set(snap["hit_rate"])
            registry.gauge(
                "repro_service_shard_p50_seconds", shard=label
            ).set(snap["p50_s"])
            registry.gauge(
                "repro_service_shard_p99_seconds", shard=label
            ).set(snap["p99_s"])

    def stats_snapshot(self) -> dict:
        """Per-shard snapshots plus the cluster-wide aggregate."""
        per_shard = [shard.stats.snapshot() for shard in self.shards]
        return {
            "num_shards": self.num_shards,
            "admission": self.admission,
            "data_capacity": self.data_capacity,
            "stored_entries": sum(len(s) for s in self.shards),
            "shards": per_shard,
            "total": merge_snapshots(per_shard),
        }
