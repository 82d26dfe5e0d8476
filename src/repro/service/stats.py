"""Per-shard serving statistics for :mod:`repro.service`.

Each shard owns one :class:`ShardStats`: monotonic counters mirroring the
simulator's accounting (hits, misses, reuse admissions, evictions on both
the tag and data sides) plus one latency :class:`~repro.obs.registry.Histogram`
from which p50/p99 are read on demand.  Counters are plain ints mutated
through the ``record_*`` methods — :class:`ReuseStore` never pokes the
fields directly, so the obs registry's collectors (and the REP009 lint rule)
see one well-defined write path per statistic.

The histogram is the registry's log-bucketed one (``LATENCY_BOUNDS_S``,
factor-2 buckets) but is not registered anywhere: STATS reads it directly.
Every request lands in it, so the quantiles describe the whole run, and a
reported p50/p99 lies in the same bucket as the exact order statistic, i.e.
within a factor of 2 of it.  ``latency_samples`` is the histogram's count
and ``busy_s`` its sum.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..obs.registry import Histogram


def _latency_histogram() -> Histogram:
    return Histogram("repro_service_shard_latency_seconds", {})


@dataclass
class ShardStats:
    """Counters and latency histogram for one shard."""

    #: GETs served from the data store
    hits: int = 0
    #: GETs not served (tag-only or unknown key)
    misses: int = 0
    #: SETs admitted into the data store because the tag showed reuse
    reuse_admissions: int = 0
    #: SETs declined by the admission filter (key only tagged, no data stored)
    tag_only_sets: int = 0
    #: data-store entries evicted to make room (Clock victims)
    data_evictions: int = 0
    #: tag-directory entries evicted (NRR victims), i.e. reuse history lost
    tag_evictions: int = 0
    #: explicit DELs that removed a stored value
    deletes: int = 0
    #: bytes currently held by the data store
    bytes_stored: int = 0
    #: total bytes ever written into the data store
    bytes_written: int = 0
    #: request service times in seconds.  Its sum is the shard's *busy*
    #: time: shards share one event loop, so per-shard CPU cannot be read
    #: from the OS; busy seconds are the serving-side analogue (request wall
    #: time attributed to the shard that owned the key).
    latency: Histogram = field(default_factory=_latency_histogram, repr=False)

    # -- recording (one method per statistic; see module docstring) ------------

    def record_latency(self, seconds: float) -> None:
        """One request's service time."""
        self.latency.observe(seconds)

    def record_hit(self) -> None:
        """A GET served from the data store."""
        self.hits += 1

    def record_miss(self) -> None:
        """A GET that found no stored value."""
        self.misses += 1

    def record_admission(self, nbytes: int) -> None:
        """A SET admitted into the data store (reuse observed)."""
        self.reuse_admissions += 1
        self.bytes_stored += nbytes
        self.bytes_written += nbytes

    def record_update(self, new_bytes: int, old_bytes: int) -> None:
        """A SET updating an already-stored value in place."""
        self.bytes_stored += new_bytes - old_bytes
        self.bytes_written += new_bytes

    def record_tag_only_set(self) -> None:
        """A SET declined by the admission filter (key tagged, no store)."""
        self.tag_only_sets += 1

    def record_data_eviction(self) -> None:
        """A stored value evicted to make room (or freed by a tag eviction)."""
        self.data_evictions += 1

    def record_tag_eviction(self) -> None:
        """A tag-directory entry evicted (reuse history lost)."""
        self.tag_evictions += 1

    def record_delete(self) -> None:
        """An explicit DEL that removed a stored value."""
        self.deletes += 1

    def record_value_freed(self, nbytes: int) -> None:
        """A stored value released (eviction or delete): bytes accounting."""
        self.bytes_stored -= nbytes

    # -- derived views -----------------------------------------------------------

    @property
    def gets(self) -> int:
        """Total GET requests observed."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of GETs served from the data store."""
        total = self.gets
        return self.hits / total if total else 0.0

    def snapshot(self) -> dict:
        """JSON-safe view of the counters (used by the STATS command)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "gets": self.gets,
            "hit_rate": self.hit_rate,
            "reuse_admissions": self.reuse_admissions,
            "tag_only_sets": self.tag_only_sets,
            "data_evictions": self.data_evictions,
            "tag_evictions": self.tag_evictions,
            "deletes": self.deletes,
            "bytes_stored": self.bytes_stored,
            "bytes_written": self.bytes_written,
            "latency_samples": self.latency.count,
            "busy_s": self.latency.sum,
            "p50_s": self.latency.quantile(0.50),
            "p99_s": self.latency.quantile(0.99),
        }


def merge_snapshots(snapshots: list) -> dict:
    """Aggregate per-shard snapshots into a cluster-wide summary.

    Counters add; the hit rate is recomputed from the summed counters, and
    latency quantiles are reported as the max across shards (the slowest
    shard bounds user-visible tail latency).
    """
    total = {k: 0 for k in (
        "hits", "misses", "gets", "reuse_admissions", "tag_only_sets",
        "data_evictions", "tag_evictions", "deletes",
        "bytes_stored", "bytes_written", "latency_samples",
    )}
    p50 = p99 = 0.0
    busy_s = 0.0
    for snap in snapshots:
        for key in total:
            total[key] += snap.get(key, 0)
        busy_s += snap.get("busy_s", 0.0)
        p50 = max(p50, snap["p50_s"])
        p99 = max(p99, snap["p99_s"])
    total["busy_s"] = busy_s
    total["hit_rate"] = total["hits"] / total["gets"] if total["gets"] else 0.0
    total["p50_s"] = p50
    total["p99_s"] = p99
    return total
