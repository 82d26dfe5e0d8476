"""In-process object cache with the paper's selective (reuse-based) admission.

:class:`ReuseStore` transplants the reuse cache's decoupled tag/data design
(Section 3 of the paper, :class:`repro.core.reuse_cache.ReuseCache`) from
64-byte lines to key/value objects:

* a **tag directory** tracks keys the store has *seen*, independently of
  whether their value is held.  It is set-associative, sized independently
  of the data store, and replaced with NRR
  (:class:`repro.replacement.nrr.NRRPolicy`) so recently *reused* keys keep
  their history;
* a **data store** holds values only for keys whose reuse has been observed.
  It is fully associative with Clock eviction
  (:class:`repro.replacement.clock.ClockPolicy`), the paper's choice for the
  fully associative data array.

Admission mirrors the paper's state machine (``I → TO → S``):

* first GET of a key **misses and allocates a tag only**;
* a second GET while the tag is resident **detects reuse** — the next SET of
  that key is admitted into the data store;
* a SET whose key has no observed reuse is **declined**: the key is tagged
  (first access) but the value is not stored, so one-touch streams never
  displace the reused working set.

Evicting a data entry demotes the key to tag-only *keeping its reuse
history* (the paper's ``S → TO`` on DataRepl), so a re-fetch re-admits it.
Evicting a tag drops everything, including any stored value (``* → I``).

``admission="always"`` disables the filter — every SET stores — giving the
conventional-cache baseline for apples-to-apples comparisons.

The tag and data arrays and these transitions are
:class:`repro.core.reuse_directory.ReuseDirectory`, the same class under the
simulator's :class:`~repro.core.reuse_cache.ReuseCache`.  The store adds the
values, byte accounting and listeners, plus its three policies:

* the tag set is ``(stable_hash(key) >> 32) % sets``, so set counts need
  not be powers of two;
* tag victims are preferably keys without a stored value;
* the reuse count survives DataRepl, unlike the simulator's.  A read-through
  client re-fetches a demoted key with a GET either way, but a blind SET
  after an eviction would otherwise be declined and come back as a GET
  miss plus a SET.

A store is owned by one thread, the server's event-loop thread, and is not
thread-safe: it takes no lock, so a second thread calling into it races.
A listener runs inside a transition and must not re-enter the store.
"""

from __future__ import annotations

import hashlib
import random

from ..core.reuse_directory import ReuseDirectory
from .stats import ShardStats

#: admission policies understood by :class:`ReuseStore`
ADMISSION_POLICIES = ("reuse", "always")


def stable_hash(key: str) -> int:
    """Deterministic 64-bit hash of ``key``, stable across processes.

    Python's builtin ``hash`` on strings is salted per process, which would
    scramble the key→shard and key→tag-set maps between a server and its
    clients (and between runs); blake2b is not.
    """
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class ReuseStore:
    """Object cache admitting only keys with observed reuse (not thread-safe)."""

    def __init__(
        self,
        data_capacity: int,
        tag_capacity: int | None = None,
        tag_assoc: int = 8,
        admission: str = "reuse",
        seed: int = 0,
    ):
        if data_capacity <= 0:
            raise ValueError(f"data_capacity must be positive, got {data_capacity}")
        if tag_capacity is None:
            tag_capacity = 4 * data_capacity  # paper: tags cover >> data entries
        if admission not in ADMISSION_POLICIES:
            raise ValueError(
                f"admission must be one of {ADMISSION_POLICIES}, got {admission!r}"
            )
        tag_assoc = max(1, min(tag_assoc, tag_capacity))

        self.data_capacity = data_capacity
        self.tag_assoc = tag_assoc
        self.num_tag_sets = tag_capacity // tag_assoc
        self.tag_capacity = self.num_tag_sets * tag_assoc
        if self.tag_capacity < data_capacity:
            raise ValueError(
                f"tag directory ({tag_capacity} tags, {self.tag_capacity} in "
                f"whole {tag_assoc}-way sets) cannot be smaller than the data "
                f"store ({data_capacity}): every stored value is tracked"
            )
        self.admission = admission

        # NRR tags over a fully associative Clock data array
        self.rdir = ReuseDirectory(
            self.num_tag_sets, tag_assoc, 1, data_capacity, "nrr", "clock",
            random.Random(seed),
        )
        self._index = self.rdir.index
        self._fwd = self.rdir.fwd
        self._values = [None] * data_capacity  # data way -> value bytes

        self.stats = ShardStats()
        #: optional ``fn(key, kind)`` observing evictions the store decides
        #: internally, with ``kind`` in ``("data", "tag")``.  The cluster
        #: layer uses this to turn a data/tag eviction into the distributed
        #: protocol's DataRepl/TagRepl events (replica invalidation); the
        #: callback runs inside the transition and must not re-enter the
        #: store.
        self.evict_listener = None
        #: optional ``fn(key, decision)`` observing every admission-relevant
        #: decision the store takes, with ``decision`` one of
        #: ``("tag_alloc", "reuse", "deny", "admit", "update", "delete",
        #: "evict_data", "evict_tag")``.  The observability layer turns
        #: these into per-key audit events (``repro explain``); same
        #: contract as ``evict_listener``: runs inside the transition, must
        #: not re-enter the store.  ``None`` (the default) costs one
        #: ``is not None`` branch per decision point.
        self.decision_listener = None

    # -- public API ----------------------------------------------------------

    def get(self, key: str, key_hash: int | None = None):
        """Look up ``key``; returns the value bytes or ``None`` on a miss.

        A miss on an untracked key allocates a tag-only entry (first access);
        a miss on a tracked key marks it reused, arming admission for the
        next SET (second access — the paper's ``TO`` hit).  ``key_hash`` is
        ``stable_hash(key)`` when the caller already has it (computed here
        otherwise, and only on a tag miss).
        """
        loc = self._index.get(key)
        if loc is None:
            self.stats.record_miss()
            self._alloc_tag(key, key_hash)
            return None
        set_idx, way = loc
        dway = self._fwd[set_idx][way]
        if dway >= 0:
            self.rdir.hit(set_idx, way)
            self.stats.record_hit()
            return self._values[dway]
        self.stats.record_miss()
        self.rdir.note_reuse(set_idx, way)
        if self.decision_listener is not None:
            self.decision_listener(key, "reuse")
        return None

    def set(self, key: str, value: bytes, key_hash: int | None = None) -> bool:
        """Offer ``value`` for ``key``; returns True iff the value was stored.

        Stored when the key already holds a value (update in place), when its
        tag shows observed reuse, or when ``admission == "always"``.
        Declined offers still tag the key, so the *next* GET+SET pair admits.
        ``key_hash`` is as for :meth:`get`.
        """
        set_idx, way = (self._index.get(key)
                        or self._alloc_tag(key, key_hash))
        dway = self._fwd[set_idx][way]
        if dway >= 0:  # update in place
            self.stats.record_update(len(value), len(self._values[dway]))
            self._values[dway] = value
            self.rdir.data_repl.on_hit(0, dway)
            if self.decision_listener is not None:
                self.decision_listener(key, "update")
            return True

        if self.admission == "reuse" and not self.rdir.count[set_idx][way]:
            self.stats.record_tag_only_set()
            if self.decision_listener is not None:
                self.decision_listener(key, "deny")
            return False

        dway, victim = self.rdir.alloc_data(set_idx, way)
        if victim is not None:
            # Clock evicted a value; its key stays tagged with its
            # reuse count (S -> TO), so the next offer re-admits it
            self._free_value(dway)
            self.stats.record_data_eviction()
            if self.evict_listener is not None:
                self.evict_listener(victim, "data")
            if self.decision_listener is not None:
                self.decision_listener(victim, "evict_data")
        self._values[dway] = value
        self.stats.record_admission(len(value))
        if self.decision_listener is not None:
            self.decision_listener(key, "admit")
        return True

    def force_set(self, key: str, value: bytes) -> bool:
        """Store ``value`` bypassing the admission filter (always stores).

        Used for key migration during cluster rebalancing: the value
        already proved its reuse on the node it is moving *from*, so the
        new owner marks the tag reused and admits directly instead of
        making the key re-earn admission from scratch.
        """
        set_idx, way = self._index.get(key) or self._alloc_tag(key)
        counts = self.rdir.count[set_idx]
        counts[way] = max(counts[way], 1)
        return self.set(key, value)

    def delete(self, key: str) -> bool:
        """Drop ``key`` entirely (tag and value); True iff a value was held."""
        loc = self._index.get(key)
        if loc is None:
            return False
        dway = self.rdir.drop_tag(*loc)
        if dway < 0:
            return False
        self._free_value(dway)
        self.stats.record_delete()
        if self.decision_listener is not None:
            self.decision_listener(key, "delete")
        return True

    def contains(self, key: str) -> bool:
        """True iff a value for ``key`` is currently stored."""
        loc = self._index.get(key)
        return loc is not None and self._fwd[loc[0]][loc[1]] >= 0

    def is_tracked(self, key: str) -> bool:
        """True iff ``key`` has a tag-directory entry (seen at least once)."""
        return key in self._index

    def keys(self) -> list:
        """Keys with a stored value, sorted (deterministic migration order)."""
        return sorted(k for k in self.rdir.data_keys[0] if k is not None)

    def __len__(self) -> int:
        return self.rdir.data_entries()

    def clear(self) -> None:
        """Drop every entry and reset counters (stats object is replaced)."""
        self.rdir.clear()
        self._values = [None] * self.data_capacity
        self.stats = ShardStats()

    # -- internals -----------------------------------------------------------

    def _alloc_tag(self, key: str, key_hash: int | None = None):
        """Tag ``key`` (I -> TO); returns its (set, way).  A full set evicts
        a tag and any value it holds (paper: * -> I)."""
        if key_hash is None:
            key_hash = stable_hash(key)
        # decorrelate from the shard map, which uses the low bits of the
        # same hash: take the set index from the high half
        set_idx = (key_hash >> 32) % self.num_tag_sets
        way, victim, victim_dway = self.rdir.alloc_tag(
            key, set_idx, self._valueless_ways
        )
        if victim is not None:
            if victim_dway >= 0:
                self._free_value(victim_dway)
                self.stats.record_data_eviction()
            self.stats.record_tag_eviction()
            if self.evict_listener is not None:
                self.evict_listener(victim, "tag")
            if self.decision_listener is not None:
                self.decision_listener(victim, "evict_tag")
        if self.decision_listener is not None:
            self.decision_listener(key, "tag_alloc")
        return set_idx, way

    def _valueless_ways(self, set_idx: int) -> list:
        # prefer tag victims without a value (the simulator's NRR skips
        # lines the directory pins); the directory falls back to every way
        fwd = self._fwd[set_idx]
        return [w for w in range(self.tag_assoc) if fwd[w] < 0]

    def _free_value(self, dway: int) -> None:
        self.stats.record_value_freed(len(self._values[dway]))
        self._values[dway] = None
