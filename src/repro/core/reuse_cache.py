"""The reuse cache: a decoupled tag/data SLLC with selective allocation.

This is the paper's contribution (Section 3).  The tag array is sized like a
conventional cache of ``x`` MB ("x MBeq") while the data array holds far
fewer entries; the two are linked by forward pointers (tag entry → data way)
and reverse pointers (data entry → tag set/way).

Allocation policy (reuse locality):

* **tag miss** → allocate a tag-only entry (state ``TO``); the line is
  fetched from memory straight into the requesting core's private caches and
  *no* data-array entry is allocated;
* **hit on a TO tag** → *reuse detected*: the line is fetched again (from
  memory, or from a peer private cache if the directory shows one) and this
  time a data-array entry is allocated (state ``S`` or ``M``);
* **hit on a tag with data** → served by the data array.

Replacement is specialised per array: the tag array uses NRR (one bit per
line) and never victimises lines resident in private caches unless forced,
preserving directory inclusion; the data array uses recency — NRU for
set-associative organisations and Clock for the fully associative one
(``data_assoc="full"``), exactly the paper's low-cost choices.  Evicting a
data entry (``DataRepl``) demotes its tag to ``TO`` via the reverse pointer;
evicting a tag with data frees both.

The arrays and these transitions live in
:class:`repro.core.reuse_directory.ReuseDirectory`, shared with the
service's :class:`repro.service.store.ReuseStore`.  This adapter adds what a
cache line needs: the coherence directory, dirty bits, the generation
recorder and the tracer, plus the simulator's three policies (set index
``addr & mask``, tag victims outside the private caches, and a reuse count
that restarts on DataRepl).

States are stored as small ints for speed; :meth:`ReuseCache.state_of`
exposes them as :class:`repro.coherence.State` for tests and tools.
"""

from __future__ import annotations

import random

from ..cache.llc_base import BaseLLC, LLCAccess
from ..coherence.directory import Directory
from ..coherence.states import State
from ..obs.tracing import DATA_REPL, REUSE_DETECTED, TAG_ONLY_ALLOC, TAG_REPL
from ..utils import require_power_of_two
from .reuse_directory import INV, M, S, TO, ReuseDirectory

_STATE_ENUM = {INV: State.I, TO: State.TO, S: State.S, M: State.M}


class ReuseCache(BaseLLC):
    """Decoupled tag/data SLLC storing only reused lines in the data array."""

    kind = "reuse"

    def __init__(
        self,
        tag_lines: int,
        tag_assoc: int,
        data_lines: int,
        data_assoc="full",
        num_cores: int = 8,
        tag_policy: str = "nrr",
        data_policy: str | None = None,
        reuse_threshold: int = 1,
        rng: random.Random | None = None,
    ):
        super().__init__(num_cores, rng)
        require_power_of_two(tag_lines, "tag_lines")
        require_power_of_two(data_lines, "data_lines")
        if data_lines > tag_lines:
            raise ValueError(
                f"data array ({data_lines}) cannot exceed tag array ({tag_lines})"
            )
        if tag_assoc <= 0 or tag_lines % tag_assoc:
            raise ValueError(f"{tag_lines} tags not divisible into {tag_assoc} ways")

        self.tag_lines = tag_lines
        self.tag_assoc = tag_assoc
        self.data_lines = data_lines
        if data_assoc == "full":
            self.data_assoc = data_lines
        else:
            self.data_assoc = int(data_assoc)
        if self.data_assoc <= 0 or data_lines % self.data_assoc:
            raise ValueError(
                f"{data_lines} data entries not divisible into {self.data_assoc} ways"
            )
        self.data_sets = data_lines // self.data_assoc
        tag_sets = tag_lines // tag_assoc
        self._tmask = tag_sets - 1
        self._dmask = self.data_sets - 1

        if reuse_threshold < 0:
            raise ValueError(f"reuse_threshold must be >= 0, got {reuse_threshold}")
        #: number of *reuses* (tag hits in TO) required before the data
        #: array accepts the line.  1 = the paper's design (second access);
        #: 0 = allocate on first touch (a non-selective decoupled cache);
        #: k>1 = stricter selectivity (needs a k-th re-reference).
        self.reuse_threshold = reuse_threshold

        self.directory = Directory(tag_sets, tag_assoc, num_cores)
        self.tag_policy_name = tag_policy
        if data_policy is None:
            data_policy = "clock" if data_assoc == "full" else "nru"
        self.data_policy_name = data_policy
        #: the tag and data arrays and the I -> TO -> S transitions
        self.rdir = ReuseDirectory(
            tag_sets, tag_assoc, self.data_sets, self.data_assoc,
            tag_policy, data_policy, self.rng,
        )
        self._index = self.rdir.index
        self._state = self.rdir.state
        self._bits = self.directory.bits
        self._cores = self.directory.cores
        self._d_dirty = [[False] * self.data_assoc for _ in range(self.data_sets)]

        # reuse-cache-specific counters
        self.to_hits = 0  # reuse detections (tag hit, no data)
        self.reuse_reloads = 0  # TO hits that had to re-fetch from memory
        self.peer_transfers = 0

    # -- demand access -------------------------------------------------------------
    def access(self, addr: int, core: int, is_write: bool, now: int) -> LLCAccess:
        """Demand GETS/GETX; dispatches on the tag's stable state."""
        self.accesses += 1
        self.core_accesses[core] += 1
        loc = self._index.get(addr)
        if loc is None:
            return self._tag_miss(addr, addr & self._tmask, core, now)
        set_idx, way = loc
        if self._state[set_idx][way] == TO:
            return self._reuse_hit(addr, set_idx, way, core, is_write, now)
        return self._data_hit(addr, set_idx, way, core, is_write, now)

    def _tag_miss(self, addr, set_idx, core, now) -> LLCAccess:
        """GETS/GETX on an absent line: allocate tag only (I → TO)."""
        self.tag_misses += 1
        self.core_dram_fetches[core] += 1
        self.rdir.tag_repl.on_miss(set_idx, core)
        way, writebacks, inclusion_invals = self._install_tag(addr, set_idx, core, now)
        tr = self.tracer
        if tr.enabled:
            tr.emit(
                TAG_ONLY_ALLOC, ts=now, pid=self.trace_pid, tid=core,
                args={"addr": addr},
            )
        if self.reuse_threshold == 0:
            # degenerate non-selective mode: allocate data on first touch
            writebacks += self._allocate_data(addr, set_idx, way, now)[0]
        return LLCAccess(
            "dram",
            dram_reads=1,
            writebacks=writebacks,
            inclusion_invals=inclusion_invals,
        )

    def _reuse_hit(self, addr, set_idx, way, core, is_write, now) -> LLCAccess:
        """Hit on a TO tag: reuse detected, allocate a data entry once the
        line has shown ``reuse_threshold`` reuses."""
        self.to_hits += 1
        promoted = self.rdir.note_reuse(set_idx, way, core) >= self.reuse_threshold
        bits = self._bits[set_idx]
        peers = self._cores[bits[way] & ~(1 << core)]
        tr = self.tracer
        if tr.enabled:
            tr.emit(
                REUSE_DETECTED, ts=now, pid=self.trace_pid, tid=core,
                args={
                    "addr": addr,
                    "source": "peer" if peers else "dram",
                    "promoted": promoted,
                },
            )
        if peers:
            # A private cache still holds the line: cache-to-cache transfer,
            # no memory access needed.
            self.peer_transfers += 1
            source, dram_reads = "peer", 0
        else:
            # The downside of selective allocation: the line is read from
            # main memory a second time (paper Section 5.3).
            self.reuse_reloads += 1
            self.core_dram_fetches[core] += 1
            source, dram_reads = "dram", 1
        # below the threshold the line stays tag-only: only the private
        # caches are served
        writebacks = inclusion_invals = ()
        if promoted:
            writebacks, inclusion_invals = self._allocate_data(addr, set_idx, way, now)
        if is_write:
            if promoted:
                self._state[set_idx][way] = M
            invals = peers
            bits[way] = 1 << core
        else:
            invals = ()
            bits[way] |= 1 << core
        return LLCAccess(
            source,
            dram_reads=dram_reads,
            writebacks=writebacks,
            coherence_invals=invals,
            inclusion_invals=inclusion_invals,
        )

    def _data_hit(self, addr, set_idx, way, core, is_write, now) -> LLCAccess:
        """Hit on a tag in the tag+data group: served by the data array."""
        self.data_hits += 1
        self.rdir.hit(set_idx, way, core)
        self.recorder.on_hit(addr, now)
        bits = self._bits[set_idx]
        if is_write:
            invals = self._cores[bits[way] & ~(1 << core)]
            bits[way] = 1 << core
            self._state[set_idx][way] = M
            return LLCAccess("llc", coherence_invals=invals)
        bits[way] |= 1 << core
        return LLCAccess("llc")

    # -- tag and data allocation ---------------------------------------------------------
    def _tag_candidates(self, set_idx):
        """Protect directory inclusion: prefer tag victims absent from the
        private caches (the paper's NRR rule).  When every way is
        private-resident the directory falls back to all of them, and the
        forced eviction back-invalidates."""
        return self.directory.unshared_ways(set_idx)

    def _install_tag(self, addr, set_idx, core, now):
        """Allocate a tag for ``addr`` (I → TO) with ``core`` as its holder.

        Returns ``(way, writebacks, inclusion_invals)``, the last two from
        the TagRepl a full set needed."""
        way, victim, victim_dway = self.rdir.alloc_tag(
            addr, set_idx, self._tag_candidates, core
        )
        writebacks = inclusion_invals = ()
        if victim is not None:
            writebacks, inclusion_invals = self._tag_evicted(
                victim, set_idx, way, victim_dway, now
            )
        self._bits[set_idx][way] = 1 << core
        self.tag_fills += 1
        return way, writebacks, inclusion_invals

    def _tag_evicted(self, victim, set_idx, way, victim_dway, now):
        """TagRepl side effects: write back the victim's dirty data and
        back-invalidate its private copies."""
        writebacks = ()
        if victim_dway >= 0:
            writebacks = self._data_evicted(victim, set_idx, victim_dway, now)
        bits = self._bits[set_idx]
        inclusion_invals = tuple([(c, victim) for c in self._cores[bits[way]]])
        bits[way] = 0
        tr = self.tracer
        if tr.enabled:
            tr.emit(
                TAG_REPL, ts=now, pid=self.trace_pid,
                args={"addr": victim, "had_data": victim_dway >= 0},
            )
        return writebacks, inclusion_invals

    def _allocate_data(self, addr, set_idx, way, now):
        """Install ``addr`` in the data array.

        Returns ``(writebacks, inclusion_invals)`` of the DataRepl a full
        data set needed."""
        dway, victim = self.rdir.alloc_data(set_idx, way)
        result = ((), ())
        if victim is not None:
            result = self._data_replaced(victim, set_idx, dway, now)
        self.data_fills += 1
        self.recorder.on_fill(addr, now)
        return result

    def _data_replaced(self, victim, set_idx, dway, now):
        """DataRepl demoted ``victim`` (S/M → TO): the tag keeps the reuse
        history, but its reuse count restarts, so with the paper's
        threshold of 1 the next hit reloads the line (as Section 3
        specifies)."""
        vset, vway = self._index[victim]
        self.rdir.count[vset][vway] = 0
        return self._data_evicted(victim, set_idx, dway, now), ()

    def _data_evicted(self, victim, set_idx, dway, now):
        """A data entry was freed: returns the writebacks (the victim, when
        dirty)."""
        self.recorder.on_evict(victim, now)
        dirty = self._d_dirty[set_idx & self._dmask]
        writebacks = (victim,) if dirty[dway] else ()
        dirty[dway] = False
        tr = self.tracer
        if tr.enabled:
            tr.emit(
                DATA_REPL, ts=now, pid=self.trace_pid,
                args={"addr": victim, "dirty": bool(writebacks)},
            )
        return writebacks

    # -- prefetch ----------------------------------------------------------------------
    def prefetch(self, addr: int, core: int, now: int) -> LLCAccess:
        """Prefetch GETS: the reuse cache is prefetch-aware *by construction*.

        Following the paper's Section 6 observation, prefetched lines get a
        priority as low as non-reused data: a prefetched miss allocates a
        tag-only entry whose NRR bit stays set, and a prefetch that touches
        a TO tag is *not* taken as a reuse hint — the data array is reserved
        for demand-detected reuse.
        """
        self.prefetches += 1
        loc = self._index.get(addr)
        if loc is None:  # the fresh tag's NRR bit stays set: low priority
            _, writebacks, inclusion_invals = self._install_tag(
                addr, addr & self._tmask, core, now
            )
            return LLCAccess(
                "dram",
                dram_reads=1,
                writebacks=writebacks,
                inclusion_invals=inclusion_invals,
            )
        set_idx, way = loc
        self.directory.add(set_idx, way, core)
        if self._state[set_idx][way] == TO:
            # no reuse detection, no NRR promotion: data comes from memory
            # (or a peer) straight into the private cache
            if self.directory.others(set_idx, way, core):
                return LLCAccess("peer")
            return LLCAccess("dram", dram_reads=1)
        # tag+data: serve from the data array without promoting
        return LLCAccess("llc")

    # -- coherence upcalls -----------------------------------------------------------
    def upgrade(self, addr: int, core: int) -> tuple:
        """UPG: a core writes a private clean copy; invalidate other sharers.

        In ``TO`` the writer already holds the data, so no data-array entry
        is allocated; the tag records the reuse (NRR bit cleared) and keeps
        state ``TO`` — memory may now be stale, which ``TO`` permits.
        """
        loc = self._index.get(addr)
        if loc is None:
            raise KeyError(f"UPG for line {addr:#x} absent from the tag array")
        set_idx, way = loc
        self.upgrades += 1
        self.rdir.tag_repl.on_hit(set_idx, way, core)
        if self._state[set_idx][way] == S:
            self._state[set_idx][way] = M
        bits = self._bits[set_idx]
        invals = self._cores[bits[way] & ~(1 << core)]
        bits[way] = 1 << core
        return invals

    def notify_private_eviction(self, addr: int, core: int, dirty: bool):
        """PUTS/PUTX: clear the presence bit; route dirty data appropriately.

        A PUTX on a tag+data line is absorbed by the data array (S → M); on a
        tag-only line the writeback must go to main memory.  Returns the
        line addresses to write back to DRAM.
        """
        loc = self._index.get(addr)
        if loc is None:
            raise KeyError(f"PUT for line {addr:#x} absent from the tag array")
        set_idx, way = loc
        self._bits[set_idx][way] &= ~(1 << core)
        if not dirty:
            return ()
        if self._state[set_idx][way] == TO:
            return (addr,)  # writeback forwarded to main memory
        self._d_dirty[set_idx & self._dmask][self.rdir.fwd[set_idx][way]] = True
        self._state[set_idx][way] = M
        return ()

    # -- introspection -----------------------------------------------------------------
    def state_of(self, addr: int) -> State:
        """Coherence state of ``addr`` (State.I when the tag is absent)."""
        loc = self._index.get(addr)
        if loc is None:
            return State.I
        return _STATE_ENUM[self._state[loc[0]][loc[1]]]

    def resident_data_lines(self):
        """Line addresses currently held in the data array."""
        for addrs in self.rdir.data_keys:
            for addr in addrs:
                if addr is not None:
                    yield addr

    def data_occupancy(self) -> int:
        """Number of valid data-array entries."""
        return self.rdir.data_entries()

    def fraction_not_entered(self) -> float:
        """Fraction of tag fills that never allocated a data entry (Table 6)."""
        if self.tag_fills == 0:
            return 0.0
        return 1.0 - self.data_fills / self.tag_fills

    def check_pointer_consistency(self) -> bool:
        """Invariant (tests): fwd/rev pointers form a bijection and states
        agree with data residency."""
        return self.rdir.check_pointer_consistency()

    def stats(self) -> dict:
        """Counters plus the reuse-cache-specific ones (Table 6 etc.)."""
        base = super().stats()
        base.update(
            {
                "to_hits": self.to_hits,
                "reuse_reloads": self.reuse_reloads,
                "peer_transfers": self.peer_transfers,
                "fraction_not_entered": self.fraction_not_entered(),
            }
        )
        return base
