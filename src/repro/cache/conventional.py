"""Conventional inclusive SLLC (the paper's baseline).

Tags and data are coupled 1:1.  Every miss allocates tag *and* data
(non-selective allocation); evictions back-invalidate private copies to
preserve inclusion.  Replacement is pluggable: the baseline uses LRU, the
state-of-the-art comparisons use TA-DRRIP and NRR (Figs. 7 and 8).

When the policy is NRR the cache follows the paper and filters eviction
candidates through the full-map directory so lines resident in private
caches are protected; other policies evict purely by their own order (the
baseline LRU therefore suffers inclusion victims, as in the paper).
"""

from __future__ import annotations

import random

from ..coherence.directory import Directory
from ..obs.tracing import EVICTION, FILL
from ..replacement import make_policy
from ..utils import require_power_of_two
from .llc_base import BaseLLC, LLCAccess
from .set_assoc import TagStore


class ConventionalLLC(BaseLLC):
    """Inclusive, non-selective SLLC with a full-map directory."""

    kind = "conventional"

    def __init__(
        self,
        num_lines: int,
        assoc: int,
        policy: str = "lru",
        num_cores: int = 8,
        rng: random.Random | None = None,
        protect_private: bool | None = None,
    ):
        super().__init__(num_cores, rng)
        require_power_of_two(num_lines, "num_lines")
        if num_lines % assoc:
            raise ValueError(f"{num_lines} lines not divisible into {assoc} ways")
        self.num_lines = num_lines
        self.assoc = assoc
        num_sets = num_lines // assoc
        self.tags = TagStore(num_sets, assoc)
        self.policy_name = policy
        policy_kwargs = {"num_threads": num_cores} if policy == "drrip" else {}
        self.repl = make_policy(policy, num_sets, assoc, rng=self.rng, **policy_kwargs)
        self.directory = Directory(num_sets, assoc, num_cores)
        # NRR is defined over the directory; other policies replicate the
        # paper's baselines, which do not protect private-resident lines.
        self.protect_private = (policy == "nrr") if protect_private is None else protect_private
        self._dirty = [[False] * assoc for _ in range(num_sets)]
        self._all_ways = list(range(assoc))

    # -- demand access ------------------------------------------------------------
    def access(self, addr: int, core: int, is_write: bool, now: int) -> LLCAccess:
        """Demand GETS/GETX from ``core``; see :class:`BaseLLC`."""
        self.accesses += 1
        self.core_accesses[core] += 1
        set_idx, way = self.tags.lookup(addr)
        if way is not None:
            return self._hit(addr, set_idx, way, core, is_write, now)
        return self._miss(addr, set_idx, core, is_write, now)

    def _hit(self, addr, set_idx, way, core, is_write, now) -> LLCAccess:
        self.data_hits += 1
        self.repl.on_hit(set_idx, way, core)
        self.recorder.on_hit(addr, now)
        directory = self.directory
        if is_write:
            invals = tuple(directory.others(set_idx, way, core))
            directory.set_only(set_idx, way, core)
            return LLCAccess("llc", coherence_invals=invals)
        directory.add(set_idx, way, core)
        return LLCAccess("llc")

    def _miss(self, addr, set_idx, core, is_write, now) -> LLCAccess:
        self.tag_misses += 1
        self.core_dram_fetches[core] += 1
        self.repl.on_miss(set_idx, core)
        if len(self.tags.maps[set_idx]) < self.assoc:
            way = self.tags.free_way(set_idx)
            writebacks = inclusion_invals = ()
        else:
            way, writebacks, inclusion_invals = self._evict(set_idx, now)
        self.tags.install(set_idx, way, addr)
        self._dirty[set_idx][way] = False
        self.directory.set_only(set_idx, way, core)
        self.repl.on_fill(set_idx, way, core)
        self.recorder.on_fill(addr, now)
        self.tag_fills += 1
        self.data_fills += 1  # non-selective: every fill allocates data
        tr = self.tracer
        if tr.enabled:
            tr.emit(FILL, ts=now, pid=self.trace_pid, tid=core, args={"addr": addr})
        return LLCAccess(
            "dram",
            dram_reads=1,
            writebacks=writebacks,
            inclusion_invals=inclusion_invals,
        )

    def _evict(self, set_idx, now):
        """Pick and remove a victim from the full ``set_idx``; returns
        (way, writebacks, inclusion_invals)."""
        candidates = self._all_ways
        if self.protect_private:
            candidates = self.directory.unshared_ways(set_idx) or candidates
        way = self.repl.victim(set_idx, candidates)
        victim_addr = self.tags.evict(set_idx, way)
        self.recorder.on_evict(victim_addr, now)
        writebacks = (victim_addr,) if self._dirty[set_idx][way] else ()
        sharers = self.directory.sharers(set_idx, way)
        inclusion_invals = tuple((c, victim_addr) for c in sharers)
        self.directory.clear(set_idx, way)
        self.repl.on_invalidate(set_idx, way)
        tr = self.tracer
        if tr.enabled:
            tr.emit(
                EVICTION, ts=now, pid=self.trace_pid,
                args={
                    "addr": victim_addr,
                    "dirty": bool(writebacks),
                    "inclusion_invals": len(inclusion_invals),
                },
            )
        return way, writebacks, inclusion_invals

    # -- prefetch --------------------------------------------------------------------
    def prefetch(self, addr: int, core: int, now: int) -> LLCAccess:
        """Prefetch GETS: fill (or just record presence) without promoting.

        The conventional baseline is not prefetch-aware: a prefetched miss
        allocates tag+data with the policy's normal insertion, so useless
        prefetches pollute exactly as the paper's related work describes.
        """
        self.prefetches += 1
        set_idx, way = self.tags.lookup(addr)
        if way is not None:
            self.directory.add(set_idx, way, core)
            return LLCAccess("llc")
        dram_writes = ()
        inclusion_invals = ()
        free = self.tags.free_way(set_idx)
        if free is None:
            free, dram_writes, inclusion_invals = self._evict(set_idx, now)
        self.tags.install(set_idx, free, addr)
        self._dirty[set_idx][free] = False
        self.directory.set_only(set_idx, free, core)
        self.repl.on_fill(set_idx, free, core)
        self.recorder.on_fill(addr, now)
        self.tag_fills += 1
        self.data_fills += 1
        return LLCAccess(
            "dram",
            dram_reads=1,
            writebacks=dram_writes,
            inclusion_invals=inclusion_invals,
        )

    # -- coherence upcalls ----------------------------------------------------------
    def upgrade(self, addr: int, core: int) -> tuple:
        """UPG: invalidate other sharers; returns their core ids."""
        set_idx, way = self.tags.lookup(addr)
        if way is None:
            raise KeyError(f"UPG for line {addr:#x} absent from inclusive SLLC")
        self.upgrades += 1
        self.repl.on_hit(set_idx, way, core)
        invals = tuple(self.directory.others(set_idx, way, core))
        self.directory.set_only(set_idx, way, core)
        return invals

    def notify_private_eviction(self, addr: int, core: int, dirty: bool):
        """PUTS/PUTX: clear presence; dirty data is absorbed by the array."""
        set_idx, way = self.tags.lookup(addr)
        if way is None:
            raise KeyError(f"PUT for line {addr:#x} absent from inclusive SLLC")
        self.directory.remove(set_idx, way, core)
        if dirty:
            # Writeback is absorbed by the SLLC data array.
            self._dirty[set_idx][way] = True
        return ()

    # -- introspection ------------------------------------------------------------------
    def resident_data_lines(self):
        """All resident line addresses (tags and data are coupled 1:1)."""
        return self.tags.resident_addrs()

    def check_directory_consistent(self, private_hierarchies) -> bool:
        """Invariant (tests): directory bits match actual private contents."""
        for set_idx in range(self.tags.num_sets):
            for way in self.tags.valid_ways(set_idx):
                addr = self.tags.addrs[set_idx][way]
                for c, ph in enumerate(private_hierarchies):
                    if self.directory.is_present(set_idx, way, c) != ph.contains(addr):
                        return False
        return True
