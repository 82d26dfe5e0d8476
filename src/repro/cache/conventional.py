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
        if assoc <= 0 or num_lines % assoc:
            raise ValueError(f"{num_lines} lines not divisible into {assoc} ways")
        self.num_lines = num_lines
        self.assoc = assoc
        num_sets = num_lines // assoc
        self._set_mask = num_sets - 1
        self._maps = [{} for _ in range(num_sets)]
        #: per set, the line address each way holds (None when invalid)
        self.addrs = [[None] * assoc for _ in range(num_sets)]
        self.policy_name = policy
        policy_kwargs = {"num_threads": num_cores} if policy == "drrip" else {}
        self.repl = make_policy(policy, num_sets, assoc, rng=self.rng, **policy_kwargs)
        self.directory = Directory(num_sets, assoc, num_cores)
        self._bits = self.directory.bits
        self._cores = self.directory.cores
        # NRR is defined over the directory; other policies replicate the
        # paper's baselines, which do not protect private-resident lines.
        self.protect_private = (policy == "nrr") if protect_private is None else protect_private
        self._dirty = [[False] * assoc for _ in range(num_sets)]
        self._all_ways = list(range(assoc))

    def locate(self, addr: int):
        """``(set_idx, way)`` of ``addr``; ``way`` is None when absent."""
        set_idx = addr & self._set_mask
        return set_idx, self._maps[set_idx].get(addr)

    # -- demand access ------------------------------------------------------------
    def access(self, addr: int, core: int, is_write: bool, now: int) -> LLCAccess:
        """Demand GETS/GETX from ``core``; see :class:`BaseLLC`."""
        self.accesses += 1
        self.core_accesses[core] += 1
        set_idx = addr & self._set_mask
        way = self._maps[set_idx].get(addr)
        if way is None:
            self.tag_misses += 1
            self.core_dram_fetches[core] += 1
            self.repl.on_miss(set_idx, core)
            res = self._fill(addr, set_idx, core, now)
            tr = self.tracer
            if tr.enabled:
                tr.emit(FILL, ts=now, pid=self.trace_pid, tid=core, args={"addr": addr})
            return res
        self.data_hits += 1
        self.repl.on_hit(set_idx, way, core)
        self.recorder.on_hit(addr, now)
        bits = self._bits[set_idx]
        if is_write:
            invals = self._cores[bits[way] & ~(1 << core)]
            bits[way] = 1 << core
            return LLCAccess("llc", coherence_invals=invals)
        bits[way] |= 1 << core
        return LLCAccess("llc")

    def _fill(self, addr, set_idx, core, now) -> LLCAccess:
        """Install ``addr`` with ``core`` as its sole holder, evicting a
        victim from a full set (write-back and back-invalidation)."""
        resident = self._maps[set_idx]
        ways = self.addrs[set_idx]
        bits = self._bits[set_idx]
        repl = self.repl
        if len(resident) < self.assoc:
            way = ways.index(None)
            writebacks = inclusion_invals = ()
        else:
            candidates = self._all_ways
            if self.protect_private:
                candidates = self.directory.unshared_ways(set_idx) or candidates
            way = repl.victim(set_idx, candidates)
            victim = ways[way]
            del resident[victim]
            self.recorder.on_evict(victim, now)
            writebacks = (victim,) if self._dirty[set_idx][way] else ()
            inclusion_invals = tuple([(c, victim) for c in self._cores[bits[way]]])
            repl.on_invalidate(set_idx, way)
            tr = self.tracer
            if tr.enabled:
                tr.emit(
                    EVICTION, ts=now, pid=self.trace_pid,
                    args={
                        "addr": victim,
                        "dirty": bool(writebacks),
                        "inclusion_invals": len(inclusion_invals),
                    },
                )
        ways[way] = addr
        resident[addr] = way
        self._dirty[set_idx][way] = False
        bits[way] = 1 << core
        repl.on_fill(set_idx, way, core)
        self.recorder.on_fill(addr, now)
        self.tag_fills += 1
        self.data_fills += 1  # non-selective: every fill allocates data
        return LLCAccess(
            "dram",
            dram_reads=1,
            writebacks=writebacks,
            inclusion_invals=inclusion_invals,
        )

    # -- prefetch --------------------------------------------------------------------
    def prefetch(self, addr: int, core: int, now: int) -> LLCAccess:
        """Prefetch GETS: fill (or just record presence) without promoting.

        The conventional baseline is not prefetch-aware: a prefetched miss
        allocates tag+data with the policy's normal insertion, so useless
        prefetches pollute exactly as the paper's related work describes.
        """
        self.prefetches += 1
        set_idx, way = self.locate(addr)
        if way is not None:
            self._bits[set_idx][way] |= 1 << core
            return LLCAccess("llc")
        return self._fill(addr, set_idx, core, now)

    # -- coherence upcalls ----------------------------------------------------------
    def upgrade(self, addr: int, core: int) -> tuple:
        """UPG: invalidate other sharers; returns their core ids."""
        set_idx = addr & self._set_mask
        way = self._maps[set_idx].get(addr)
        if way is None:
            raise KeyError(f"UPG for line {addr:#x} absent from inclusive SLLC")
        self.upgrades += 1
        self.repl.on_hit(set_idx, way, core)
        bits = self._bits[set_idx]
        invals = self._cores[bits[way] & ~(1 << core)]
        bits[way] = 1 << core
        return invals

    def notify_private_eviction(self, addr: int, core: int, dirty: bool):
        """PUTS/PUTX: clear presence; dirty data is absorbed by the array."""
        set_idx = addr & self._set_mask
        way = self._maps[set_idx].get(addr)
        if way is None:
            raise KeyError(f"PUT for line {addr:#x} absent from inclusive SLLC")
        self._bits[set_idx][way] &= ~(1 << core)
        if dirty:
            # Writeback is absorbed by the SLLC data array.
            self._dirty[set_idx][way] = True
        return ()

    # -- introspection ------------------------------------------------------------------
    def resident_data_lines(self):
        """All resident line addresses (tags and data are coupled 1:1)."""
        for resident in self._maps:
            yield from resident

    def check_directory_consistent(self, private_hierarchies) -> bool:
        """Invariant (tests): directory bits match actual private contents."""
        for set_idx, ways in enumerate(self.addrs):
            for way, addr in enumerate(ways):
                if addr is None:
                    continue
                for c, ph in enumerate(private_hierarchies):
                    if self.directory.is_present(set_idx, way, c) != ph.contains(addr):
                        return False
        return True
