"""The V-way cache [Qureshi, Thompson, Patt — ISCA 2005].

The other decoupled tag/data design the paper discusses (Section 6): the
tag array holds **twice** the entries of the data array (doubling each
set's ways), breaking the rigid set-to-data binding so a hot set can hold
more lines than its share of the data array — "demand-based associativity
via global replacement".

Contrast with the reuse cache:

* **allocation is non-selective** — every miss allocates tag *and* data, so
  the data array must equal the conventional capacity to avoid losses;
* a tag without data is simply *invalid*: reclaiming a data entry for
  another set invalidates the previous holder's tag entirely (no TO state,
  no reuse memory);
* data replacement is global Reuse Replacement (2-bit counters).

Structurally it is a :class:`repro.core.reuse_cache.ReuseCache` over the
same :class:`repro.core.reuse_directory.ReuseDirectory` with a fully
associative data array, overriding allocation so data is assigned on every
fill and a reclaimed data entry takes its tag with it.
"""

from __future__ import annotations

import random

from ..cache.llc_base import LLCAccess
from ..core.reuse_cache import ReuseCache
from ..core.reuse_directory import M, S
from ..utils import require_power_of_two


class VWayCache(ReuseCache):
    """V-way SLLC: doubled tags, global data replacement, demand allocation."""

    kind = "vway"

    #: tag entries per data entry (the original evaluates 2x)
    tag_ratio = 2

    def __init__(
        self,
        data_lines: int,
        base_assoc: int = 16,
        num_cores: int = 8,
        rng: random.Random | None = None,
    ):
        require_power_of_two(data_lines, "data_lines")
        super().__init__(
            tag_lines=self.tag_ratio * data_lines,
            tag_assoc=self.tag_ratio * base_assoc,  # same sets as conventional
            data_lines=data_lines,
            data_assoc="full",
            num_cores=num_cores,
            tag_policy="nru",
            data_policy="reuse_repl",
            rng=rng,
        )

    # -- allocation: every miss gets tag AND data ------------------------------------
    def _tag_miss(self, addr, set_idx, core, now) -> LLCAccess:
        self.tag_misses += 1
        self.core_dram_fetches[core] += 1
        # a full set evicts a tag from this set (frees its data too)
        way, writebacks, inclusion_invals = self._install_tag(addr, set_idx, core, now)
        wb2, invals2 = self._allocate_data(addr, set_idx, way, now)
        return LLCAccess(
            "dram",
            dram_reads=1,
            writebacks=writebacks + wb2,
            inclusion_invals=inclusion_invals + invals2,
        )

    def _data_replaced(self, victim, set_idx, dway, now):
        """Reclaiming a data entry globally invalidates the previous
        holder's tag: V-way has no tag-only residency."""
        writebacks = self._data_evicted(victim, set_idx, dway, now)
        vset, vway = self._index[victim]
        self.rdir.drop_tag(vset, vway)
        return writebacks, self._tag_evicted(victim, vset, vway, -1, now)[1]

    def prefetch(self, addr: int, core: int, now: int) -> LLCAccess:
        """V-way prefetch: a non-selective design allocates on prefetch too
        (no tag-only residency exists), without promoting replacement state."""
        self.prefetches += 1
        loc = self._index.get(addr)
        if loc is not None:
            self.directory.add(*loc, core)
            return LLCAccess("llc")
        res = self._tag_miss(addr, addr & self._tmask, core, now)
        self.tag_misses -= 1  # not a demand miss
        self.core_dram_fetches[core] -= 1
        return res

    def check_no_tag_only_states(self) -> bool:
        """V-way invariant: every valid tag has a data entry."""
        rdir = self.rdir
        return all(
            rdir.fwd[tset][tway] >= 0 and rdir.state[tset][tway] in (S, M)
            for tset, tway in rdir.index.values()
        )
