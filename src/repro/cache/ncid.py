"""NCID: non-inclusive cache, inclusive directory [Zhao et al., CF 2010].

The comparison architecture of paper Section 5.5.  Like the reuse cache,
NCID decouples tags from data to keep an inclusive directory over a smaller
data array, but it differs in three ways that the paper's Figure 9 exposes:

* **geometry** — tag and data arrays have the *same number of sets*; a
  smaller data array therefore means fewer data ways per set (e.g. an
  8 MBeq, 16-way tag array with a 1 MB data array has only 2 data ways per
  set), so data conflicts rise as the data array shrinks;
* **allocation** — fills use *set dueling per thread* between a normal mode
  (always allocate tag+data, MRU insertion) and a selective mode that
  allocates tag+data for a random 5 % of fills and tag-only (inserted at the
  LRU position) for the rest — reuse is not consulted;
* **replacement** — plain LRU for both arrays, with no protection of
  private-resident or reused lines.

A re-reference to a tag-only line allocates a data entry (fetching from
memory or a peer), which is what lets NCID operate with a downsized data
array at all.  Structurally this class is a
:class:`repro.core.reuse_cache.ReuseCache` over the same
:class:`repro.core.reuse_directory.ReuseDirectory`; it overrides the
allocation policy and protects no tag victim.
"""

from __future__ import annotations

import random

from ..cache.llc_base import LLCAccess
from ..core.reuse_cache import ReuseCache
from ..obs.tracing import FILL, TAG_ONLY_ALLOC
from ..utils import require_power_of_two


class NCIDCache(ReuseCache):
    """NCID SLLC with per-thread set dueling between normal/selective fill."""

    kind = "ncid"

    #: fraction of fills allocated tag+data in selective mode
    selective_fill_rate = 0.05
    psel_bits = 10

    def __init__(
        self,
        tag_lines: int,
        tag_assoc: int,
        data_lines: int,
        num_cores: int = 8,
        rng: random.Random | None = None,
    ):
        require_power_of_two(tag_lines, "tag_lines")
        tag_sets = tag_lines // tag_assoc
        if data_lines % tag_sets:
            raise ValueError(
                f"NCID needs equal set counts: {data_lines} data lines do not "
                f"spread over {tag_sets} sets"
            )
        data_assoc = data_lines // tag_sets
        super().__init__(
            tag_lines,
            tag_assoc,
            data_lines,
            data_assoc=data_assoc,
            num_cores=num_cores,
            tag_policy="lru",
            data_policy="lru",
            rng=rng,
        )
        if self.data_sets != tag_sets:
            raise AssertionError("NCID geometry must share the tag set count")
        self._psel_max = (1 << self.psel_bits) - 1
        self._psel = [self._psel_max // 2] * num_cores
        self._period = max(2 * num_cores, 4)
        # mode statistics
        self.normal_fills = 0
        self.selective_fills = 0

    # -- set dueling -----------------------------------------------------------
    def _leader_role(self, set_idx: int, thread: int) -> str:
        slot = set_idx % self._period
        if slot == 2 * thread:
            return "normal"
        if slot == 2 * thread + 1:
            return "selective"
        return "follower"

    def _uses_selective(self, set_idx: int, thread: int) -> bool:
        role = self._leader_role(set_idx, thread)
        if role == "normal":
            return False
        if role == "selective":
            return True
        # High PSEL = normal mode missed more, so selective wins.
        return self._psel[thread] > self._psel_max // 2

    def _duel_on_miss(self, set_idx: int, thread: int) -> None:
        role = self._leader_role(set_idx, thread)
        if role == "normal" and self._psel[thread] < self._psel_max:
            self._psel[thread] += 1
        elif role == "selective" and self._psel[thread] > 0:
            self._psel[thread] -= 1

    # -- allocation --------------------------------------------------------------
    def _tag_miss(self, addr, set_idx, core, now) -> LLCAccess:
        self.tag_misses += 1
        self.core_dram_fetches[core] += 1
        self._duel_on_miss(set_idx, core)

        selective = self._uses_selective(set_idx, core)
        allocate_data = (not selective) or (self.rng.random() < self.selective_fill_rate)

        way, writebacks, inclusion_invals = self._install_tag(addr, set_idx, core, now)
        if allocate_data:  # the tag stays at the MRU position
            self.normal_fills += 1
            writebacks += self._allocate_data(addr, set_idx, way, now)[0]
        else:  # tag-only: move the fresh tag to the LRU position
            self.selective_fills += 1
            self.rdir.tag_repl.fill_at_lru(set_idx, way)
        tr = self.tracer
        if tr.enabled:
            tr.emit(
                FILL if allocate_data else TAG_ONLY_ALLOC,
                ts=now, pid=self.trace_pid, tid=core,
                args={"addr": addr, "selective_mode": selective},
            )
        return LLCAccess(
            "dram",
            dram_reads=1,
            writebacks=writebacks,
            inclusion_invals=inclusion_invals,
        )

    def _tag_candidates(self, set_idx):
        """Plain LRU: no way is protected, private-resident or not."""
        return ()

    def stats(self) -> dict:
        """Counters plus NCID's per-mode fill counts."""
        base = super().stats()
        base.update(
            {"normal_fills": self.normal_fills, "selective_fills": self.selective_fills}
        )
        return base
