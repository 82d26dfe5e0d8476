"""Least-recently-used replacement using per-way timestamps."""

from __future__ import annotations

from typing import Sequence

from .base import ReplacementPolicy


class LRUPolicy(ReplacementPolicy):
    """True LRU: the victim is the eligible way with the oldest access time.

    Timestamps come from a monotonically increasing per-policy counter, so
    ordering is exact (no aliasing) and ties are impossible.
    """

    name = "lru"

    def __init__(self, num_sets, assoc, rng=None):
        super().__init__(num_sets, assoc, rng)
        self._stamp = [[0] * assoc for _ in range(num_sets)]
        self._clock = 0

    def _touch(self, set_idx: int, way: int) -> None:
        self._clock += 1
        self._stamp[set_idx][way] = self._clock

    def on_fill(self, set_idx, way, thread=0):
        self._touch(set_idx, way)

    def fill_at_lru(self, set_idx: int, way: int) -> None:
        """Install a line at the *LRU* end of the stack (bimodal-style insert)."""
        stamps = self._stamp[set_idx]
        stamps[way] = min(stamps) - 1

    def on_hit(self, set_idx, way, thread=0):
        self._touch(set_idx, way)

    def on_invalidate(self, set_idx, way):
        self._stamp[set_idx][way] = 0

    def victim(self, set_idx: int, candidates: Sequence[int]) -> int:
        self._check_candidates(candidates)
        return min(candidates, key=self._stamp[set_idx].__getitem__)

    # -- introspection used by insertion-policy subclasses and tests ---------
    def recency_order(self, set_idx: int) -> list:
        """Ways of ``set_idx`` ordered from LRU to MRU."""
        stamps = self._stamp[set_idx]
        return sorted(range(self.assoc), key=lambda w: stamps[w])
