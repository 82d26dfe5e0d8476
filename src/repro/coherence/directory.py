"""Full-map directory bookkeeping.

Each SLLC tag entry carries a presence bit vector, one bit per core (the
paper uses an 8-bit full map for the eight-core CMP).  The directory is what
lets NRR avoid evicting lines resident in private caches and what drives
coherence invalidations; keeping it in a small helper makes those rules
testable in isolation.
"""

from __future__ import annotations


class Directory:
    """Presence bit vectors for a ``num_sets`` x ``assoc`` tag array."""

    __slots__ = ("num_cores", "_bits")

    def __init__(self, num_sets: int, assoc: int, num_cores: int):
        if num_cores <= 0:
            raise ValueError(f"num_cores must be positive, got {num_cores}")
        self.num_cores = num_cores
        self._bits = [[0] * assoc for _ in range(num_sets)]

    def vector(self, set_idx: int, way: int) -> int:
        """Raw presence bitmask of ``(set_idx, way)``."""
        return self._bits[set_idx][way]

    def clear(self, set_idx: int, way: int) -> None:
        """Remove every sharer of ``(set_idx, way)``."""
        self._bits[set_idx][way] = 0

    def add(self, set_idx: int, way: int, core: int) -> None:
        """Record ``core`` as a sharer."""
        self._bits[set_idx][way] |= 1 << core

    def remove(self, set_idx: int, way: int, core: int) -> None:
        """Drop ``core`` from the sharers."""
        self._bits[set_idx][way] &= ~(1 << core)

    def set_only(self, set_idx: int, way: int, core: int) -> None:
        """Make ``core`` the sole sharer (after a GETX/UPG)."""
        self._bits[set_idx][way] = 1 << core

    def is_present(self, set_idx: int, way: int, core: int) -> bool:
        """True when ``core`` holds the line privately."""
        return bool(self._bits[set_idx][way] >> core & 1)

    def unshared_ways(self, set_idx: int) -> list:
        """Ways of ``set_idx`` no private cache holds, in way order."""
        return [w for w, bits in enumerate(self._bits[set_idx]) if not bits]

    def sharers(self, set_idx: int, way: int) -> list:
        """Core ids whose private caches hold the line."""
        bits = self._bits[set_idx][way]
        return [c for c in range(self.num_cores) if bits >> c & 1]

    def others(self, set_idx: int, way: int, core: int) -> list:
        """Sharers other than ``core`` (the invalidation targets of a GETX)."""
        bits = self._bits[set_idx][way] & ~(1 << core)
        return [c for c in range(self.num_cores) if bits >> c & 1]
