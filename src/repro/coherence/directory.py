"""Full-map directory bookkeeping.

Each SLLC tag entry carries a presence bit vector, one bit per core (the
paper uses an 8-bit full map for the eight-core CMP).  The directory is what
lets NRR avoid evicting lines resident in private caches and what drives
coherence invalidations; keeping it in a small helper makes those rules
testable in isolation.

The SLLC models' hot paths (``cache/conventional.py``,
``core/reuse_cache.py``) read and write :attr:`Directory.bits` directly,
bit ``c`` of ``bits[set][way]`` meaning core ``c`` holds the line, and
turn a mask into its core ids through :attr:`Directory.cores`.  Cold paths
and tests use the methods below.  Both change the same entries, so each
method must stay equivalent to the direct write it names: ``add`` is
``|= 1 << core``, ``remove`` is ``&= ~(1 << core)``, ``set_only`` is
``= 1 << core`` and ``clear`` is ``= 0``.
"""

from __future__ import annotations


class _CoreIds(dict):
    """Memoised ``mask -> tuple of core ids``, filled on first use."""

    __slots__ = ("num_cores",)

    def __init__(self, num_cores: int):
        super().__init__()
        self.num_cores = num_cores

    def __missing__(self, mask: int) -> tuple:
        cores = self[mask] = tuple(c for c in range(self.num_cores) if mask >> c & 1)
        return cores


class Directory:
    """Presence bit vectors for a ``num_sets`` x ``assoc`` tag array."""

    __slots__ = ("num_cores", "bits", "cores")

    def __init__(self, num_sets: int, assoc: int, num_cores: int):
        if num_cores <= 0:
            raise ValueError(f"num_cores must be positive, got {num_cores}")
        self.num_cores = num_cores
        #: per set, the presence mask of each way
        self.bits = [[0] * assoc for _ in range(num_sets)]
        #: ``cores[mask]``: the core ids set in ``mask``, ascending
        self.cores = _CoreIds(num_cores)

    def vector(self, set_idx: int, way: int) -> int:
        """Raw presence bitmask of ``(set_idx, way)``."""
        return self.bits[set_idx][way]

    def clear(self, set_idx: int, way: int) -> None:
        """Remove every sharer of ``(set_idx, way)``."""
        self.bits[set_idx][way] = 0

    def add(self, set_idx: int, way: int, core: int) -> None:
        """Record ``core`` as a sharer."""
        self.bits[set_idx][way] |= 1 << core

    def remove(self, set_idx: int, way: int, core: int) -> None:
        """Drop ``core`` from the sharers."""
        self.bits[set_idx][way] &= ~(1 << core)

    def set_only(self, set_idx: int, way: int, core: int) -> None:
        """Make ``core`` the sole sharer (after a GETX/UPG)."""
        self.bits[set_idx][way] = 1 << core

    def is_present(self, set_idx: int, way: int, core: int) -> bool:
        """True when ``core`` holds the line privately."""
        return bool(self.bits[set_idx][way] >> core & 1)

    def unshared_ways(self, set_idx: int) -> list:
        """Ways of ``set_idx`` no private cache holds, in way order."""
        return [w for w, bits in enumerate(self.bits[set_idx]) if not bits]

    def sharers(self, set_idx: int, way: int) -> list:
        """Core ids whose private caches hold the line."""
        return list(self.cores[self.bits[set_idx][way]])

    def others(self, set_idx: int, way: int, core: int) -> list:
        """Sharers other than ``core`` (the invalidation targets of a GETX)."""
        return list(self.cores[self.bits[set_idx][way] & ~(1 << core)])
