"""A minimal set-associative tag store.

:class:`TagStore` keeps, per set, the resident line addresses and an
address → way map for O(1) lookup.  It stores *placement* only; replacement
metadata, dirty bits, coherence state etc. live in the owning cache, indexed
by ``(set_idx, way)``.  Addresses are *line* addresses (byte address divided
by the line size) represented as plain ints.
"""

from __future__ import annotations

from ..utils import require_power_of_two


class TagStore:
    """Placement bookkeeping for a ``num_sets`` x ``assoc`` array."""

    __slots__ = ("num_sets", "assoc", "addrs", "maps", "_set_mask")

    def __init__(self, num_sets: int, assoc: int):
        require_power_of_two(num_sets, "num_sets")
        if assoc <= 0:
            raise ValueError(f"assoc must be positive, got {assoc}")
        self.num_sets = num_sets
        self.assoc = assoc
        self._set_mask = num_sets - 1
        self.addrs: list = [[None] * assoc for _ in range(num_sets)]
        self.maps: list = [dict() for _ in range(num_sets)]

    def set_of(self, line_addr: int) -> int:
        """Set index of ``line_addr`` (least-significant index bits)."""
        return line_addr & self._set_mask

    def find(self, set_idx: int, line_addr: int):
        """Way holding ``line_addr`` in ``set_idx``, or None."""
        return self.maps[set_idx].get(line_addr)

    def lookup(self, line_addr: int):
        """``(set_idx, way_or_None)`` for ``line_addr``."""
        set_idx = line_addr & self._set_mask
        return set_idx, self.maps[set_idx].get(line_addr)

    def free_way(self, set_idx: int):
        """An invalid way in ``set_idx``, or None when the set is full."""
        ways = self.addrs[set_idx]
        for w in range(self.assoc):
            if ways[w] is None:
                return w
        return None

    def install(self, set_idx: int, way: int, line_addr: int) -> None:
        """Place ``line_addr`` into ``(set_idx, way)``; the way must be free."""
        ways = self.addrs[set_idx]
        if ways[way] is not None:
            raise ValueError(
                f"install into occupied way {way} of set {set_idx} "
                f"(holds {ways[way]:#x})"
            )
        ways[way] = line_addr
        self.maps[set_idx][line_addr] = way

    def evict(self, set_idx: int, way: int) -> int:
        """Remove and return the line address stored in ``(set_idx, way)``."""
        ways = self.addrs[set_idx]
        addr = ways[way]
        if addr is None:
            raise ValueError(f"evict from empty way {way} of set {set_idx}")
        ways[way] = None
        del self.maps[set_idx][addr]
        return addr

    def replace(self, set_idx: int, way: int, line_addr: int) -> int:
        """Swap ``line_addr`` in for the line it returns, in place."""
        ways = self.addrs[set_idx]
        victim = ways[way]
        if victim is None:
            raise ValueError(f"replace in empty way {way} of set {set_idx}")
        ways[way] = line_addr
        m = self.maps[set_idx]
        del m[victim]
        m[line_addr] = way
        return victim

    def valid_ways(self, set_idx: int) -> list:
        """Ways of ``set_idx`` currently holding a line."""
        ways = self.addrs[set_idx]
        return [w for w in range(self.assoc) if ways[w] is not None]

    def occupancy(self) -> int:
        """Total number of resident lines."""
        return sum(len(m) for m in self.maps)

    def resident_addrs(self):
        """Iterate over all resident line addresses."""
        for m in self.maps:
            yield from m
