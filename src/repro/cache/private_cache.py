"""Private per-core caches: a write-back L1/L2 pair with L1 ⊆ L2 inclusion.

The paper's cores each have a 32 KB 4-way L1 (data side modelled; the
instruction side is not simulated because the traces carry data references
only) and a 256 KB 8-way unified L2, both LRU.  :class:`PrivateHierarchy`
bundles the two levels and reports the events the SLLC directory needs:

* L2 evictions (the paper's PUTS/PUTX eviction notifications), and
* whether a store needs a coherence upgrade (the line was held clean).

Dirty data never silently disappears: L1 victims mark the (inclusive) L2
copy dirty, L2 victims surface as ``(addr, dirty)`` pairs, and invalidations
return the merged dirty state of both levels.

Each level keeps, per set, an ``addr -> way`` dict and way lists of the
resident address, dirty bit and LRU stamp.  A free way's stamp is 0 and a
resident way's is a tick of the level's clock, so the way with the lowest
stamp is the lowest free way when there is one and the LRU way otherwise.
:meth:`PrivateCache.fill` is the one placement step; :class:`PrivateHierarchy`
calls it for both levels and adds the inclusion rules around it.
"""

from __future__ import annotations

from ..utils import require_power_of_two


class PrivateCache:
    """One write-back, write-allocate, LRU set-associative cache level."""

    def __init__(self, num_lines: int, assoc: int, name: str = "L?"):
        require_power_of_two(num_lines, f"{name} num_lines")
        if assoc <= 0 or num_lines % assoc:
            raise ValueError(f"{name}: {num_lines} lines not divisible into {assoc} ways")
        self.name = name
        self.num_lines = num_lines
        self.assoc = assoc
        ns = num_lines // assoc
        self._mask = ns - 1
        self._maps = [{} for _ in range(ns)]
        self._addrs = [[None] * assoc for _ in range(ns)]
        self._dirty = [[False] * assoc for _ in range(ns)]
        self._stamp = [[0] * assoc for _ in range(ns)]
        self._clock = 0

    # -- fast paths -----------------------------------------------------------
    def lookup(self, addr: int):
        """Touch and return the way of ``addr``; None on miss."""
        set_idx = addr & self._mask
        way = self._maps[set_idx].get(addr)
        if way is not None:
            self._clock += 1
            self._stamp[set_idx][way] = self._clock
        return way

    def probe(self, addr: int):
        """Non-touching presence check; returns the way or None."""
        return self._maps[addr & self._mask].get(addr)

    def is_dirty(self, addr: int) -> bool:
        """True when ``addr`` is resident and dirty."""
        set_idx = addr & self._mask
        way = self._maps[set_idx].get(addr)
        return way is not None and self._dirty[set_idx][way]

    def set_dirty(self, addr: int) -> None:
        """Mark a resident line dirty; raises KeyError when absent."""
        set_idx = addr & self._mask
        way = self._maps[set_idx].get(addr)
        if way is None:
            raise KeyError(f"{self.name}: set_dirty on absent line {addr:#x}")
        self._dirty[set_idx][way] = True

    def fill(self, addr: int, dirty: bool):
        """Install ``addr``; returns the evicted ``(addr, dirty)`` or None.

        A set with an invalid way fills its lowest one; a full set evicts
        its least recently used way.
        """
        set_idx = addr & self._mask
        resident = self._maps[set_idx]
        if addr in resident:
            raise ValueError(f"{self.name}: fill of already-present line {addr:#x}")
        stamps = self._stamp[set_idx]
        way = stamps.index(min(stamps))
        ways = self._addrs[set_idx]
        victim = ways[way]
        evicted = None
        if victim is not None:
            del resident[victim]
            evicted = (victim, self._dirty[set_idx][way])
        ways[way] = addr
        resident[addr] = way
        self._dirty[set_idx][way] = dirty
        self._clock += 1
        stamps[way] = self._clock
        return evicted

    def invalidate(self, addr: int):
        """Remove ``addr`` if present; returns ``(was_present, was_dirty)``."""
        set_idx = addr & self._mask
        way = self._maps[set_idx].pop(addr, None)
        if way is None:
            return False, False
        dirty = self._dirty[set_idx][way]
        self._addrs[set_idx][way] = None
        self._dirty[set_idx][way] = False
        self._stamp[set_idx][way] = 0
        return True, dirty

    def resident_addrs(self):
        """Iterate over resident line addresses."""
        for resident in self._maps:
            yield from resident


class PrivateHierarchy:
    """The private L1+L2 stack of one core (L1 inclusive in L2)."""

    def __init__(self, l1_lines: int, l1_assoc: int, l2_lines: int, l2_assoc: int):
        if l2_lines < l1_lines:
            raise ValueError("L2 must be at least as large as L1 for inclusion")
        self.l1 = PrivateCache(l1_lines, l1_assoc, "L1")
        self.l2 = PrivateCache(l2_lines, l2_assoc, "L2")

    def access(self, addr: int, is_write: bool):
        """Look up ``addr``.

        Returns ``(level, needs_upgrade, evictions)`` where ``level`` is
        ``"l1"``, ``"l2"`` or ``"miss"``; ``needs_upgrade`` is True when a
        store hit a line held clean (an UPG must be sent to the SLLC before
        the write proceeds — the caller marks the line dirty afterwards via
        :meth:`mark_written`); ``evictions`` lists ``(addr, dirty)`` L2
        victims created by an L2→L1 refill, which the caller must report to
        the SLLC directory.
        """
        l1 = self.l1
        set_idx = addr & l1._mask
        way = l1._maps[set_idx].get(addr)
        if way is not None:
            l1._clock += 1
            l1._stamp[set_idx][way] = l1._clock
            if is_write and not l1._dirty[set_idx][way]:
                return "l1", True, ()
            return "l1", False, ()

        l2 = self.l2
        set_idx = addr & l2._mask
        way = l2._maps[set_idx].get(addr)
        if way is not None:
            l2._clock += 1
            l2._stamp[set_idx][way] = l2._clock
            dirty = l2._dirty[set_idx][way]
            needs_upgrade = is_write and not dirty
            self._refill_l1(addr, dirty or (is_write and not needs_upgrade))
            return "l2", needs_upgrade, ()
        # A write miss is a GETX at the SLLC, not an upgrade.
        return "miss", False, ()

    def _refill_l1(self, addr: int, dirty: bool) -> None:
        """Install ``addr`` into L1; a dirty L1 victim marks its L2 copy
        dirty (inclusion guarantees the copy exists)."""
        evicted = self.l1.fill(addr, dirty)
        if evicted is not None and evicted[1]:
            self.l2.set_dirty(evicted[0])

    def _fill_l2(self, addr: int):
        """Install ``addr`` into L2 clean; returns the PUTS/PUTX-style
        evictions, the victim's dirty bit merged with its L1 copy's, which
        is back-invalidated."""
        evicted = self.l2.fill(addr, False)
        if evicted is None:
            return []
        victim, dirty = evicted
        l1_dirty = self.l1.invalidate(victim)[1]
        return [(victim, dirty or l1_dirty)]

    def fill(self, addr: int, dirty: bool):
        """Install a line arriving from the SLLC/memory into L2 then L1.

        Returns the list of L2 evictions ``(addr, dirty)`` to report to the
        SLLC (PUTS/PUTX); raises ValueError when ``addr`` is already present.
        """
        evictions = self._fill_l2(addr)
        self._refill_l1(addr, dirty)
        return evictions

    def prefetch_fill(self, addr: int):
        """Install a prefetched line into L2 only (not L1).

        No-op when the line is already present.  Returns L2 evictions to
        report to the SLLC.
        """
        if self.l2.probe(addr) is not None:
            return []
        return self._fill_l2(addr)

    def mark_written(self, addr: int) -> None:
        """Record a completed store (after any upgrade): L1 copy goes dirty."""
        self.l1.set_dirty(addr)

    def invalidate(self, addr: int):
        """Back-invalidate ``addr`` from both levels.

        Returns ``(was_present, was_dirty)`` with dirtiness merged across
        levels, so the caller can write the line back if needed.
        """
        p1, d1 = self.l1.invalidate(addr)
        p2, d2 = self.l2.invalidate(addr)
        return (p1 or p2), (d1 or d2)

    def contains(self, addr: int) -> bool:
        """Presence check across both levels (no LRU update)."""
        return self.l2.probe(addr) is not None or self.l1.probe(addr) is not None

    def check_inclusion(self) -> bool:
        """Invariant check (used by tests): every L1 line is in L2."""
        l2_resident = set(self.l2.resident_addrs())
        return all(a in l2_resident for a in self.l1.resident_addrs())
