"""Differential testing: cache models vs tiny independent oracles.

The simulators are validated against purpose-built reference models written
with none of the production code's machinery (ordered dicts instead of tag
stores + policies), on randomized traces.  Divergence in *any* hit/miss
decision fails the test.
"""

import collections
import random

import pytest

from repro.cache.conventional import ConventionalLLC
from repro.cache.private_cache import PrivateCache, PrivateHierarchy
from repro.core.reuse_cache import ReuseCache


class OracleSetLRU:
    """Reference set-associative LRU cache built on OrderedDict."""

    def __init__(self, num_sets, assoc):
        self.num_sets = num_sets
        self.assoc = assoc
        self.sets = [collections.OrderedDict() for _ in range(num_sets)]

    def access(self, addr) -> bool:
        s = self.sets[addr % self.num_sets]
        if addr in s:
            s.move_to_end(addr)
            return True
        if len(s) >= self.assoc:
            s.popitem(last=False)
        s[addr] = True
        return False


class TestConventionalVsOracle:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_single_core_lru_identical(self, seed):
        rng = random.Random(seed)
        llc = ConventionalLLC(32, 4, policy="lru", num_cores=1,
                              rng=random.Random(0))
        oracle = OracleSetLRU(8, 4)
        for t in range(3000):
            addr = rng.randrange(64)
            expected = oracle.access(addr)
            res = llc.access(addr, 0, False, t)
            got = res.source == "llc"
            assert got == expected, f"divergence at access {t} addr {addr}"
            # mirror the system: drop presence so NRR-free LRU matches
            llc.notify_private_eviction(addr, 0, False)

    def test_private_cache_vs_oracle(self):
        rng = random.Random(7)
        cache = PrivateCache(16, 4, "L1")
        oracle = OracleSetLRU(4, 4)
        for _ in range(3000):
            addr = rng.randrange(32)
            expected = oracle.access(addr)
            got = cache.lookup(addr) is not None
            if not got:
                cache.fill(addr, False)
            assert got == expected


class OracleHierarchy:
    """Reference L1 ⊆ L2 write-back LRU pair.

    Each level is one OrderedDict per set, LRU first, mapping a line to
    its dirty bit."""

    def __init__(self, l1_sets, l1_assoc, l2_sets, l2_assoc):
        self.l1 = [collections.OrderedDict() for _ in range(l1_sets)]
        self.l2 = [collections.OrderedDict() for _ in range(l2_sets)]
        self.l1_assoc = l1_assoc
        self.l2_assoc = l2_assoc
        #: L2 victims whose dirty data was only in their L1 copy
        self.l1_dirty_merges = 0

    def _set(self, level, addr):
        return level[addr % len(level)]

    def _install_l1(self, addr, dirty):
        s1 = self._set(self.l1, addr)
        if len(s1) >= self.l1_assoc:
            victim, victim_dirty = s1.popitem(last=False)
            if victim_dirty:  # the inclusive L2 copy takes the dirty data
                self._set(self.l2, victim)[victim] = True
        s1[addr] = dirty

    def access(self, addr, is_write):
        s1 = self._set(self.l1, addr)
        if addr in s1:
            s1.move_to_end(addr)
            return "l1", is_write and not s1[addr]
        s2 = self._set(self.l2, addr)
        if addr in s2:
            s2.move_to_end(addr)
            self._install_l1(addr, s2[addr])
            return "l2", is_write and not s2[addr]
        return "miss", False

    def fill(self, addr, dirty):
        evictions = []
        s2 = self._set(self.l2, addr)
        if len(s2) >= self.l2_assoc:
            victim, victim_dirty = s2.popitem(last=False)
            l1_dirty = self._set(self.l1, victim).pop(victim, False)
            self.l1_dirty_merges += l1_dirty and not victim_dirty
            evictions.append((victim, victim_dirty or l1_dirty))
        s2[addr] = False
        self._install_l1(addr, dirty)
        return evictions

    def mark_written(self, addr):
        self._set(self.l1, addr)[addr] = True

    def invalidate(self, addr):
        p1 = addr in self._set(self.l1, addr)
        p2 = addr in self._set(self.l2, addr)
        d1 = self._set(self.l1, addr).pop(addr, False)
        d2 = self._set(self.l2, addr).pop(addr, False)
        return p1 or p2, d1 or d2


class TestPrivateHierarchyVsOracle:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_every_result_identical(self, seed):
        """Drive both with the system's protocol: a store that needs an
        upgrade is then marked written, a miss is filled, and random
        back-invalidations land in between.  Half the references go to
        four hot lines, which L1 hits keep while they age in L2, so L2
        evicts lines whose L1 copy holds the dirty data."""
        rng = random.Random(seed)
        ph = PrivateHierarchy(8, 2, 32, 4)  # L1 4x2, L2 8x4
        oracle = OracleHierarchy(4, 2, 8, 4)
        fills = dirty_evictions = 0
        for t in range(6000):
            addr = rng.randrange(4) if rng.random() < 0.5 else rng.randrange(128)
            if rng.random() < 0.1:
                got = ph.invalidate(addr)
                assert got == oracle.invalidate(addr), f"invalidate at {t}"
                continue
            is_write = rng.random() < 0.3
            level, needs_upgrade, evictions = ph.access(addr, is_write)
            assert evictions == ()
            assert (level, needs_upgrade) == oracle.access(addr, is_write), (
                f"access at {t}")
            if needs_upgrade:
                ph.mark_written(addr)
                oracle.mark_written(addr)
            if level == "miss":
                got = ph.fill(addr, is_write)
                assert got == oracle.fill(addr, is_write), f"fill at {t}"
                fills += 1
                dirty_evictions += sum(dirty for _, dirty in got)
            assert ph.check_inclusion()
        # the paths ran
        assert fills > 500 and dirty_evictions > 50
        assert oracle.l1_dirty_merges > 0


class OracleReuseCache:
    """Reference reuse cache: FA data array with Clock, LRU-free tag model.

    Only the *data-array content* decision is mirrored (which lines get
    data, which hit); tags are unbounded so tag-eviction policy differences
    cannot mask data-path divergence.
    """

    def __init__(self, data_capacity):
        self.capacity = data_capacity
        self.seen = set()  # tags (unbounded)
        self.data = {}  # addr -> ref bit
        self.order = []  # clock order
        self.hand = 0

    def access(self, addr) -> str:
        if addr in self.data:
            self.data[addr] = 1
            return "hit"
        if addr in self.seen:
            # reuse: allocate
            if len(self.data) >= self.capacity:
                while True:
                    victim = self.order[self.hand]
                    if self.data[victim]:
                        self.data[victim] = 0
                        self.hand = (self.hand + 1) % len(self.order)
                    else:
                        del self.data[victim]
                        self.order[self.hand] = addr
                        self.hand = (self.hand + 1) % len(self.order)
                        break
            else:
                self.order.append(addr)
            self.data[addr] = 1
            return "reuse"
        self.seen.add(addr)
        return "miss"


class TestReuseCacheVsOracle:
    @pytest.mark.parametrize("seed", [0, 5])
    def test_data_path_identical_with_unbounded_tags(self, seed):
        """With a tag array big enough never to evict, the reuse cache's
        data-array decisions must match the independent oracle exactly."""
        rng = random.Random(seed)
        n_lines = 32
        rc = ReuseCache(1024, 4, 8, data_assoc="full", num_cores=1,
                        rng=random.Random(0))
        oracle = OracleReuseCache(8)
        for t in range(4000):
            addr = rng.randrange(n_lines)
            expected = oracle.access(addr)
            res = rc.access(addr, 0, False, t)
            if expected == "hit":
                assert res.source == "llc", f"t={t} addr={addr}"
            elif expected == "reuse":
                assert res.source in ("dram", "peer") and rc.state_of(addr).has_data, (
                    f"t={t} addr={addr}"
                )
            else:
                assert res.source == "dram" and not rc.state_of(addr).has_data, (
                    f"t={t} addr={addr}"
                )
            rc.notify_private_eviction(addr, 0, False)
