"""Tests for the private L1/L2 hierarchy."""

import pytest

from repro.cache.private_cache import PrivateCache, PrivateHierarchy


class TestPrivateCache:
    def test_fill_and_lookup(self):
        c = PrivateCache(8, 2, "L1")
        assert c.lookup(0x10) is None
        assert c.fill(0x10, dirty=False) is None
        assert c.lookup(0x10) is not None

    def test_lru_eviction(self):
        c = PrivateCache(4, 2, "L1")  # 2 sets x 2 ways
        c.fill(0, False)
        c.fill(2, False)
        c.lookup(0)  # way holding 0 becomes MRU
        evicted = c.fill(4, False)  # set 0 full: evict LRU (addr 2)
        assert evicted == (2, False)

    def test_dirty_eviction_reported(self):
        c = PrivateCache(2, 2, "L1")
        c.fill(0, dirty=True)
        c.fill(2, False)
        evicted = c.fill(4, False)
        assert evicted == (0, True)

    def test_invalidate(self):
        c = PrivateCache(4, 2, "L1")
        c.fill(1, dirty=True)
        assert c.invalidate(1) == (True, True)
        assert c.invalidate(1) == (False, False)

    def test_set_dirty_requires_presence(self):
        c = PrivateCache(4, 2, "L1")
        with pytest.raises(KeyError):
            c.set_dirty(9)

    def test_double_fill_rejected(self):
        c = PrivateCache(4, 2, "L1")
        c.fill(3, False)
        with pytest.raises(ValueError):
            c.fill(3, False)

    def test_fill_takes_an_invalidated_hole_not_the_lru_way(self):
        c = PrivateCache(4, 4, "L1")  # one set of 4 ways
        for a in (0, 1, 2, 3):
            c.fill(a, False)
        c.lookup(0)  # LRU order now 1, 2, 3, 0
        c.invalidate(3)
        c.invalidate(2)  # holes in ways 2 and 3
        assert c.fill(8, False) is None  # the set had a hole: no victim
        assert c.probe(1) == 1 and c.probe(8) == 2  # the lowest hole
        assert c.fill(9, False) is None
        assert c.probe(9) == 3
        # full again: now the LRU way goes
        assert c.fill(10, False) == (1, False)
        assert c.probe(10) == 1

    def test_lru_victim_follows_lookup_touches(self):
        c = PrivateCache(4, 4, "L1")  # one set of 4 ways
        for a in (0, 1, 2, 3):
            c.fill(a, False)
        for a in (0, 2, 1):
            c.lookup(a)  # LRU order now 3, 0, 2, 1
        assert c.fill(4, False) == (3, False)
        assert c.fill(5, False) == (0, False)
        c.lookup(2)  # LRU order now 1, 4, 5, 2
        c.probe(1)  # a probe does not touch
        assert c.is_dirty(1) is False  # nor does a dirty-bit read
        assert c.fill(6, False) == (1, False)
        assert c.fill(7, False) == (4, False)


@pytest.fixture
def ph():
    # L1: 4 lines 2-way; L2: 16 lines 4-way
    return PrivateHierarchy(4, 2, 16, 4)


class TestPrivateHierarchy:
    def test_miss_then_hits(self, ph):
        level, upg, _ = ph.access(0x20, False)
        assert level == "miss"
        assert not upg
        ph.fill(0x20, dirty=False)
        level, _, _ = ph.access(0x20, False)
        assert level == "l1"

    def test_l2_hit_refills_l1(self, ph):
        ph.fill(0x20, False)
        # push 0x20 out of tiny L1 (set 0 holds even addresses)
        ph.fill(0x30, False)
        ph.fill(0x40, False)
        level, _, _ = ph.access(0x20, False)
        assert level == "l2"
        level, _, _ = ph.access(0x20, False)
        assert level == "l1"

    def test_inclusion_invariant_under_churn(self, ph):
        for a in range(64):
            if ph.access(a, a % 3 == 0)[0] == "miss":
                ph.fill(a, dirty=a % 3 == 0)
            assert ph.check_inclusion()

    def test_l2_eviction_reported_with_merged_dirty(self, ph):
        ph.fill(0x10, dirty=True)  # dirty in L1, clean in L2
        evictions = []
        a = 0x20
        while not evictions:
            evictions = ph.fill(a, False)
            a += 0x10
        # every reported eviction with the dirty line must carry dirty=True
        for addr, dirty in evictions:
            if addr == 0x10:
                assert dirty

    def test_write_hit_on_clean_needs_upgrade(self, ph):
        ph.fill(0x08, dirty=False)
        level, upg, _ = ph.access(0x08, True)
        assert level == "l1" and upg
        ph.mark_written(0x08)
        level, upg, _ = ph.access(0x08, True)
        assert level == "l1" and not upg

    def test_write_hit_on_dirty_no_upgrade(self, ph):
        ph.fill(0x08, dirty=True)
        level, upg, _ = ph.access(0x08, True)
        assert level == "l1" and not upg

    def test_write_miss_is_not_upgrade(self, ph):
        level, upg, _ = ph.access(0x55, True)
        assert level == "miss" and not upg

    def test_invalidate_merges_dirty_across_levels(self, ph):
        ph.fill(0x10, dirty=True)  # L1 dirty
        present, dirty = ph.invalidate(0x10)
        assert present and dirty
        assert not ph.contains(0x10)

    def test_l1_victim_dirtiness_propagates_to_l2(self, ph):
        ph.fill(0x00, dirty=True)
        ph.fill(0x10, False)
        ph.fill(0x20, False)  # L1 set 0 evicts 0x00 -> L2 copy must be dirty
        assert ph.l1.probe(0x00) is None
        assert ph.l2.is_dirty(0x00)

    def test_l2_must_cover_l1(self):
        with pytest.raises(ValueError):
            PrivateHierarchy(16, 2, 8, 4)

    def test_fill_of_present_line_rejected(self, ph):
        ph.fill(0x10, False)
        with pytest.raises(ValueError):
            ph.fill(0x10, False)
