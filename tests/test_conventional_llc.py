"""Tests for the conventional inclusive SLLC."""

import random

import pytest

from repro.cache.conventional import ConventionalLLC


def make(policy="lru", lines=16, assoc=4, cores=4, **kw):
    return ConventionalLLC(
        lines, assoc, policy=policy, num_cores=cores, rng=random.Random(0), **kw
    )


class TestBasics:
    def test_miss_fetches_and_fills(self):
        llc = make()
        res = llc.access(0x100, core=0, is_write=False, now=0)
        assert res.source == "dram" and res.dram_reads == 1
        res = llc.access(0x100, core=1, is_write=False, now=1)
        assert res.source == "llc"
        assert llc.data_hits == 1 and llc.tag_misses == 1

    def test_every_fill_allocates_data(self):
        llc = make()
        for a in range(10):
            llc.access(a, 0, False, a)
        assert llc.data_fills == llc.tag_fills == 10

    def test_lru_victim(self):
        llc = make(lines=8, assoc=2)  # 4 sets x 2
        llc.access(0, 0, False, 0)
        llc.access(4, 0, False, 1)
        llc.access(0, 0, False, 2)  # 0 becomes MRU
        llc.access(8, 0, False, 3)  # set 0 full: evict 4
        assert llc.locate(4)[1] is None
        assert llc.locate(0)[1] is not None

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            ConventionalLLC(12, 4)

    @pytest.mark.parametrize("assoc", [0, -4])
    def test_nonpositive_assoc_names_the_geometry(self, assoc):
        with pytest.raises(ValueError, match=f"64 lines not divisible into {assoc} ways"):
            ConventionalLLC(64, assoc)


class TestCoherence:
    def test_write_invalidates_sharers(self):
        llc = make()
        llc.access(0x10, 0, False, 0)
        llc.access(0x10, 1, False, 1)
        llc.access(0x10, 2, False, 2)
        res = llc.access(0x10, 0, True, 3)
        assert sorted(res.coherence_invals) == [1, 2]
        set_idx, way = llc.locate(0x10)
        assert llc.directory.sharers(set_idx, way) == [0]

    def test_read_adds_sharer(self):
        llc = make()
        llc.access(0x10, 0, False, 0)
        llc.access(0x10, 3, False, 1)
        set_idx, way = llc.locate(0x10)
        assert llc.directory.sharers(set_idx, way) == [0, 3]

    def test_upgrade(self):
        llc = make()
        llc.access(0x10, 0, False, 0)
        llc.access(0x10, 1, False, 1)
        invals = llc.upgrade(0x10, core=1)
        assert invals == (0,)
        assert llc.upgrades == 1

    def test_upgrade_on_absent_line_is_protocol_violation(self):
        llc = make()
        with pytest.raises(KeyError):
            llc.upgrade(0x999, 0)

    def test_eviction_back_invalidates_sharers(self):
        llc = make(lines=8, assoc=2)
        llc.access(0, 0, False, 0)
        llc.access(4, 1, False, 1)
        res = llc.access(8, 2, False, 2)  # evicts line 0 (LRU)
        assert res.inclusion_invals == ((0, 0),)

    def test_put_clears_presence(self):
        llc = make()
        llc.access(0x10, 2, False, 0)
        wbs = llc.notify_private_eviction(0x10, 2, dirty=False)
        assert wbs == ()
        set_idx, way = llc.locate(0x10)
        assert way in llc.directory.unshared_ways(set_idx)

    def test_dirty_put_absorbed_then_written_back_on_evict(self):
        llc = make(lines=8, assoc=2)
        llc.access(0, 0, False, 0)
        llc.notify_private_eviction(0, 0, dirty=True)
        llc.access(4, 0, False, 1)
        res = llc.access(8, 0, False, 2)  # evicts dirty line 0
        assert res.writebacks == (0,)

    def test_put_on_absent_line_is_inclusion_violation(self):
        llc = make()
        with pytest.raises(KeyError):
            llc.notify_private_eviction(0x77, 0, False)


class TestNRRProtection:
    def test_nrr_avoids_private_resident_victims(self):
        llc = make(policy="nrr", lines=8, assoc=2)
        llc.access(0, 0, False, 0)  # present in core 0's caches
        llc.access(4, 1, False, 1)
        llc.notify_private_eviction(4, 1, False)  # line 4 left private caches
        res = llc.access(8, 2, False, 2)
        # victim must be line 4 (line 0 still private-resident)
        assert res.inclusion_invals == ()
        assert llc.locate(0)[1] is not None
        assert llc.locate(4)[1] is None

    def test_forced_eviction_when_all_private(self):
        llc = make(policy="nrr", lines=8, assoc=2)
        llc.access(0, 0, False, 0)
        llc.access(4, 1, False, 1)
        res = llc.access(8, 2, False, 2)
        assert len(res.inclusion_invals) == 1  # someone had to go

    def test_lru_baseline_does_not_protect(self):
        llc = make(policy="lru", lines=8, assoc=2)
        llc.access(0, 0, False, 0)
        llc.access(4, 1, False, 1)
        res = llc.access(8, 2, False, 2)
        assert res.inclusion_invals == ((0, 0),)  # strict LRU: inclusion victim


class TestStats:
    def test_counters(self):
        llc = make()
        llc.access(1, 0, False, 0)
        llc.access(1, 0, False, 1)
        s = llc.stats()
        assert s["accesses"] == 2
        assert s["data_hits"] == 1
        assert s["tag_misses"] == 1

    def test_drrip_policy_wired(self):
        llc = make(policy="drrip")
        for a in range(32):
            llc.access(a, a % 4, False, a)
        assert llc.tag_misses == 32
