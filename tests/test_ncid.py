"""Tests for the NCID comparison architecture."""

import random

import pytest

from repro.cache.ncid import NCIDCache
from repro.coherence import State


def make(tag_lines=64, tag_assoc=4, data_lines=32, cores=4):
    return NCIDCache(
        tag_lines, tag_assoc, data_lines, num_cores=cores, rng=random.Random(0)
    )


class TestGeometry:
    def test_data_shares_tag_sets(self):
        ncid = make()
        assert ncid.data_sets == ncid.rdir.tag_sets
        assert ncid.data_assoc == 2  # 32 data lines / 16 sets

    def test_indivisible_geometry_rejected(self):
        with pytest.raises(ValueError):
            NCIDCache(64, 4, 8)  # 8 lines cannot cover 16 sets

    def test_uses_lru_both_arrays(self):
        ncid = make()
        assert ncid.tag_policy_name == "lru"
        assert ncid.data_policy_name == "lru"


class TestAllocationModes:
    def test_normal_leader_allocates_data(self):
        ncid = make()
        # set 0 is thread 0's "normal" leader: every fill gets data
        ncid.access(0, 0, False, 0)  # set 0 (16 sets)
        assert ncid.state_of(0) is State.S
        assert ncid.data_fills == 1

    def test_selective_leader_mostly_tag_only(self):
        ncid = make(tag_lines=256, tag_assoc=4, data_lines=128)
        # set 1 is thread 0's selective leader (addresses = 1 mod 64 sets)
        allocated = 0
        for i in range(100):
            addr = 1 + i * 64
            ncid.access(addr, 0, False, i)
            if ncid.state_of(addr) is not State.TO:
                allocated += 1
        assert allocated < 30  # ~5% expected

    def test_duel_steers_followers(self):
        ncid = make()
        ncid._psel[0] = 0  # normal mode wins for thread 0
        ncid.access(5 * 16 + 5, 0, False, 0)  # a follower set
        assert ncid.normal_fills >= 1

    def test_tag_only_reference_promotes_to_data(self):
        ncid = make()
        ncid._psel[0] = ncid._psel_max  # selective wins
        addr = 5  # follower set
        ncid.access(addr, 0, False, 0)
        if ncid.state_of(addr) is State.TO:  # tag-only fill (95% case)
            ncid.notify_private_eviction(addr, 0, False)
            ncid.access(addr, 0, False, 1)
            assert ncid.state_of(addr) is State.S


class TestReplacement:
    def test_tag_eviction_does_not_protect_private(self):
        ncid = NCIDCache(8, 2, 8, num_cores=4, rng=random.Random(0))
        ncid.access(0, 0, False, 0)  # private resident, LRU
        ncid.access(4, 1, False, 1)
        res = ncid.access(8, 2, False, 2)
        # plain LRU: line 0 evicted despite being in core 0's caches
        assert (0, 0) in res.inclusion_invals

    def test_data_conflicts_within_set(self):
        """Shrinking the data array shrinks per-set data ways: two hot lines
        mapping to one set with 1 data way keep displacing each other."""
        ncid = NCIDCache(64, 4, 16, num_cores=4, rng=random.Random(0))  # 1 way/set
        a, b = 0, 16  # same set (16 sets), normal-leader set 0
        for t in range(6):
            ncid.access(a, 0, False, t)
            ncid.notify_private_eviction(a, 0, False)
            ncid.access(b, 0, False, t)
            ncid.notify_private_eviction(b, 0, False)
        # only one of them can hold data at any time
        resident = set(ncid.resident_data_lines())
        assert len(resident & {a, b}) <= 1
        assert ncid.check_pointer_consistency()

    def test_pointer_consistency_under_traffic(self):
        ncid = make()
        rng = random.Random(3)
        for step in range(1500):
            core = rng.randrange(4)
            addr = rng.randrange(96)
            res = ncid.access(addr, core, rng.random() < 0.3, step)
            del res
            if rng.random() < 0.5:
                try:
                    ncid.notify_private_eviction(addr, core, rng.random() < 0.5)
                except KeyError:
                    pass  # already evicted by inclusion
            if step % 250 == 0:
                assert ncid.check_pointer_consistency()
        assert ncid.check_pointer_consistency()
