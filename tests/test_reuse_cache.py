"""Tests for the reuse cache — the paper's core contribution."""

import random

import pytest

from repro.coherence import State
from repro.core.reuse_cache import ReuseCache


def make(tag_lines=32, tag_assoc=4, data_lines=8, data_assoc="full", cores=4, **kw):
    return ReuseCache(
        tag_lines,
        tag_assoc,
        data_lines,
        data_assoc=data_assoc,
        num_cores=cores,
        rng=random.Random(0),
        **kw,
    )


class TestGeometry:
    def test_data_cannot_exceed_tags(self):
        with pytest.raises(ValueError):
            make(tag_lines=8, tag_assoc=2, data_lines=16)

    def test_data_sets_cannot_exceed_tag_sets(self):
        # 32 tags 4-way -> 8 sets; 16 data lines 1-way -> 16 sets
        with pytest.raises(ValueError):
            make(data_lines=16, data_assoc=1)

    def test_nonpositive_assoc_names_the_geometry(self):
        with pytest.raises(ValueError, match="64 tags not divisible into 0 ways"):
            ReuseCache(64, 0, 16)
        with pytest.raises(ValueError,
                           match="16 data entries not divisible into 0 ways"):
            ReuseCache(64, 8, 16, data_assoc=0)

    def test_full_assoc_means_one_set(self):
        rc = make(data_lines=8, data_assoc="full")
        assert rc.data_sets == 1 and rc.data_assoc == 8

    def test_default_data_policy(self):
        assert make(data_assoc="full").data_policy_name == "clock"
        assert make(data_assoc=2).data_policy_name == "nru"


class TestSelectiveAllocation:
    """Section 3: first access = tag only; second access = data."""

    def test_first_access_allocates_tag_only(self):
        rc = make()
        res = rc.access(0x100, 0, False, 0)
        assert res.source == "dram" and res.dram_reads == 1
        assert rc.state_of(0x100) is State.TO
        assert rc.data_fills == 0
        assert rc.tag_fills == 1

    def test_reuse_allocates_data(self):
        rc = make()
        rc.access(0x100, 0, False, 0)
        rc.notify_private_eviction(0x100, 0, False)  # left private caches
        res = rc.access(0x100, 0, False, 1)
        assert rc.state_of(0x100) is State.S
        assert rc.data_fills == 1
        assert rc.to_hits == 1
        # no private copy existed: the line is re-read from memory
        assert res.source == "dram" and rc.reuse_reloads == 1

    def test_reuse_from_peer_avoids_memory(self):
        rc = make()
        rc.access(0x100, 0, False, 0)  # core 0 holds the line privately
        res = rc.access(0x100, 1, False, 1)  # core 1 re-references: reuse
        assert res.source == "peer"
        assert rc.peer_transfers == 1 and rc.reuse_reloads == 0
        assert rc.state_of(0x100) is State.S

    def test_write_reuse_goes_modified(self):
        rc = make()
        rc.access(0x100, 0, False, 0)
        res = rc.access(0x100, 1, True, 1)
        assert rc.state_of(0x100) is State.M
        assert res.coherence_invals == (0,)

    def test_third_access_is_data_hit(self):
        rc = make()
        rc.access(0x100, 0, False, 0)
        rc.access(0x100, 1, False, 1)
        res = rc.access(0x100, 2, False, 2)
        assert res.source == "llc" and res.dram_reads == 0
        assert rc.data_hits == 1

    def test_streaming_lines_never_pollute_data_array(self):
        rc = make(tag_lines=64, tag_assoc=4, data_lines=8)
        for a in range(40):  # one-pass scan
            rc.access(a, 0, False, a)
            rc.notify_private_eviction(a, 0, False)
        assert rc.data_fills == 0
        assert rc.fraction_not_entered() == 1.0

    def test_fraction_not_entered_matches_counters(self):
        rc = make()
        rc.access(1, 0, False, 0)
        rc.access(2, 0, False, 1)
        rc.access(1, 1, False, 2)  # reuse
        assert rc.fraction_not_entered() == pytest.approx(0.5)


class TestDataReplacement:
    def test_data_victim_demoted_to_tag_only(self):
        rc = make(tag_lines=32, tag_assoc=4, data_lines=2)
        # fill the 2-entry data array with reused lines
        for a in (0x10, 0x11, 0x12):
            rc.access(a, 0, False, 0)
            rc.notify_private_eviction(a, 0, False)
            rc.access(a, 0, False, 1)  # reuse -> data alloc
            rc.notify_private_eviction(a, 0, False)
        data_resident = set(rc.resident_data_lines())
        assert len(data_resident) == 2
        demoted = {0x10, 0x11, 0x12} - data_resident
        assert len(demoted) == 1
        assert rc.state_of(demoted.pop()) is State.TO

    def test_dirty_data_victim_written_back(self):
        rc = make(tag_lines=32, tag_assoc=4, data_lines=1)
        rc.access(0x10, 0, True, 0)
        rc.notify_private_eviction(0x10, 0, dirty=True)  # TO: to memory
        rc.access(0x10, 0, True, 1)  # reuse -> data alloc (M)
        rc.notify_private_eviction(0x10, 0, dirty=True)  # absorbed: data dirty
        # allocate another reused line: evicts 0x10's data, dirty
        rc.access(0x20, 0, False, 2)
        rc.notify_private_eviction(0x20, 0, False)
        res = rc.access(0x20, 0, False, 3)
        assert 0x10 in res.writebacks

    def test_demoted_line_can_be_reloaded(self):
        rc = make(tag_lines=32, tag_assoc=4, data_lines=1)
        for a in (0x10, 0x20):
            rc.access(a, 0, False, 0)
            rc.notify_private_eviction(a, 0, False)
            rc.access(a, 0, False, 1)
            rc.notify_private_eviction(a, 0, False)
        assert rc.state_of(0x10) is State.TO
        rc.access(0x10, 0, False, 2)  # reuse detected again
        assert rc.state_of(0x10) is State.S
        assert rc.data_fills == 3


class TestTagReplacement:
    def test_tag_eviction_frees_data_entry(self):
        rc = make(tag_lines=8, tag_assoc=2, data_lines=4)
        # make line 0 a reused (tag+data) line, then leave private caches
        rc.access(0, 0, False, 0)
        rc.notify_private_eviction(0, 0, False)
        rc.access(0, 0, False, 1)
        rc.notify_private_eviction(0, 0, False)
        assert 0 in set(rc.resident_data_lines())
        # two more lines in set 0 (4 sets: addresses = 0 mod 4) force a tag evict
        for a in (4, 8):
            rc.access(a, 0, False, 2)
            rc.notify_private_eviction(a, 0, False)
        assert rc.check_pointer_consistency()
        # line 0 was reused so NRR protects it; victims are the fresh tags
        assert rc.state_of(0) is not State.I

    def test_tag_eviction_back_invalidates(self):
        rc = make(tag_lines=8, tag_assoc=2, data_lines=4)
        rc.access(0, 0, False, 0)
        rc.access(4, 1, False, 1)
        res = rc.access(8, 2, False, 2)
        assert len(res.inclusion_invals) == 1

    def test_nrr_protects_private_lines(self):
        rc = make(tag_lines=8, tag_assoc=2, data_lines=4)
        rc.access(0, 0, False, 0)  # still private
        rc.access(4, 1, False, 1)
        rc.notify_private_eviction(4, 1, False)  # not private any more
        rc.access(8, 2, False, 2)
        assert rc.state_of(0) is not State.I  # protected
        assert rc.state_of(4) is State.I  # victimised


class TestCoherenceUpcalls:
    def test_put_on_absent_line_is_inclusion_violation(self):
        with pytest.raises(KeyError):
            make().notify_private_eviction(0x40, 0, dirty=False)

    def test_upgrade_on_absent_line_is_protocol_violation(self):
        with pytest.raises(KeyError):
            make().upgrade(0x40, 0)

    def test_putx_in_tag_only_goes_to_memory(self):
        rc = make()
        rc.access(0x10, 0, True, 0)
        wbs = rc.notify_private_eviction(0x10, 0, dirty=True)
        assert wbs == (0x10,)
        assert rc.state_of(0x10) is State.TO

    def test_putx_with_data_absorbed(self):
        rc = make()
        rc.access(0x10, 0, True, 0)
        rc.access(0x10, 1, True, 1)  # reuse -> data allocated
        wbs = rc.notify_private_eviction(0x10, 1, dirty=True)
        assert wbs == ()
        assert rc.state_of(0x10) is State.M

    def test_upgrade_in_to_keeps_tag_only(self):
        rc = make()
        rc.access(0x10, 0, False, 0)
        invals = rc.upgrade(0x10, 0)
        assert invals == ()
        assert rc.state_of(0x10) is State.TO
        assert rc.data_fills == 0

    def test_upgrade_in_s_promotes(self):
        rc = make()
        rc.access(0x10, 0, False, 0)
        rc.access(0x10, 1, False, 1)  # S with data
        invals = rc.upgrade(0x10, 1)
        assert invals == (0,)
        assert rc.state_of(0x10) is State.M


class TestInvariants:
    def test_pointer_consistency_under_random_traffic(self):
        rc = make(tag_lines=32, tag_assoc=4, data_lines=8, data_assoc=2)
        rng = random.Random(7)
        private = {c: set() for c in range(4)}
        for step in range(2000):
            core = rng.randrange(4)
            addr = rng.randrange(48)
            res = rc.access(addr, core, rng.random() < 0.3, step)
            private[core].add(addr)
            for victim in res.coherence_invals:
                private[victim].discard(addr)
            for victim, vaddr in res.inclusion_invals:
                private[victim].discard(vaddr)
            # occasionally evict from a private cache
            if rng.random() < 0.4 and private[core]:
                evict = rng.choice(sorted(private[core]))
                private[core].discard(evict)
                rc.notify_private_eviction(evict, core, rng.random() < 0.5)
            if step % 100 == 0:
                assert rc.check_pointer_consistency()
        assert rc.check_pointer_consistency()

    def test_data_occupancy_bounded(self):
        rc = make(tag_lines=64, tag_assoc=4, data_lines=4)
        for a in range(64):
            rc.access(a, 0, False, a)
            rc.notify_private_eviction(a, 0, False)
            rc.access(a, 0, False, a)
            rc.notify_private_eviction(a, 0, False)
        assert rc.data_occupancy() <= 4
