"""Tests for the V-way cache comparator and Reuse Replacement."""

import random

import pytest

from repro.cache.vway import VWayCache
from repro.coherence import State
from repro.replacement import ReuseReplacementPolicy


def make(data_lines=16, base_assoc=2, cores=4):
    return VWayCache(data_lines, base_assoc=base_assoc, num_cores=cores,
                     rng=random.Random(0))


class TestReuseReplacement:
    def test_fresh_lines_evicted_first(self):
        p = ReuseReplacementPolicy(1, 4, rng=random.Random(0))
        for way in range(4):
            p.on_fill(0, way)
        p.on_hit(0, 0)
        assert p.victim(0, [0, 1, 2, 3]) == 1  # way 0 has a counter, 1 is next

    def test_counters_earn_residency(self):
        p = ReuseReplacementPolicy(1, 2, rng=random.Random(0))
        p.on_fill(0, 0)
        for _ in range(3):
            p.on_hit(0, 0)  # saturate way 0
        p.on_fill(0, 1)
        # way 1 (counter 0) goes first, repeatedly
        assert p.victim(0, [0, 1]) == 1
        p.on_fill(0, 1)
        assert p.victim(0, [0, 1]) == 1

    def test_sweep_decrements(self):
        p = ReuseReplacementPolicy(1, 2, rng=random.Random(0))
        p.on_fill(0, 0)
        p.on_hit(0, 0)
        p.on_fill(0, 1)
        p.on_hit(0, 1)
        victim = p.victim(0, [0, 1])  # both at 1: sweep decrements then picks
        assert victim in (0, 1)


class TestVWayStructure:
    def test_doubled_tags(self):
        vw = make(data_lines=16, base_assoc=2)
        assert vw.tag_lines == 32
        assert vw.tag_assoc == 4  # double the base associativity
        assert vw.data_sets == 1  # global (fully associative) data

    def test_every_fill_allocates_data(self):
        vw = make()
        for a in range(10):
            vw.access(a, 0, False, a)
        assert vw.data_fills == vw.tag_fills == 10
        assert vw.check_no_tag_only_states()

    def test_demand_associativity(self):
        """A hot set can hold more lines than its data share: with 8 sets
        and 2 base ways, one set can use 4 tag ways."""
        vw = make(data_lines=16, base_assoc=2)
        tag_sets = vw.rdir.tag_sets  # 8
        addrs = [i * tag_sets for i in range(4)]  # all map to set 0
        for t, a in enumerate(addrs):
            vw.access(a, 0, False, t)
            vw.notify_private_eviction(a, 0, False)
        assert all(vw.state_of(a) is not State.I for a in addrs)

    def test_global_victim_invalidates_tag(self):
        vw = make(data_lines=4, base_assoc=2)
        for a in range(5):  # exceed global data capacity
            vw.access(a, 0, False, a)
            vw.notify_private_eviction(a, 0, False)
        resident = sum(1 for a in range(5) if vw.state_of(a) is not State.I)
        assert resident == 4  # exactly the data capacity
        assert vw.check_no_tag_only_states()
        assert vw.check_pointer_consistency()

    def test_global_victim_back_invalidates_privates(self):
        vw = make(data_lines=4, base_assoc=2)
        for a in range(4):
            vw.access(a, 0, False, a)
        res = vw.access(4, 1, False, 5)
        assert len(res.inclusion_invals) == 1

    def test_dirty_global_victim_written_back(self):
        vw = make(data_lines=2, base_assoc=2)
        vw.access(0, 0, True, 0)
        vw.notify_private_eviction(0, 0, dirty=True)  # absorbed by data
        vw.access(1, 0, False, 1)
        vw.notify_private_eviction(1, 0, False)
        res = vw.access(2, 0, False, 2)  # reclaims a data entry
        if vw.state_of(0) is State.I:  # line 0 was the global victim
            assert 0 in res.writebacks

    def test_hits_after_fill(self):
        vw = make()
        vw.access(7, 0, False, 0)
        res = vw.access(7, 1, False, 1)
        assert res.source == "llc"
        assert vw.data_hits == 1

    def test_prefetch_allocates_without_tag_only(self):
        vw = make()
        vw.prefetch(9, 0, 0)
        assert vw.state_of(9) is State.S
        assert vw.check_no_tag_only_states()
        assert vw.tag_misses == 0  # prefetch is not a demand miss

    def test_invariants_under_traffic(self):
        vw = make(data_lines=8, base_assoc=2)
        rng = random.Random(5)
        for step in range(1500):
            core = rng.randrange(4)
            addr = rng.randrange(40)
            vw.access(addr, core, rng.random() < 0.3, step)
            if rng.random() < 0.5:
                try:
                    vw.notify_private_eviction(addr, core, rng.random() < 0.4)
                except KeyError:
                    pass  # evicted by a global reclaim in between
            if step % 300 == 0:
                assert vw.check_pointer_consistency()
                assert vw.check_no_tag_only_states()
        assert vw.check_pointer_consistency()


class TestVWayInSystem:
    def test_runs_end_to_end(self):
        from repro.hierarchy.config import LLCSpec, SystemConfig
        from repro.hierarchy.system import run_workload
        from repro.workloads.mixes import EXAMPLE_MIX, build_workload

        wl = build_workload(EXAMPLE_MIX, 2000, seed=6)
        result = run_workload(SystemConfig(llc=LLCSpec.vway(8)), wl)
        assert result.config_label == "VW-8MB"
        assert result.performance > 0
        s = result.llc_stats
        assert s["data_fills"] == s["tag_fills"]

    def test_spec_label(self):
        from repro.hierarchy.config import LLCSpec

        assert LLCSpec.vway(8).label == "VW-8MB"
