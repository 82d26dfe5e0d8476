"""Tests for the prefetching extension."""

import random

import pytest

from repro.cache.conventional import ConventionalLLC
from repro.cache.private_cache import PrivateHierarchy
from repro.coherence import State
from repro.core.reuse_cache import ReuseCache
from repro.experiments import ExperimentParams
from repro.experiments.prefetch import format_prefetch, run_prefetch
from repro.hierarchy.config import LLCSpec, SystemConfig
from repro.hierarchy.system import System, run_workload
from repro.workloads import Trace, Workload


class TestReuseCachePrefetch:
    def make(self):
        return ReuseCache(32, 4, 8, num_cores=4, rng=random.Random(0))

    def test_prefetch_miss_allocates_tag_only(self):
        rc = self.make()
        res = rc.prefetch(0x10, 0, 0)
        assert res.source == "dram"
        assert rc.state_of(0x10) is State.TO
        assert rc.data_fills == 0

    def test_prefetch_is_not_a_reuse_hint(self):
        """A prefetch touching a TO tag must not allocate a data entry."""
        rc = self.make()
        rc.access(0x10, 0, False, 0)
        rc.notify_private_eviction(0x10, 0, False)
        res = rc.prefetch(0x10, 0, 1)
        assert rc.state_of(0x10) is State.TO
        assert rc.data_fills == 0 and rc.to_hits == 0
        assert res.dram_reads == 1

    def test_prefetched_line_keeps_low_priority(self):
        """Prefetched tags are the first NRR victims."""
        rc = ReuseCache(8, 2, 4, num_cores=4, rng=random.Random(0))
        rc.access(0, 0, False, 0)
        rc.notify_private_eviction(0, 0, False)
        rc.access(0, 0, False, 1)  # line 0 reused: NRR bit clear
        rc.notify_private_eviction(0, 0, False)
        rc.prefetch(4, 1, 2)  # same set, prefetched, never demanded
        rc.notify_private_eviction(4, 1, False)
        rc.access(8, 2, False, 3)  # forces a tag eviction
        assert rc.state_of(4) is State.I  # the prefetched line was victimised
        assert rc.state_of(0) is not State.I

    def test_demand_after_prefetch_detects_reuse(self):
        rc = self.make()
        rc.prefetch(0x10, 0, 0)
        rc.notify_private_eviction(0x10, 0, False)
        rc.access(0x10, 0, False, 1)  # demand touch on TO: reuse detected
        assert rc.state_of(0x10) is State.S
        assert rc.data_fills == 1

    def test_prefetch_sets_presence(self):
        rc = self.make()
        rc.prefetch(0x10, 2, 0)
        set_idx, way = rc.rdir.index[0x10]
        assert rc.directory.is_present(set_idx, way, 2)


class TestConventionalPrefetch:
    def test_prefetch_allocates_data(self):
        llc = ConventionalLLC(16, 4, num_cores=4, rng=random.Random(0))
        res = llc.prefetch(0x10, 0, 0)
        assert res.dram_reads == 1
        assert llc.locate(0x10)[1] is not None
        assert llc.data_fills == 1

    def test_prefetch_hit_only_records_presence(self):
        llc = ConventionalLLC(16, 4, num_cores=4, rng=random.Random(0))
        llc.access(0x10, 0, False, 0)
        res = llc.prefetch(0x10, 1, 1)
        assert res.source == "llc" and res.dram_reads == 0


class TestPrivatePrefetchFill:
    def test_fills_l2_not_l1(self):
        ph = PrivateHierarchy(4, 2, 16, 4)
        ph.prefetch_fill(0x20)
        assert ph.l2.probe(0x20) is not None
        assert ph.l1.probe(0x20) is None

    def test_noop_when_present(self):
        ph = PrivateHierarchy(4, 2, 16, 4)
        ph.fill(0x20, False)
        assert ph.prefetch_fill(0x20) == []


class TestSystemPrefetch:
    def _stream_workload(self, n=300):
        traces = []
        for c in range(8):
            base = (c + 1) << 30
            addrs = [base + i for i in range(n)]
            traces.append(Trace(f"s{c}", [2] * n, addrs, [0] * n))
        return Workload("stream", traces)

    def test_prefetching_helps_streams(self):
        wl = self._stream_workload()
        cfg = SystemConfig(llc=LLCSpec.conventional(8))
        off = run_workload(cfg, wl)
        on = run_workload(
            SystemConfig(llc=LLCSpec.conventional(8), prefetch_degree=2), wl
        )
        assert on.performance > off.performance * 1.2

    def test_prefetch_preserves_inclusion_and_pointers(self):
        from repro.workloads.mixes import EXAMPLE_MIX, build_workload

        wl = build_workload(EXAMPLE_MIX, 2000, seed=4)
        system = System(
            SystemConfig(llc=LLCSpec.reuse(4, 1), prefetch_degree=2), wl
        )
        system.run()
        assert sum(system.prefetch_issued) > 0
        for bank in system.banks:
            assert bank.check_pointer_consistency()
        for c, ph in enumerate(system.private):
            for addr in ph.l2.resident_addrs():
                bank = system._bank_of(addr)
                assert system._local(addr) in system.banks[bank].rdir.index

    def test_prefetch_counts(self):
        wl = self._stream_workload(100)
        system = System(SystemConfig(llc=LLCSpec.conventional(8), prefetch_degree=1), wl)
        system.run()
        assert sum(system.prefetch_issued) > 0
        assert sum(b.prefetches for b in system.banks) == sum(system.prefetch_issued)


class TestPrefetchExperiment:
    def test_driver_structure(self):
        r = run_prefetch(ExperimentParams(n_workloads=1, n_refs=1200))
        assert set(r) == {"conv-8MB-lru", "RC-4/1"}
        for per_degree in r.values():
            assert set(per_degree) == {0, 1, 2}
        assert format_prefetch(r)
