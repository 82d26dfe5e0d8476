"""End-to-end coherence behaviour through the System (stores, upgrades,
invalidations across private caches)."""

from repro.hierarchy.config import LLCSpec, SystemConfig
from repro.hierarchy.system import System
from repro.workloads import Trace, Workload


def make_system(spec=None, traces=None):
    wl = Workload("coh", traces)
    return System(SystemConfig(llc=spec or LLCSpec.conventional(8)), wl)


def idle_traces(n, start_core, end_core):
    return [
        Trace(f"idle{c}", [1] * n, [((c + 1) << 30)] * n, [0] * n)
        for c in range(start_core, end_core)
    ]


class TestStoresAndUpgrades:
    def test_store_after_load_counts_upgrade(self):
        n = 10
        # core 0: load X then store X repeatedly -> one upgrade at the
        # first store (the line is then dirty)
        t0 = Trace("c0", [1] * n, [0x100] * n, [0] + [1] * (n - 1))
        system = make_system(traces=[t0] + idle_traces(n, 1, 8))
        system.run(warmup_frac=0.0)
        assert system.upgrades[0] == 1

    def test_store_invalidates_sharer_copy(self):
        n = 6
        # cores 0 and 1 read X; core 2 then writes X
        t0 = Trace("c0", [1] * n, [0x100] * n, [0] * n)
        t1 = Trace("c1", [1] * n, [0x100] * n, [0] * n)
        writes = [0] * (n - 1) + [1]
        t2 = Trace("c2", [30] * n, [0x100] * n, writes)  # lags behind
        system = make_system(traces=[t0, t1, t2] + idle_traces(n, 3, 8))
        system.run(warmup_frac=0.0)
        # after the write, only core 2 may hold the line privately
        holders = [c for c, ph in enumerate(system.private) if ph.contains(0x100)]
        assert holders == [2]
        # and the directory must agree
        bank = system.banks[system._bank_of(0x100)]
        set_idx, way = bank.locate(system._local(0x100))
        assert bank.directory.sharers(set_idx, way) == [2]

    def test_dirty_write_back_travels_through_hierarchy(self):
        """A dirtied line evicted from L2 lands in the SLLC (conventional)
        or in memory/data array (reuse), never lost."""
        n = 40
        # core 0 writes line 0x100 then streams to push it out of L2
        addrs = [0x100] + [0x1000 + i * 16 for i in range(n - 1)]
        writes = [1] + [0] * (n - 1)
        t0 = Trace("c0", [1] * n, addrs, writes)
        system = make_system(traces=[t0] + idle_traces(n, 1, 8))
        system.run(warmup_frac=0.0)
        assert not system.private[0].contains(0x100)
        bank = system.banks[system._bank_of(0x100)]
        set_idx, way = bank.locate(system._local(0x100))
        assert way is not None
        assert bank._dirty[set_idx][way]  # the PUTX was absorbed

    def test_reuse_cache_putx_in_to_reaches_memory(self):
        n = 40
        addrs = [0x100] + [0x1000 + i * 16 for i in range(n - 1)]
        writes = [1] + [0] * (n - 1)
        t0 = Trace("c0", [1] * n, addrs, writes)
        system = make_system(LLCSpec.reuse(8, 4), [t0] + idle_traces(n, 1, 8))
        system.run(warmup_frac=0.0)
        # line 0x100 was written once, never reused: tag-only, so the
        # writeback went to DRAM
        assert system.dram.writes >= 1

    def test_no_upgrade_for_write_misses(self):
        n = 20
        t0 = Trace("c0", [1] * n, [0x100 + i * 4 for i in range(n)], [1] * n)
        system = make_system(traces=[t0] + idle_traces(n, 1, 8))
        system.run(warmup_frac=0.0)
        assert system.upgrades[0] == 0  # GETX misses, not UPGs
