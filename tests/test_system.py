"""Integration tests for the CMP system simulator."""

import heapq

import pytest

from repro.hierarchy.config import LLCSpec, SystemConfig
from repro.hierarchy.system import System, build_llc_banks, run_workload
from repro.workloads import Trace, Workload, build_workload
from repro.workloads.mixes import EXAMPLE_MIX


def tiny_config(spec=None, **kw):
    return SystemConfig(llc=spec or LLCSpec.conventional(8), scale=32, **kw)


def has_tag(bank, local):
    """True iff the SLLC bank holds a tag for the bank-local line."""
    if hasattr(bank, "rdir"):
        return local in bank.rdir.index
    return bank.locate(local)[1] is not None


def synthetic_workload(n_cores=8, pattern="hot", n_refs=400):
    """Hand-built workloads with known cache behaviour."""
    traces = []
    for c in range(n_cores):
        base = (c + 1) << 30
        if pattern == "hot":
            addrs = [base + (i % 4) for i in range(n_refs)]
        elif pattern == "stream":
            addrs = [base + i for i in range(n_refs)]
        else:
            raise ValueError(pattern)
        traces.append(Trace(f"{pattern}{c}", [2] * n_refs, addrs, [0] * n_refs))
    return Workload(pattern, traces)


class TestBankBuilder:
    def test_conventional_banks(self):
        banks = build_llc_banks(tiny_config())
        assert len(banks) == 4
        assert banks[0].num_lines == 1024  # 4096 scaled lines / 4 banks

    def test_reuse_banks(self):
        banks = build_llc_banks(tiny_config(LLCSpec.reuse(4, 1)))
        assert banks[0].tag_lines == 512
        assert banks[0].data_lines == 128
        assert banks[0].data_sets == 1  # fully associative

    def test_reuse_set_assoc_clamped(self):
        banks = build_llc_banks(tiny_config(LLCSpec.reuse(8, 0.5, data_assoc=128)))
        assert banks[0].data_assoc == 64  # clamped to the bank's data lines

    def test_ncid_banks(self):
        banks = build_llc_banks(tiny_config(LLCSpec.ncid(8, 1)))
        assert banks[0].data_assoc == 2  # paper's example: 8 MBeq tags, 1 MB data

    def test_unknown_kind(self):
        bad = tiny_config()
        object.__setattr__(bad.llc, "kind", "weird")
        with pytest.raises(ValueError):
            build_llc_banks(bad)


class TestSystemBehaviour:
    def test_hot_loop_stays_in_l1(self):
        result = run_workload(tiny_config(), synthetic_workload(pattern="hot"))
        assert sum(result.l1_mpki) == pytest.approx(0.0, abs=1.0)
        # IPC approaches 1 when everything hits in L1
        assert all(ipc > 0.9 for ipc in result.ipc)

    def test_stream_misses_everywhere(self):
        result = run_workload(tiny_config(), synthetic_workload(pattern="stream"))
        assert all(m > 100 for m in result.llc_mpki)
        assert all(ipc < 0.3 for ipc in result.ipc)

    def test_workload_core_count_checked(self):
        with pytest.raises(ValueError):
            System(tiny_config(), synthetic_workload(n_cores=4))

    def test_determinism(self):
        wl = build_workload(EXAMPLE_MIX, 3000, seed=9)
        r1 = run_workload(tiny_config(), wl)
        r2 = run_workload(tiny_config(), wl)
        assert r1.cycles == r2.cycles and r1.instructions == r2.instructions

    def test_measurement_window_excludes_warmup(self):
        wl = build_workload(EXAMPLE_MIX, 3000, seed=9)
        full = run_workload(tiny_config(), wl, warmup_frac=0.0)
        measured = run_workload(tiny_config(), wl, warmup_frac=0.5)
        for c in range(8):
            assert measured.instructions[c] < full.instructions[c]
            assert measured.cycles[c] < full.cycles[c]

    def test_reuse_cache_runs_and_reports(self):
        wl = build_workload(EXAMPLE_MIX, 3000, seed=9)
        result = run_workload(tiny_config(LLCSpec.reuse(4, 1)), wl)
        s = result.llc_stats
        assert s["tag_fills"] > 0
        assert 0.0 <= s["fraction_not_entered"] <= 1.0
        assert s["to_hits"] >= s["data_fills"] - s["tag_fills"]

    def test_generation_recording(self):
        wl = build_workload(EXAMPLE_MIX, 3000, seed=9)
        result = run_workload(tiny_config(), wl, record_generations=True)
        log = result.generations
        assert log is not None and log.n_generations > 0
        assert 0.0 <= log.mean_live_fraction() <= 1.0

    def test_dram_traffic_accounted(self):
        wl = synthetic_workload(pattern="stream")
        result = run_workload(tiny_config(), wl)
        assert result.dram_stats["reads"] > 0

    def test_more_channels_never_slower(self):
        from repro.dram import DDR3Config

        wl = synthetic_workload(pattern="stream", n_refs=800)
        slow = run_workload(tiny_config(), wl)
        fast = run_workload(
            tiny_config().with_dram(DDR3Config(channels=4)), wl
        )
        assert fast.performance >= slow.performance * 0.999

    def test_coherence_traffic_on_shared_lines(self):
        """Two cores ping-ponging writes on one line generate upgrades or
        coherence invalidations, never a crash or inclusion violation."""
        shared = 0x1000
        traces = []
        for c in range(8):
            writes = [1 if c < 2 else 0] * 200
            addrs = [shared if c < 2 else ((c + 1) << 30) + i for i in range(200)]
            traces.append(Trace(f"c{c}", [1] * 200, addrs, writes))
        result = run_workload(tiny_config(), Workload("pingpong", traces))
        assert sum(result.instructions) > 0

    def test_directory_consistency_after_run(self):
        wl = build_workload(EXAMPLE_MIX, 2000, seed=4)
        system = System(tiny_config(), wl)
        system.run()
        for b, bank in enumerate(system.banks):
            # translate bank-local presence back through the system helpers
            for set_idx, ways in enumerate(bank.addrs):
                for way, local in enumerate(ways):
                    if local is None:
                        continue
                    addr = system._global(local, b)
                    for c, ph in enumerate(system.private):
                        present = bank.directory.is_present(set_idx, way, c)
                        assert present == ph.contains(addr), (
                            f"directory mismatch for {addr:#x} core {c}"
                        )

    def test_inclusion_after_run(self):
        """Every line in a private cache has a tag in the SLLC."""
        wl = build_workload(EXAMPLE_MIX, 2000, seed=4)
        for spec in (LLCSpec.conventional(8), LLCSpec.reuse(4, 1), LLCSpec.ncid(8, 1)):
            system = System(tiny_config(spec), wl)
            system.run()
            for c, ph in enumerate(system.private):
                for addr in ph.l2.resident_addrs():
                    bank = system._bank_of(addr)
                    local = system._local(addr)
                    assert has_tag(system.banks[bank], local), (
                        f"{spec.label}: line {addr:#x} in core {c} L2 "
                        "missing from SLLC tags"
                    )

    def test_reuse_pointer_consistency_after_run(self):
        wl = build_workload(EXAMPLE_MIX, 2000, seed=4)
        system = System(tiny_config(LLCSpec.reuse(8, 1)), wl)
        system.run()
        for bank in system.banks:
            assert bank.check_pointer_consistency()


def reference_order(system):
    """The order in which a plain heappop/heappush loop over (clock, core)
    hands each core's references to the private caches (in-order cores).

    Ties on the clock go to the lower core id.  Returns ``(core, addr)``
    per reference, and drives ``system`` exactly as ``System.run`` does.
    """
    traces = system.workload.traces
    idx = [0] * len(traces)
    heap = [(0, c) for c, trace in enumerate(traces) if trace.n_refs]
    heapq.heapify(heap)
    order = []
    while heap:
        t, c = heapq.heappop(heap)
        trace = traces[c]
        i = idx[c]
        t += trace.gaps[i]
        addr, is_write = trace.addrs[i], bool(trace.writes[i])
        order.append((c, addr))
        level, needs_upgrade, _ = system.private[c].access(addr, is_write)
        stall = 0
        if level != "l1" or needs_upgrade:
            stall = system._access(c, addr, is_write, t, level, needs_upgrade)
        t += 1 + stall
        idx[c] = i + 1
        if i + 1 < trace.n_refs:
            heapq.heappush(heap, (t, c))
    return order


def recorded_order(system):
    """Run ``system``, recording each private-cache access the way the
    repository benchmark wraps layers: by patching the instance attribute
    after construction, which ``run`` must pick up."""
    order = []
    for c, private in enumerate(system.private):
        def record(addr, is_write, _c=c, _access=private.access):
            order.append((_c, addr))
            return _access(addr, is_write)
        private.access = record
    result = system.run()
    return order, result


class TestScheduling:
    """``System.run`` stays on a core while its (clock, core) is below the
    heap's head; the interleaving must equal the plain heap loop's."""

    @pytest.mark.parametrize("workload", [
        # identical hot loops: the clocks tie at nearly every reference
        synthetic_workload(pattern="hot", n_refs=300),
        synthetic_workload(pattern="stream", n_refs=300),
        build_workload(EXAMPLE_MIX, 600, seed=3),
    ], ids=["hot", "stream", "mix"])
    @pytest.mark.parametrize("spec", [LLCSpec.conventional(8), LLCSpec.reuse(8, 1)],
                             ids=["conv", "rc"])
    def test_access_order_equals_heap_loop(self, workload, spec):
        order, _ = recorded_order(System(tiny_config(spec), workload))
        assert len(order) == sum(t.n_refs for t in workload.traces)
        assert order == reference_order(System(tiny_config(spec), workload))

    def test_ties_go_to_the_lower_core(self):
        order, _ = recorded_order(
            System(tiny_config(), synthetic_workload(pattern="hot", n_refs=50)))
        # every core starts at clock 0 with the same gap
        assert [c for c, _ in order[:8]] == list(range(8))

    def test_uneven_trace_lengths(self):
        wl = build_workload(EXAMPLE_MIX, 400, seed=9)
        short = Workload("uneven", [t.slice(40 * (c + 1)) for c, t in enumerate(wl.traces)])
        order, result = recorded_order(System(tiny_config(), short))
        assert order == reference_order(System(tiny_config(), short))
        assert result.instructions == [
            t.total_instructions - (sum(t.gaps[:int(0.2 * t.n_refs)]) + int(0.2 * t.n_refs))
            for t in short.traces
        ]
