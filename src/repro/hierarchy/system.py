"""The eight-core CMP simulator (paper Table 4).

Each core is in-order and blocking: one cycle per instruction plus the full
hierarchy latency of every memory reference.  Cores interleave through a
min-heap over their local clocks, so accesses reach the shared SLLC banks
and the DRAM channel in global time order and contend there.

Per reference the flow is:

1. private L1/L2 lookup (latency per Table 4);
2. on a private miss, crossbar + SLLC bank lookup: the bank resolves the
   access (conventional / reuse / NCID semantics) and reports where the data
   came from — the data array, a peer's private cache, or DRAM;
3. DRAM reads go through the contention-aware DDR3 model; SLLC and private
   writebacks are posted writes (bandwidth, no stall);
4. coherence/inclusion invalidations are applied to the private caches,
   flushing dirty inclusion victims to DRAM.

Statistics are collected over a measurement window that starts when every
core has executed its warm-up references, mirroring the paper's
warm-up-then-measure methodology.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass, field

from ..cache.conventional import ConventionalLLC
from ..cache.ncid import NCIDCache
from ..cache.vway import VWayCache
from ..cache.private_cache import PrivateHierarchy
from ..core.reuse_cache import ReuseCache
from ..dram.ddr3 import DDR3Memory
from ..metrics.generations import GenerationLog, GenerationRecorder
from ..obs import Observability
from ..metrics.perf import aggregate_ipc, mpki
from ..utils import ilog2
from ..workloads.trace import Workload
from .config import LLCSpec, SystemConfig, capacity_lines


def build_llc_banks(config: SystemConfig):
    """Instantiate one SLLC model per bank from an :class:`LLCSpec`."""
    spec = config.llc
    banks = config.llc_banks
    rng = random.Random(config.seed + 17)
    instances = []
    for b in range(banks):
        if spec.kind == "conventional":
            lines = capacity_lines(spec.size_mb, config.scale) // banks
            llc = ConventionalLLC(
                lines,
                config.llc_assoc,
                policy=spec.policy,
                num_cores=config.num_cores,
                rng=random.Random(rng.random()),
            )
        elif spec.kind == "reuse":
            tag_lines = capacity_lines(spec.tag_mbeq, config.scale) // banks
            data_lines = capacity_lines(spec.data_mb, config.scale) // banks
            data_assoc = spec.data_assoc
            if data_assoc != "full":
                data_assoc = min(int(data_assoc), data_lines)
            llc = ReuseCache(
                tag_lines,
                config.llc_assoc,
                data_lines,
                data_assoc=data_assoc,
                num_cores=config.num_cores,
                tag_policy=spec.tag_policy or "nrr",
                data_policy=spec.data_policy,
                reuse_threshold=spec.reuse_threshold,
                rng=random.Random(rng.random()),
            )
        elif spec.kind == "ncid":
            tag_lines = capacity_lines(spec.tag_mbeq, config.scale) // banks
            data_lines = capacity_lines(spec.data_mb, config.scale) // banks
            llc = NCIDCache(
                tag_lines,
                config.llc_assoc,
                data_lines,
                num_cores=config.num_cores,
                rng=random.Random(rng.random()),
            )
        elif spec.kind == "vway":
            data_lines = capacity_lines(spec.size_mb, config.scale) // banks
            llc = VWayCache(
                data_lines,
                base_assoc=config.llc_assoc,
                num_cores=config.num_cores,
                rng=random.Random(rng.random()),
            )
        else:
            raise ValueError(f"unknown LLC kind {spec.kind!r}")
        instances.append(llc)
    return instances


@dataclass
class RunResult:
    """Measured outcome of one (configuration, workload) simulation."""

    config_label: str
    workload_name: str
    app_names: list
    #: per-core committed instructions / elapsed cycles in the window
    instructions: list
    cycles: list
    #: per-core misses per kilo-instruction at each level
    l1_mpki: list
    l2_mpki: list
    llc_mpki: list
    llc_stats: dict
    dram_stats: dict
    generations: GenerationLog | None = None
    extra: dict = field(default_factory=dict)

    @property
    def performance(self) -> float:
        """Aggregate IPC (the speedup numerator/denominator)."""
        return aggregate_ipc(self.instructions, self.cycles)

    @property
    def ipc(self) -> list:
        """Per-core IPC over the measurement window."""
        return [i / c if c else 0.0 for i, c in zip(self.instructions, self.cycles)]


class System:
    """One simulated CMP: private hierarchies, banked SLLC, DRAM."""

    def __init__(
        self,
        config: SystemConfig,
        workload: Workload,
        record_generations: bool = False,
        capture_llc_trace: bool = False,
        obs: Observability | None = None,
    ):
        config.validate()
        if workload.num_cores != config.num_cores:
            raise ValueError(
                f"workload has {workload.num_cores} traces for "
                f"{config.num_cores} cores"
            )
        self.config = config
        self.workload = workload
        n = config.num_cores
        self.private = [
            PrivateHierarchy(
                config.l1_lines(), config.l1_assoc, config.l2_lines(), config.l2_assoc
            )
            for _ in range(n)
        ]
        self.banks = build_llc_banks(config)
        self._bank_mask = config.llc_banks - 1
        self._bank_bits = ilog2(config.llc_banks)
        self.dram = DDR3Memory(config.dram)
        # config fields every private miss reads, copied out once
        self._l2_latency = config.l2_latency
        self._xbar_latency = config.xbar_latency
        self._prefetch_degree = config.prefetch_degree
        #: stalls of a reference the SLLC serves and of one a peer's private
        #: cache serves (cycles)
        self._llc_latency = config.l2_latency + config.xbar_latency + config.llc_latency
        self._peer_latency = self._llc_latency + config.peer_latency
        #: observability bundle; disabled by default so simulation speed and
        #: results are untouched unless a caller opts in
        self.obs = obs if obs is not None else Observability.disabled()
        if self.obs.tracer.enabled:
            # each SLLC bank gets its own Chrome-trace process lane
            for b, bank in enumerate(self.banks):
                bank.attach_tracer(self.obs.tracer, pid=b)
        if self.obs.registry.enabled:
            self.obs.registry.register_collector(self._publish_metrics)
        self.recorder = GenerationRecorder() if record_generations else None
        if self.recorder is not None:
            # bank-local addresses collide across banks; the adapter tags
            # each bank's addresses so the recorder sees a single space
            for b, bank in enumerate(self.banks):
                bank.attach_recorder(_BankRecorder(self.recorder, b))
        # per-core counters (running totals)
        self.l1_misses = [0] * n
        self.l2_misses = [0] * n
        self.llc_misses = [0] * n  # demand accesses that went to DRAM
        self.upgrades = [0] * n
        self.prefetch_issued = [0] * n
        #: demand SLLC access stream (global line addresses), captured for
        #: offline analyses such as the Belady OPT bound
        self.llc_trace = [] if capture_llc_trace else None

    # -- address helpers -------------------------------------------------------
    def _bank_of(self, addr: int) -> int:
        return addr & self._bank_mask

    def _local(self, addr: int) -> int:
        return addr >> self._bank_bits

    def _global(self, local_addr: int, bank: int) -> int:
        return (local_addr << self._bank_bits) | bank

    # -- one memory reference ----------------------------------------------------
    def _access(
        self, core: int, addr: int, is_write: bool, now: int, level: str,
        needs_upgrade: bool,
    ) -> int:
        """Finish one reference the private hierarchy did not serve alone.

        ``level`` and ``needs_upgrade`` are what ``PrivateHierarchy.access``
        returned for it; the run loop handles a plain L1 hit (no stall)
        itself.  Returns the stall latency in cycles.
        """
        if level == "l1":
            self._do_upgrade(core, addr, now)
            return self._llc_latency
        if level == "l2":
            self.l1_misses[core] += 1
            if needs_upgrade:
                self._do_upgrade(core, addr, now)
                return self._llc_latency
            return self._l2_latency

        # private miss: go to the SLLC bank
        self.l1_misses[core] += 1
        self.l2_misses[core] += 1
        if self.llc_trace is not None:
            self.llc_trace.append(addr)
        mask, bits = self._bank_mask, self._bank_bits
        banks = self.banks
        bank = addr & mask
        t_at_llc = now + self._llc_latency
        res = banks[bank].access(addr >> bits, core, is_write, t_at_llc)

        # side effects: SLLC writebacks and invalidations (bank-local
        # victim addresses map back to global ones as local << bits | bank)
        dram = self.dram
        for wb_local in res.writebacks:
            dram.write(wb_local << bits | bank, t_at_llc)
        private = self.private
        for victim_core in res.coherence_invals:
            private[victim_core].invalidate(addr)
            # dirty coherence victims forward their data to the requester
        for victim_core, victim_local in res.inclusion_invals:
            victim_addr = victim_local << bits | bank
            present, dirty = private[victim_core].invalidate(victim_addr)
            if present and dirty:
                dram.write(victim_addr, t_at_llc)

        source = res.source
        if source == "llc":
            latency = self._llc_latency
        elif source == "peer":
            latency = self._peer_latency
        else:  # dram
            self.llc_misses[core] += 1
            latency = dram.read(addr, t_at_llc) - now + self._xbar_latency

        # refill the private hierarchy and report its L2 victim (PUTS/PUTX)
        for ev_addr, ev_dirty in private[core].fill(addr, is_write):
            ev_bank = ev_addr & mask
            wbs = banks[ev_bank].notify_private_eviction(ev_addr >> bits, core, ev_dirty)
            for wb_local in wbs:
                dram.write(wb_local << bits | ev_bank, t_at_llc)

        if self._prefetch_degree:
            self._issue_prefetches(core, addr, t_at_llc)
        return latency

    def _issue_prefetches(self, core: int, addr: int, now: int) -> None:
        """Sequential prefetch into the core's L2 after a demand miss.

        Prefetches never stall the core; they consume SLLC state and DRAM
        bandwidth and obey inclusion like demand fills.
        """
        private = self.private[core]
        for delta in range(1, self._prefetch_degree + 1):
            pf_addr = addr + delta
            if private.contains(pf_addr):
                continue
            bank = pf_addr & self._bank_mask
            res = self.banks[bank].prefetch(pf_addr >> self._bank_bits, core, now)
            self.prefetch_issued[core] += 1
            for wb_local in res.writebacks:
                self.dram.write(self._global(wb_local, bank), now)
            for victim_core, victim_local in res.inclusion_invals:
                victim_addr = self._global(victim_local, bank)
                present, dirty = self.private[victim_core].invalidate(victim_addr)
                if present and dirty:
                    self.dram.write(victim_addr, now)
            if res.source == "dram":
                self.dram.read(pf_addr, now)
            for ev_addr, ev_dirty in private.prefetch_fill(pf_addr):
                ev_bank = ev_addr & self._bank_mask
                wbs = self.banks[ev_bank].notify_private_eviction(
                    ev_addr >> self._bank_bits, core, ev_dirty
                )
                for wb_local in wbs:
                    self.dram.write(self._global(wb_local, ev_bank), now)

    def _activate_recorder(self, now: int) -> None:
        """Start generation recording at the end of warm-up.

        Lines already resident in the data arrays are seeded as open
        generations (fill time = activation), otherwise the long-lived
        lines that good policies protect — exactly the live ones — would be
        invisible to the liveness analysis.
        """
        self.recorder.activate(now)
        for bank in self.banks:
            adapter = bank.recorder
            for addr in bank.resident_data_lines():
                adapter.on_fill(addr, now)

    def _do_upgrade(self, core: int, addr: int, now: int) -> None:
        self.upgrades[core] += 1
        bank = addr & self._bank_mask
        invals = self.banks[bank].upgrade(addr >> self._bank_bits, core)
        for victim_core in invals:
            self.private[victim_core].invalidate(addr)
        self.private[core].mark_written(addr)

    # -- run loop -------------------------------------------------------------------
    def run(self, warmup_frac: float = 0.2) -> RunResult:
        """Simulate the whole workload; measure after the warm-up window."""
        if not 0 <= warmup_frac < 1:
            raise ValueError("warmup_frac must lie in [0, 1)")
        cfg = self.config
        n = cfg.num_cores
        traces = self.workload.traces
        gaps = [t.gaps for t in traces]
        addrs = [t.addrs for t in traces]
        writes = [t.writes for t in traces]
        lengths = [t.n_refs for t in traces]
        warm_refs = [int(warmup_frac * ln) for ln in lengths]

        idx = [0] * n
        finish = [0] * n
        # 'overlap' core model: misses within an mlp_window-instruction
        # burst overlap; the core serialises at burst boundaries
        overlap = cfg.core_model == "overlap"
        window = max(1, cfg.mlp_window)
        issued = [0] * n  # instructions issued so far, kept under 'overlap'
        burst_start = [0] * n
        outstanding = [0] * n
        warm_time = [0] * n
        warm_instr = [0] * n
        warm_l1 = [0] * n
        warm_l2 = [0] * n
        warm_llc = [0] * n
        cores_warm = sum(1 for c in range(n) if warm_refs[c] == 0)
        if cores_warm == n and self.recorder is not None:
            self._activate_recorder(0)

        # Cores interleave in (clock, core id) order.  The core just run
        # keeps running, with no heap operation, while its (t, c) stays
        # below the heap's head: the heap would hand it back next anyway.
        # ``limit`` is the first clock at which core c no longer does.
        heap = [(0, c) for c in range(n) if lengths[c]]
        heapq.heapify(heap)
        heapreplace = heapq.heapreplace
        lookup = [p.access for p in self.private]
        access = self._access
        t, c = heapq.heappop(heap) if heap else (0, None)
        limit = heap[0][0] + (c < heap[0][1]) if heap else math.inf

        while c is not None:
            i = idx[c]
            g = gaps[c][i]
            t += g  # non-memory instructions, one cycle each
            addr = addrs[c][i]
            is_write = True if writes[c][i] else False
            if overlap:
                before = issued[c] + g
                if before - burst_start[c] >= window:
                    # burst boundary: drain outstanding misses
                    if outstanding[c] > t:
                        t = outstanding[c]
                    burst_start[c] = before
                issued[c] = before + 1
            level, needs_upgrade, _ = lookup[c](addr, is_write)
            if level == "l1" and not needs_upgrade:
                # an L1 hit does not stall; under 'overlap' it completes at
                # t + 1, before any later read of outstanding[c]
                t += 1
            elif overlap:
                done = t + 1 + access(c, addr, is_write, t, level, needs_upgrade)
                if done > outstanding[c]:
                    outstanding[c] = done
                t += 1  # the access issues; its latency overlaps
            else:
                # the memory instruction itself, plus its stall
                t += 1 + access(c, addr, is_write, t, level, needs_upgrade)
            i += 1
            idx[c] = i
            if i == warm_refs[c]:
                warm_time[c] = t
                # each reference is one instruction after its gap's ones
                warm_instr[c] = sum(gaps[c][:i]) + i
                warm_l1[c] = self.l1_misses[c]
                warm_l2[c] = self.l2_misses[c]
                warm_llc[c] = self.llc_misses[c]
                cores_warm += 1
                if cores_warm == n and self.recorder is not None:
                    self._activate_recorder(t)
            if i < lengths[c]:
                if t < limit:
                    continue
                t, c = heapreplace(heap, (t, c))
            else:
                finish[c] = max(t, outstanding[c]) if overlap else t
                if not heap:
                    break
                t, c = heapq.heappop(heap)
            limit = heap[0][0] + (c < heap[0][1]) if heap else math.inf

        end_time = max(finish)
        instr = [trace.total_instructions for trace in traces]
        measured_instr = [instr[c] - warm_instr[c] for c in range(n)]
        measured_cycles = [finish[c] - warm_time[c] for c in range(n)]
        m_l1 = [self.l1_misses[c] - warm_l1[c] for c in range(n)]
        m_l2 = [self.l2_misses[c] - warm_l2[c] for c in range(n)]
        m_llc = [self.llc_misses[c] - warm_llc[c] for c in range(n)]

        generations = None
        if self.recorder is not None:
            generations = self.recorder.finalize(end_time)

        return RunResult(
            config_label=cfg.llc.label,
            workload_name=self.workload.name,
            app_names=self.workload.app_names,
            instructions=measured_instr,
            cycles=measured_cycles,
            l1_mpki=[mpki(m, i) for m, i in zip(m_l1, measured_instr)],
            l2_mpki=[mpki(m, i) for m, i in zip(m_l2, measured_instr)],
            llc_mpki=[mpki(m, i) for m, i in zip(m_llc, measured_instr)],
            llc_stats=self._llc_stats(),
            dram_stats=self.dram.stats(),
            generations=generations,
        )

    def _llc_stats(self) -> dict:
        totals = {}
        for bank in self.banks:
            for key, value in bank.stats().items():
                if isinstance(value, (int, float)):
                    totals[key] = totals.get(key, 0) + value
        # fraction_not_entered must be recomputed from the summed counters
        if totals.get("tag_fills"):
            totals["fraction_not_entered"] = 1.0 - totals.get("data_fills", 0) / totals["tag_fills"]
        return totals

    def _publish_metrics(self, registry) -> None:
        """Collector mirroring bank/DRAM counters into the obs registry.

        Registered via ``registry.register_collector`` so the simulator's
        hot path keeps plain int counters; the registry pulls them only when
        a snapshot is taken.
        """
        label = self.config.llc.label
        for key, value in self._llc_stats().items():
            registry.gauge(
                f"repro_sim_llc_{key}",
                help="summed SLLC bank counter (see BaseLLC.stats)",
                config=label,
            ).set(float(value))
        for key, value in self.dram.stats().items():
            if isinstance(value, (int, float)):
                registry.gauge(
                    f"repro_sim_dram_{key}",
                    help="DDR3 channel counter (see DDR3Memory.stats)",
                    config=label,
                ).set(float(value))


class _BankRecorder:
    """Adapter giving each bank a disjoint address space in one recorder."""

    __slots__ = ("recorder", "bank_id")

    def __init__(self, recorder: GenerationRecorder, bank_id):
        self.recorder = recorder
        self.bank_id = bank_id

    def _key(self, addr: int) -> int:
        return (addr << 3) | self.bank_id

    def on_fill(self, addr, now):
        self.recorder.on_fill(self._key(addr), now)

    def on_hit(self, addr, now):
        self.recorder.on_hit(self._key(addr), now)

    def on_evict(self, addr, now):
        self.recorder.on_evict(self._key(addr), now)


def run_workload(
    config: SystemConfig,
    workload: Workload,
    record_generations: bool = False,
    warmup_frac: float = 0.2,
    obs: Observability | None = None,
) -> RunResult:
    """Convenience wrapper: build a :class:`System` and run it."""
    return System(config, workload, record_generations=record_generations, obs=obs).run(
        warmup_frac=warmup_frac
    )
