"""Simulator workloads: the reuse cache RC-8/1 against conv-8MB-LRU.

One *pair* simulates both SLLC cells (paper Fig. 5's question: how fast is
RC-8/1 relative to the 8 MB conventional baseline) over the same 8-core
mix.  A run repeats pairs on identical inputs for the requested seconds,
so every pair must reproduce the first pair's statistics exactly; the
first pair's digest must also match the one recorded in
``reference.json`` for the seed, where there is one.  An untimed pair on
the REFERENCE_SEED inputs gives the reported hit rate.

Each pair is one window of the phase and one latency sample, so every
latency, throughput and CPU metric of these workloads derives from pair
times.  The host's slowness is sampled every SAMPLE_S during the cells
and between them, and each cell's times are divided by the mean of its
samples (see ``hostspeed``).

Host time is what the simulator takes; the cycle counts, hit rates and
IPC inside the digest are simulated.  Simulated statistics start after the
paper's 20% warm-up (``System.run``'s default); host time covers the whole
pair.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
from time import perf_counter as clock
from time import process_time as cpu_clock

from harness import BENCH_DIR, Outcome, Window, adjusted, facts, ratio
from hostspeed import HostSpeed, TimerSamples
from spans import SpanRecorder

from repro.hierarchy.config import LLCSpec, SystemConfig
from repro.hierarchy.system import System
from repro.workloads.mixes import build_workload

SCALE = 32
CELLS = (LLCSpec.reuse(8, 1), LLCSpec.conventional(8.0, "lru"))

#: workload -> (mix, references per core in one pair).  One pair takes
#: about 1 s on the quiet host, so a 15 s run has about 15 pairs.
WORKLOADS = {
    # 22% of references miss the private L2: SLLC and DRAM models dominate
    "sim-llc": (("mcf", "lbm", "libquantum", "GemsFDTD", "milc", "soplex",
                 "sphinx3", "xalancbmk"), 11_000),
    # under 1% of references reach the SLLC: the core loop and the private
    # caches dominate, so an SLLC change should not move this one
    "sim-private": (("povray", "namd", "gobmk", "h264ref", "dealII", "sjeng",
                     "tonto", "astar"), 40_000),
}

#: seconds between two slowness samples during a cell (about 2% of the time)
SAMPLE_S = 0.05
#: pairs simulated, and checked, before the phase.  In a fresh process the
#: first 4 or 5 pairs ran up to 30% slower than later ones on the host this
#: was written on (``sim-private``; about 10% on ``sim-llc``).  A new
#: workload did not bring the slowness back, and neither garbage
#: collection, page faults, sleeping nor keeping the CPU busy with other
#: work beforehand explained or removed it.
WARMUP_PAIRS = 5
#: set-up takes tens of milliseconds, so many repeats are cheap
SETUP_REPS = 15
REFERENCE = BENCH_DIR / "reference.json"
#: the hit rate is taken on this seed's inputs whatever ``--seed`` is: few
#: references reach the SLLC, so its hit rate moves by several percent
#: from seed to seed, far more than a regression worth catching
REFERENCE_SEED = 2013

#: span names of each simulator layer the traced pass wraps
PRIVATE = ("PrivateHierarchy.access", "PrivateHierarchy.fill",
           "PrivateHierarchy.invalidate")
REUSE = ("ReuseCache.access", "ReuseCache.notify_private_eviction",
         "ReuseCache.upgrade")
CONVENTIONAL = ("ConventionalLLC.access",
                "ConventionalLLC.notify_private_eviction",
                "ConventionalLLC.upgrade")
DRAM = ("DDR3Memory.read", "DDR3Memory.write")


def _configs() -> list:
    # the seed reaches only the trace generator: the simulated machine is
    # the same for every workload seed
    return [SystemConfig(llc=spec, scale=SCALE) for spec in CELLS]


def digest(results) -> str:
    """SHA-256 over each cell's instructions, cycles, SLLC and DRAM stats."""
    doc = {
        r.config_label: {
            "instructions": r.instructions,
            "cycles": r.cycles,
            "llc_stats": r.llc_stats,
            "dram_stats": r.dram_stats,
        }
        for r in results
    }
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode("utf-8")
    ).hexdigest()


class _Measured:
    """One timed phase of repeated pairs."""

    def __init__(self):
        self.pairs = []  # one [RunResult, RunResult] per pair
        self.systems = []  # instrumented Systems (traced phase only)
        self.windows = []  # one Window per pair

    @property
    def metrics(self) -> dict:
        return adjusted(self.windows)


def _measure(workload, seconds: float, host: HostSpeed,
             recorder=None) -> _Measured:
    """Simulate pairs back to back until about ``seconds`` have passed.

    A cell's slowness is the mean of the samples taken just before it,
    during it and just after it.  The traced phase takes no timer
    samples, so that no span holds one.
    """
    m = _Measured()
    refs = sum(t.n_refs for t in workload.traces)
    start = clock()
    samples = TimerSamples(SAMPLE_S if recorder is None else 0)
    before = host.slowness()
    with samples:
        while True:
            # per pair: raw and adjusted wall, process CPU and System.run CPU
            raw = [0.0, 0.0, 0.0]
            adj = [0.0, 0.0, 0.0]
            results = []
            for config in _configs():
                result, times, slow, before = _cell(
                    config, workload, host, samples, before, recorder, m)
                results.append(result)
                for k, value in enumerate(times):
                    raw[k] += value
                    adj[k] += value / slow
            m.pairs.append(results)
            # per column, the one slowness that turns the raw pair into
            # the adjusted one
            wall_slow, cpu_slow, run_slow = (r / a for r, a in zip(raw, adj))
            m.windows.append(Window(
                wall=raw[0], ops=refs * len(CELLS), cpu=raw[1],
                server_cpu=raw[2], slow=cpu_slow, server_slow=run_slow,
                latencies=[raw[0]], wall_slow=wall_slow))
            # stop where the phase ends nearest to ``seconds``
            elapsed = clock() - start
            if elapsed + elapsed / len(m.pairs) / 2 >= seconds:
                return m


def _cell(config, workload, host, samples, before, recorder, m) -> tuple:
    """Simulate one cell.

    Returns (result, (wall, process CPU, System.run CPU) without the
    samples' time, the cell's slowness, the sample taken after it).
    """
    t0, c0 = clock(), cpu_clock()
    count0, total0, spent0 = samples.reading()
    system = System(config, workload)
    if recorder is not None:
        _instrument(system, recorder)
        m.systems.append(system)
    r0, run_spent0 = cpu_clock(), samples.spent
    result = system.run()
    count1, total1, spent1 = samples.reading()
    t1, c1 = clock(), cpu_clock()
    after = host.slowness()
    slow = (before + total1 - total0 + after) / (count1 - count0 + 2)
    spent = spent1 - spent0
    times = (t1 - t0 - spent, c1 - c0 - spent,
             c1 - r0 - (spent1 - run_spent0))
    return result, times, slow, after


def _instrument(system: System, recorder: SpanRecorder) -> None:
    """Wrap the layer boundaries of one System's instances."""
    for private in system.private:
        for attr in ("access", "fill", "invalidate"):
            recorder.patch(private, attr)
    for bank in system.banks:
        for attr in ("access", "notify_private_eviction", "upgrade"):
            recorder.patch(bank, attr)
    for attr in ("read", "write"):
        recorder.patch(system.dram, attr)
    recorder.patch(system, "run")


def _check(out: Outcome, pairs: list, expected: str | None) -> str:
    """Each pair must equal the reference digest, else the run's first."""
    digests = [digest(pair) for pair in pairs]
    want = expected if expected is not None else digests[0]
    out.attempted += len(digests)
    out.failed += sum(d != want for d in digests)
    return digests[0]


def _reference(name: str, seed: int):
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh).get(name, {}).get(str(seed))


def _setup(mix, refs: int, seed: int, host: HostSpeed) -> tuple:
    """(workload, adjusted set-up seconds, adjusted build seconds), each
    a median over SETUP_REPS repeats."""
    setup, build = [], []
    slow = host.slowness()
    for _ in range(SETUP_REPS):
        t0 = clock()
        workload = build_workload(list(mix), refs, seed=seed, scale=SCALE)
        t1 = clock()
        for config in _configs():
            System(config, workload)
        t2 = clock()
        after = host.slowness()
        rep_slow = (slow + after) / 2
        slow = after
        setup.append((t2 - t0) / rep_slow)
        build.append((t1 - t0) / rep_slow)
    return workload, statistics.median(setup), statistics.median(build)


def run(name: str, seed: int, seconds: float, trace: bool) -> Outcome:
    mix, refs = WORKLOADS[name]
    out = Outcome(name, seed)
    host = HostSpeed()
    workload, setup_s, build_s = _setup(mix, refs, seed, host)
    expected = _reference(name, seed)
    warm = [[System(config, workload).run() for config in _configs()]
            for _ in range(WARMUP_PAIRS)]

    if trace:
        plain = _measure(workload, seconds / 2, host)
        recorder = SpanRecorder(pid=0)
        m = _measure(workload, seconds / 2, host, recorder)
        first = _check(out, warm + plain.pairs, expected)
        # instrumented pairs must simulate exactly what plain ones do
        _check(out, m.pairs, first)
        out.metrics = _layers(m, recorder, build_s, plain)
        wall = sum(w.wall for w in m.windows)
        out.recorders = [("bench", recorder, wall)]
        out.extra.update({
            "untraced_ops_per_s": plain.metrics["throughput_ops_per_s"],
            "traced_ops_per_s": m.metrics["throughput_ops_per_s"]})
    else:
        m = _measure(workload, seconds, host)
        first = _check(out, warm + m.pairs, expected)
        out.metrics = dict(
            m.metrics,
            hit_rate=_reference_hit_rate(out, name, mix, refs),
            setup_s=setup_s,
            peak_rss_mb=resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024)
        out.extra.update(facts(m.windows))
    rc, conv = m.pairs[0]
    out.extra.update({
        "digest": first,
        "reference_digest": expected,
        "sim_ipc_speedup": rc.performance / conv.performance,
    })
    return out


def _reference_hit_rate(out: Outcome, name: str, mix, refs: int) -> float:
    """RC-8/1's SLLC data hit rate on the REFERENCE_SEED inputs.

    The pair is simulated untimed, after the phase, and its digest must
    match the recorded one, so every run checks one pair against
    ``reference.json`` even when its own seed is not recorded there.
    """
    workload = build_workload(list(mix), refs, seed=REFERENCE_SEED,
                              scale=SCALE)
    pair = [System(config, workload).run() for config in _configs()]
    out.attempted += 1
    out.failed += digest(pair) != _reference(name, REFERENCE_SEED)
    rc = pair[0].llc_stats
    return ratio(rc["data_hits"], rc["accesses"])


def _layers(m: _Measured, rec: SpanRecorder, build_s: float,
            plain: _Measured) -> dict:
    """Per-layer numbers of the traced phase (spans plus public counters)."""
    rc_stats = [pair[0].llc_stats for pair in m.pairs]
    conv_stats = [pair[1].llc_stats for pair in m.pairs]
    dram = [r.dram_stats for pair in m.pairs for r in pair]
    l2_misses = sum(sum(s.l2_misses) for s in m.systems)
    reads = sum(d["reads"] for d in dram)
    writes = sum(d["writes"] for d in dram)
    rc, conv = m.pairs[0]

    def total(stats, key):
        return sum(s[key] for s in stats)

    return {
        "hierarchy.system.self_s": rec.self_s("System.run"),
        "hierarchy.ipc_speedup": rc.performance / conv.performance,
        "cache.private_cache.calls": rec.calls(*PRIVATE),
        "cache.private_cache.self_s": rec.self_s(*PRIVATE),
        "cache.private_cache.miss_ratio": ratio(
            l2_misses, rec.calls("PrivateHierarchy.access")),
        "core.reuse_cache.calls": rec.calls(*REUSE),
        "core.reuse_cache.self_s": rec.self_s(*REUSE),
        "core.reuse_cache.data_hit_ratio": ratio(
            total(rc_stats, "data_hits"), total(rc_stats, "accesses")),
        "core.reuse_cache.data_alloc_ratio": ratio(
            total(rc_stats, "data_fills"), total(rc_stats, "tag_fills")),
        "cache.conventional.calls": rec.calls(*CONVENTIONAL),
        "cache.conventional.self_s": rec.self_s(*CONVENTIONAL),
        "cache.conventional.data_hit_ratio": ratio(
            total(conv_stats, "data_hits"), total(conv_stats, "accesses")),
        "dram.ddr3.reads": reads,
        "dram.ddr3.writes": writes,
        "dram.ddr3.self_s": rec.self_s(*DRAM),
        "dram.ddr3.row_hit_ratio": ratio(
            sum(d["row_hits"] for d in dram), reads + writes),
        "workloads.build_s": build_s,
        "bench.tracing_slowdown": (plain.metrics["throughput_ops_per_s"]
                                   / m.metrics["throughput_ops_per_s"]),
    }
