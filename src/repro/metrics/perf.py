"""Performance metrics: IPC, MPKI and speedups over a baseline.

The paper reports configuration performance as speedup relative to the 8 MB
LRU baseline running the same workload.  With fixed per-core reference
traces, a configuration's performance is the aggregate committed-IPC over
the measurement window (instructions after warm-up divided by the cycles
each core needed for them, summed over cores); speedup is the ratio of
aggregate IPCs.
"""

from __future__ import annotations

import math


def aggregate_ipc(core_instructions, core_cycles) -> float:
    """System throughput: sum over cores of per-core IPC."""
    if len(core_instructions) != len(core_cycles):
        raise ValueError("per-core arrays disagree in length")
    total = 0.0
    for instr, cycles in zip(core_instructions, core_cycles):
        if cycles > 0:
            total += instr / cycles
    return total


def speedup(perf: float, baseline_perf: float) -> float:
    """Relative performance; raises on a degenerate baseline."""
    if baseline_perf <= 0:
        raise ValueError(f"baseline performance must be positive, got {baseline_perf}")
    return perf / baseline_perf


def mpki(misses: int, instructions: int) -> float:
    """Misses per kilo-instruction."""
    if instructions <= 0:
        return 0.0
    return 1000.0 * misses / instructions


def geomean(values) -> float:
    """Geometric mean (used for cross-workload summaries)."""
    vals = [v for v in values]
    if not vals:
        raise ValueError("geomean of empty sequence")
    if any(v <= 0 for v in vals):
        raise ValueError("geomean requires positive values")
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile of ``values`` (``q`` in [0, 1]; 0 if empty)."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    vals = sorted(values)
    if not vals:
        return 0.0
    pos = q * (len(vals) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(vals) - 1)
    frac = pos - lo
    return vals[lo] * (1 - frac) + vals[hi] * frac


def quartiles(values):
    """(min, q1, median, q3, max) — the five numbers of paper Fig. 10."""
    vals = sorted(values)
    if not vals:
        raise ValueError("quartiles of empty sequence")
    return (vals[0], quantile(vals, 0.25), quantile(vals, 0.5),
            quantile(vals, 0.75), vals[-1])
