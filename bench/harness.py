"""Pieces shared by the benchmark's workloads: paths, statistics, results.

Importing this module puts the checkout's ``src/`` first on ``sys.path``
and exits with status 1 when the program's sources are missing, so the
benchmark never measures some other installed copy of the program.
"""

from __future__ import annotations

import json
import statistics
import sys
from array import array
from bisect import bisect_left, bisect_right
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: run artefacts (server logs, span files); listed in the root .gitignore
OUT_DIR = ROOT / ".bench_out"


def _require_sources() -> None:
    package = SRC / "repro" / "__init__.py"
    if not package.is_file():
        sys.exit("bench: the program's sources (src/repro) are missing "
                 "from this checkout")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve() != package.resolve():
        sys.exit(f"bench: imported repro from {repro.__file__}, "
                 "not from this checkout")


_require_sources()


def load_spec() -> dict:
    """BENCHMARK.json: the workload and metric names the results must carry."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def ratio(num, den) -> float:
    """``num / den``, or 0 when nothing was counted."""
    return num / den if den else 0.0


def percentile(values, q: float) -> float:
    """Linearly interpolated ``q``-quantile (``q`` in [0, 1]); 0 if empty."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class LatencyLog:
    """Call latencies in the order the calls completed, with those times."""

    def __init__(self):
        self.done = array("d")
        self.latency = array("d")

    def add(self, done: float, latency: float) -> None:
        self.done.append(done)
        self.latency.append(latency)

    def __len__(self) -> int:
        return len(self.latency)

    def between(self, start: float, end: float):
        """Latencies of the calls that completed in ``[start, end]``."""
        return self.latency[bisect_left(self.done, start):
                            bisect_right(self.done, end)]


class Window:
    """One measured stretch of a phase, with the host's slowness in it.

    Counters are differences between the window's two ends.  ``slow`` is
    the bench CPU's slowness, ``server_slow`` the server CPU's (see
    ``hostspeed``).  The wall time's slowness is, unless given, that of
    the side that spent more CPU time in the window: a closed loop runs at
    the pace of its busiest process.  (Over 10 seeded runs of each service
    workload, weighting the two CPUs by their CPU time instead gave up to
    twice the spread of the throughput.)
    """

    __slots__ = ("wall", "ops", "cpu", "server_cpu", "slow", "server_slow",
                 "wall_slow", "latencies")

    def __init__(self, wall, ops, cpu, server_cpu, slow, server_slow,
                 latencies, wall_slow=None):
        self.wall = wall
        self.ops = ops
        self.cpu = cpu
        self.server_cpu = server_cpu
        self.slow = slow
        self.server_slow = server_slow
        self.latencies = latencies
        if wall_slow is None:
            wall_slow = slow if cpu >= server_cpu else server_slow
        self.wall_slow = wall_slow


def _used(windows: list) -> list:
    return [w for w in windows if w.ops > 0 and w.latencies]


def latency_ms(windows: list, q: float) -> float:
    """The median over windows of each window's ``q``-quantile latency,
    divided by the window's slowness, in ms; 0 without a window."""
    values = [percentile(w.latencies, q) / w.wall_slow
              for w in _used(windows)]
    return statistics.median(values) * 1e3 if values else 0.0


def adjusted(windows: list) -> dict:
    """The timing metrics of a phase, each a median over its windows.

    Every window's times are divided by that window's slowness, so they
    are the times at the reference host speed.  A latency percentile is
    taken within each window first; a window that holds one sample (a
    simulator pair) gives that sample for every percentile.
    """
    used = _used(windows)
    if not used:
        return {}
    return {
        "throughput_ops_per_s": statistics.median(
            w.ops * w.wall_slow / w.wall for w in used),
        "latency_p50_ms": latency_ms(used, 0.50),
        "latency_p90_ms": latency_ms(used, 0.90),
        "server_cpu_us_per_op": statistics.median(
            w.server_cpu / w.ops / w.server_slow for w in used) * 1e6,
        "client_cpu_us_per_op": statistics.median(
            w.cpu / w.ops / w.slow for w in used) * 1e6,
    }


def facts(windows: list) -> dict:
    """Printed beside the metrics, never gated: the window count, the raw
    throughput and the slowness the adjustment divided by."""
    used = _used(windows)
    if not used:
        return {}
    return {
        "windows": len(used),
        "raw_throughput_ops_per_s": statistics.median(
            w.ops / w.wall for w in used),
        "slowness_bench_cpu": statistics.median(w.slow for w in used),
        "slowness_server_cpu": statistics.median(
            w.server_slow for w in used),
    }


class Outcome:
    """What one workload run measured and checked."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        #: failed checks that are not operations (server exit, digests)
        self.problems = []
        #: metric name -> value, in the units BENCHMARK.json declares
        self.metrics = {}
        #: facts printed and written with --json but not gated
        self.extra = {}
        #: traced pass only: (process label, SpanRecorder, traced wall s)
        self.recorders = []

    def problem(self, text: str) -> None:
        self.problems.append(text)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    def result(self, kind: str) -> dict:
        """The result object: every ``kind`` metric of BENCHMARK.json."""
        metrics = {}
        for spec in load_spec()[kind]:
            # missing: a layer this workload never calls, which did no
            # work, or a run that failed before its first whole window
            metrics[spec["name"]] = {
                "value": self.metrics.get(spec["name"], 0.0),
                "unit": spec["unit"]}
        return {"correct": self.correct, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}
