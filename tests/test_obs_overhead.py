"""The no-op observability contract, asserted as a benchmark.

``docs/observability.md`` promises that a disabled
:class:`~repro.obs.Observability` bundle costs the simulator's hot paths
one attribute load and a branch per event site — close enough to free that
every experiment driver can accept an ``obs`` handle unconditionally.  This
suite pins that promise two ways:

* **runtime** — a small fig6-style reuse-cache simulation with the disabled
  bundle must stay within 5% of the un-instrumented baseline (``obs=None``,
  which resolves to the same disabled bundle internally, plus a pure-python
  guard margin for timer noise);
* **results** — enabling metrics *and* tracing must not change a single
  simulated number (the registry only mirrors counters at snapshot time and
  the tracer only records, never steers).

Timing methodology: interleaved pairs, median of the paired ratios.  Each
repetition times baseline and no-op back to back, alternating which goes
first, so a change in host speed hits both samples of a pair alike; the
median over pairs ignores the few pairs a change of speed splits.  A
shared host's speed can drop by tens of percent for seconds, which a
min-of-N over each side on its own mistakes for overhead.  Samples time
process CPU rather than wall time, and repeat the timed work until each
lasts :data:`MIN_SAMPLE_S`, however fast the simulator gets.  (The no-op
test runs the very same code on both sides: ``obs=None`` resolves to the
disabled bundle.)
"""

import math
import statistics
import time

import pytest

from repro.hierarchy.config import LLCSpec, SystemConfig
from repro.hierarchy.system import System
from repro.obs import Observability
from repro.workloads.mixes import EXAMPLE_MIX, build_workload

#: relative slack for the no-op runtime (the documented budget)
MAX_OVERHEAD = 0.05
#: absolute slack absorbing timer granularity on very fast runs
ABS_SLACK_S = 0.010
#: CPU seconds each timed sample of the runtime tests lasts at least
MIN_SAMPLE_S = 0.2
#: interleaved pairs of timed samples in the runtime tests
REPEATS = 16


def _simulate(obs, n_refs=4000):
    workload = build_workload(EXAMPLE_MIX, n_refs=n_refs, seed=11, scale=32)
    config = SystemConfig(
        llc=LLCSpec.reuse(8, 1), num_cores=workload.num_cores,
        scale=32, seed=11,
    )
    return System(config, workload, obs=obs).run()


def _cpu_timed(work, runs: int) -> float:
    """Process CPU seconds of ``runs`` back-to-back calls of ``work``."""
    start = time.process_time()
    for _ in range(runs):
        work()
    return time.process_time() - start


def _paired_overhead(base, other) -> tuple:
    """Time ``base`` and ``other`` in REPEATS interleaved pairs.

    Returns (median seconds of a ``base`` sample, median relative excess
    of ``other`` over ``base`` pair by pair).  The two samples of a pair
    run back to back, alternating which goes first, so a change in host
    speed between pairs cancels within each; the median ignores the few
    pairs a change of speed split.
    """
    once = _cpu_timed(base, 1)  # also warms caches and imports
    runs = max(1, math.ceil(MIN_SAMPLE_S / max(once, 1e-3)))
    base_s, other_s = [], []
    for rep in range(REPEATS):
        order = [(base, base_s), (other, other_s)]
        for work, samples in order if rep % 2 == 0 else order[::-1]:
            samples.append(_cpu_timed(work, runs))
    overhead = statistics.median(o / b for b, o in zip(base_s, other_s)) - 1.0
    return statistics.median(base_s), overhead


class TestNoopOverhead:
    def test_disabled_obs_within_five_percent(self):
        noop = Observability.disabled()
        base, overhead = _paired_overhead(
            lambda: _simulate(None), lambda: _simulate(noop))
        assert overhead <= MAX_OVERHEAD + ABS_SLACK_S / base, (
            f"no-op obs runs took {overhead * 100:+.1f}% over baseline "
            f"(median of {REPEATS} interleaved pairs, baseline {base:.3f}s; "
            f"budget {MAX_OVERHEAD * 100:.0f}% + {ABS_SLACK_S * 1e3:.0f}ms)"
        )


class TestObservabilityNeutrality:
    def test_enabled_obs_reproduces_baseline_numbers(self):
        baseline = _simulate(None)
        observed = _simulate(
            Observability.enabled(tracing=True, trace_capacity=1 << 16)
        )
        assert observed.performance == baseline.performance
        assert observed.instructions == baseline.instructions
        assert observed.cycles == baseline.cycles
        assert observed.llc_mpki == baseline.llc_mpki

    def test_disabled_bundle_is_the_default(self):
        workload = build_workload(EXAMPLE_MIX, n_refs=200, seed=11, scale=32)
        config = SystemConfig(
            llc=LLCSpec.reuse(8, 1), num_cores=workload.num_cores,
            scale=32, seed=11,
        )
        system = System(config, workload)
        assert system.obs.active is False

    def test_performance_close_across_three_modes(self):
        # belt and braces: the three obs modes agree to full float equality,
        # so approx comparisons in downstream tests never mask a drift
        runs = [
            _simulate(None, n_refs=1000),
            _simulate(Observability.disabled(), n_refs=1000),
            _simulate(Observability.enabled(), n_refs=1000),
        ]
        perfs = {r.performance for r in runs}
        assert len(perfs) == 1, f"obs mode changed results: {perfs}"
        assert runs[0].performance == pytest.approx(runs[1].performance)

