"""Benchmark: the serving stack under live load (reuse vs always admission).

Replays one synthetic workload through the asyncio server twice — once with
the paper's reuse-based admission, once admit-always — at identical data
capacity, then persists the hit rates and admission counts to
``BENCH_service.json`` at the repo root (the serving-side counterpart of
``benchmarks/results.txt``).  It records results, not speed: speed
numbers come from ``bench/run.py``.  Scale with ``REPRO_REFS`` /
``REPRO_SCALE`` like the figure benchmarks.
"""

import json
from pathlib import Path

from conftest import run_once

from repro.service.cli import format_service_benchmark, run_service_benchmark

BENCH_FILE = Path(__file__).resolve().parent.parent / "BENCH_service.json"


def test_service_admission_comparison(benchmark, params, report):
    result = run_once(
        benchmark,
        run_service_benchmark,
        refs=params.n_refs,
        scale=params.scale,
        seed=params.seed,
    )
    # the raw per-server STATS snapshots are a --stats-json concern; the
    # baseline file keeps the summarised comparison only
    result.pop("server_stats", None)
    report(format_service_benchmark(result))
    BENCH_FILE.write_text(json.dumps(result, indent=2) + "\n")
    report(f"wrote {BENCH_FILE}")
    # the acceptance bar: at equal (downsized) data capacity, selective
    # allocation must deliver more hits per byte than admit-always
    assert result["hit_rate_per_mb_gain"] > 0
