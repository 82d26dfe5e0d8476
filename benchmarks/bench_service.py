"""Benchmark: the serving stack under live load (reuse vs always admission).

Runs the registered ``service-admission`` experiment — one synthetic
workload replayed through two live servers that differ only in admission,
the paper's reuse-based selective allocation vs admit-always, at identical
data capacity — and persists its hit rates and admission counts to
``BENCH_service.json`` at the repo root (the serving-side counterpart of
``benchmarks/results.txt``).  It records results, not speed: speed
numbers come from ``bench/run.py``.  Scale with ``REPRO_REFS`` /
``REPRO_SCALE`` like the figure benchmarks.
"""

import json
from pathlib import Path

from conftest import run_experiment

BENCH_FILE = Path(__file__).resolve().parent.parent / "BENCH_service.json"


def test_service_admission_comparison(benchmark, params, report):
    result = run_experiment(benchmark, report, "service-admission", params)
    BENCH_FILE.write_text(json.dumps(result, indent=2) + "\n")
    report(f"wrote {BENCH_FILE.name}")
    # the acceptance bar: at equal (downsized) data capacity, selective
    # allocation must deliver more hits per byte than admit-always
    assert result["hit_rate_per_mb_gain"] > 0
