"""Benchmark: aggregate hit capacity of the cache cluster vs node count.

Runs the registered ``cluster-scaling`` experiment — one synthetic
workload replayed through live :class:`LocalCluster` instances of 1, 2
and 3 nodes at **equal per-node RAM**, under reuse admission and
admit-always — and persists the sweep to ``BENCH_cluster.json`` at the
repo root.  The acceptance bar is the cluster's reason to exist: with the
workload footprint fixed, adding nodes adds aggregate data capacity, so
the client-observed hit rate must grow monotonically along the sweep.
Scale with ``REPRO_REFS`` / ``REPRO_SCALE`` like the figure benchmarks.
"""

import json
from pathlib import Path

from conftest import run_experiment

BENCH_FILE = Path(__file__).resolve().parent.parent / "BENCH_cluster.json"


def test_cluster_scaling_sweep(benchmark, params, report):
    result = run_experiment(benchmark, report, "cluster-scaling", params)
    BENCH_FILE.write_text(json.dumps(result, indent=2) + "\n")
    report(f"wrote {BENCH_FILE.name}")
    # aggregate effective capacity grows with node count at equal
    # per-node RAM: hit rate monotonic along 1 -> 2 -> 3 nodes
    assert result["node_counts"] == [1, 2, 3]
    assert result["monotonic_hit_rate"], result["reuse"]["hit_rates"]
    rows = result["reuse"]["sweep"]
    assert all(
        b["data_capacity_entries"] > a["data_capacity_entries"]
        for a, b in zip(rows, rows[1:])
    )
