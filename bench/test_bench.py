"""Checks of the benchmark itself.

Run with ``PYTHONPATH=src python -m pytest bench -q`` (outside the tier-1
``testpaths``).  Every workload runs for one second per timed phase.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SIM = [w for w in WORKLOADS if w.startswith("sim-")]
SVC = [w for w in WORKLOADS if w.startswith("svc-")]
QUICK_S = "1"


@lru_cache(maxsize=None)
def bench(workload: str, seed: int = 2013, trace: int = 0, run: int = 0):
    """(stdout, last-line result, --json record) of one quick run.

    ``run`` only tells repeated runs apart in the cache.
    """
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    record = out_dir / f"test-{workload}-{seed}-{trace}-{run}.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", QUICK_S, "--trace", str(trace),
         "--json", str(record)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return proc.stdout, result, json.loads(record.read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_its_unit(workload):
    stdout, result, _ = bench(workload)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    names = [m["name"] for m in SPEC["end_to_end"]]
    assert list(result["metrics"]) == names
    for metric in SPEC["end_to_end"]:
        row = result["metrics"][metric["name"]]
        assert row["unit"] == metric["unit"]
        assert row["value"] > 0, metric["name"]
        assert any(line.split()[:1] == [metric["name"]]
                   and line.split()[-1] == metric["unit"]
                   for line in stdout.splitlines())


@pytest.mark.parametrize("workload", SIM)
def test_sim_results_repeat_exactly_for_a_seed(workload):
    first, again = bench(workload)[2], bench(workload, run=1)[2]
    assert first["extra"]["digest"] == again["extra"]["digest"]
    assert first["extra"]["sim_ipc_speedup"] == again["extra"]["sim_ipc_speedup"]
    assert (first["result"]["metrics"]["hit_rate"]
            == again["result"]["metrics"]["hit_rate"])


def test_sim_digest_follows_the_seed():
    assert (bench("sim-llc")[2]["extra"]["digest"]
            != bench("sim-llc", seed=2014)[2]["extra"]["digest"])


def test_sim_digest_matches_the_reference():
    reference = json.loads((BENCH / "reference.json").read_text())
    for workload in SIM:
        extra = bench(workload)[2]["extra"]
        assert extra["digest"] == reference[workload]["2013"]


@pytest.mark.parametrize("workload", SVC)
def test_svc_hit_rate_repeats_exactly_for_a_seed(workload):
    first = bench(workload)[1]["metrics"]["hit_rate"]["value"]
    again = bench(workload, run=1)[1]["metrics"]["hit_rate"]["value"]
    assert first == again


@pytest.mark.parametrize("workload", ["sim-private", "cluster-write"])
def test_traced_pass_reports_layers_and_a_valid_trace(workload):
    stdout, result, record = bench(workload, trace=1)
    assert result["correct"]
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert result["metrics"]["bench.tracing_slowdown"]["value"] > 0
    assert "self share" in stdout
    check = subprocess.run(
        [sys.executable, "-m", "repro", "obs", "validate",
         str(ROOT / record["extra"]["trace_file"])],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=120,
    )
    assert check.returncode == 0, check.stdout + check.stderr


def test_repeat_alternates_order_and_summarizes(tmp_path):
    out = tmp_path / "runs.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "sim-llc",
         "svc-get-set", "--repeat", "2", "--seconds", QUICK_S,
         "--json", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    doc = json.loads(out.read_text())
    assert [r["workload"] for r in doc["runs"]] == [
        "sim-llc", "svc-get-set", "svc-get-set", "sim-llc"]
    for workload in ("sim-llc", "svc-get-set"):
        for metric in SPEC["end_to_end"]:
            row = doc["summary"][workload][metric["name"]]
            # quartiles of equal values are interpolated, so allow rounding
            tol = 1e-9 * abs(row["median"])
            assert row["q1"] - tol <= row["median"] <= row["q3"] + tol
    assert doc["meta"]["nproc"] >= 1 and doc["meta"]["python"]


def test_adjusted_timings_do_not_follow_the_host_speed():
    from harness import Window, adjusted

    def window(slow):
        # the same work, done while the host ran ``slow`` times slower
        return Window(wall=2.0 * slow, ops=1000, cpu=1.5 * slow,
                      server_cpu=0.5 * slow, slow=slow, server_slow=slow,
                      latencies=[0.001 * slow, 0.003 * slow] * 50)

    quiet = adjusted([window(1.0)] * 3)
    assert quiet["throughput_ops_per_s"] == pytest.approx(500)
    assert quiet["client_cpu_us_per_op"] == pytest.approx(1500)
    assert adjusted([window(1.0), window(2.0), window(1.7)]) == pytest.approx(
        quiet)


def test_timer_samples_land_inside_the_work():
    import signal
    import time

    from hostspeed import TimerSamples

    cpus = os.sched_getaffinity(0)
    previous = signal.getsignal(signal.SIGALRM)
    try:
        with TimerSamples(0.01) as samples:
            end = time.perf_counter() + 0.3
            while time.perf_counter() < end:
                pass
    finally:
        os.sched_setaffinity(0, cpus)
    count, total, spent = samples.reading()
    assert count >= 5
    assert total / count > 0
    assert 0 < spent < 0.3
    assert signal.getsignal(signal.SIGALRM) is previous


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py"], cwd=tmp_path,
        capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
