"""Tests for repro.perf: ``repro perf compare`` on bench/run.py run files.

Every input is a small synthetic file in one of the two ``bench/run.py
--json`` shapes (a one-run record, a ``--repeat`` document); the bounds
are the repository's own ``BENCHMARK.json``, so these pin the gate the
CI ``bench-gate`` job applies.
"""

import json
from pathlib import Path

import pytest

from repro.perf import compare_runs, format_report, load_runs, load_spec
from repro.perf import cli as perf_cli

ROOT = Path(__file__).resolve().parent.parent
SPEC = load_spec(ROOT / "BENCHMARK.json")
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

#: one plausible value per end-to-end metric
E2E = {
    "throughput_ops_per_s": 100_000.0,
    "latency_p50_ms": 1.0,
    "latency_p90_ms": 2.0,
    "hit_rate": 0.8,
    "server_cpu_us_per_op": 10.0,
    "client_cpu_us_per_op": 20.0,
    "peak_rss_mb": 50.0,
    "setup_s": 0.5,
}


def record(workload="sim-llc", trace=0, correct=True, attempted=1000,
           failed=0, **values):
    """One run's --json record; ``values`` override the metric values."""
    metrics = dict(E2E) if not trace else {"hierarchy.system.self_s": 1.0}
    metrics.update(values)
    return {
        "workload": workload, "seed": 2013, "seconds": 3, "trace": trace,
        "result": {
            "correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": UNITS[name]}
                        for name, value in metrics.items()},
        },
        "extra": {}, "problems": [],
    }


def document(*records, trace=0):
    """A --repeat document holding ``records`` as its runs."""
    return {
        "meta": {"nproc": 2, "python": "3.12.0", "seed": 2013,
                 "seconds": 3, "trace": trace, "repeat": len(records)},
        "summary": {},
        "runs": [dict(r, round=i, exit=0) for i, r in enumerate(records)],
    }


def gate(parent, change):
    return compare_runs(SPEC, parent, change)


class TestCompare:
    def test_identical_documents_pass(self):
        runs = [record(), record("svc-get-set")]
        report = gate(runs, runs)
        assert report["ok"] and report["failures"] == []
        assert len(report["rows"]) == 2 * len(E2E)

    def test_within_threshold_noise_tolerated(self):
        # 24% worse in either direction stays inside the 0.25 bound
        assert gate([record()], [record(throughput_ops_per_s=76_000.0)])["ok"]
        assert gate([record()], [record(latency_p50_ms=1.24)])["ok"]

    def test_slowed_cells_regress(self):
        slower = gate([record()], [record(throughput_ops_per_s=74_000.0)])
        assert not slower["ok"]
        assert slower["failures"][0].startswith(
            "sim-llc throughput_ops_per_s:")
        assert not gate([record()], [record(latency_p50_ms=1.26)])["ok"]

    def test_speedup_reported_not_failed(self):
        report = gate([record()], [record(throughput_ops_per_s=200_000.0,
                                          latency_p90_ms=1.0)])
        assert report["ok"]
        worse = {row[1]: row[5] for row in report["rows"]}
        assert worse["throughput_ops_per_s"] == pytest.approx(-1.0)
        assert worse["latency_p90_ms"] == pytest.approx(-0.5)

    def test_hit_rate_bound_is_tighter(self):
        # hit_rate's bound is 0.015 of the parent's median
        assert gate([record()], [record(hit_rate=0.8 * 0.986)])["ok"]
        assert not gate([record()], [record(hit_rate=0.8 * 0.984)])["ok"]

    def test_medians_over_each_side_gate(self):
        parent = [record(), record(), record()]
        one_slow = [record(), record(throughput_ops_per_s=1.0), record()]
        assert gate(parent, one_slow)["ok"]
        two_slow = [record(), record(throughput_ops_per_s=1.0),
                    record(throughput_ops_per_s=1.0)]
        assert not gate(parent, two_slow)["ok"]

    def test_more_failed_ops_fails(self):
        report = gate([record(failed=1)], [record(failed=2)])
        assert not report["ok"]
        assert "2 of 1000 ops failed (parent: 1 of 1000)" in \
            report["failures"][0]
        assert gate([record(failed=1)], [record(failed=1)])["ok"]

    def test_incorrect_change_run_fails(self):
        assert not gate([record()], [record(correct=False)])["ok"]
        # a child that died left no result: that run is not correct either
        dead = dict(record(), result=None)
        report = gate([record()], [record(), dead])
        assert report["failures"] == ["sim-llc: 1 change run(s) not correct"]

    def test_missing_workload_fails(self):
        report = gate([record(), record("svc-get-set")], [record()])
        assert report["failures"] == ["svc-get-set: no change run"]
        # a workload only the change runs gates nothing
        assert gate([record()], [record(), record("svc-batch")])["ok"]

    def test_missing_metric_fails(self):
        change = record()
        del change["result"]["metrics"]["setup_s"]
        report = gate([record()], [change])
        assert report["failures"] == [
            "sim-llc setup_s: not reported by the change"]

    def test_traced_runs_never_gate(self):
        parent = [record(trace=1)]
        change = [record(trace=1, correct=False, failed=5,
                         **{"hierarchy.system.self_s": 10.0})]
        report = gate(parent, change)
        assert report["ok"] and report["rows"] == []
        (row,) = report["layers"]
        assert row[:5] == ("sim-llc", "hierarchy.system.self_s", "s",
                           1.0, 10.0)
        assert row[6] is None
        # a traced workload missing on the change side gates nothing either
        assert gate([record("svc-batch", trace=1)], [])["ok"]

    def test_format_mentions_regressions(self):
        text = format_report(
            gate([record()], [record(throughput_ops_per_s=50_000.0)]), 1, 1)
        assert "FAIL sim-llc throughput_ops_per_s: 100000 -> 50000 ops/s, " \
            "50.0% worse (bound 25.0%)" in text
        assert text.splitlines()[-1] == "FAIL: 8 gated metric(s), 1 failure(s)"
        ok_text = format_report(gate([record()], [record()]), 1, 1)
        assert ok_text.splitlines()[-1] == \
            "OK: 8 gated metric(s), 0 failure(s)"


class TestRecord:
    def test_document_shape(self, tmp_path):
        single = tmp_path / "one.json"
        single.write_text(json.dumps(record()))
        repeat = tmp_path / "many.json"
        repeat.write_text(json.dumps(document(record(), record("svc-batch"))))
        assert [r["workload"] for r in load_runs(single)] == ["sim-llc"]
        runs = load_runs(repeat)
        assert [r["workload"] for r in runs] == ["sim-llc", "svc-batch"]
        # a dead child's run carries no trace field; the document's applies
        traced = tmp_path / "traced.json"
        dead = {"workload": "sim-llc", "round": 0, "exit": 1,
                "result": None, "problems": ["child exited 1"]}
        traced.write_text(json.dumps(dict(document(trace=1), runs=[dead])))
        assert load_runs(traced)[0]["trace"] == 1

    def test_load_rejects_wrong_schema(self, tmp_path):
        other = tmp_path / "other.json"
        for doc in ({"schema": 1, "experiments": {}}, [record()]):
            other.write_text(json.dumps(doc))
            with pytest.raises(ValueError, match="not a bench/run.py"):
                load_runs(other)

    def test_load_rejects_missing_keys(self, tmp_path):
        no_result = {k: v for k, v in record().items() if k != "result"}
        path = tmp_path / "runs.json"
        for doc in (no_result, document(record(), no_result)):
            path.write_text(json.dumps(doc))
            with pytest.raises(ValueError, match="runs.json: not a"):
                load_runs(path)


class TestPerfCli:
    def _write(self, tmp_path, name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    def test_compare_exit_codes_pin_the_ci_contract(self, tmp_path, capsys,
                                                   monkeypatch):
        monkeypatch.chdir(ROOT)
        parent = self._write(tmp_path, "p.json", document(record(), record()))
        same = self._write(tmp_path, "c1.json", record())
        slow = self._write(tmp_path, "c2.json",
                           record(throughput_ops_per_s=70_000.0))
        argv = ["perf", "compare", "--parent", parent, "--change"]
        assert perf_cli.main(argv + [same]) == 0
        assert perf_cli.main(argv + [slow]) == 1
        assert "FAIL sim-llc throughput_ops_per_s" in capsys.readouterr().out

    def test_compare_missing_baseline_exits_2(self, tmp_path, monkeypatch):
        monkeypatch.chdir(ROOT)
        change = self._write(tmp_path, "c.json", record())
        assert perf_cli.main(["perf", "compare", "--parent",
                              str(tmp_path / "none.json"),
                              "--change", change]) == 2

    def test_missing_benchmark_json_exits_2(self, tmp_path, capsys,
                                            monkeypatch):
        monkeypatch.chdir(tmp_path)
        runs = self._write(tmp_path, "r.json", record())
        assert perf_cli.main(["perf", "compare", "--parent", runs,
                              "--change", runs]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "BENCHMARK.json" in captured.err

    def test_main_dispatches_perf(self, tmp_path, monkeypatch):
        from repro.__main__ import main

        monkeypatch.chdir(ROOT)
        runs = self._write(tmp_path, "r.json", record())
        assert main(["perf", "compare", "--parent", runs,
                     "--change", runs]) == 0
