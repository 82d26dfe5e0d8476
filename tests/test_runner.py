"""Tests for repro.runner: cells, cache keys, the engine and its guarantees.

The load-bearing property is byte-identity: a batch run in parallel, or
replayed from the content-addressed cache, must produce results whose
pickled bytes equal the serial in-process run's.  Everything else —
deterministic workload rebuilding, key invalidation, crash-tolerant cache
entries, stats/obs accounting — exists to keep that property cheap.
"""

import pickle

import numpy as np
import pytest

from repro.experiments.common import BASELINE_SPEC, ExperimentParams
from repro.hierarchy.config import LLCSpec, SystemConfig
from repro.obs import Observability
from repro.runner import (
    Cell,
    ResultCache,
    Runner,
    WorkloadRef,
    as_workload_ref,
    cell_key,
    code_fingerprint,
    execute_cell,
)

TINY = ExperimentParams(n_workloads=2, n_refs=1500)


def tiny_cells(spec=BASELINE_SPEC, params=TINY):
    return [params.cell(spec, ref) for ref in params.workload_refs()]


def result_bytes(results):
    return [pickle.dumps(r) for r in results]


class TestWorkloadRef:
    def test_mix_rebuilds_identically(self):
        ref = TINY.workload_refs()[0]
        a, b = ref.build(), ref.build()
        assert a.num_cores == b.num_cores
        for ta, tb in zip(a.traces, b.traces):
            assert np.array_equal(ta.addrs, tb.addrs)

    def test_refs_match_eager_workloads(self):
        # the declarative suite is the same suite workloads() materialises
        eager = TINY.workloads()
        rebuilt = [ref.build() for ref in TINY.workload_refs()]
        for wa, wb in zip(eager, rebuilt):
            for ta, tb in zip(wa.traces, wb.traces):
                assert np.array_equal(ta.addrs, tb.addrs)

    def test_key_dict_is_declarative(self):
        ref = TINY.workload_refs()[0]
        key = ref.key_dict()
        assert key["kind"] == "mix"
        assert "payload" not in key

    def test_custom_workload_digest(self):
        wl = TINY.workloads()[0]
        ref = as_workload_ref(wl)
        assert ref.kind == "custom"
        assert ref.digest
        assert ref.key_dict() == {"kind": "custom", "digest": ref.digest}
        assert ref.build() is wl

    def test_as_workload_ref_passthrough(self):
        ref = TINY.workload_refs()[0]
        assert as_workload_ref(ref) is ref


class TestCellKey:
    def test_stable_for_equal_cells(self):
        a, b = tiny_cells()[0], tiny_cells()[0]
        assert a == b
        assert cell_key(a) == cell_key(b)

    def test_config_change_invalidates(self):
        base = tiny_cells(BASELINE_SPEC)[0]
        other = tiny_cells(LLCSpec.reuse(4, 1))[0]
        assert cell_key(base) != cell_key(other)

    def test_flag_change_invalidates(self):
        ref = TINY.workload_refs()[0]
        plain = TINY.cell(BASELINE_SPEC, ref)
        recording = TINY.cell(BASELINE_SPEC, ref, record_generations=True)
        assert cell_key(plain) != cell_key(recording)

    def test_fingerprint_is_part_of_the_key(self):
        cell = tiny_cells()[0]
        assert cell_key(cell, "aaa") != cell_key(cell, "bbb")
        assert cell_key(cell) == cell_key(cell, code_fingerprint())

    def test_fingerprint_shape(self):
        fp = code_fingerprint()
        assert len(fp) == 64 and int(fp, 16) >= 0


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        cell = tiny_cells()[0]
        key = cell_key(cell)
        assert cache.get(key) is None
        result = execute_cell(cell)
        cache.put(key, result)
        assert cache.contains(key)
        assert len(cache) == 1
        replay = cache.get(key)
        assert pickle.dumps(replay) == pickle.dumps(result)
        assert (cache.hits, cache.misses) == (1, 1)

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cell_key(tiny_cells()[0])
        cache.put(key, execute_cell(tiny_cells()[0]))
        entry = cache._entry_path(key)
        entry.write_bytes(b"not a pickle")
        assert cache.get(key) is None

    def test_wrong_key_payload_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cells = tiny_cells()
        key_a, key_b = cell_key(cells[0]), cell_key(cells[1])
        cache.put(key_a, execute_cell(cells[0]))
        # simulate a hash collision / copied file: payload key mismatch
        cache._entry_path(key_b).parent.mkdir(parents=True, exist_ok=True)
        cache._entry_path(key_a).rename(cache._entry_path(key_b))
        assert cache.get(key_b) is None

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        for cell in tiny_cells():
            cache.put(cell_key(cell), execute_cell(cell))
        assert cache.clear() == 2
        assert len(cache) == 0


class TestRunnerDeterminism:
    def test_parallel_matches_serial_byte_for_byte(self):
        cells = tiny_cells(BASELINE_SPEC) + tiny_cells(LLCSpec.reuse(4, 1))
        serial = Runner().run_cells(cells)
        parallel = Runner(parallel=4).run_cells(cells)
        assert result_bytes(serial) == result_bytes(parallel)

    def test_cache_replay_matches_byte_for_byte(self, tmp_path):
        cells = tiny_cells()
        cold = Runner(cache=ResultCache(tmp_path)).run_cells(cells)
        warm = Runner(cache=ResultCache(tmp_path)).run_cells(cells)
        assert result_bytes(cold) == result_bytes(warm)

    def test_results_in_submission_order(self):
        specs = [BASELINE_SPEC, LLCSpec.reuse(4, 1), LLCSpec.conventional(4, "nrr")]
        cells = [c for s in specs for c in tiny_cells(s)]
        results = Runner(parallel=3).run_cells(cells)
        rerun = [execute_cell(c) for c in cells]
        assert result_bytes(results) == result_bytes(rerun)


class TestRunnerCache:
    def test_hit_skips_recompute(self, tmp_path):
        cells = tiny_cells()
        first = Runner(cache=ResultCache(tmp_path))
        first.run_cells(cells)
        assert (first.stats.run, first.stats.cached) == (2, 0)
        second = Runner(cache=ResultCache(tmp_path))
        second.run_cells(cells)
        assert (second.stats.run, second.stats.cached) == (0, 2)
        assert second.stats.hit_rate == 1.0
        assert second.stats.seconds == 0.0

    def test_config_change_recomputes(self, tmp_path):
        runner = Runner(cache=ResultCache(tmp_path))
        runner.run_cells(tiny_cells(BASELINE_SPEC))
        runner.run_cells(tiny_cells(LLCSpec.reuse(4, 1)))
        assert (runner.stats.run, runner.stats.cached) == (4, 0)

    def test_force_recomputes_and_refreshes(self, tmp_path):
        cells = tiny_cells()
        Runner(cache=ResultCache(tmp_path)).run_cells(cells)
        forced = Runner(cache=ResultCache(tmp_path), force=True)
        forced.run_cells(cells)
        assert (forced.stats.run, forced.stats.cached) == (2, 0)
        # forced results were re-published: a third runner still hits
        third = Runner(cache=ResultCache(tmp_path))
        third.run_cells(cells)
        assert third.stats.cached == 2

    def test_uncached_runner_computes_every_time(self):
        runner = Runner()
        cells = tiny_cells()
        runner.run_cells(cells)
        runner.run_cells(cells)
        assert (runner.stats.run, runner.stats.cached) == (4, 0)


class TestRunnerFailuresAndAccounting:
    def test_worker_failure_names_the_cell(self):
        bad = Cell(
            config=SystemConfig(llc=BASELINE_SPEC),
            workload=WorkloadRef(kind="no-such-kind"),
        )
        with pytest.raises(RuntimeError, match="failed"):
            Runner().run_cells([bad])

    def test_progress_callback_sees_every_cell(self, tmp_path):
        events = []
        cells = tiny_cells()
        runner = Runner(
            cache=ResultCache(tmp_path),
            progress=lambda done, total, cell, status, s: events.append(
                (done, total, status)
            ),
        )
        runner.run_cells(cells)
        runner.run_cells(cells)
        assert events == [
            (1, 2, "run"), (2, 2, "run"), (1, 2, "cached"), (2, 2, "cached")
        ]

    def test_obs_counters_published(self):
        obs = Observability.enabled()
        runner = Runner(obs=obs)
        runner.run_cells(tiny_cells())
        family = obs.registry.snapshot()["repro_runner_cells_total"]
        run_series = [
            s for s in family["series"] if s["labels"] == {"status": "run"}
        ]
        assert run_series and run_series[0]["value"] == 2
        seconds = obs.registry.snapshot()["repro_runner_cell_seconds"]
        assert seconds["series"][0]["count"] == 2

    def test_default_runner_honours_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_PARALLEL", "3")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        runner = Runner.default()
        assert runner.parallel == 3
        assert runner.cache is not None and runner.cache.path == tmp_path

    def test_default_runner_rejects_negative_parallel(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL", "-2")
        with pytest.raises(ValueError, match="REPRO_PARALLEL"):
            Runner.default()


class TestResourceAccounting:
    def test_executed_cells_account_resources(self):
        runner = Runner()
        cells = tiny_cells()
        runner.run_cells(cells)
        stats = runner.stats
        assert stats.cpu_seconds > 0
        assert stats.peak_rss_kb > 0
        assert stats.refs > 0
        assert stats.refs_per_s > 0
        assert len(stats.cells) == len(cells)
        for record in stats.cells:
            assert record["status"] == "run"
            assert record["wall_s"] > 0
            assert record["cpu_s"] > 0
            assert record["refs"] > 0

    def test_cache_replay_reports_original_wall_time(self, tmp_path):
        # regression: cache hits used to report 0.0s, hiding what a warm
        # run actually saved
        cells = tiny_cells()
        cold = Runner(cache=ResultCache(tmp_path))
        cold.run_cells(cells)
        cold_wall = cold.stats.seconds
        warm = Runner(cache=ResultCache(tmp_path))
        warm.run_cells(cells)
        assert warm.stats.cached == len(cells)
        assert warm.stats.seconds == 0.0
        assert warm.stats.cached_wall_s == pytest.approx(cold_wall)
        for record in warm.stats.cells:
            assert record["status"] == "cached"
            assert record["cached_wall_s"] > 0

    def test_stats_to_dict_is_the_stats_json_payload(self, tmp_path):
        import json

        cells = tiny_cells()
        runner = Runner(cache=ResultCache(tmp_path))
        runner.run_cells(cells)
        payload = runner.stats.to_dict()
        assert json.loads(json.dumps(payload)) == payload
        for key in ("run", "cached", "failed", "total", "hit_rate",
                    "compute_seconds", "cpu_seconds", "cached_wall_s",
                    "peak_rss_kb", "refs", "refs_per_s", "cells"):
            assert key in payload
        assert payload["run"] == len(cells)

    def test_parallel_workers_measure_in_their_own_process(self, tmp_path):
        cells = tiny_cells(BASELINE_SPEC) + tiny_cells(LLCSpec.reuse(4, 1))
        runner = Runner(parallel=2)
        runner.run_cells(cells)
        # every cell carries worker-side measurements even under the pool
        assert all(r["cpu_s"] > 0 for r in runner.stats.cells)
        assert runner.stats.peak_rss_kb > 0

