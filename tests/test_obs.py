"""Tests for :mod:`repro.obs`: metrics registry, event tracing, logging,
the ``repro top`` renderer, simulator/service instrumentation and the
observability CLI."""

import asyncio
import io
import json
import logging

import pytest

from repro.hierarchy.config import LLCSpec, SystemConfig
from repro.hierarchy.system import System
from repro.obs import (
    COHERENCE_TRANSITION,
    DATA_REPL,
    LATENCY_BOUNDS_S,
    NULL_TRACER,
    REUSE_DETECTED,
    TAG_ONLY_ALLOC,
    MetricsRegistry,
    Observability,
    Tracer,
    diff_snapshots,
    format_prometheus,
    log_bounds,
    merge_registry_snapshots,
    validate_chrome_trace,
)
from repro.obs import cli as obs_cli
from repro.obs import logging as obs_logging
from repro.obs.registry import NULL_METRIC
from repro.obs.top import render_dashboard
from repro.service.server import CacheServer
from repro.service.sharding import ShardedStore
from repro.service.client import CacheClient
from repro.workloads.mixes import EXAMPLE_MIX, build_workload


def run(coro):
    """Drive one async test body (no pytest-asyncio in the toolchain)."""
    return asyncio.run(asyncio.wait_for(coro, 60))


# ---------------------------------------------------------------------------
# registry: metric primitives
# ---------------------------------------------------------------------------


class TestLogBounds:
    def test_geometric_span(self):
        bounds = log_bounds(1e-6, 1.0)
        assert bounds[0] == 1e-6
        assert bounds[-1] >= 1.0
        ratios = [b / a for a, b in zip(bounds, bounds[1:])]
        assert all(r == pytest.approx(2.0) for r in ratios)

    def test_default_latency_bounds_cover_16s(self):
        assert LATENCY_BOUNDS_S[0] == 1e-6
        assert LATENCY_BOUNDS_S[-1] >= 16.0

    def test_invalid_ranges_rejected(self):
        with pytest.raises(ValueError):
            log_bounds(0.0, 1.0)
        with pytest.raises(ValueError):
            log_bounds(1.0, 0.5)
        with pytest.raises(ValueError):
            log_bounds(1e-6, 1.0, growth=1.0)


class TestCounterGauge:
    def test_counter_accumulates_and_rejects_decrease(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_test_total", help="h")
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_counter_identity_is_name_plus_labels(self):
        reg = MetricsRegistry()
        a = reg.counter("repro_test_total", shard=0)
        b = reg.counter("repro_test_total", shard=1)
        again = reg.counter("repro_test_total", shard=0)
        assert a is again and a is not b

    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("repro_test_total")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("repro_test_total")

    def test_gauge_set_inc_dec_and_callback(self):
        reg = MetricsRegistry()
        g = reg.gauge("repro_test_bytes")
        g.set(10)
        g.inc(5)
        g.dec(3)
        assert g.sample() == {"value": 12}
        cb = reg.gauge_callback("repro_test_conns", lambda: 7)
        assert cb.sample() == {"value": 7}


class TestHistogram:
    def test_observations_land_in_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_test_seconds", bounds=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 3.0, 100.0):
            h.observe(v)
        assert h.count == 4
        assert h.sum == pytest.approx(105.0)
        assert h.bucket_counts == [1, 1, 1, 1]  # last is +Inf overflow

    def test_quantile_interpolates_within_bucket(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_test_seconds", bounds=(1.0, 2.0, 4.0))
        for _ in range(100):
            h.observe(1.5)
        q = h.quantile(0.5)
        assert 1.0 <= q <= 2.0
        assert h.quantile(0.0) == pytest.approx(1.0, abs=1.0)

    def test_empty_histogram_quantile_is_zero(self):
        h = MetricsRegistry().histogram("repro_test_seconds")
        assert h.quantile(0.99) == 0.0
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_non_increasing_bounds_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="strictly increasing"):
            reg.histogram("repro_test_seconds", bounds=(1.0, 1.0, 2.0))

    def test_cumulative_export_with_inf(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_test_seconds", bounds=(1.0, 2.0))
        for v in (0.5, 0.6, 1.5, 9.0):
            h.observe(v)
        sample = h.sample()
        assert sample["buckets"] == [[1.0, 2], [2.0, 3], ["+Inf", 4]]


class TestDisabledRegistry:
    def test_hands_out_shared_null_metric(self):
        reg = MetricsRegistry(enabled=False)
        assert reg.counter("x") is NULL_METRIC
        assert reg.gauge("x") is NULL_METRIC
        assert reg.histogram("x") is NULL_METRIC
        assert reg.gauge_callback("x", lambda: 1) is NULL_METRIC

    def test_null_metric_absorbs_every_call(self):
        NULL_METRIC.inc()
        NULL_METRIC.dec()
        NULL_METRIC.set(3)
        NULL_METRIC.set_total(9)
        NULL_METRIC.observe(0.1)
        assert NULL_METRIC.quantile(0.5) == 0.0

    def test_snapshot_empty_and_collectors_ignored(self):
        reg = MetricsRegistry(enabled=False)
        calls = []
        reg.register_collector(lambda r: calls.append(1))
        assert reg.snapshot() == {}
        assert reg.to_prometheus() == ""
        assert calls == []

    def test_post_hoc_disable_works(self):
        # the serve CLI builds an enabled bundle then may flip metrics off
        reg = MetricsRegistry()
        reg.enabled = False
        assert reg.counter("x") is NULL_METRIC
        assert reg.snapshot() == {}


class TestCollectors:
    def test_collector_runs_at_snapshot_time(self):
        reg = MetricsRegistry()
        source = {"hits": 0}

        def mirror(r):
            r.counter("repro_test_hits").set_total(source["hits"])

        reg.register_collector(mirror)
        source["hits"] = 42
        snap = reg.snapshot()
        assert snap["repro_test_hits"]["series"][0]["value"] == 42
        source["hits"] = 50
        assert reg.snapshot()["repro_test_hits"]["series"][0]["value"] == 50

    def test_double_registration_is_noop(self):
        reg = MetricsRegistry()
        calls = []

        def collector(r):
            calls.append(1)

        reg.register_collector(collector)
        reg.register_collector(collector)
        reg.collect()
        assert calls == [1]


# ---------------------------------------------------------------------------
# registry: exporters and snapshot algebra
# ---------------------------------------------------------------------------


def _sample_registry():
    reg = MetricsRegistry()
    reg.counter("repro_req_total", help="requests", cmd="GET").inc(10)
    reg.counter("repro_req_total", cmd="SET").inc(4)
    reg.gauge("repro_conns", help="open connections").set(3)
    h = reg.histogram("repro_lat_seconds", bounds=(0.001, 0.01))
    h.observe(0.0005)
    h.observe(0.005)
    return reg


class TestPrometheusExport:
    def test_text_format_shape(self):
        text = _sample_registry().to_prometheus()
        assert "# HELP repro_req_total requests" in text
        assert "# TYPE repro_req_total counter" in text
        assert 'repro_req_total{cmd="GET"} 10' in text
        assert 'repro_req_total{cmd="SET"} 4' in text
        assert "# TYPE repro_conns gauge" in text
        assert "repro_conns 3" in text
        assert 'repro_lat_seconds_bucket{le="0.001"} 1' in text
        assert 'repro_lat_seconds_bucket{le="+Inf"} 2' in text
        assert "repro_lat_seconds_count 2" in text
        assert text.endswith("\n")

    def test_label_escaping(self):
        reg = MetricsRegistry()
        reg.counter("repro_x", path='a"b\\c\nd').inc()
        text = reg.to_prometheus()
        assert r'path="a\"b\\c\nd"' in text

    def test_empty_registry_exports_empty_string(self):
        assert MetricsRegistry().to_prometheus() == ""

    def test_format_prometheus_matches_method(self):
        reg = _sample_registry()
        assert format_prometheus(reg.snapshot()) == reg.to_prometheus()


class TestSnapshotAlgebra:
    def test_to_json_roundtrips(self):
        snap = json.loads(_sample_registry().to_json())
        assert snap["repro_req_total"]["type"] == "counter"
        assert len(snap["repro_req_total"]["series"]) == 2

    def test_diff_counters_and_keep_gauges(self):
        reg = _sample_registry()
        old = reg.snapshot()
        reg.counter("repro_req_total", cmd="GET").inc(5)
        reg.gauge("repro_conns").set(9)
        delta = diff_snapshots(reg.snapshot(), old)
        by_cmd = {
            s["labels"]["cmd"]: s["value"]
            for s in delta["repro_req_total"]["series"]
        }
        assert by_cmd == {"GET": 5, "SET": 0}
        assert delta["repro_conns"]["series"][0]["value"] == 9

    def test_diff_histograms_and_new_series(self):
        reg = _sample_registry()
        old = reg.snapshot()
        reg.histogram("repro_lat_seconds", bounds=(0.001, 0.01)).observe(0.0001)
        reg.counter("repro_req_total", cmd="DEL").inc(2)
        delta = diff_snapshots(reg.snapshot(), old)
        hist = delta["repro_lat_seconds"]["series"][0]
        assert hist["count"] == 1
        assert hist["buckets"][0] == [0.001, 1]
        new_series = [
            s for s in delta["repro_req_total"]["series"]
            if s["labels"]["cmd"] == "DEL"
        ]
        assert new_series[0]["value"] == 2  # diffed against zero

    def test_merge_sums_matching_series(self):
        a = _sample_registry().snapshot()
        b = _sample_registry().snapshot()
        merged = merge_registry_snapshots([a, b])
        by_cmd = {
            s["labels"]["cmd"]: s["value"]
            for s in merged["repro_req_total"]["series"]
        }
        assert by_cmd == {"GET": 20, "SET": 8}
        hist = merged["repro_lat_seconds"]["series"][0]
        assert hist["count"] == 4
        assert hist["buckets"][-1] == ["+Inf", 4]

    def test_merge_does_not_alias_inputs(self):
        a = _sample_registry().snapshot()
        merged = merge_registry_snapshots([a])
        merged["repro_req_total"]["series"][0]["value"] = 999
        assert a["repro_req_total"]["series"][0]["value"] != 999


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


class TestTracer:
    def test_instant_and_span_events(self):
        tr = Tracer(capacity=16, time_unit="s")
        tr.emit(TAG_ONLY_ALLOC, ts=1.0, pid=2, tid=3, args={"addr": 64})
        with tr.span("GET", pid=1, tid=9):
            pass
        instant, span = tr.events()
        assert instant.name == TAG_ONLY_ALLOC and instant.dur is None
        assert span.name == "GET" and span.dur >= 0.0

    def test_ring_wraps_oldest_first(self):
        tr = Tracer(capacity=4)
        for i in range(10):
            tr.emit("e", ts=float(i))
        assert tr.recorded == 10
        assert tr.dropped == 6
        assert [e.ts for e in tr.events()] == [6.0, 7.0, 8.0, 9.0]

    def test_sampling_records_one_in_n(self):
        tr = Tracer(capacity=100, sample_every=4)
        for i in range(20):
            tr.emit("e", ts=float(i))
        assert tr.recorded == 5

    def test_clear_resets_everything(self):
        tr = Tracer(capacity=4)
        for i in range(10):
            tr.emit("e", ts=float(i))
        tr.clear()
        assert tr.events() == [] and tr.recorded == 0 and tr.dropped == 0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)
        with pytest.raises(ValueError):
            Tracer(sample_every=0)
        with pytest.raises(ValueError):
            Tracer(time_unit="ns")

    def test_chrome_export_validates_and_scales(self):
        cycles = Tracer(capacity=8, time_unit="cycles")
        cycles.emit("e", ts=100.0)
        seconds = Tracer(capacity=8, time_unit="s")
        seconds.emit("e", ts=0.5, dur=0.25)
        cy_doc, s_doc = cycles.to_chrome(), seconds.to_chrome()
        assert validate_chrome_trace(cy_doc) == []
        assert validate_chrome_trace(s_doc) == []
        assert cy_doc["traceEvents"][0]["ts"] == 100.0  # cycles 1:1 as µs
        assert s_doc["traceEvents"][0]["ts"] == pytest.approx(0.5e6)
        assert s_doc["traceEvents"][0]["dur"] == pytest.approx(0.25e6)
        assert cy_doc["traceEvents"][0]["ph"] == "i"
        assert s_doc["traceEvents"][0]["ph"] == "X"

    def test_jsonl_export(self):
        tr = Tracer(capacity=8)
        tr.emit("a", ts=1.0)
        tr.emit("b", ts=2.0)
        lines = tr.to_jsonl().splitlines()
        assert [json.loads(line)["name"] for line in lines] == ["a", "b"]
        assert Tracer(capacity=8).to_jsonl() == ""

    def test_write_both_formats(self, tmp_path):
        tr = Tracer(capacity=8)
        tr.emit("e", ts=1.0)
        chrome = tmp_path / "t.json"
        jsonl = tmp_path / "t.jsonl"
        tr.write(chrome, fmt="chrome-trace")
        tr.write(jsonl, fmt="jsonl")
        doc = json.loads(chrome.read_text())
        assert validate_chrome_trace(doc) == []
        assert doc["otherData"]["recorded"] == 1
        assert json.loads(jsonl.read_text())["name"] == "e"
        with pytest.raises(ValueError):
            tr.write(tmp_path / "t.x", fmt="protobuf")

    def test_null_tracer_is_inert(self):
        assert NULL_TRACER.enabled is False
        NULL_TRACER.emit("e", ts=1.0)
        with NULL_TRACER.span("GET"):
            pass
        assert NULL_TRACER.events() == []


class TestChromeTraceValidation:
    def test_accepts_object_and_bare_list(self):
        event = {"ph": "i", "ts": 1.0, "pid": 0, "tid": 0, "s": "t"}
        assert validate_chrome_trace({"traceEvents": [event]}) == []
        assert validate_chrome_trace([event]) == []

    def test_rejects_wrong_shapes(self):
        assert validate_chrome_trace("nope")
        assert validate_chrome_trace({"events": []})
        assert validate_chrome_trace([42])

    def test_flags_missing_keys_and_bad_phase(self):
        problems = validate_chrome_trace([{"ph": "?", "ts": "x"}])
        text = "\n".join(problems)
        assert "missing required key 'pid'" in text
        assert "invalid phase" in text
        assert "ts must be numeric" in text

    def test_x_event_needs_dur(self):
        problems = validate_chrome_trace(
            [{"ph": "X", "ts": 1.0, "pid": 0, "tid": 0}]
        )
        assert any("needs a numeric dur" in p for p in problems)


# ---------------------------------------------------------------------------
# the Observability bundle and logging
# ---------------------------------------------------------------------------


class TestObservabilityBundle:
    def test_disabled_bundle_is_inert(self):
        obs = Observability.disabled()
        assert obs.registry.enabled is False
        assert obs.tracer is NULL_TRACER
        assert obs.active is False

    def test_enabled_metrics_only(self):
        obs = Observability.enabled()
        assert obs.registry.enabled and obs.tracer is NULL_TRACER
        assert obs.active

    def test_enabled_with_tracing(self):
        obs = Observability.enabled(
            tracing=True, trace_capacity=32, sample_every=2, time_unit="s"
        )
        assert obs.tracer.capacity == 32
        assert obs.tracer.sample_every == 2
        assert obs.tracer.time_unit == "s"


class TestLogging:
    def test_configure_sets_level_and_is_idempotent(self):
        stream = io.StringIO()
        root = obs_logging.configure(level="INFO", stream=stream, force=True)
        assert root.level == logging.INFO
        again = obs_logging.configure(level="DEBUG")
        assert again is root and root.level == logging.DEBUG
        assert len(root.handlers) == 1

    def test_env_var_default(self, monkeypatch):
        monkeypatch.setenv(obs_logging.LEVEL_ENV_VAR, "ERROR")
        root = obs_logging.configure(stream=io.StringIO(), force=True)
        assert root.level == logging.ERROR

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError, match="unknown log level"):
            obs_logging.configure(level="LOUD")

    def test_get_logger_prefixes_repro(self):
        assert obs_logging.get_logger("service.server").name == (
            "repro.service.server"
        )
        assert obs_logging.get_logger("repro.cache").name == "repro.cache"

    def test_log_lines_reach_the_stream(self):
        stream = io.StringIO()
        obs_logging.configure(level="INFO", stream=stream, force=True)
        obs_logging.get_logger("test").info("hello %d", 7)
        assert "repro.test: hello 7" in stream.getvalue()
        # restore the default warning level for other tests
        obs_logging.configure(level="WARNING")


# ---------------------------------------------------------------------------
# simulator instrumentation
# ---------------------------------------------------------------------------


def _traced_run(obs, n_refs=2000):
    workload = build_workload(EXAMPLE_MIX, n_refs=n_refs, seed=7, scale=32)
    config = SystemConfig(
        llc=LLCSpec.reuse(8, 1), num_cores=workload.num_cores, scale=32, seed=7
    )
    return System(config, workload, obs=obs).run()


class TestSimulatorInstrumentation:
    def test_reuse_cache_emits_the_paper_events(self):
        obs = Observability.enabled(tracing=True, trace_capacity=1 << 16)
        _traced_run(obs)
        names = {e.name for e in obs.tracer.events()}
        assert TAG_ONLY_ALLOC in names
        assert REUSE_DETECTED in names
        assert DATA_REPL in names
        assert validate_chrome_trace(obs.tracer.to_chrome()) == []

    def test_events_carry_bank_lane_and_cycle_timestamps(self):
        obs = Observability.enabled(tracing=True, trace_capacity=1 << 16)
        _traced_run(obs)
        events = obs.tracer.events()
        assert {e.pid for e in events} <= set(range(4))  # 4 LLC banks
        assert all(e.ts >= 0 for e in events)
        alloc = next(e for e in events if e.name == TAG_ONLY_ALLOC)
        assert "addr" in alloc.args

    def test_registry_collector_publishes_sim_gauges(self):
        obs = Observability.enabled()
        _traced_run(obs)
        snap = obs.registry.snapshot()
        sim_keys = [k for k in snap if k.startswith("repro_sim_llc_")]
        assert sim_keys, f"no simulator gauges in {sorted(snap)}"
        assert any(k.startswith("repro_sim_dram_") for k in snap)

    def test_observability_does_not_change_results(self):
        baseline = _traced_run(None)
        traced = _traced_run(
            Observability.enabled(tracing=True, trace_capacity=1 << 16)
        )
        disabled = _traced_run(Observability.disabled())
        assert traced.performance == baseline.performance
        assert disabled.performance == baseline.performance
        assert traced.llc_mpki == baseline.llc_mpki


class TestCoherenceTracing:
    def test_set_tracer_captures_transitions(self):
        from repro.coherence import protocol
        from repro.coherence.states import Event, State

        tr = Tracer(capacity=16)
        protocol.set_tracer(tr)
        try:
            protocol.apply(State.I, Event.GETS, ts=5.0)
        finally:
            protocol.set_tracer(None)
        (event,) = tr.events()
        assert event.name == COHERENCE_TRANSITION
        assert event.ts == 5.0
        assert event.args == {"from": "I", "event": "GETS", "to": "TO"}
        # detached: further transitions are not recorded
        protocol.apply(State.I, Event.GETS)
        assert tr.recorded == 1


# ---------------------------------------------------------------------------
# the top renderer
# ---------------------------------------------------------------------------


def _stats_snapshot(gets=100, hit_rate=0.5):
    shard = {
        "gets": gets, "hit_rate": hit_rate, "p50_s": 0.001, "p99_s": 0.002,
        "latency_samples": 10, "tag_only_sets": 3, "data_evictions": 1,
        "tag_evictions": 0, "reuse_admissions": 5,
    }
    return {
        "num_shards": 2,
        "admission": "reuse",
        "stored_entries": 7,
        "data_capacity": 64,
        "shards": [dict(shard), dict(shard)],
        "total": {
            "gets": 2 * gets, "hit_rate": hit_rate, "p50_s": 0.001,
            "p99_s": 0.002, "latency_samples": 20, "tag_only_sets": 6,
            "data_evictions": 2, "tag_evictions": 0, "bytes_stored": 2048,
            "reuse_admissions": 10,
        },
    }


class TestTopRenderer:
    def test_single_frame_lifetime_totals(self):
        frame = render_dashboard(_stats_snapshot())
        assert "repro top" in frame
        assert "shards 2" in frame
        assert "2.0KiB" in frame
        assert "hit rate by shard" in frame
        assert "req/s" in frame  # header column

    def test_rates_from_consecutive_frames(self):
        old = _stats_snapshot(gets=100)
        new = _stats_snapshot(gets=200)
        frame = render_dashboard(new, old, interval=1.0)
        assert "(refresh 1s)" in frame
        # total gets went 200 -> 400 over 1s; admissions were flat
        assert "~200 req/s" in frame

    def test_obs_footer_renders_gauges(self):
        snap = _stats_snapshot()
        snap["obs"] = {
            "repro_service_eventloop_lag_seconds": {
                "type": "gauge", "help": "", "series": [{"labels": {}, "value": 0.004}],
            },
            "repro_service_connections": {
                "type": "gauge", "help": "", "series": [{"labels": {}, "value": 3}],
            },
        }
        frame = render_dashboard(snap)
        assert "connections 3" in frame
        assert "event-loop lag 4.00 ms" in frame

    def test_empty_snapshot_does_not_crash(self):
        assert "repro top" in render_dashboard({})

    def test_empty_obs_block_still_renders_footer(self):
        # regression: a freshly started server sends an obs block with no
        # histogram samples yet; the panel must show zeros, not vanish
        snap = _stats_snapshot()
        snap["obs"] = {}
        frame = render_dashboard(snap)
        assert "connections 0" in frame
        assert "event-loop lag 0.00 ms" in frame
        assert "requests 0" in frame
        assert "~p99 0.000 ms" in frame

    def test_request_latency_summary_from_histogram(self):
        snap = _stats_snapshot()
        snap["obs"] = {
            "repro_service_request_latency_seconds": {
                "type": "histogram", "help": "", "series": [
                    {"labels": {"cmd": "GET"}, "count": 90, "sum": 0.09,
                     "buckets": [[0.001, 90], ["+Inf", 90]]},
                    {"labels": {"cmd": "SET"}, "count": 10, "sum": 0.02,
                     "buckets": [[0.001, 0], [0.004, 10], ["+Inf", 10]]},
                ],
            },
        }
        frame = render_dashboard(snap)
        assert "requests 100" in frame
        # mean = 0.11s / 100 = 1.1 ms; p99 falls in the SET 4ms bucket
        assert "mean 1.100 ms" in frame
        assert "~p99 4.000 ms" in frame

    def test_busy_seconds_column(self):
        snap = _stats_snapshot()
        for i, shard in enumerate(snap["shards"]):
            shard["busy_s"] = 1.5 * (i + 1)
        snap["total"]["busy_s"] = 4.5
        frame = render_dashboard(snap)
        assert "busy s" in frame
        assert "1.50" in frame and "4.50" in frame

    def test_process_block_renders(self):
        snap = _stats_snapshot()
        snap["process"] = {"pid": 4242, "cpu_s": 12.34, "peak_rss_kb": 65536}
        frame = render_dashboard(snap)
        assert "process 4242" in frame
        assert "cpu 12.3s" in frame
        assert "peak rss 64.0MiB" in frame


# ---------------------------------------------------------------------------
# service wiring: STATS obs block, METRICS verb, request spans
# ---------------------------------------------------------------------------


async def _obs_server(**kwargs):
    obs = kwargs.pop("obs")
    store = ShardedStore(
        num_shards=kwargs.pop("num_shards", 2),
        data_capacity=kwargs.pop("data_capacity", 64),
        obs=obs,
    )
    server = CacheServer(store, port=0, obs=obs, **kwargs)
    await server.start()
    return server


class TestServiceObservability:
    def test_stats_carries_registry_snapshot(self):
        async def body():
            obs = Observability.enabled()
            server = await _obs_server(obs=obs)
            client = CacheClient(port=server.port)
            try:
                await client.set("k", b"v")
                await client.get("k")
                stats = await client.stats()
                assert "obs" in stats
                assert "repro_service_requests_total" in stats["obs"]
                assert "repro_service_connections" in stats["obs"]
            finally:
                await client.close()
                await server.stop()

        run(body())

    def test_metrics_verb_serves_prometheus_text(self):
        async def body():
            obs = Observability.enabled()
            server = await _obs_server(obs=obs)
            client = CacheClient(port=server.port)
            try:
                await client.set("k", b"v")
                await client.get("k")
                text = await client.metrics()
                assert "# TYPE repro_service_requests_total counter" in text
                assert 'cmd="GET"' in text
                assert "repro_service_shard_hits" in text
                assert "repro_service_request_latency_seconds_bucket" in text
            finally:
                await client.close()
                await server.stop()

        run(body())

    def test_disabled_obs_keeps_protocol_lean(self):
        async def body():
            server = await _obs_server(obs=None)
            client = CacheClient(port=server.port)
            try:
                stats = await client.stats()
                assert "obs" not in stats
                assert await client.metrics() == ""
            finally:
                await client.close()
                await server.stop()

        run(body())

    def test_request_spans_use_shard_and_connection_lanes(self):
        async def body():
            obs = Observability.enabled(
                tracing=True, trace_capacity=256, time_unit="s"
            )
            server = await _obs_server(obs=obs)
            client = CacheClient(port=server.port)
            try:
                await client.set("alpha", b"v")
                await client.get("alpha")
                await client.get("missing")
            finally:
                await client.close()
                await server.stop()
            spans = [e for e in obs.tracer.events() if e.cat == "request"]
            assert {s.name for s in spans} >= {"GET", "SET"}
            assert all(s.dur is not None and s.dur >= 0 for s in spans)
            assert validate_chrome_trace(obs.tracer.to_chrome()) == []

        run(body())


# ---------------------------------------------------------------------------
# the obs CLI
# ---------------------------------------------------------------------------


class TestObsCli:
    def test_export_writes_valid_chrome_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.prom"
        rc = obs_cli.main([
            "obs", "export", "--out", str(out), "--refs", "800",
            "--metrics-out", str(metrics),
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert validate_chrome_trace(doc) == []
        assert doc["traceEvents"], "export recorded no events"
        assert "repro_sim_llc_" in metrics.read_text()
        assert "event(s) recorded" in capsys.readouterr().out

    def test_export_jsonl_format(self, tmp_path):
        out = tmp_path / "trace.jsonl"
        rc = obs_cli.main([
            "obs", "export", "--format", "jsonl", "--out", str(out),
            "--refs", "800",
        ])
        assert rc == 0
        first = json.loads(out.read_text().splitlines()[0])
        assert {"name", "ph", "ts", "pid"} <= set(first)

    def test_validate_accepts_good_and_rejects_bad(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        good.write_text(json.dumps(
            {"traceEvents": [
                {"ph": "i", "ts": 1.0, "pid": 0, "tid": 0, "s": "t"}
            ]}
        ))
        assert obs_cli.main(["obs", "validate", str(good)]) == 0
        assert "OK (1 event(s))" in capsys.readouterr().out

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"traceEvents": [{"ph": "?"}]}))
        assert obs_cli.main(["obs", "validate", str(bad)]) == 1

        assert obs_cli.main(["obs", "validate", str(tmp_path / "nope.json")]) == 1

    def test_top_refuses_unreachable_server(self, capsys):
        rc = obs_cli.main([
            "top", "--port", "1", "--iterations", "1", "--interval", "0.01",
        ])
        assert rc == 1
        assert "cannot reach" in capsys.readouterr().err

    def test_top_renders_frames_against_live_server(self, capsys):
        async def body():
            server = await _obs_server(obs=Observability.enabled())
            client = CacheClient(port=server.port)
            try:
                await client.set("k", b"v")
                await client.get("k")
            finally:
                await client.close()
            try:
                args = obs_cli.build_obs_parser().parse_args([
                    "top", "--port", str(server.port),
                    "--interval", "0.01", "--iterations", "2", "--no-clear",
                ])
                rc = await obs_cli._top_loop(args)
            finally:
                await server.stop()
            return rc

        assert run(body()) == 0
        out = capsys.readouterr().out
        assert out.count("repro top") == 2
        assert "req/s" in out
