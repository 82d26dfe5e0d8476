"""Tests for the continuous-telemetry stack: time-series retention
(:mod:`repro.obs.timeseries`), the alert engine (:mod:`repro.obs.alerts`),
the observability HTTP endpoint (:mod:`repro.obs.http`), the flight
recorder (:mod:`repro.obs.flight`), the :class:`ServiceTelemetry`
composition, and the telemetry additions to ``repro top`` rendering and
the server (uptime, connection counts: v2 and dropped non-v2)."""

import asyncio
import json
import os

import pytest

from repro.obs import Observability
from repro.obs.alerts import AlertEngine, AlertRule, builtin_rules
from repro.obs.flight import (
    FLIGHT_FORMAT,
    FlightRecorder,
    load_flight,
    render_flight,
)
from repro.obs.http import ObsHTTPServer
from repro.obs.registry import MetricsRegistry, SLOTracker
from repro.obs.timeseries import (
    DEFAULT_TIERS,
    TelemetrySampler,
    Tier,
    TimeSeriesStore,
)
from repro.obs.top import render_cluster_dashboard, render_dashboard
from repro.obs.tracing import Tracer
from repro.service import CacheClient, CacheServer, ShardedStore
from repro.service.telemetry import ServiceTelemetry


def run(coro):
    """Drive one async test body (no pytest-asyncio in the toolchain)."""
    return asyncio.run(asyncio.wait_for(coro, 60))


def make_store(tiers=((1.0, 5), (10.0, 6))):
    """A store on a logical clock starting at 0 (advance via now=)."""
    return TimeSeriesStore(tiers=tiers, clock=lambda: 0.0)


# ---------------------------------------------------------------------------
# time-series store: delta encoding, retention, tiers
# ---------------------------------------------------------------------------


class TestTimeSeriesStore:
    def test_roundtrip_points(self):
        ts = make_store()
        for t, v in [(0.0, 10), (1.0, 12), (2.0, 11)]:
            ts.record("m", {}, v, now=t)
        assert ts.query("m", {}) == [[0.0, 10], [1.0, 12], [2.0, 11]]

    def test_retention_is_a_hard_cap(self):
        ts = make_store(tiers=((1.0, 300), (10.0, 360)))
        for t in range(400):
            ts.record("m", {}, t * 2, now=float(t))
        pts = ts.query("m", {})
        assert len(pts) == 300
        # trimming folded the dropped deltas into the base point, so the
        # oldest retained point is exact, not drifted
        assert pts[0] == [100.0, 200]
        assert pts[-1] == [399.0, 798]

    def test_coarse_tier_keeps_last_per_bucket(self):
        ts = make_store(tiers=((1.0, 300), (10.0, 360)))
        for t in range(25):
            ts.record("m", {}, t, now=float(t))
        coarse = ts.query("m", {}, tier=1)
        # one point per 10s bucket, each the freshest value the bucket saw
        assert [v for _, v in coarse] == [9, 19, 24]

    def test_since_filters_old_points(self):
        ts = make_store()
        for t in range(5):
            ts.record("m", {}, t, now=float(t))
        assert ts.query("m", {}, since=3.0) == [[3.0, 3], [4.0, 4]]

    def test_query_without_labels_sums_series(self):
        ts = make_store()
        ts.record("hits", {"shard": "0"}, 3, now=1.0)
        ts.record("hits", {"shard": "1"}, 4, now=1.0)
        assert ts.query("hits") == [[1.0, 7]]
        assert ts.query("hits", {"shard": "1"}) == [[1.0, 4]]
        assert ts.latest("hits") == 7

    def test_series_listing_handles_shared_names(self):
        # regression: sorted() over (name, labels-dict) pairs raised
        # TypeError when two series shared a metric name
        ts = make_store()
        ts.record("hits", {"shard": "1"}, 1, now=0.0)
        ts.record("hits", {"shard": "0"}, 1, now=0.0)
        assert ts.series() == [
            ("hits", {"shard": "0"}),
            ("hits", {"shard": "1"}),
        ]

    def test_window_picks_finest_covering_tier(self):
        ts = make_store(tiers=((1.0, 5), (10.0, 360)))
        for t in range(40):
            ts.record("m", {}, t, now=float(t))
        # 4s window fits the 5-point fine tier; 60s needs the coarse one
        fine = ts.window("m", {}, duration=4.0, now=39.0)
        assert [t for t, _ in fine] == [35.0, 36.0, 37.0, 38.0, 39.0]
        coarse = ts.window("m", {}, duration=60.0, now=39.0)
        assert all(t >= 39.0 - 60.0 for t, _ in coarse)
        assert coarse[-1] == [39.0, 39]

    def test_sample_reads_registry_histograms_as_count_and_sum(self):
        registry = MetricsRegistry(enabled=True)
        registry.counter("c", help="x").inc(5)
        registry.gauge("g", help="x").set(2.5)
        hist = registry.histogram("h", help="x", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        ts = TimeSeriesStore(registry=registry, clock=lambda: 0.0)
        ts.sample(now=1.0)
        assert ts.query("c") == [[1.0, 5]]
        assert ts.query("g") == [[1.0, 2.5]]
        assert ts.query("h_count") == [[1.0, 2]]
        assert ts.query("h_sum") == [[1.0, pytest.approx(0.55)]]

    def test_disabled_registry_still_counts_samples(self):
        ts = TimeSeriesStore(registry=None, clock=lambda: 0.0)
        ts.sample(now=1.0)
        ts.sample(now=2.0)
        assert ts.samples_taken == 2
        assert ts.series() == []

    def test_to_dict_bounds_to_window(self):
        ts = make_store()
        for t in range(5):
            ts.record("m", {"s": "0"}, t, now=float(t))
        dump = ts.to_dict(window_s=2.0, now=4.0)
        assert dump == {"m": [{"labels": {"s": "0"},
                               "points": [[2.0, 2], [3.0, 3], [4.0, 4]]}]}

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeSeriesStore(tiers=())
        with pytest.raises(ValueError):
            TelemetrySampler(make_store(), interval=0)

    def test_default_tiers_cover_five_minutes_and_an_hour(self):
        assert DEFAULT_TIERS[0] == Tier(1.0, 300)
        spans = [t.resolution_s * t.length for t in DEFAULT_TIERS]
        assert spans[0] == 300.0 and spans[1] == 3600.0


class TestTelemetrySampler:
    def test_tick_samples_and_runs_hooks(self):
        registry = MetricsRegistry(enabled=True)
        registry.counter("c", help="x").inc()
        ts = TimeSeriesStore(registry=registry, clock=lambda: 0.0)
        sampler = TelemetrySampler(ts, interval=0.5)
        seen = []
        sampler.on_sample(seen.append)
        sampler.tick(now=7.0)
        assert seen == [7.0]
        assert ts.query("c") == [[7.0, 1]]


# ---------------------------------------------------------------------------
# alert rules and engine lifecycle
# ---------------------------------------------------------------------------


class TestAlertRule:
    def test_kinds(self):
        ts = make_store(tiers=((1.0, 60),))
        for t in range(4):
            ts.record("m", {}, 10 * t, now=float(t))
        threshold = AlertRule("a", "m", kind="threshold", op=">", threshold=5)
        delta = AlertRule("b", "m", kind="delta", op=">", threshold=5,
                          window_s=10)
        rate = AlertRule("c", "m", kind="rate", op=">", threshold=5,
                         window_s=10)
        assert threshold.value(ts, 3.0) == 30
        assert delta.value(ts, 3.0) == 30
        assert rate.value(ts, 3.0) == pytest.approx(10.0)

    def test_ratio_subtracts_metric_from_its_own_divisors(self):
        ts = make_store(tiers=((1.0, 60),))
        ts.record("hits", {}, 0, now=0.0)
        ts.record("misses", {}, 0, now=0.0)
        ts.record("hits", {}, 30, now=5.0)
        ts.record("misses", {}, 10, now=5.0)
        rule = AlertRule("hr", "hits", kind="ratio",
                         divisors=("hits", "misses"), op="<", threshold=0.2,
                         window_s=10)
        assert rule.value(ts, 5.0) == pytest.approx(30 / 40)

    def test_ratio_zero_traffic_window_is_healthy(self):
        ts = make_store(tiers=((1.0, 60),))
        ts.record("hits", {}, 5, now=0.0)
        ts.record("misses", {}, 5, now=0.0)
        ts.record("hits", {}, 5, now=5.0)
        ts.record("misses", {}, 5, now=5.0)
        rule = AlertRule("hr", "hits", kind="ratio",
                         divisors=("hits", "misses"), op="<", threshold=0.2,
                         window_s=10)
        assert rule.value(ts, 5.0) is None
        assert not rule.breaches(None)
        assert rule.recovered(None)

    def test_validation(self):
        with pytest.raises(ValueError):
            AlertRule("x", "m", kind="bogus")
        with pytest.raises(ValueError):
            AlertRule("x", "m", op="==")
        with pytest.raises(ValueError):
            AlertRule("x", "m", kind="ratio")  # no divisors
        with pytest.raises(ValueError):
            # hysteresis on the wrong side of the firing bound
            AlertRule("x", "m", op="<", threshold=0.2, resolve_threshold=0.1)
        with pytest.raises(ValueError):
            AlertRule("x", "m", op=">", threshold=1.0, resolve_threshold=2.0)


class TestAlertEngine:
    def _flood_engine(self):
        """hits flat, misses climbing: windowed hit rate collapses."""
        ts = make_store(tiers=((1.0, 120),))
        rule = AlertRule("hit_rate_drop", "hits", kind="ratio",
                         divisors=("hits", "misses"), op="<", threshold=0.2,
                         resolve_threshold=0.4, window_s=10, for_s=3)
        return ts, AlertEngine(ts, [rule])

    def test_lifecycle_pending_firing_resolved(self):
        ts, engine = self._flood_engine()
        hits, misses = 0, 0
        for t in range(30):
            if t < 10 or t >= 20:
                hits += 9
                misses += 1
            else:
                misses += 10  # scan flood: everything misses
            ts.record("hits", {}, hits, now=float(t))
            ts.record("misses", {}, misses, now=float(t))
            engine.evaluate(now=float(t))
        moves = [(e["t"], e["from"], e["to"]) for e in engine.timeline]
        assert [m[1:] for m in moves] == [
            ("ok", "pending"), ("pending", "firing"), ("firing", "resolved"),
        ]
        pending_t, firing_t, resolved_t = (m[0] for m in moves)
        assert firing_t - pending_t >= 3  # for_s held before firing
        assert resolved_t > firing_t

    def test_pending_recovers_to_ok_before_for_s(self):
        ts = make_store(tiers=((1.0, 60),))
        rule = AlertRule("lag", "m", op=">", threshold=1.0, for_s=5,
                         window_s=10)
        engine = AlertEngine(ts, [rule])
        ts.record("m", {}, 2.0, now=0.0)
        engine.evaluate(now=0.0)
        ts.record("m", {}, 0.5, now=2.0)  # blip ended before for_s
        engine.evaluate(now=2.0)
        assert [(e["from"], e["to"]) for e in engine.timeline] == [
            ("ok", "pending"), ("pending", "ok"),
        ]

    def test_for_s_zero_fires_immediately(self):
        ts = make_store(tiers=((1.0, 60),))
        engine = AlertEngine(
            ts, [AlertRule("now", "m", op=">", threshold=1.0, for_s=0)]
        )
        ts.record("m", {}, 5.0, now=1.0)
        transitions = engine.evaluate(now=1.0)
        assert [t["to"] for t in transitions] == ["firing"]
        assert engine.firing()[0]["alert"] == "now"

    def test_hysteresis_holds_between_bounds(self):
        ts = make_store(tiers=((1.0, 60),))
        rule = AlertRule("lag", "m", op=">", threshold=1.0,
                         resolve_threshold=0.5, for_s=0, window_s=10)
        engine = AlertEngine(ts, [rule])
        ts.record("m", {}, 2.0, now=0.0)
        engine.evaluate(now=0.0)
        ts.record("m", {}, 0.8, now=1.0)  # below firing, above resolve
        engine.evaluate(now=1.0)
        assert engine.states()[0]["state"] == "firing"
        ts.record("m", {}, 0.3, now=2.0)
        engine.evaluate(now=2.0)
        assert engine.states()[0]["state"] == "resolved"

    def test_timelines_are_byte_identical_across_runs(self):
        dumps = []
        for _ in range(2):
            ts, engine = self._flood_engine()
            hits, misses = 0, 0
            for t in range(30):
                flood = 10 <= t < 20
                hits += 0 if flood else 9
                misses += 10 if flood else 1
                ts.record("hits", {}, hits, now=float(t))
                ts.record("misses", {}, misses, now=float(t))
                engine.evaluate(now=float(t))
            dumps.append(json.dumps(engine.timeline, sort_keys=True))
        assert dumps[0] == dumps[1]

    def test_duplicate_rule_name_rejected(self):
        engine = AlertEngine(make_store(), [AlertRule("a", "m")])
        with pytest.raises(ValueError):
            engine.add_rule(AlertRule("a", "m"))

    def test_transition_hooks_see_events(self):
        ts = make_store(tiers=((1.0, 60),))
        engine = AlertEngine(
            ts, [AlertRule("now", "m", op=">", threshold=1.0, for_s=0)]
        )
        seen = []
        engine.on_transition(seen.append)
        ts.record("m", {}, 5.0, now=1.0)
        engine.evaluate(now=1.0)
        assert seen[0]["alert"] == "now" and seen[0]["to"] == "firing"

    def test_builtin_rules_cover_the_repo_degradations(self):
        names = {r.name for r in builtin_rules()}
        assert names == {"hit_rate_drop", "pending_inval_debt",
                         "eventloop_lag", "slo_burn"}


# ---------------------------------------------------------------------------
# SLO burn gauge: zero-request windows (regression)
# ---------------------------------------------------------------------------


class TestSLOWindowedGauge:
    def test_zero_request_window_publishes_zero(self):
        registry = MetricsRegistry(enabled=True)
        slo = SLOTracker("availability", 0.99, registry=registry)
        slo.observe(90, 100)  # 10% errors vs 1% budget: 10x burn
        assert slo.window_burn == pytest.approx(10.0)
        # identical totals again: the window saw no traffic, the gauge
        # must report healthy instead of carrying the stale ratio forward
        lifetime = slo.observe(90, 100)
        assert slo.window_burn == 0.0
        series = registry.snapshot()["repro_slo_burn_rate"]["series"]
        assert series[0]["value"] == 0.0
        # the return value is still the lifetime burn (end-of-run summary)
        assert lifetime == pytest.approx(10.0)

    def test_windowed_burn_tracks_the_delta_not_the_lifetime(self):
        slo = SLOTracker("availability", 0.99)
        slo.observe(100, 100)
        slo.observe(190, 200)  # this window: 10 bad / 100 → 10x burn
        assert slo.window_burn == pytest.approx(10.0)
        slo.observe(290, 300)  # this window: clean
        assert slo.window_burn == 0.0
        assert slo.burn_rate > 0.0  # lifetime remembers the bad window


# ---------------------------------------------------------------------------
# HTTP endpoint (pure routing + one live socket test)
# ---------------------------------------------------------------------------


class TestObsHTTPRouting:
    def _stack(self):
        registry = MetricsRegistry(enabled=True)
        registry.counter("repro_service_shard_hits", help="x", shard="0").inc(4)
        ts = TimeSeriesStore(registry=registry, clock=lambda: 10.0)
        ts.sample(now=10.0)
        engine = AlertEngine(ts, builtin_rules())
        health = {"healthy": True, "ready": True}
        http = ObsHTTPServer(registry=registry, timeseries=ts, alerts=engine,
                             health=lambda: health, varz=lambda: {"up": 1})
        return registry, ts, engine, health, http

    def test_metrics_is_byte_identical_to_the_exporter(self):
        registry, _, _, _, http = self._stack()
        status, ctype, body = http.handle_path("/metrics")
        assert status == 200
        assert ctype.startswith("text/plain")
        assert body == registry.to_prometheus().encode("utf-8")

    def test_healthz_flips_with_drain_and_back(self):
        _, _, _, health, http = self._stack()
        assert http.handle_path("/healthz")[0] == 200
        health["healthy"] = False
        health["ready"] = False
        status, _, body = http.handle_path("/healthz")
        assert status == 503
        assert json.loads(body)["healthy"] is False
        assert http.handle_path("/readyz")[0] == 503
        health["healthy"] = health["ready"] = True
        assert http.handle_path("/healthz")[0] == 200
        assert http.handle_path("/readyz")[0] == 200

    def test_varz_payload_shape(self):
        _, _, _, _, http = self._stack()
        status, _, body = http.handle_path("/varz")
        payload = json.loads(body)
        assert status == 200
        assert payload["server"] == {"up": 1}
        assert payload["timeseries"]["samples_taken"] == 1
        assert payload["timeseries"]["series"] == 1
        assert "repro_service_shard_hits" in payload["metrics"]
        assert len(payload["alerts"]) == 4

    def test_history_query_with_labels_and_window(self):
        _, ts, _, _, http = self._stack()
        status, _, body = http.handle_path(
            "/history?metric=repro_service_shard_hits&label.shard=0&window=30"
        )
        payload = json.loads(body)
        assert status == 200
        assert payload["labels"] == {"shard": "0"}
        assert payload["points"] == [[10.0, 4]]

    def test_history_errors(self):
        _, _, _, _, http = self._stack()
        status, _, body = http.handle_path("/history")
        assert status == 400
        assert "series" in json.loads(body)  # discoverable: lists names
        assert http.handle_path("/history?metric=m&window=x")[0] == 400

    def test_alertz_and_root_and_404(self):
        _, _, _, _, http = self._stack()
        status, _, body = http.handle_path("/alertz")
        assert status == 200
        assert len(json.loads(body)["rules"]) == 4
        assert "/alertz" in json.loads(http.handle_path("/")[2])["routes"]
        assert http.handle_path("/nope")[0] == 404

    def test_missing_collaborators_404_not_crash(self):
        http = ObsHTTPServer()
        assert http.handle_path("/metrics")[0] == 404
        assert http.handle_path("/history?metric=m")[0] == 404
        assert http.handle_path("/alertz")[0] == 404
        assert http.handle_path("/healthz")[0] == 200  # default healthy

    def test_respond_framing(self):
        _, _, _, _, http = self._stack()
        response = http.respond("GET /healthz HTTP/1.1")
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK")
        assert f"Content-Length: {len(body)}".encode() in head
        assert b"Connection: close" in head
        assert http.respond("HEAD /healthz HTTP/1.1").endswith(b"\r\n\r\n")
        assert http.respond("POST /healthz HTTP/1.1").startswith(
            b"HTTP/1.1 405")
        assert http.requests_served["/healthz"] == 2  # POST not counted


class TestObsHTTPLive:
    def test_serves_over_a_real_socket(self):
        async def body():
            registry = MetricsRegistry(enabled=True)
            registry.counter("c_total", help="x").inc(3)
            http = ObsHTTPServer(registry=registry, port=0)
            await http.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", http.port)
                writer.write(b"GET /metrics HTTP/1.1\r\n\r\n")
                await writer.drain()
                raw = await reader.read()
                writer.close()
                head, _, payload = raw.partition(b"\r\n\r\n")
                assert head.startswith(b"HTTP/1.1 200")
                assert payload == registry.to_prometheus().encode("utf-8")
            finally:
                await http.stop()
        run(body())


# ---------------------------------------------------------------------------
# flight recorder
# ---------------------------------------------------------------------------


def _recorder(tmp_path):
    ts = TimeSeriesStore(tiers=((1.0, 60),), clock=lambda: 30.0)
    for t in range(10):
        ts.record("repro_service_shard_hits", {"shard": "0"}, t * 5,
                  now=float(t))
    engine = AlertEngine(ts, [AlertRule("now", "repro_service_shard_hits",
                                        op=">", threshold=1.0, for_s=0)])
    engine.evaluate(now=9.0)
    tracer = Tracer(capacity=8, time_unit="s")
    for i in range(3):
        tracer.emit(f"e{i}", cat="request", ts=float(i))
    return FlightRecorder(
        out_dir=str(tmp_path), timeseries=ts, tracer=tracer, alerts=engine,
        stats_fn=lambda: {"total": {"gets": 12}}, window_s=60.0,
        clock=lambda: 30.0,
    )


class TestFlightRecorder:
    def test_bundle_collects_every_plane(self, tmp_path):
        bundle = _recorder(tmp_path).bundle(reason="test")
        assert bundle["format"] == FLIGHT_FORMAT
        assert bundle["t"] == 30.0
        assert bundle["reason"] == "test"
        hits = bundle["timeseries"]["repro_service_shard_hits"]
        assert hits[0]["labels"] == {"shard": "0"}
        assert len(hits[0]["points"]) == 10
        assert len(bundle["trace"]["events"]) == 3
        assert bundle["alerts"]["states"][0]["state"] == "firing"
        assert bundle["stats"] == {"total": {"gets": 12}}

    def test_bundle_reads_trace_nondestructively(self, tmp_path):
        recorder = _recorder(tmp_path)
        recorder.bundle()
        assert len(recorder.tracer.events()) == 3  # ring not drained

    def test_dump_load_render_roundtrip(self, tmp_path):
        recorder = _recorder(tmp_path)
        path = recorder.dump(reason="unit test!")
        assert os.path.basename(path).startswith("flight-")
        assert "unit-test-" in path  # reason sanitized into the filename
        assert recorder.dumped == [path]
        loaded = load_flight(path)
        assert loaded == recorder.bundle(reason="unit test!")
        text = render_flight(loaded)
        assert "reason=unit test!" in text
        assert "!! now" in text  # firing alert flagged
        assert "repro_service_shard_hits" in text
        assert "trace ring: 3 events" in text
        assert '"gets": 12' in text

    def test_same_second_dumps_do_not_clobber(self, tmp_path):
        recorder = _recorder(tmp_path)
        first = recorder.dump(reason="r")
        second = recorder.dump(reason="r")
        assert first != second and os.path.exists(first)
        assert os.path.exists(second)

    def test_dump_is_atomic_no_tmp_left_behind(self, tmp_path):
        recorder = _recorder(tmp_path)
        recorder.dump(reason="r")
        assert not [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]

    def test_stats_fn_failure_is_captured_not_fatal(self, tmp_path):
        def boom():
            raise RuntimeError("server mid-crash")
        recorder = FlightRecorder(out_dir=str(tmp_path), stats_fn=boom)
        bundle = recorder.bundle(reason="fatal")
        assert "RuntimeError" in bundle["stats"]["error"]

    def test_load_rejects_non_bundles(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"format": "other/9"}')
        with pytest.raises(ValueError):
            load_flight(str(path))


# ---------------------------------------------------------------------------
# ServiceTelemetry against a live server
# ---------------------------------------------------------------------------


async def _http_get(port, path):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(f"GET {path} HTTP/1.1\r\n\r\n".encode())
    await writer.drain()
    raw = await reader.read()
    writer.close()
    head, _, payload = raw.partition(b"\r\n\r\n")
    status = int(head.split(None, 2)[1])
    return status, payload


async def _telemetry_server(tmp_path, **kwargs):
    obs = Observability.enabled(time_unit="s")
    store = ShardedStore(num_shards=2, data_capacity=64, obs=obs)
    server = CacheServer(store, port=0, obs=obs)
    await server.start()
    telemetry = ServiceTelemetry(server, port=0, interval=0.1,
                                 flight_dir=str(tmp_path), **kwargs)
    await telemetry.start()
    return server, telemetry


class TestServiceTelemetry:
    def test_endpoints_track_live_server_state(self, tmp_path):
        async def body():
            server, telemetry = await _telemetry_server(tmp_path)
            try:
                status, payload = await _http_get(telemetry.http.port,
                                                  "/healthz")
                assert status == 200
                health = json.loads(payload)
                assert health["healthy"] and not health["draining"]
                assert health["uptime_s"] > 0

                client = CacheClient("127.0.0.1", server.port)
                await client.set("k", b"v")   # declined: tagged only
                await client.get("k")         # miss, but marks tag reuse
                await client.set("k", b"v")   # reuse observed: admitted
                assert await client.get("k") == b"v"
                await client.close()

                await asyncio.sleep(0.3)  # a few sampler ticks
                status, payload = await _http_get(
                    telemetry.http.port,
                    "/history?metric=repro_service_shard_hits&window=60",
                )
                assert status == 200
                points = json.loads(payload)["points"]
                assert points and points[-1][1] == 1

                status, payload = await _http_get(telemetry.http.port,
                                                  "/varz")
                varz = json.loads(payload)
                assert varz["server"]["uptime_s"] > 0
                assert varz["timeseries"]["samples_taken"] >= 2
            finally:
                await telemetry.stop()
                await server.stop()
        run(body())

    def test_healthz_flips_during_drain(self, tmp_path):
        async def body():
            server, telemetry = await _telemetry_server(tmp_path)
            try:
                assert (await _http_get(telemetry.http.port,
                                        "/healthz"))[0] == 200
                server._stopping = True  # what DRAIN sets
                status, payload = await _http_get(telemetry.http.port,
                                                  "/healthz")
                assert status == 503
                assert json.loads(payload)["draining"] is True
                server._stopping = False
                assert (await _http_get(telemetry.http.port,
                                        "/readyz"))[0] == 200
            finally:
                await telemetry.stop()
                await server.stop()
        run(body())

    def test_dump_flight_writes_a_renderable_bundle(self, tmp_path):
        async def body():
            server, telemetry = await _telemetry_server(tmp_path)
            try:
                telemetry.sampler.tick()
                path = telemetry.dump_flight("unit")
                bundle = load_flight(path)
                assert bundle["reason"] == "unit"
                assert render_flight(bundle).startswith("flight bundle")
                assert bundle["stats"]["num_shards"] == 2
            finally:
                await telemetry.stop()
                await server.stop()
        run(body())


# ---------------------------------------------------------------------------
# server additions: uptime and connection counters (v2, dropped non-v2)
# ---------------------------------------------------------------------------


class TestServerWireAccounting:
    def test_uptime_and_framing_counts(self):
        async def body():
            obs = Observability.enabled(time_unit="s")
            store = ShardedStore(num_shards=2, data_capacity=64, obs=obs)
            server = CacheServer(store, port=0, obs=obs)
            assert server.uptime_s == 0.0  # not started yet
            await server.start()
            try:
                client = CacheClient("127.0.0.1", server.port)
                await client.set("b", b"2")
                await client.close()
                # a text request line is not a v2 frame header: dropped
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                writer.write(b"SET key 1\r\n1\r\n")  # 14 bytes
                assert await reader.read() == b""
                writer.close()
                assert server.connections_v1 == 1
                assert server.connections_v2 == 1
                assert server.uptime_s > 0
                info = server.server_info()
                assert info["connections_v1"] == 1
                assert info["connections_v2"] == 1
                assert not info["draining"]
                payload = json.loads(server._stats_payload().decode())
                assert payload["server"]["connections_v1"] == 1
            finally:
                await server.stop()
        run(body())


# ---------------------------------------------------------------------------
# dashboard rendering additions (pure)
# ---------------------------------------------------------------------------


class TestDashboardTelemetry:
    def _snapshot(self):
        return {
            "num_shards": 1, "admission": "reuse", "stored_entries": 1,
            "data_capacity": 64,
            "shards": [{"gets": 10, "hit_rate": 0.5}],
            "total": {"gets": 10, "hit_rate": 0.5},
            "server": {"uptime_s": 3725.0, "connections_v1": 2,
                       "connections_v2": 3, "connections_open": 1,
                       "draining": False},
        }

    def test_server_block_renders_uptime_and_wire_split(self):
        frame = render_dashboard(self._snapshot())
        assert "uptime 1:02:05" in frame
        assert "conns 5 (non-v2 2 / v2 3, open 1)" in frame
        assert "DRAINING" not in frame

    def test_draining_flag_is_visible(self):
        snapshot = self._snapshot()
        snapshot["server"]["draining"] = True
        assert "DRAINING" in render_dashboard(snapshot)

    def test_sparkline_rows_render_history(self):
        frame = render_dashboard(
            self._snapshot(),
            spark={"hit_rate": [0.1, 0.5, 0.9], "ops_per_s": [5.0, 10.0]},
        )
        lines = [l for l in frame.splitlines()
                 if l.strip().startswith(("hit_rate", "ops_per_s"))]
        assert len(lines) == 2
        assert lines[0].rstrip().endswith("0.9")  # newest value shown
        assert lines[1].rstrip().endswith("10")

    def test_cluster_table_has_wire_and_uptime_columns(self):
        summary = {
            "nodes": {
                "node0": {"name": "node0", "stored": 10, "data_capacity": 128,
                          "replicas_held": 3, "pending_invals": 1,
                          "stale_rejects": 2, "protocol_races": 0,
                          "eventloop_lag_s": 0.0012, "draining": False,
                          "connections_v1": 4, "connections_v2": 7,
                          "uptime_s": 61.0},
                "node1": {"name": "node1", "unreachable": True},
            },
            "totals": {"stored": 10, "data_capacity": 256},
            "unreachable": ["node1"], "draining": [],
        }
        frame = render_cluster_dashboard(summary)
        header = next(l for l in frame.splitlines() if "non-v2/v2" in l)
        assert "up" in header
        row = next(l for l in frame.splitlines() if l.strip().
                   startswith("node0"))
        assert "4/7" in row and "0:01:01" in row
        down = next(l for l in frame.splitlines() if "DOWN" in l)
        assert down.rstrip().endswith("-")  # placeholders, not zeros
