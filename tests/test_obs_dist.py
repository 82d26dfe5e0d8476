"""Tests for :mod:`repro.obs.dist`: wire trace field, span identity,
cross-node merge, topology normalization, the per-key audit, SLO burn
tracking, the cluster dashboard, and the cluster client's observability
fan-in (CSTATUS summary / METRICS / TRACE drains) — including the
trace-determinism property: two identical storms on a 3-node cluster
must produce the same causal topology with zero orphans."""

import asyncio
import json

import pytest

from repro.cluster import LocalCluster
from repro.obs import Observability
from repro.obs.dist import (
    ADMITTED,
    CAT_XNODE,
    REPLICA_INVALIDATED,
    SpanIds,
    TraceContext,
    current_context,
    explain_key,
    format_explain,
    leaf_args,
    merge_node_traces,
    parse_token,
    pop_trace_token,
    span_args,
    trace_topology,
    use_context,
    wire_token,
)
from repro.obs.registry import MetricsRegistry, SLOTracker
from repro.obs.top import render_cluster_dashboard
from repro.obs.tracing import validate_chrome_trace


def run(coro):
    """Drive one async test body (no pytest-asyncio in the toolchain)."""
    return asyncio.run(asyncio.wait_for(coro, 120))


# ---------------------------------------------------------------------------
# wire field
# ---------------------------------------------------------------------------


class TestWireToken:
    def test_round_trip(self):
        ctx = TraceContext("node0.1", "node0.7", None)
        token = wire_token(ctx)
        assert token == "T=node0.1/node0.7"
        parsed = parse_token(token)
        assert parsed.trace_id == "node0.1" and parsed.span_id == "node0.7"

    def test_parse_rejects_non_tokens(self):
        assert parse_token("GET") is None
        assert parse_token("T=missing-slash") is None
        assert parse_token("T=/x") is None
        assert parse_token("T=x/") is None

    def test_pop_strips_only_a_trailing_token(self):
        parts, ctx = pop_trace_token(["SET", "k", "5", "T=t/s"])
        assert parts == ["SET", "k", "5"]
        assert ctx.trace_id == "t" and ctx.span_id == "s"

    def test_pop_leaves_tokenless_lines_alone(self):
        parts, ctx = pop_trace_token(["GET", "k"])
        assert parts == ["GET", "k"] and ctx is None
        parts, ctx = pop_trace_token([])
        assert parts == [] and ctx is None

    def test_pop_leaves_malformed_token_in_place(self):
        parts, ctx = pop_trace_token(["GET", "T=broken"])
        assert parts == ["GET", "T=broken"] and ctx is None


class TestSpanIds:
    def test_ids_are_counter_deterministic(self):
        ids = SpanIds("node0")
        a, b = ids.root(), ids.root()
        assert (a.span_id, b.span_id) == ("node0.1", "node0.2")
        assert SpanIds("node0").root().span_id == "node0.1"

    def test_root_span_id_doubles_as_trace_id(self):
        root = SpanIds("n").root()
        assert root.trace_id == root.span_id and root.parent_id is None

    def test_child_continues_the_trace(self):
        ids = SpanIds("peer")
        root = ids.root()
        child = ids.child(root)
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        assert child.span_id != root.span_id

    def test_begin_branches_on_parent(self):
        ids = SpanIds("n")
        root = ids.begin(None)
        assert root.parent_id is None
        child = ids.begin(root)
        assert child.parent_id == root.span_id


class TestContextPropagation:
    def test_ambient_context_nests_and_restores(self):
        assert current_context() is None
        outer = TraceContext("t", "s1")
        inner = TraceContext("t", "s2", "s1")
        with use_context(outer):
            assert current_context() is outer
            with use_context(inner):
                assert current_context() is inner
            assert current_context() is outer
        assert current_context() is None

    def test_span_and_leaf_args_vocabulary(self):
        ctx = TraceContext("t", "s", "p")
        assert span_args(ctx, key="k") == {
            "key": "k", "trace": "t", "span": "s", "parent": "p",
        }
        # a leaf points at the enclosing span but owns no id
        assert leaf_args(ctx, key="k") == {
            "key": "k", "trace": "t", "parent": "s",
        }

    def test_args_without_context_collapse_to_none(self):
        assert span_args(None) is None
        assert leaf_args(None) is None
        assert span_args(None, key="k") == {"key": "k"}


# ---------------------------------------------------------------------------
# merge + causal validation + topology
# ---------------------------------------------------------------------------


def _ev(name, span=None, parent=None, key="k", ts=1.0, ph="X", cat="request"):
    args = {"key": key}
    if span is not None:
        args["span"] = span
        args["trace"] = span.split(".")[0]
    if parent is not None:
        args["parent"] = parent
    event = {"name": name, "cat": cat, "ph": ph, "ts": ts, "pid": 0, "tid": 0,
             "args": args}
    if ph == "X":
        event["dur"] = 0.5
    else:
        event["s"] = "t"
    return event


class TestMergeNodeTraces:
    def _two_node_doc(self):
        return merge_node_traces({
            "node0": [
                _ev("SET", span="a.1", ts=1.0),
                _ev("INVAL", span="a.2", parent="a.1", ts=2.0),
            ],
            "node1": [
                _ev("INVAL", span="b.1", parent="a.2", ts=3.0),
            ],
        })

    def test_nodes_become_named_process_lanes(self):
        doc = self._two_node_doc()
        meta = [e for e in doc["traceEvents"] if e.get("ph") == "M"]
        assert {m["args"]["name"] for m in meta} == {"node0", "node1"}
        assert doc["otherData"]["nodes"] == ["node0", "node1"]

    def test_cross_node_edge_gets_a_flow_pair(self):
        doc = self._two_node_doc()
        flows = [e for e in doc["traceEvents"] if e.get("cat") == CAT_XNODE]
        # one edge crosses nodes (a.2 -> b.1); a.1 -> a.2 stays local
        assert doc["otherData"]["cross_node_edges"] == 1
        assert sorted(e["ph"] for e in flows) == ["f", "s"]
        start = next(e for e in flows if e["ph"] == "s")
        end = next(e for e in flows if e["ph"] == "f")
        assert start["id"] == end["id"]
        assert start["pid"] != end["pid"]
        assert end["bp"] == "e"

    def test_merged_doc_passes_causal_validation(self):
        assert validate_chrome_trace(self._two_node_doc(), causal=True) == []

    def test_orphan_parent_is_rejected(self):
        doc = merge_node_traces({
            "node0": [_ev("INVAL", span="a.1", parent="ghost.9")],
        })
        problems = validate_chrome_trace(doc, causal=True)
        assert any("orphan" in p for p in problems)

    def test_parent_cycle_is_rejected(self):
        doc = merge_node_traces({
            "node0": [
                _ev("A", span="a.1", parent="a.2"),
                _ev("B", span="a.2", parent="a.1"),
            ],
        })
        problems = validate_chrome_trace(doc, causal=True)
        assert any("cycle" in p for p in problems)


class TestTraceTopology:
    def test_ids_and_timestamps_do_not_matter(self):
        run1 = merge_node_traces({
            "node0": [_ev("SET", span="a.1", ts=1.0),
                      _ev("INVAL", span="a.2", parent="a.1", ts=2.0)],
            "node1": [_ev("INVAL", span="b.1", parent="a.2", ts=3.0)],
        })
        run2 = merge_node_traces({
            "node0": [_ev("SET", span="x.7", ts=40.0),
                      _ev("INVAL", span="x.9", parent="x.7", ts=50.0)],
            "node1": [_ev("INVAL", span="y.3", parent="x.9", ts=60.0)],
        })
        assert trace_topology(run1) == trace_topology(run2)
        assert trace_topology(run1) == [
            "node0:SET:k",
            "node0:SET:k/node0:INVAL:k",
            "node0:SET:k/node0:INVAL:k/node1:INVAL:k",
        ]

    def test_orphans_are_prefixed(self):
        doc = merge_node_traces({
            "node0": [_ev("INVAL", span="a.1", parent="ghost")],
        })
        assert trace_topology(doc) == ["ORPHAN/node0:INVAL:k"]


class TestExplainKey:
    def _doc(self):
        return merge_node_traces({
            "node0": [
                _ev("SET", span="a.1", key="hot", ts=1.0),
                _ev(ADMITTED, parent="a.1", key="hot", ts=1.1, ph="i",
                    cat="audit"),
                _ev("SET", span="a.2", key="cold", ts=2.0),
            ],
            "node1": [
                _ev(REPLICA_INVALIDATED, parent="a.1", key="hot", ts=3.0,
                    ph="i", cat="audit"),
            ],
        })

    def test_records_are_filtered_and_time_ordered(self):
        records = explain_key(self._doc(), "hot")
        assert [r["name"] for r in records] == [
            "SET", ADMITTED, REPLICA_INVALIDATED,
        ]
        assert [r["node"] for r in records] == ["node0", "node0", "node1"]

    def test_format_includes_gloss_and_lifecycle(self):
        text = format_explain("hot", explain_key(self._doc(), "hot"))
        assert "key 'hot'" in text
        assert "admitted into the data store" in text
        assert "lifecycle:" in text

    def test_unknown_key_reports_no_events(self):
        records = explain_key(self._doc(), "never-touched")
        assert records == []
        assert "no events recorded" in format_explain("never-touched", records)


# ---------------------------------------------------------------------------
# SLO burn tracking
# ---------------------------------------------------------------------------


class TestSLOTracker:
    def test_burn_rate_math(self):
        slo = SLOTracker("availability", 0.99)
        assert slo.observe(100, 100) == 0.0
        # 1% errors against a 1% budget: burning exactly on schedule
        assert slo.observe(99, 100) == pytest.approx(1.0)
        # 10% errors against a 1% budget: 10x burn
        assert slo.observe(90, 100) == pytest.approx(10.0)

    def test_no_traffic_means_no_burn(self):
        assert SLOTracker("x", 0.999).burn_rate == 0.0

    def test_gauge_is_published_to_the_registry(self):
        registry = MetricsRegistry(enabled=True)
        slo = SLOTracker("freshness", 0.999, registry=registry, tier="gold")
        slo.observe(999, 1000)
        snap = registry.snapshot()
        series = snap["repro_slo_burn_rate"]["series"]
        assert series[0]["labels"] == {"slo": "freshness", "tier": "gold"}
        assert series[0]["value"] == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            SLOTracker("bad", 1.5)
        with pytest.raises(ValueError):
            SLOTracker("ok", 0.99).observe(5, 4)


# ---------------------------------------------------------------------------
# cluster dashboard rendering (pure)
# ---------------------------------------------------------------------------


def _summary(**overrides):
    base = {
        "nodes": {
            "node0": {"name": "node0", "stored": 10, "data_capacity": 128,
                      "replicas_held": 3, "pending_invals": 1,
                      "stale_rejects": 2, "protocol_races": 0,
                      "eventloop_lag_s": 0.0012, "draining": False},
            "node1": {"name": "node1", "unreachable": True},
        },
        "totals": {"stored": 10, "data_capacity": 128, "replicas_held": 3,
                   "pending_invals": 1, "stale_rejects": 2,
                   "protocol_races": 0, "directory_entries": 4},
        "num_nodes": 2,
        "unreachable": ["node1"],
        "draining": [],
    }
    base.update(overrides)
    return base


class TestRenderClusterDashboard:
    def test_totals_and_per_node_rows(self):
        frame = render_cluster_dashboard(_summary())
        assert "nodes 2 (1 reachable)" in frame
        assert "pending-INVAL debt 1" in frame
        assert "stale pushes fenced 2" in frame
        assert "10/128" in frame and "1.20" in frame  # loop lag ms

    def test_down_node_without_history_shows_placeholders(self):
        frame = render_cluster_dashboard(_summary())
        row = next(line for line in frame.splitlines() if "node1" in line)
        assert "DOWN" in row and "-" in row

    def test_stale_cstatus_is_flagged_not_dropped(self):
        summary = _summary()
        summary["nodes"]["node1"] = {
            "name": "node1", "stored": 7, "data_capacity": 128,
            "replicas_held": 1, "pending_invals": 0, "stale_rejects": 0,
            "protocol_races": 0, "eventloop_lag_s": 0.0,
            "unreachable": True, "stale_polls": 3,
        }
        frame = render_cluster_dashboard(summary)
        row = next(line for line in frame.splitlines() if "node1" in line)
        assert "DOWN*3" in row and "7/128" in row
        assert "last CSTATUS" in frame

    def test_stats_and_burn_lines(self):
        frame = render_cluster_dashboard(
            _summary(),
            stats={"total": {"hit_rate": 0.75, "hits": 3, "misses": 1}},
            burn={"availability": 2.5, "freshness": 0.0},
        )
        assert "cluster hit rate 0.7500" in frame
        assert "availability 2.50x" in frame and "freshness 0.00x" in frame

    def test_draining_state_renders(self):
        summary = _summary()
        summary["nodes"]["node0"]["draining"] = True
        summary["draining"] = ["node0"]
        frame = render_cluster_dashboard(summary)
        row = next(line for line in frame.splitlines() if "node0" in line)
        assert "draining" in row


# ---------------------------------------------------------------------------
# live cluster: observability fan-in + trace determinism
# ---------------------------------------------------------------------------


def _traced_obs_factory(name, index):
    return Observability.enabled(
        tracing=True, trace_capacity=65536, sample_every=1, time_unit="s"
    )


def _traced_cluster(**kwargs):
    kwargs.setdefault("num_nodes", 3)
    kwargs.setdefault("data_capacity_per_node", 128)
    kwargs.setdefault("replicas", 2)
    kwargs.setdefault("obs_factory", _traced_obs_factory)
    return LocalCluster(**kwargs)


async def _storm(client, writes=30, keys=5):
    """GET-before-SET rounds so reuse admission stores and replicates."""
    for i in range(writes):
        key = f"storm:{i % keys}"
        await client.get(key)
        await client.set(key, b"v%d" % i)
        if i % 7 == 6:
            await client.delete(key)


class TestClusterObservabilityFanIn:
    def test_cstatus_summary_totals_and_liveness(self):
        async def body():
            async with _traced_cluster() as cluster:
                client = cluster.client()
                await _storm(client)
                summary = await client.cstatus_summary()
                assert summary["num_nodes"] == 3
                assert summary["unreachable"] == []
                per_node = sum(
                    blk["stored"] for blk in summary["nodes"].values()
                )
                assert summary["totals"]["stored"] == per_node > 0
        run(body())

    def test_down_node_is_reported_not_raised(self):
        async def body():
            async with _traced_cluster() as cluster:
                client = cluster.client()
                await _storm(client)
                victim = cluster.nodes["node2"]
                await victim.stop()
                summary = await client.cstatus_summary()
                assert summary["nodes"]["node2"].get("unreachable")
                assert "node2" in summary["unreachable"]
                # totals still cover the reachable nodes
                assert summary["totals"]["data_capacity"] == 2 * 128
        run(body())

    def test_metrics_fans_in_prometheus_text(self):
        async def body():
            async with _traced_cluster() as cluster:
                client = cluster.client()
                await _storm(client, writes=10)
                metrics = await client.metrics()
                assert set(metrics) == {"node0", "node1", "node2"}
                assert all("repro_" in text for text in metrics.values())
                # the pending-INVAL debt gauge is exported per node
                assert any("repro_cluster_pending_invals" in text
                           for text in metrics.values())
        run(body())

    def test_trace_drain_is_disjoint(self):
        async def body():
            async with _traced_cluster() as cluster:
                client = cluster.client()
                await _storm(client, writes=10)
                await asyncio.sleep(0.05)
                first = await client.traces()
                assert sum(len(v) for v in first.values()) > 0
                again = await client.traces()
                # the ring was cleared by the first drain; the only new
                # events are the drains' own request spans
                assert sum(len(v) for v in again.values()) <= 2 * len(again)
        run(body())


class TestTraceDeterminism:
    """Satellite (c): identical storms => identical causal topology."""

    async def _one_run(self):
        cluster = _traced_cluster(seed=2013)
        async with cluster:
            client = cluster.client()
            await _storm(client, writes=40, keys=6)
        # collect in-process after stop(): every span has landed, no
        # drain race can cut the tree mid-branch
        node_events = {
            name: node.obs.tracer.to_chrome()["traceEvents"]
            for name, node in cluster.nodes.items()
        }
        return merge_node_traces(node_events, time_unit="s")

    def test_two_runs_same_topology_zero_orphans(self):
        doc1 = run(self._one_run())
        doc2 = run(self._one_run())
        topo1, topo2 = trace_topology(doc1), trace_topology(doc2)
        assert topo1 == topo2
        assert not any(p.startswith(("ORPHAN/", "CYCLE/")) for p in topo1)
        assert validate_chrome_trace(doc1, causal=True) == []
        # the storm reaches every trace edge: a cross-node INVAL chain
        # terminating in a replica drop must appear in the topology
        assert any("ReplicaInvalidated" in p and p.count("INVAL") >= 2
                   for p in topo1)
        assert doc1["otherData"]["cross_node_edges"] > 0

    def test_obs_off_cluster_emits_no_trace_events(self):
        async def body():
            cluster = LocalCluster(num_nodes=2, data_capacity_per_node=64,
                                   replicas=2)
            async with cluster:
                client = cluster.client()
                await _storm(client, writes=10)
                drains = await client.traces()
                assert all(events == [] for events in drains.values())
        run(body())


class TestMergedPushAudit:
    def test_replaced_replica_leaves_under_the_repl_fanout(self):
        async def body():
            cluster = _traced_cluster(num_nodes=2, admission="always")
            async with cluster:
                client = cluster.client()
                await client.set("hot", b"v1")
                await client.set("hot", b"v2")  # one REPL replaces v1
            node_events = {
                name: node.obs.tracer.to_chrome()["traceEvents"]
                for name, node in cluster.nodes.items()
            }
            return merge_node_traces(node_events, time_unit="s")

        doc = run(body())
        assert validate_chrome_trace(doc, causal=True) == []
        topo = trace_topology(doc)
        assert not any(p.startswith("ORPHAN/") for p in topo)
        # the old copy leaves under the owner's REPL fan-out span, and no
        # INVAL is sent for it
        dropped = [p for p in topo
                   if p.endswith(f":{REPLICA_INVALIDATED}:hot")]
        assert len(dropped) == 1
        assert dropped[0].count(":REPL:hot") == 2  # fan-out, peer request
        assert not any(":INVAL:" in p for p in topo)
        names = [r["name"] for r in explain_key(doc, "hot")]
        assert names.count(REPLICA_INVALIDATED) == 1


# ---------------------------------------------------------------------------
# CLI surface: obs collect / explain round trip
# ---------------------------------------------------------------------------


class TestObsCliRoundTrip:
    def _write_node_files(self, tmp_path):
        files = []
        for node, events in {
            "node0": [_ev("SET", span="a.1", key="hot"),
                      _ev("INVAL", span="a.2", parent="a.1", key="hot")],
            "node1": [_ev("INVAL", span="b.1", parent="a.2", key="hot")],
        }.items():
            path = tmp_path / f"{node}.jsonl"
            path.write_text(
                "".join(json.dumps(e) + "\n" for e in events),
                encoding="utf-8",
            )
            files.append(str(path))
        return files

    def test_collect_then_validate_then_explain(self, tmp_path, capsys):
        from repro.obs.cli import main

        files = self._write_node_files(tmp_path)
        out = str(tmp_path / "merged.json")
        assert main(["obs", "collect", *files, "--out", out]) == 0
        assert main(["obs", "validate", "--causal", out]) == 0
        assert main(["explain", "--key", "hot", out]) == 0
        captured = capsys.readouterr().out
        assert "cross-node edge" in captured
        assert "causally complete" in captured
        assert "key 'hot'" in captured

    def test_explain_unknown_key_exits_nonzero(self, tmp_path, capsys):
        from repro.obs.cli import main

        files = self._write_node_files(tmp_path)
        out = str(tmp_path / "merged.json")
        assert main(["obs", "collect", *files, "--out", out]) == 0
        assert main(["explain", "--key", "nope", out]) == 1
        assert "no events recorded" in capsys.readouterr().out

    def test_collect_rejects_orphan_traces(self, tmp_path):
        from repro.obs.cli import main

        bad = tmp_path / "node9.jsonl"
        bad.write_text(
            json.dumps(_ev("INVAL", span="z.1", parent="ghost")) + "\n",
            encoding="utf-8",
        )
        out = str(tmp_path / "merged.json")
        assert main(["obs", "collect", str(bad), "--out", out]) == 1
