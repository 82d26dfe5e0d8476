"""Per-verb request metrics export byte-identically for a fixed sequence.

The server and the cluster node look up each verb's counter and latency
histogram once and keep the handles.  These tests pin the exported text
for a fixed request sequence: the clock the server times requests with
is replaced by a tick counter, so every latency is a whole number of
ticks and the Prometheus text is reproducible to the byte.  The
event-loop lag gauge is sampled on wall time and left out.
"""

import asyncio
import hashlib
import itertools

import pytest

import repro.service.server as server_module
from repro.cluster import LocalCluster
from repro.obs import Observability
from repro.service import CacheClient, CacheServer, ShardedStore

#: sha256 of the service server's METRICS text for the sequence below
SERVICE_METRICS_SHA256 = (
    "19ea3d2c341c8366ddacf88442dc586071369d34236ad3b08b2d7fdce3126f85")

#: sha256 of each cluster node's registry text for the sequence below
CLUSTER_METRICS_SHA256 = {
    "node0": "f97a705b8ce261e5ebeec4cebed1ecdc73d5dddc6cdc59d8222555d8cb51263c",
    "node1": "1c312bbb1c70da0cecdddbc5ed9e1762681f1e64970ca7cd1d9d4f3696894f7b",
}


def run(coro):
    """Drive one async test body (no pytest-asyncio in the toolchain)."""
    return asyncio.run(asyncio.wait_for(coro, 60))


@pytest.fixture
def tick_clock(monkeypatch):
    """Server request timing on a counter advancing 1 ms per reading."""
    ticks = itertools.count()
    monkeypatch.setattr(server_module, "clock", lambda: next(ticks) * 0.001)


def _stable(text: str) -> str:
    return "\n".join(line for line in text.splitlines()
                     if "eventloop_lag" not in line)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_service_metrics_text_is_pinned(tick_clock):
    async def body():
        server = CacheServer(ShardedStore(num_shards=2, data_capacity=8),
                             port=0, obs=Observability.enabled())
        await server.start()
        try:
            async with CacheClient("127.0.0.1", server.port) as c:
                for key in ("a", "b", "a"):
                    await c.get(key)
                    await c.set(key, b"v")
                await c.delete("a")
                await c.ping()
                await c.mget(["a", "b"])
                reply = await c.transport.call("METRICS")
        finally:
            await server.stop()
        return _stable(reply.body.decode("utf-8"))

    text = run(body())
    for line in ('repro_service_requests_total{cmd="GET"} 3',
                 'repro_service_requests_total{cmd="SET"} 3',
                 'repro_service_requests_total{cmd="MGET"} 1',
                 'repro_service_request_latency_seconds_count{cmd="DEL"} 1'):
        assert line in text.splitlines()
    assert 'cmd="MSET"' not in text  # never requested: no series
    assert _digest(text) == SERVICE_METRICS_SHA256, text


def test_cluster_metrics_text_is_pinned(tick_clock):
    async def body():
        async with LocalCluster(
            2, admission="always", replicas=2,
            obs_factory=lambda name, index: Observability.enabled(),
        ) as cluster:
            client = cluster.client()
            try:
                for i in range(6):
                    await client.set(f"k{i}", b"v%d" % i)
                    await client.get(f"k{i}")
                await client.set("k0", b"new")
                await client.delete("k1")
            finally:
                await client.close()
            return {name: _stable(node.obs.registry.to_prometheus())
                    for name, node in cluster.nodes.items()}

    texts = run(body())
    assert ('repro_cluster_requests_total{cmd="SET",node="node0"} 5'
            in texts["node0"].splitlines())
    assert ('repro_cluster_requests_total{cmd="REPL",node="node1"} 5'
            in texts["node1"].splitlines())
    # the overwrite of k0 invalidates node0's replica with its REPL push:
    # node1 fans out no INVAL for it, node0 receives none
    assert ('repro_cluster_replications_total{accepted="true",node="node1"} 2'
            in texts["node1"].splitlines())
    assert "repro_cluster_invalidations_total" not in texts["node1"]
    assert "repro_cluster_invals_received_total" not in texts["node0"]
    assert 'cmd="INVAL"' not in texts["node0"]
    assert {name: _digest(text) for name, text in texts.items()} \
        == CLUSTER_METRICS_SHA256, texts
