"""Wire parity: every spec verb answers the same over v1 text and v2 frames.

Two halves:

* **framing parity** — each verb in ``protocol_spec.SPEC`` is called
  through ``Transport(mode="v1")`` and ``Transport(mode="v2")`` against
  fresh, identically seeded servers (a plain ``CacheServer`` and a
  2-node ``LocalCluster``), and the two reply sequences must agree on
  status, body and batch values;
* **golden bytes** — the v1 request lines the transport emits and the
  raw v1 reply bytes the servers send are pinned byte for byte, so v1
  peers built against older releases keep interoperating.
"""

import asyncio
import json
import re

import pytest

from repro.cluster.local import LocalCluster
from repro.cluster.node import PeerClient
from repro.devtools.flow.protocol_spec import SPEC
from repro.obs.dist import TraceContext
from repro.service import CacheServer, ShardedStore
from repro.service.transport import ServerError, Transport, _v1_payload


def run(coro):
    """Drive one async test body (no pytest-asyncio in the toolchain)."""
    return asyncio.run(asyncio.wait_for(coro, 60))


async def _server(admission="reuse"):
    server = CacheServer(ShardedStore(num_shards=2, data_capacity=64,
                                      admission=admission, seed=7), port=0)
    await server.start()
    return server


#: STATS/CSTATUS fields that differ run to run (clocks, ports, pids, the
#: connection mix) — everything else in those documents must match
VOLATILE = {"process", "server", "port", "uptime_s", "eventloop_lag_s",
            "connections_v1", "connections_v2", "shards", "total"}


def _normalise(verb, reply):
    """A comparable view of one reply (or of the ServerError raised)."""
    if isinstance(reply, ServerError):
        return ("ERR", str(reply))
    body = reply.body or b""
    if verb in ("STATS", "CSTATUS"):
        doc = json.loads(body.decode("utf-8"))
        body = sorted((k, v) for k, v in doc.items() if k not in VOLATILE)
        body = json.dumps(body)
    return (reply.status, body, reply.values)


async def _call(transport, verb, *fields, trace=None):
    try:
        return await transport.call(verb, *fields, trace=trace)
    except ServerError as exc:
        return exc


#: (verb, fields) per call against a plain cache server, in order: the
#: TAGGED -> STORED admission walk, batches, the read-only verbs, a
#: cluster verb the plain server does not serve (ERR) and QUIT last
SERVICE_CALLS = (
    ("PING", ()),
    ("GET", ("k",)),
    ("SET", ("k", b"abc")),       # first offer: TAGGED
    ("GET", ("k",)),              # reuse recorded
    ("SET", ("k", b"abc")),       # re-offer: STORED
    ("GET", ("k",)),
    ("MSET", ([("a", b"1"), ("b", b"")],)),
    ("MSET", ([("a", b"1"), ("b", b"")],)),
    ("MGET", (["a", "b", "k", "zz"],)),
    ("MDEL", (["a", "zz"],)),
    ("DEL", ("k",)),
    ("DEL", ("k",)),
    ("STATS", ()),
    ("METRICS", ()),
    ("TRACE", ()),
    ("RGET", ("k",)),             # not served by a plain cache server
    ("QUIT", ()),
)

#: the same for one node of a 2-node cluster; DRAIN stops the node, so
#: it runs last
CLUSTER_CALLS = (
    ("GET", ("k",)),
    ("SET", ("k", b"abc")),
    ("GET", ("k",)),
    ("SET", ("k", b"abc")),
    ("GET", ("k",)),
    ("REPL", ("r", 3, b"xyz")),
    ("RGET", ("r",)),
    ("REPL", ("r", 2, b"old")),   # below the held version: STALE
    ("INVAL", ("r", 5)),
    ("RGET", ("r",)),
    ("REPL", ("r", 4, b"new")),   # below the INVAL floor: STALE
    ("PUTS", ("k", "node1")),
    ("DEL", ("k",)),
    ("CSTATUS", ()),
    ("DRAIN", ()),
)


async def _service_replies(mode):
    server = await _server()
    transport = Transport("127.0.0.1", server.port, mode=mode)
    ctx = TraceContext("t1", "s1")
    try:
        replies = []
        for verb, fields in SERVICE_CALLS:
            reply = await _call(transport, verb, *fields)
            replies.append((verb, _normalise(verb, reply)))
        return replies, await _traced_walk(mode, ctx)
    finally:
        await transport.close()
        await server.stop()


async def _traced_walk(mode, ctx):
    """The admission walk again, each request carrying a trace field."""
    server = await _server()
    transport = Transport("127.0.0.1", server.port, mode=mode)
    try:
        return [
            (await transport.call(verb, *fields, trace=ctx)).status
            for verb, fields in SERVICE_CALLS[1:6]
        ]
    finally:
        await transport.close()
        await server.stop()


async def _cluster_replies(mode):
    async with LocalCluster(2, data_capacity_per_node=32,
                            admission="reuse") as cluster:
        node = cluster.nodes["node0"]
        # the peer client's transport: the one that carries CSTATUS bodies
        transport = PeerClient(node.host, node.port, protocol=mode).transport
        try:
            replies = []
            for verb, fields in CLUSTER_CALLS:
                reply = await _call(transport, verb, *fields)
                replies.append((verb, _normalise(verb, reply)))
            return replies
        finally:
            await transport.close()


class TestFramingParity:
    def test_every_spec_verb_is_exercised(self):
        called = {v for v, _ in SERVICE_CALLS} | {v for v, _ in CLUSTER_CALLS}
        internal = {verb.name for verb in SPEC if verb.internal}
        assert internal == {"HELLO"}  # answered by the transport itself
        assert {verb.name for verb in SPEC} - internal == called

    def test_cache_server_answers_alike_in_both_framings(self):
        v1, traced_v1 = run(_service_replies("v1"))
        v2, traced_v2 = run(_service_replies("v2"))
        assert v1 == v2
        statuses = [reply[0] for _, reply in v1]
        assert statuses[1:6] == ["MISS", "TAGGED", "MISS", "STORED", "VALUE"]
        assert ("RGET", ("ERR", "unknown command 'RGET'")) in v1
        assert traced_v1 == traced_v2 == statuses[1:6]

    def test_cluster_node_answers_alike_in_both_framings(self):
        v1 = run(_cluster_replies("v1"))
        v2 = run(_cluster_replies("v2"))
        assert v1 == v2
        statuses = [reply[0] for _, reply in v1]
        assert statuses == [
            "MISS", "TAGGED", "MISS", "STORED", "VALUE", "REPLICATED",
            "VALUE", "STALE", "INVALED", "MISS", "STALE", "OK", "DELETED",
            "CSTATUS", "DRAINING",
        ]


# ---------------------------------------------------------------------------
# golden v1 bytes
# ---------------------------------------------------------------------------


#: (verb, fields, trace token) -> the exact v1 request bytes
V1_REQUEST_GOLDENS = (
    ("GET", ("k",), None, b"GET k\n"),
    ("SET", ("k", b"abc"), None, b"SET k 3\nabc\n"),
    ("SET", ("k", b""), None, b"SET k 0\n\n"),
    ("DEL", ("k",), None, b"DEL k\n"),
    ("STATS", (), None, b"STATS\n"),
    ("METRICS", (), None, b"METRICS\n"),
    ("TRACE", (), None, b"TRACE\n"),
    ("PING", (), None, b"PING\n"),
    ("QUIT", (), None, b"QUIT\n"),
    ("REPL", ("k", 7, b"xy"), None, b"REPL k 7 2\nxy\n"),
    ("INVAL", ("k", 9), None, b"INVAL k 9\n"),
    ("PUTS", ("k", "node1"), None, b"PUTS k node1\n"),
    ("RGET", ("k",), None, b"RGET k\n"),
    ("CSTATUS", (), None, b"CSTATUS\n"),
    ("DRAIN", (), None, b"DRAIN\n"),
    ("GET", ("k",), "T=t1/s1", b"GET k T=t1/s1\n"),
    ("SET", ("k", b"abc"), "T=t1/s1", b"SET k 3 T=t1/s1\nabc\n"),
    ("REPL", ("k", 7, b"xy"), "T=t/s", b"REPL k 7 2 T=t/s\nxy\n"),
)

#: raw request bytes -> the exact v1 reply bytes, against a plain cache
#: server with reuse admission (one connection, in order)
SERVICE_REPLY_GOLDENS = (
    (b"PING\n", b"PONG\n"),
    (b"GET k\n", b"MISS\n"),
    (b"SET k 3\nabc\n", b"TAGGED\n"),
    (b"get k T=t1/s1\n", b"MISS\n"),
    (b"SET k 3 T=t1/s1\nabc\n", b"STORED\n"),
    (b"GET k\n", b"VALUE 3\nabc\n"),
    (b"DEL k\n", b"DELETED\n"),
    (b"DEL k\n", b"NOTFOUND\n"),
    (b"METRICS\n", b"METRICS 0\n\n"),
    (b"TRACE\n", b"TRACE 0\n\n"),
    (b"GET\n", b"ERR usage: GET <key>\n"),
    (b"GET a b\n", b"ERR usage: GET <key>\n"),
    (b"SET k\n", b"ERR usage: SET <key> <len>\n"),
    (b"SET k x\n", b"ERR bad length 'x'\n"),
    (b"SET k -1\n", b"ERR length -1 out of range\n"),
    (b"DEL\n", b"ERR usage: DEL <key>\n"),
    (b"\n", b"ERR empty request\n"),
    (b"FROB\n", b"ERR unknown command 'FROB'\n"),
    (b"MGET a\n", b"ERR unknown command 'MGET'\n"),
    (b"RGET k\n", b"ERR unknown command 'RGET'\n"),
    (b"\xff\xfe\n", b"ERR request not utf-8\n"),
    (b"QUIT\n", b"BYE\n"),
)

#: the same against one node of a 2-node cluster
CLUSTER_REPLY_GOLDENS = (
    (b"REPL r 1 3\nabc\n", b"REPLICATED\n"),
    (b"RGET r\n", b"VALUE 3\nabc\n"),
    (b"INVAL r 2\n", b"INVALED\n"),
    (b"RGET r T=t1/s1\n", b"MISS\n"),
    (b"REPL r 1 3\nabc\n", b"STALE\n"),
    (b"PUTS r node1\n", b"OK\n"),
    (b"GET k\n", b"MISS\n"),
    (b"SET k 2\nhi\n", b"TAGGED\n"),
    (b"GET k\n", b"MISS\n"),
    (b"SET k 2\nhi\n", b"STORED\n"),
    (b"GET k\n", b"VALUE 2\nhi\n"),
    (b"DEL k\n", b"DELETED\n"),
    (b"REPL k\n", b"ERR usage: REPL <key> <version> <len>\n"),
    (b"REPL k 1 x\n", b"ERR bad length 'x'\n"),
    (b"INVAL k x\n", b"ERR bad version 'x'\n"),
    (b"INVAL k\n", b"ERR usage: INVAL <key> <version>\n"),
    (b"PUTS k\n", b"ERR usage: PUTS <key> <node>\n"),
    (b"RGET\n", b"ERR usage: RGET <key>\n"),
    (b"SET k\n", b"ERR usage: SET <key> <len>\n"),
    (b"DEL a b\n", b"ERR usage: DEL <key>\n"),
    (b"DRAIN\n", b"DRAINING\n"),
)


async def _exchange(host, port, goldens):
    """Send each raw request in turn; collect the raw reply bytes."""
    reader, writer = await asyncio.open_connection(host, port)
    got = []
    try:
        for request, want in goldens:
            writer.write(request)
            await writer.drain()
            got.append(await reader.readexactly(len(want)))
        return got, await reader.read(1) if goldens[-1][0] == b"QUIT\n" else b""
    finally:
        writer.close()


class TestGoldenBytes:
    @pytest.mark.parametrize("verb,fields,token,want", V1_REQUEST_GOLDENS)
    def test_v1_request_bytes(self, verb, fields, token, want):
        assert _v1_payload(verb, fields, token) == want

    def test_v1_replies_from_cache_server(self):
        async def body():
            server = await _server()
            try:
                got, tail = await _exchange("127.0.0.1", server.port,
                                            SERVICE_REPLY_GOLDENS)
            finally:
                await server.stop()
            assert got == [want for _, want in SERVICE_REPLY_GOLDENS]
            assert tail == b""  # QUIT closed the connection
        run(body())

    def test_v1_stats_reply_is_length_prefixed_json(self):
        async def body():
            server = await _server()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                writer.write(b"STATS\n")
                header = await reader.readline()
                match = re.fullmatch(rb"STATS (\d+)\n", header)
                assert match
                doc = await reader.readexactly(int(match.group(1)) + 1)
                assert doc.endswith(b"\n")
                assert json.loads(doc)["num_shards"] == 2
                writer.close()
            finally:
                await server.stop()
        run(body())

    def test_v1_replies_from_cluster_node(self):
        async def body():
            async with LocalCluster(2, data_capacity_per_node=32,
                                    admission="reuse") as cluster:
                node = cluster.nodes["node0"]
                reader, writer = await asyncio.open_connection(
                    node.host, node.port)
                writer.write(b"CSTATUS\n")
                header = await reader.readline()
                match = re.fullmatch(rb"CSTATUS (\d+)\n", header)
                assert match
                doc = await reader.readexactly(int(match.group(1)) + 1)
                assert json.loads(doc)["name"] == "node0"
                writer.close()
                got, _ = await _exchange(node.host, node.port,
                                         CLUSTER_REPLY_GOLDENS)
            assert got == [want for _, want in CLUSTER_REPLY_GOLDENS]
        run(body())
