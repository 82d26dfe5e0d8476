"""Tests for :mod:`repro.service`: the sharded cache server with
reuse-based admission (store semantics, sharding, protocol, concurrency,
graceful shutdown, load generation)."""

import asyncio
import bisect
import json
import math
import random

import pytest

from repro.metrics.perf import quantile
from repro.obs.registry import LATENCY_BOUNDS_S
from repro.service import sharding as sharding_module
from repro.service import store as store_module
from repro.service import (
    CacheClient,
    CacheServer,
    ReuseStore,
    ServerError,
    ShardedStore,
    merge_snapshots,
    replay_store,
    stable_hash,
    value_of,
)
from repro.service.cli import build_service_parser
from repro.service.protocol import (
    STATUS_NAMES,
    VERB_IDS,
    VERB_NAMES,
    FrameEncoder,
    encode_request,
    read_frame,
)
from repro.service.server import wire_verb
from repro.service.stats import ShardStats
from repro.workloads.mixes import EXAMPLE_MIX, build_workload


def run(coro):
    """Drive one async test body (no pytest-asyncio in the toolchain)."""
    return asyncio.run(asyncio.wait_for(coro, 60))


# ---------------------------------------------------------------------------
# store: selective allocation semantics
# ---------------------------------------------------------------------------


class TestAdmission:
    def test_first_get_misses_and_tags(self):
        s = ReuseStore(data_capacity=8)
        assert s.get("k") is None
        assert s.is_tracked("k") and not s.contains("k")
        assert s.stats.misses == 1

    def test_set_after_single_access_is_declined(self):
        s = ReuseStore(data_capacity=8)
        s.get("k")
        assert s.set("k", b"v") is False
        assert not s.contains("k")
        assert s.stats.tag_only_sets == 1

    def test_second_get_arms_admission(self):
        s = ReuseStore(data_capacity=8)
        s.get("k")          # first access: tag only
        s.set("k", b"v")    # declined
        s.get("k")          # reuse detected
        assert s.set("k", b"v") is True
        assert s.get("k") == b"v"
        assert s.stats.reuse_admissions == 1
        assert s.stats.hits == 1

    def test_set_with_no_prior_get_tags_key(self):
        s = ReuseStore(data_capacity=8)
        assert s.set("k", b"v") is False  # first access via SET: tag only
        s.get("k")                        # second access: reuse
        assert s.set("k", b"v") is True

    def test_admit_always_stores_immediately(self):
        s = ReuseStore(data_capacity=8, admission="always")
        assert s.set("k", b"v") is True
        assert s.get("k") == b"v"

    def test_update_in_place(self):
        s = ReuseStore(data_capacity=8)
        s.get("k"); s.get("k")
        s.set("k", b"old")
        assert s.set("k", b"newer") is True
        assert s.get("k") == b"newer"
        assert s.stats.bytes_stored == len(b"newer")

    def test_delete_drops_tag_and_value(self):
        s = ReuseStore(data_capacity=8)
        s.get("k"); s.get("k"); s.set("k", b"v")
        assert s.delete("k") is True
        assert not s.contains("k") and not s.is_tracked("k")
        assert s.delete("k") is False
        # history gone: the key is back to square one
        assert s.set("k", b"v") is False

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            ReuseStore(data_capacity=0)
        with pytest.raises(ValueError):
            ReuseStore(data_capacity=16, tag_capacity=8)
        with pytest.raises(ValueError):
            ReuseStore(data_capacity=8, admission="lru")

    def test_tag_capacity_checked_after_rounding_to_whole_sets(self):
        # 12 tags fill one whole 8-way set: 8 tags could never cover 10
        # data slots
        with pytest.raises(ValueError, match="8 in whole 8-way sets"):
            ReuseStore(10, tag_capacity=12)
        # 25 tags per shard round down to 24 for 25 data slots per shard
        with pytest.raises(ValueError, match="24 in whole 8-way sets"):
            ShardedStore(4, 100, tag_capacity=100)
        assert ReuseStore(10, tag_capacity=16).tag_capacity == 16
        assert ReuseStore(10, tag_capacity=12, tag_assoc=4).tag_capacity == 12


class TestEviction:
    def _admit(self, store, key, payload=b"x"):
        store.get(key); store.get(key)
        assert store.set(key, payload) is True

    def test_clock_eviction_under_capacity_pressure(self):
        s = ReuseStore(data_capacity=4, tag_capacity=64)
        for i in range(10):
            self._admit(s, f"k{i}")
        assert len(s) == 4
        assert s.stats.data_evictions == 6
        stored = [f"k{i}" for i in range(10) if s.contains(f"k{i}")]
        assert len(stored) == 4

    def test_data_eviction_keeps_reuse_history(self):
        # paper: DataRepl demotes S -> TO, so the next fetch re-admits
        s = ReuseStore(data_capacity=1, tag_capacity=16)
        self._admit(s, "a")
        self._admit(s, "b")     # evicts a's value, a stays tracked+reused
        assert not s.contains("a") and s.is_tracked("a")
        assert s.get("a") is None           # miss (read-through refetch)
        assert s.set("a", b"x") is True     # re-admitted on the spot
        assert s.stats.data_evictions == 2

    def test_tag_eviction_frees_data_too(self):
        # 4 tags total, 4 data slots: force tag-directory conflict misses
        s = ReuseStore(data_capacity=4, tag_capacity=4, tag_assoc=4)
        for i in range(16):
            s.get(f"k{i}")
        assert s.stats.tag_evictions > 0
        tracked = sum(s.is_tracked(f"k{i}") for i in range(16))
        assert tracked == 4

    def test_bytes_accounting_across_evictions(self):
        s = ReuseStore(data_capacity=2, tag_capacity=32)
        for i in range(6):
            self._admit(s, f"k{i}", payload=bytes(10))
        assert s.stats.bytes_stored == 2 * 10
        assert s.stats.bytes_written == 6 * 10


# ---------------------------------------------------------------------------
# sharding
# ---------------------------------------------------------------------------


class TestSharding:
    def test_routing_is_stable_across_instances(self):
        a = ShardedStore(num_shards=8, data_capacity=64)
        b = ShardedStore(num_shards=8, data_capacity=1024, admission="always")
        keys = [f"user:{i}" for i in range(200)]
        assert [a.shard_of(k) for k in keys] == [b.shard_of(k) for k in keys]

    def test_keys_spread_over_all_shards(self):
        st = ShardedStore(num_shards=4, data_capacity=64)
        used = {st.shard_of(f"key-{i}") for i in range(200)}
        assert used == {0, 1, 2, 3}

    def test_operations_land_on_owning_shard(self):
        st = ShardedStore(num_shards=4, data_capacity=64)
        st.get("k"); st.get("k")
        assert st.set("k", b"v") is True
        assert st.shard_for("k").contains("k")
        others = [s for i, s in enumerate(st.shards) if i != st.shard_of("k")]
        assert all(len(s) == 0 for s in others)
        assert len(st) == 1

    def test_stats_aggregate_sums_shards(self):
        st = ShardedStore(num_shards=2, data_capacity=16)
        for i in range(20):
            st.get(f"k{i}")
        snap = st.stats_snapshot()
        assert snap["total"]["misses"] == 20
        assert sum(s["misses"] for s in snap["shards"]) == 20
        assert len(snap["shards"]) == 2

    def test_capacity_split_validated(self):
        with pytest.raises(ValueError):
            ShardedStore(num_shards=8, data_capacity=4)


class TestKeyHashMemo:
    """``ShardedStore.key_hash``: a bounded memo of ``stable_hash``."""

    def test_bound_is_the_shards_tag_capacity(self):
        st = ShardedStore(num_shards=4, data_capacity=64, tag_capacity=100,
                          tag_assoc=8)
        # 25 tags per shard round down to 3 whole 8-way sets
        assert [s.tag_capacity for s in st.shards] == [24] * 4
        assert st.key_hash.cache_info().maxsize == 96

    def test_routing_is_unchanged_across_memo_eviction(self):
        st = ShardedStore(num_shards=4, data_capacity=16, tag_capacity=64)
        bound = st.key_hash.cache_info().maxsize
        keys = [f"key-{i}" for i in range(3 * bound)]
        want = [(stable_hash(k) & 0xFFFFFFFF) % 4 for k in keys]
        assert [st.shard_of(k) for k in keys] == want
        info = st.key_hash.cache_info()
        assert info.currsize == bound and info.misses == 3 * bound
        # backwards, the newest `bound` keys hit and every older one was
        # evicted and is hashed again
        assert [st.shard_of(k) for k in reversed(keys)] == want[::-1]
        info = st.key_hash.cache_info()
        assert info.hits == bound and info.misses == 3 * bound + 2 * bound
        assert all(st.shard_for(k) is st.shards[s] for k, s in zip(keys, want))

    def test_a_tag_miss_hashes_its_key_once(self, monkeypatch):
        calls = []

        def counting_hash(key):
            calls.append(key)
            return stable_hash(key)

        monkeypatch.setattr(store_module, "stable_hash", counting_hash)
        monkeypatch.setattr(sharding_module, "stable_hash", counting_hash)
        st = ShardedStore(num_shards=4, data_capacity=16)
        assert st.get("a") is None  # tag miss: I -> TO
        assert st.set("b", b"v") is False  # tag miss, declined
        assert calls == ["a", "b"]
        assert st.get("b") is None  # reuse
        assert st.set("b", b"v") is True
        assert st.get("b") == b"v"
        assert st.get_many(["a", "b"]) == [None, b"v"]
        assert st.set_many([("a", b"w")]) == [True]
        assert calls == ["a", "b"]  # every later routing hit the memo


class TestBatchMatchesSingles:
    """``get_many``/``set_many`` serve a batch exactly as its singles."""

    @staticmethod
    def _logged_store(admission):
        # 4 data entries and 8 two-way tag sets per shard: the stream
        # below overflows both, so data and tag evictions both happen
        store = ShardedStore(num_shards=4, data_capacity=16, tag_capacity=64,
                             tag_assoc=2, admission=admission, seed=5)
        log = []
        store.set_decision_listener(lambda k, d: log.append(("decide", k, d)))
        store.set_evict_listener(lambda k, kind: log.append(("evict", k, kind)))
        return store, log

    @pytest.mark.parametrize("admission", ["reuse", "always"])
    def test_batches_equal_singles(self, admission):
        rng = random.Random(2013)
        batched, batched_log = self._logged_store(admission)
        single, single_log = self._logged_store(admission)
        for _ in range(300):
            keys = [f"k{rng.randrange(120)}" for _ in range(rng.randrange(1, 24))]
            got = batched.get_many(keys)
            assert got == [single.get(key) for key in keys]
            items = [(key, f"{key}@{rng.randrange(4)}".encode())
                     for key, value in zip(keys, got)
                     if value is None or rng.random() < 0.2]
            assert batched.set_many(items) == [
                single.set(key, value) for key, value in items
            ]
        assert batched_log == single_log
        total = batched.stats_snapshot()["total"]
        assert total["data_evictions"] > 0 and total["tag_evictions"] > 0
        assert batched.stats_snapshot() == single.stats_snapshot()

    def test_a_batch_is_served_in_request_order(self):
        # regrouping a batch by shard would reorder these decisions
        store, log = self._logged_store("reuse")
        keys = [f"k{i}" for i in range(12)]
        assert len({store.shard_of(key) for key in keys}) > 1
        store.get_many(keys)
        assert [k for _, k, d in log if d == "tag_alloc"] == keys


# ---------------------------------------------------------------------------
# stats helpers
# ---------------------------------------------------------------------------


def _seeded_latencies(seed: int, n: int = 1000) -> list:
    """``n`` request latencies spread from a few µs to a few ms."""
    rng = random.Random(seed)
    return [rng.lognormvariate(math.log(50e-6), 1.0) for _ in range(n)]


def _assert_in_bucket_of(estimate: float, exact: float) -> None:
    """``estimate`` lies in the LATENCY_BOUNDS_S bucket holding ``exact``."""
    i = bisect.bisect_left(LATENCY_BOUNDS_S, exact)
    lo = LATENCY_BOUNDS_S[i - 1] if i else 0.0
    assert lo <= estimate <= LATENCY_BOUNDS_S[i]
    assert exact / 2 <= estimate <= exact * 2


class TestStats:
    def test_quantile_interpolates(self):
        assert quantile([4.0, 1.0, 3.0, 2.0], 0.5) == pytest.approx(2.5)
        assert quantile([], 0.99) == 0.0
        with pytest.raises(ValueError):
            quantile([1.0], 1.5)

    def test_percentiles_fall_in_the_bucket_of_the_exact_sample(self):
        for seed in range(5):
            samples = _seeded_latencies(seed)
            st = ShardStats()
            for v in samples:
                st.record_latency(v)
            snap = st.snapshot()
            ordered = sorted(samples)
            for key, q in (("p50_s", 0.50), ("p99_s", 0.99)):
                # the ceil(q*n)-th smallest sample, 1-based
                exact = ordered[math.ceil(q * len(ordered)) - 1]
                _assert_in_bucket_of(snap[key], exact)

    def test_sample_count_and_busy_seconds_are_exact(self):
        for seed in range(5):
            samples = _seeded_latencies(seed)
            st = ShardStats()
            for v in samples:
                st.record_latency(v)
            busy_s = 0.0
            for v in samples:
                busy_s += v
            snap = st.snapshot()
            assert snap["latency_samples"] == len(samples)
            assert snap["busy_s"] == busy_s

    def test_merge_snapshots(self):
        a, b = ShardStats(), ShardStats()
        a.hits, a.misses = 3, 1
        b.hits, b.misses = 1, 3
        b.record_latency(0.5)
        total = merge_snapshots([a.snapshot(), b.snapshot()])
        assert total["hits"] == 4 and total["misses"] == 4
        assert total["hit_rate"] == pytest.approx(0.5)
        _assert_in_bucket_of(total["p99_s"], 0.5)

    def test_busy_seconds_accumulate_and_merge(self):
        a, b = ShardStats(), ShardStats()
        for v in (0.1, 0.2):
            a.record_latency(v)
        b.record_latency(0.5)
        assert a.snapshot()["busy_s"] == pytest.approx(0.3)
        total = merge_snapshots([a.snapshot(), b.snapshot()])
        assert total["busy_s"] == pytest.approx(0.8)


# ---------------------------------------------------------------------------
# server + client over TCP
# ---------------------------------------------------------------------------


async def _started_server(**kwargs):
    kwargs.setdefault("num_shards", 2)
    kwargs.setdefault("data_capacity", 64)
    server_opts = {
        k: kwargs.pop(k)
        for k in ("max_connections", "request_timeout")
        if k in kwargs
    }
    store = ShardedStore(**kwargs)
    server = CacheServer(store, port=0, **server_opts)
    await server.start()
    return server


async def _exchange(reader, writer, *frames):
    """Send raw request frames; the replies as ``(seq, status, payload)``."""
    writer.write(b"".join(frames))
    await writer.drain()
    replies = []
    for _ in frames:
        frame = await read_frame(reader)
        replies.append((frame.seq, STATUS_NAMES[frame.verb_id],
                        frame.payload))
    return replies


class _HeldGetServer(CacheServer):
    """A GET of ``held`` is answered only once ``release`` is set."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.release = asyncio.Event()

    @wire_verb("GET")
    async def _verb_get(self, key: str):
        if key == "held":
            await self.release.wait()
        return super()._verb_get(key)


class TestServerProtocol:
    def test_get_set_del_roundtrip(self):
        async def body():
            server = await _started_server()
            try:
                async with CacheClient("127.0.0.1", server.port) as c:
                    assert await c.ping()
                    assert await c.get("k") is None      # miss + tag
                    assert await c.set("k", b"v1") is False  # TAGGED
                    assert await c.get("k") is None      # reuse detected
                    assert await c.set("k", b"v1") is True   # STORED
                    assert await c.get("k") == b"v1"
                    assert await c.delete("k") is True
                    assert await c.delete("k") is False
            finally:
                await server.stop()
        run(body())

    def test_binary_values_with_newlines(self):
        async def body():
            server = await _started_server(admission="always")
            try:
                async with CacheClient("127.0.0.1", server.port) as c:
                    payload = b"a\nb\r\nc\x00d" * 11
                    await c.set("bin", payload)
                    assert await c.get("bin") == payload
            finally:
                await server.stop()
        run(body())

    def test_malformed_requests_keep_connection_open(self):
        async def body():
            server = await _started_server()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                enc = FrameEncoder()
                replies = await _exchange(
                    reader, writer,
                    enc.simple(99, 1),                        # unknown verb
                    enc.simple(VERB_IDS["SET"], 2, b"\x00\x05ab"),  # short
                    enc.simple(VERB_IDS["PING"], 3),          # still usable
                )
                assert [reply[:2] for reply in replies] == [
                    (1, "ERR"), (2, "ERR"), (3, "PONG")]
                assert replies[0][2] == b"unknown verb id 99"
                assert replies[1][2] == b"payload truncated"
                writer.close()
            finally:
                await server.stop()
        run(body())

    def test_non_v2_connection_is_dropped_and_counted(self):
        async def body():
            server = await _started_server()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                writer.write(b"PING\n")
                writer.write_eof()
                assert await reader.read() == b""  # dropped, unanswered
                writer.close()
                assert server.connections_v1 == 1
                assert server.connections_v2 == 0
            finally:
                await server.stop()
        run(body())

    def test_silent_first_frame_frees_its_slot(self):
        async def body():
            server = await _started_server(max_connections=1,
                                           request_timeout=0.2)
            try:
                # 5 bytes: never a 12-byte frame header
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                writer.write(b"PING\n")
                await writer.drain()
                client = CacheClient("127.0.0.1", server.port,
                                     max_retries=8, backoff=0.05)
                try:
                    assert await asyncio.wait_for(client.ping(), 1.0)
                finally:
                    await client.close()
                assert await reader.read() == b""  # dropped, unanswered
                writer.close()
                assert server.connections_v1 == 1
            finally:
                await server.stop()
        run(body())

    def test_first_frame_deadline_covers_only_its_header(self):
        async def body():
            server = await _started_server(request_timeout=0.2)
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                frame = encode_request(FrameEncoder(), "SET",
                                       ["slow", b"v" * 4096], 1)
                writer.write(frame[:12])  # the header in time
                await writer.drain()
                await asyncio.sleep(0.4)  # the payload past the deadline
                writer.write(frame[12:])
                await writer.drain()
                reply = await asyncio.wait_for(read_frame(reader), 1.0)
                assert reply.seq == 1
                assert STATUS_NAMES[reply.verb_id] in ("OK", "TAGGED")
                writer.close()
                assert (server.connections_v2, server.connections_v1) == (1, 0)
            finally:
                await server.stop()
        run(body())

    def test_stats_command_reports_per_shard(self):
        async def body():
            server = await _started_server()
            try:
                async with CacheClient("127.0.0.1", server.port) as c:
                    await c.get("x")
                    await c.get("x")
                    await c.set("x", b"v")
                    stats = await c.stats()
            finally:
                await server.stop()
            assert stats["num_shards"] == 2
            total = stats["total"]
            assert total["misses"] == 2
            assert total["reuse_admissions"] == 1
            assert total["latency_samples"] >= 3
            for shard in stats["shards"]:
                for field in ("hits", "misses", "reuse_admissions",
                              "data_evictions", "tag_evictions",
                              "p50_s", "p99_s", "busy_s"):
                    assert field in shard
            assert total["busy_s"] > 0.0
            process = stats["process"]
            assert process["pid"] > 0
            assert process["cpu_s"] > 0.0
            assert process["peak_rss_kb"] > 0
        run(body())

    def test_connection_limit_rejects_excess_clients(self):
        async def body():
            server = await _started_server(max_connections=1)
            try:
                r1, w1 = await asyncio.open_connection("127.0.0.1", server.port)
                enc = FrameEncoder()
                assert await _exchange(r1, w1, enc.simple(
                    VERB_IDS["PING"], 1)) == [(1, "PONG", b"")]
                r2, w2 = await asyncio.open_connection("127.0.0.1", server.port)
                frame = await read_frame(r2)
                assert (STATUS_NAMES[frame.verb_id], frame.payload) == \
                    ("ERR", b"busy")
                assert await read_frame(r2) is None  # and closed
                w1.close(); w2.close()
            finally:
                await server.stop()
        run(body())


class TestConcurrentClients:
    def test_two_clients_interleaved_traffic(self):
        async def body():
            server = await _started_server(num_shards=4, data_capacity=256,
                                           admission="always")
            keys = [f"shared:{i}" for i in range(40)]

            async def worker(client):
                ok = 0
                for _ in range(3):
                    for key in keys:
                        value = await client.get(key)
                        if value is None:
                            await client.set(key, b"p" * 16)
                        else:
                            assert value == b"p" * 16
                            ok += 1
                return ok

            try:
                async with CacheClient("127.0.0.1", server.port) as c1, \
                           CacheClient("127.0.0.1", server.port) as c2:
                    hits = await asyncio.gather(worker(c1), worker(c2))
                    stats = await c1.stats()
            finally:
                await server.stop()
            # both clients observed hits and the server saw all the traffic
            assert all(h > 0 for h in hits)
            assert stats["total"]["gets"] == 2 * 3 * len(keys)
            assert stats["stored_entries"] == len(keys)
        run(body())


class TestGracefulShutdown:
    def test_stop_drains_inflight_request(self):
        async def body():
            server = _HeldGetServer(ShardedStore(num_shards=2,
                                                 data_capacity=64),
                                    port=0, request_timeout=10.0)
            await server.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            # a GET whose handler is held back: the request is in flight
            writer.write(encode_request(FrameEncoder(), "GET", ["held"], 1))
            await writer.drain()
            while server.inflight == 0:     # wait until the server took it
                await asyncio.sleep(0.001)
            stopper = asyncio.ensure_future(server.stop(drain_timeout=5.0))
            await asyncio.sleep(0.05)       # stop() is now draining
            assert not stopper.done()
            server.release.set()            # let the handler finish
            frame = await read_frame(reader)
            # answered, not cut
            assert (frame.seq, STATUS_NAMES[frame.verb_id]) == (1, "MISS")
            await stopper
            assert server.inflight == 0
            # new connections are refused after shutdown
            with pytest.raises((ConnectionError, OSError)):
                r, w = await asyncio.open_connection("127.0.0.1", server.port)
                w.close()
            writer.close()
        run(body())

    def test_stop_closes_idle_connections(self):
        async def body():
            server = await _started_server()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            assert await _exchange(reader, writer, FrameEncoder().simple(
                VERB_IDS["PING"], 1)) == [(1, "PONG", b"")]
            await server.stop(drain_timeout=1.0)
            assert await reader.read() == b""   # EOF: server closed it
            assert server.connections == 0
            writer.close()
            await writer.wait_closed()
        run(body())

    def test_stop_with_idle_clients_returns_within_drain_timeout(self):
        # since Python 3.12 Server.wait_closed waits for every connection:
        # awaited before the idle ones are closed, stop never returned
        async def body():
            server = await _started_server()
            client = CacheClient("127.0.0.1", server.port, max_retries=0)
            assert await client.ping()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            assert await _exchange(reader, writer, FrameEncoder().simple(
                VERB_IDS["PING"], 1)) == [(1, "PONG", b"")]
            loop = asyncio.get_running_loop()
            began = loop.time()
            await asyncio.wait_for(server.stop(drain_timeout=1.0), 10.0)
            assert loop.time() - began < 1.0
            assert server.connections == 0
            # both clients see the close
            assert await asyncio.wait_for(reader.read(), 1.0) == b""
            mux = client.transport._conn
            await asyncio.wait_for(mux.lost, 1.0)
            assert mux.dead
            await client.close()
            writer.close()
            await writer.wait_closed()
        run(body())

    def test_quit_closes_only_its_own_connection(self):
        async def body():
            server = await _started_server()
            try:
                async with CacheClient("127.0.0.1", server.port) as c:
                    assert await c.quit() is True
                    # the server hung up that connection, not the server:
                    # the transport dials a fresh one for the next request
                    assert await c.ping() is True
            finally:
                await server.stop()
        run(body())


class TestClient:
    def test_retry_reaches_server_started_late(self):
        async def body():
            server = await _started_server()
            port = server.port
            await server.stop()
            client = CacheClient("127.0.0.1", port,
                                 max_retries=8, backoff=0.05)

            async def start_later():
                await asyncio.sleep(0.15)
                late = CacheServer(ShardedStore(num_shards=2,
                                                data_capacity=64), port=port)
                await late.start()
                return late

            starter = asyncio.ensure_future(start_later())
            try:
                assert await client.ping()   # retries until the server is up
            finally:
                await client.close()
                await (await starter).stop()
        run(body())

    def test_busy_rejection_names_the_server_reason(self):
        async def body():
            server = await _started_server(max_connections=1)
            try:
                async with CacheClient("127.0.0.1", server.port) as holder:
                    assert await holder.ping()  # holds the only slot
                    client = CacheClient("127.0.0.1", server.port,
                                         max_retries=0)
                    try:
                        with pytest.raises(ConnectionError, match="busy"):
                            await client.ping()
                    finally:
                        await client.close()
            finally:
                await server.stop()
        run(body())

    def test_server_errors_are_not_retried(self):
        async def body():
            server = await _started_server()
            served = []
            serve = server._serve_frame

            def counting(conn, verb_id, *frame):
                served.append(VERB_NAMES[verb_id])
                return serve(conn, verb_id, *frame)

            server._serve_frame = counting
            try:
                async with CacheClient("127.0.0.1", server.port) as c:
                    # RGET is a cluster verb: a plain cache server answers ERR
                    with pytest.raises(ServerError, match="unknown command"):
                        await c.transport.call("RGET", "k")
            finally:
                await server.stop()
            # one request, never retried
            assert served == ["RGET"]
        run(body())


# ---------------------------------------------------------------------------
# load generation + benchmark entry points
# ---------------------------------------------------------------------------


class TestLoadgen:
    def test_value_of_is_deterministic(self):
        assert value_of(123) == value_of(123)
        assert len(value_of(123, 64)) == 64
        assert value_of(123) != value_of(124)

    def test_reuse_admission_beats_admit_always_when_downsized(self):
        # the acceptance comparison: same data capacity, reuse admission
        # filters one-touch streams and wins on hit rate
        wl = build_workload(EXAMPLE_MIX, n_refs=4000, seed=2013, scale=32)
        rates = {}
        for admission in ("reuse", "always"):
            store = ShardedStore(num_shards=4, data_capacity=512,
                                 admission=admission, seed=1)
            rates[admission] = replay_store(store, wl).hit_rate
        assert rates["reuse"] > rates["always"]

    def test_replay_matches_server_accounting(self):
        from repro.service.loadgen import replay_with_client

        async def body():
            server = await _started_server(num_shards=2, data_capacity=128)
            wl = build_workload(["gcc"], n_refs=400, seed=7, scale=32)
            async with CacheClient("127.0.0.1", server.port) as client:
                result = await replay_with_client(client, wl)
                stats = await client.stats()
            await server.stop()
            return result, stats
        result, stats = run(body())
        assert result.gets == 400
        assert result.ops == result.gets + result.sets
        total = stats["total"]
        assert total["gets"] == result.gets
        assert total["hits"] == result.hits
        assert total["reuse_admissions"] == result.sets_stored
        assert total["tag_only_sets"] == result.sets_tagged


class TestServiceCLI:
    def test_parser_defaults(self):
        args = build_service_parser().parse_args(["serve"])
        assert args.shards == 4 and args.admission == "reuse"
        assert args.data_capacity == 4096

    def test_main_dispatches_service_commands(self, capsys):
        from repro.__main__ import main
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert "serve" in out and "bench-service" not in out

    def test_bench_service_is_an_unknown_command(self, capsys):
        from repro.__main__ import main
        assert main(["bench-service"]) == 2
        assert "unknown command 'bench-service'" in capsys.readouterr().err

    def test_serve_rejects_tags_that_round_below_the_data_store(self):
        from repro.service.cli import main
        argv = ["serve", "--shards", "4", "--data-capacity", "100",
                "--tag-capacity", "100", "--port", "0"]
        with pytest.raises(SystemExit, match="24 in whole 8-way sets"):
            main(argv)


class TestServiceAdmission:
    """The ``service-admission`` experiment: two live servers, one order."""

    def test_counts_equal_replay_store_and_repeat(self):
        from repro.experiments.common import ExperimentParams
        from repro.experiments.service_admission import (
            admission_store,
            run_service_admission,
        )

        params = ExperimentParams(n_refs=300, seed=7)
        first = run_service_admission(params)
        assert run_service_admission(params) == first
        wl = build_workload(EXAMPLE_MIX, n_refs=300, seed=7, scale=32)
        for admission in ("reuse", "always"):
            row = first[admission]
            baseline = replay_store(admission_store(admission, 7), wl)
            assert row["gets"] == baseline.gets == 300 * len(EXAMPLE_MIX)
            assert (row["hits"], row["sets_stored"], row["sets_tagged"]) == (
                baseline.hits, baseline.sets_stored, baseline.sets_tagged)
            # the server counted what the client saw
            assert row["server_hit_rate"] == row["hit_rate"]
        assert first["always"]["sets_tagged"] == 0

    def test_run_writes_the_comparison_as_json(self, tmp_path, capsys):
        from repro.__main__ import main

        out_json = tmp_path / "admission.json"
        code = main(["run", "service-admission", "--refs", "200",
                     "--no-cache", "--json", str(out_json)])
        assert code == 0
        assert "hit-rate gain" in capsys.readouterr().out
        data = json.loads(out_json.read_text())["service-admission"]
        assert set(data) >= {"reuse", "always", "hit_rate_per_mb_gain"}
        assert data["refs_per_core"] == 200
        for mode in ("reuse", "always"):
            assert data[mode]["admission"] == mode
            assert data[mode]["stored_entries"] <= data[mode][
                "data_capacity_entries"]


class TestStoreExtensionsForCluster:
    def test_force_set_bypasses_admission(self):
        s = ReuseStore(data_capacity=8)  # reuse admission by default
        assert s.set("k", b"declined") is False  # one-touch SET only tags
        assert s.force_set("k", b"adopted") is True
        assert s.get("k") == b"adopted"

    def test_keys_sorted_across_shards(self):
        store = ShardedStore(num_shards=4, data_capacity=64,
                             admission="always")
        for i in (3, 1, 2, 0):
            store.set(f"k{i}", b"v")
        assert store.keys() == ["k0", "k1", "k2", "k3"]

    def test_evict_listener_sees_data_and_tag_evictions(self):
        events = []
        s = ReuseStore(data_capacity=2, tag_capacity=8, admission="always")
        s.evict_listener = lambda key, kind: events.append((key, kind))
        for i in range(4):
            s.set(f"k{i}", b"v")
        kinds = {kind for _, kind in events}
        assert events and kinds <= {"data", "tag"}
        assert "data" in kinds  # capacity pressure evicted stored values

    def test_sharded_listener_installs_on_every_shard(self):
        events = []
        store = ShardedStore(num_shards=2, data_capacity=4,
                             admission="always")
        store.set_evict_listener(lambda key, kind: events.append(key))
        for i in range(12):
            store.set(f"k{i}", b"v")
        assert len(events) == 12 - len(store)


class TestFinalStatsFlush:
    def test_flush_prints_and_persists(self, tmp_path, capsys):
        from repro.service.cli import _final_stats_flush, build_service_parser

        out_json = tmp_path / "final.json"
        args = build_service_parser().parse_args(
            ["serve", "--final-stats-json", str(out_json)]
        )

        async def body():
            server = await _started_server(admission="always")
            client = CacheClient("127.0.0.1", server.port)
            await client.set("k", b"v")
            await client.get("k")
            await client.close()
            await server.stop()
            return server

        server = run(body())
        _final_stats_flush(server, args)
        out = capsys.readouterr().out
        assert "final stats" in out and str(out_json) in out
        data = json.loads(out_json.read_text())
        assert data["total"]["hits"] == 1
        assert data["stored_entries"] == 1
        assert data["process"]["pid"] > 0
        # the same document STATS answers, server block included
        assert set(data) == set(server.stats_snapshot())
        assert data["server"]["connections_v2"] == 1

    def test_serve_parser_accepts_final_stats_json(self):
        args = build_service_parser().parse_args(
            ["serve", "--final-stats-json", "x.json"]
        )
        assert args.final_stats_json == "x.json"


class TestReplayWithClient:
    def test_shared_client_is_not_closed(self):
        from repro.service.loadgen import replay_with_client

        async def body():
            server = await _started_server(admission="always")
            client = CacheClient("127.0.0.1", server.port)
            wl = build_workload(["gcc"], n_refs=200, seed=7, scale=32)
            result = await replay_with_client(client, wl)
            # the caller keeps ownership: the client still works
            await client.set("after", b"v")
            assert await client.get("after") == b"v"
            await client.close()
            await server.stop()
            return result

        result = run(body())
        assert result.gets == 200
        assert result.ops == result.gets + result.sets


class TestReplayInterleaved:
    def test_matches_the_in_process_interleave(self):
        """Deterministic replay sees the same hit pattern as replay_store."""
        from repro.service.loadgen import replay_interleaved, replay_store
        from repro.service.store import ReuseStore

        wl = build_workload(["gcc", "mcf"], n_refs=300, seed=7, scale=32)
        baseline = replay_store(
            ReuseStore(data_capacity=64, tag_capacity=256), wl
        )

        async def body():
            server = await _started_server(
                num_shards=1, data_capacity=64, tag_capacity=256,
                admission="reuse",
            )
            client = CacheClient("127.0.0.1", server.port)
            result = await replay_interleaved(client, wl)
            # the caller keeps ownership: the client still works (two
            # GET misses arm the tag, then the SET is admitted)
            await client.get("after")
            await client.get("after")
            await client.set("after", b"v")
            assert await client.get("after") == b"v"
            await client.close()
            await server.stop()
            return result

        result = run(body())
        assert result.gets == baseline.gets == 600
        assert result.hits == baseline.hits
        assert result.sets_stored == baseline.sets_stored
        assert result.sets_tagged == baseline.sets_tagged

    def test_is_deterministic_across_runs(self):
        from repro.service.loadgen import replay_interleaved

        wl = build_workload(["gcc"], n_refs=200, seed=7, scale=32)

        async def one():
            server = await _started_server(admission="reuse")
            client = CacheClient("127.0.0.1", server.port)
            result = await replay_interleaved(client, wl)
            await client.close()
            await server.stop()
            return result

        a, b = run(one()), run(one())
        assert (a.hits, a.sets_stored, a.sets_tagged) == \
               (b.hits, b.sets_stored, b.sets_tagged)
