"""Tests for :mod:`repro.cluster`: the distributed TO-MSI protocol table,
the owner-side replica directory, the versioned replica store, and the
multi-node cluster (routing, invalidation, join/leave, consistency
storms)."""

import asyncio

import pytest

from repro.cluster import (
    ClusterClient,
    ClusterError,
    InvalidationError,
    LocalCluster,
    PeerClient,
    ReplicaStore,
    run_storm,
)
from repro.cluster.consistency import decode_counter, encode_value
from repro.coherence.distributed import (
    DistProtocolError,
    ReplicaDirectory,
    apply_distributed,
    legal_events,
)
from repro.coherence.states import Event, State
from repro.service.client import CacheClient, ServerError
from repro.service.protocol import (
    FrameEncoder,
    Reply,
    encode_reply,
    read_frame,
)


def run(coro):
    """Drive one async test body (no pytest-asyncio in the toolchain)."""
    return asyncio.run(asyncio.wait_for(coro, 60))


# ---------------------------------------------------------------------------
# the distributed transition table
# ---------------------------------------------------------------------------


class TestDistributedTable:
    def test_admission_walk(self):
        # the paper's selective-allocation walk, one level up: track on
        # first touch, store on the write that proves reuse
        t = apply_distributed(State.I, Event.GETS)
        assert t.next_state is State.TO and not t.allocates_data
        t = apply_distributed(State.TO, Event.GETX)
        assert t.next_state is State.M and t.allocates_data

    def test_only_sharer_exits_invalidate(self):
        for (state, event) in (
            (State.S, Event.GETX),
            (State.S, Event.UPG),
            (State.S, Event.DATA_REPL),
            (State.S, Event.TAG_REPL),
        ):
            assert apply_distributed(state, event).invalidates_replicas
        assert not apply_distributed(State.S, Event.GETS).invalidates_replicas
        assert not apply_distributed(State.S, Event.PUTS).invalidates_replicas
        assert not apply_distributed(State.M, Event.TAG_REPL).invalidates_replicas

    def test_putx_is_illegal_everywhere(self):
        for state in State:
            with pytest.raises(DistProtocolError):
                apply_distributed(state, Event.PUTX)

    def test_no_writeback_obligations(self):
        # look-aside cache: the client owns durability
        for state in State:
            for event in legal_events(state):
                t = apply_distributed(state, event)
                assert not t.writeback_to_memory
                assert not t.writeback_to_data_array

    def test_legal_events_sorted_and_complete(self):
        assert legal_events(State.I) == [Event.GETS, Event.GETX]
        assert Event.PUTX not in legal_events(State.S)


# ---------------------------------------------------------------------------
# the owner's replica directory
# ---------------------------------------------------------------------------


class TestReplicaDirectory:
    def test_admit_lands_in_modified(self):
        d = ReplicaDirectory()
        assert d.note_admit("k") == ()
        assert d.state_of("k") is State.M
        assert d.holders_of("k") == ()

    def test_replicate_opens_sharing(self):
        d = ReplicaDirectory()
        d.note_admit("k")
        d.note_replicate("k", "peer1")
        d.note_replicate("k", "peer2")
        assert d.state_of("k") is State.S
        assert d.holders_of("k") == ("peer1", "peer2")
        assert d.tracked_holders == 2

    def test_update_returns_holders_and_clears_them(self):
        d = ReplicaDirectory()
        d.note_admit("k")
        d.note_replicate("k", "peer1")
        holders = d.note_update("k")
        assert holders == ("peer1",)
        assert d.state_of("k") is State.M
        assert d.holders_of("k") == ()

    def test_update_from_a_holder_is_an_upgrade(self):
        d = ReplicaDirectory()
        d.note_admit("k")
        d.note_replicate("k", "peer1")
        assert d.note_update("k", writer="peer1") == ("peer1",)
        assert d.state_of("k") is State.M

    def test_update_on_untracked_key_is_an_admission(self):
        d = ReplicaDirectory()
        assert d.note_update("fresh") == ()
        assert d.state_of("fresh") is State.M

    def test_replica_evicted_narrows_the_holder_set(self):
        d = ReplicaDirectory()
        d.note_admit("k")
        d.note_replicate("k", "peer1")
        d.note_replicate("k", "peer2")
        d.note_replica_evicted("k", "peer1")
        assert d.holders_of("k") == ("peer2",)
        assert d.state_of("k") is State.S
        assert d.races == 0

    def test_stray_puts_counts_as_race_not_error(self):
        d = ReplicaDirectory()
        d.note_admit("k")
        d.note_replica_evicted("k", "ghost")
        assert d.races == 1
        assert d.state_of("k") is State.M  # entry untouched

    def test_data_eviction_demotes_and_invalidates(self):
        d = ReplicaDirectory()
        d.note_admit("k")
        d.note_replicate("k", "peer1")
        assert d.note_data_evicted("k") == ("peer1",)
        # TO carries no information: the entry is pruned back to I
        assert d.state_of("k") is State.I
        assert len(d) == 0

    def test_dropped_clears_everything(self):
        d = ReplicaDirectory()
        d.note_admit("k")
        d.note_replicate("k", "peer1")
        assert d.note_dropped("k") == ("peer1",)
        assert d.state_of("k") is State.I
        assert d.note_dropped("k") == ()  # idempotent on untracked keys

    def test_only_stable_sharer_states_persist(self):
        d = ReplicaDirectory()
        d.note_admit("a")
        d.note_admit("b")
        d.note_replicate("a", "p")
        assert len(d) == 2
        d.note_dropped("a")
        d.note_data_evicted("b")
        assert len(d) == 0 and d.tracked_holders == 0


# ---------------------------------------------------------------------------
# the peer's versioned replica store
# ---------------------------------------------------------------------------


class TestReplicaStore:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            ReplicaStore(0)

    def test_put_get_roundtrip(self):
        rs = ReplicaStore(4)
        accepted, evicted = rs.put("k", 1, b"v1", "owner")
        assert accepted and evicted == []
        assert rs.get("k") == b"v1" and len(rs) == 1

    def test_floor_rejects_strictly_older_pushes(self):
        rs = ReplicaStore(4)
        rs.invalidate("k", 5)
        assert rs.put("k", 4, b"old", "o") == (False, [])
        accepted, _ = rs.put("k", 5, b"current", "o")
        assert accepted  # the version the INVAL protected may replicate
        assert rs.get("k") == b"current"

    def test_retried_push_is_idempotent(self):
        rs = ReplicaStore(4)
        rs.put("k", 3, b"v", "o")
        accepted, _ = rs.put("k", 3, b"v", "o")
        assert accepted  # a retry after a lost response is not stale
        assert rs.put("k", 2, b"older", "o") == (False, [])

    def test_invalidate_drops_strictly_older_only(self):
        rs = ReplicaStore(4)
        rs.put("k", 7, b"v7", "o")
        assert rs.invalidate("k", 7) is False  # equal version survives
        assert rs.get("k") == b"v7"
        assert rs.invalidate("k", 8) is True
        assert rs.get("k") is None

    def test_fifo_eviction_reports_displaced_owners(self):
        rs = ReplicaStore(2)
        rs.put("a", 1, b"x", "owner-a")
        rs.put("b", 1, b"x", "owner-b")
        _, evicted = rs.put("c", 1, b"x", "owner-c")
        assert evicted == [("a", "owner-a")]
        assert rs.get("a") is None and rs.get("c") == b"x"

    def test_refresh_moves_key_to_the_back_of_the_fifo(self):
        rs = ReplicaStore(2)
        rs.put("a", 1, b"x", "oa")
        rs.put("b", 1, b"x", "ob")
        rs.put("a", 2, b"y", "oa")  # refreshed: now newest
        _, evicted = rs.put("c", 1, b"x", "oc")
        assert evicted == [("b", "ob")]

    def test_voluntary_evict_returns_owner(self):
        rs = ReplicaStore(2)
        rs.put("a", 1, b"x", "owner-a")
        assert rs.evict("a") == "owner-a"
        assert rs.evict("a") is None


# ---------------------------------------------------------------------------
# storm value helpers
# ---------------------------------------------------------------------------


class TestStormValues:
    def test_roundtrip(self):
        assert decode_counter("k", encode_value("k", 42)) == 42

    def test_foreign_value_is_loud(self):
        with pytest.raises(ValueError):
            decode_counter("k", encode_value("other", 1))


# ---------------------------------------------------------------------------
# the cluster end to end (real asyncio TCP on loopback)
# ---------------------------------------------------------------------------


class TestClusterBasics:
    def test_client_needs_nodes(self):
        with pytest.raises(ClusterError):
            ClusterClient({})

    def test_set_get_delete_route_by_ring(self):
        async def body():
            async with LocalCluster(3, admission="always",
                                    data_capacity_per_node=64) as cluster:
                client = cluster.client()
                assert await client.set("k1", b"v1")
                assert await client.get("k1") == b"v1"
                assert await client.get("absent") is None
                assert await client.delete("k1")
                assert await client.get("k1") is None
                # the value lived only on the ring owner
                owner = cluster.ring.owner("k1")
                for name, node in cluster.nodes.items():
                    assert node.store.contains("k1") is False
                assert owner in cluster.nodes

        run(body())

    def test_values_land_on_their_owner_only(self):
        async def body():
            async with LocalCluster(3, admission="always",
                                    data_capacity_per_node=256) as cluster:
                client = cluster.client()
                keys = [f"place:{i}" for i in range(60)]
                for key in keys:
                    await client.set(key, key.encode())
                for key in keys:
                    owner = cluster.ring.owner(key)
                    for name, node in cluster.nodes.items():
                        assert node.store.contains(key) == (name == owner)

        run(body())

    def test_reuse_admission_applies_per_owner(self):
        async def body():
            async with LocalCluster(2, admission="reuse",
                                    data_capacity_per_node=64) as cluster:
                client = cluster.client()
                # pure SET traffic is tagged, never stored — the paper's
                # selective allocation, enforced at the owning node
                assert await client.set("cold", b"v") is False
                assert await client.get("cold") is None
                # a second GET miss proves reuse; the next SET stores
                assert await client.get("cold") is None
                assert await client.set("cold", b"v") is True
                assert await client.get("cold") == b"v"

        run(body())

    def test_cluster_stats_aggregate(self):
        async def body():
            async with LocalCluster(2, admission="always",
                                    data_capacity_per_node=64) as cluster:
                client = cluster.client()
                await client.set("k", b"v")
                await client.get("k")
                await client.get("nope")
                stats = await client.stats()
                assert stats["total"]["hits"] == 1
                assert stats["total"]["misses"] == 1
                assert stats["total"]["stored_entries"] == 1
                assert len(stats["nodes"]) == 2

        run(body())

    def test_status_reports_every_node(self):
        async def body():
            async with LocalCluster(3, admission="always") as cluster:
                client = cluster.client()
                status = await client.status()
                assert sorted(status) == sorted(cluster.nodes)
                for name, block in status.items():
                    assert block["name"] == name
                    assert block["draining"] is False
                    assert block["replication_factor"] == cluster.replicas
                health = await client.health()
                assert all(v["up"] for v in health.values())

        run(body())


class TestReplication:
    def test_write_replicates_to_ring_successor(self):
        async def body():
            async with LocalCluster(3, admission="always", replicas=2,
                                    data_capacity_per_node=64) as cluster:
                client = cluster.client()
                await client.set("rk", b"v1")
                owner_name, holder_name = cluster.ring.preference("rk", 2)
                owner = cluster.nodes[owner_name]
                holder = cluster.nodes[holder_name]
                assert holder.replica_store.get("rk") == b"v1"
                assert owner.directory.holders_of("rk") == (holder_name,)

        run(body())

    def test_overwrite_invalidates_before_ack(self):
        async def body():
            async with LocalCluster(3, admission="always", replicas=2,
                                    data_capacity_per_node=64) as cluster:
                client = cluster.client()
                await client.set("rk", b"v1")
                _, holder_name = cluster.ring.preference("rk", 2)
                holder = cluster.nodes[holder_name]
                await client.set("rk", b"v2")
                # the ack implies no v1 replica survives anywhere; the
                # holder has either the re-pushed v2 or nothing
                assert holder.replica_store.get("rk") in (b"v2", None)
                await client.delete("rk")
                assert holder.replica_store.get("rk") is None

        run(body())

    def test_batched_writes_run_the_owner_write_path(self):
        # an MSET item replicates and re-pushes exactly as a SET does
        async def body():
            async with LocalCluster(3, admission="always", replicas=2,
                                    data_capacity_per_node=64) as cluster:
                client = cluster.client()
                keys = [f"bk{i}" for i in range(8)]
                assert await client.mset([(k, b"v1") for k in keys]) == \
                    [True] * len(keys)
                assert await client.mset([(k, b"v2") for k in keys]) == \
                    [True] * len(keys)
                for key in keys:
                    owner_name, holder_name = cluster.ring.preference(key, 2)
                    assert cluster.nodes[owner_name].versions[key] == 2
                    holder = cluster.nodes[holder_name]
                    assert holder.replica_store.get(key) in (b"v2", None)
                assert await client.mget(keys) == [b"v2"] * len(keys)

        run(body())

    def test_replica_read_path_serves_current_value(self):
        async def body():
            async with LocalCluster(3, admission="always", replicas=2,
                                    data_capacity_per_node=64) as cluster:
                client = cluster.client(read_replicas=True)
                await client.set("rk", b"v1")
                # spread reads rotate over owner and replica; every read
                # must see the acked value (replica misses fall back)
                for _ in range(8):
                    assert await client.get("rk") == b"v1"

        run(body())

    def test_stale_push_is_rejected_by_version_floor(self):
        async def body():
            async with LocalCluster(2, admission="always",
                                    data_capacity_per_node=64) as cluster:
                names = sorted(cluster.nodes)
                a, b = cluster.nodes[names[0]], cluster.nodes[names[1]]
                # b saw INVAL at version 3: a push of version 2 is stale
                b.replica_store.invalidate("k", 3)
                assert await b.handle_repl("k", 2, b"old") is False
                assert await b.handle_repl("k", 3, b"new") is True
                assert b.handle_rget("k") == b"new"
                assert a is not b

        run(body())


class TestMembership:
    def test_join_moves_a_bounded_fraction_and_loses_nothing(self):
        async def body():
            async with LocalCluster(2, admission="always",
                                    data_capacity_per_node=256) as cluster:
                client = cluster.client()
                keys = [f"mig:{i}" for i in range(100)]
                for key in keys:
                    await client.set(key, key.encode())
                report = await cluster.add_node()
                assert report["examined"] == 100
                assert report["moved_fraction"] <= 1 / 3 + 0.15
                for key in keys:
                    assert await client.get(key) == key.encode()

        run(body())

    def test_leave_migrates_every_key_to_survivors(self):
        async def body():
            async with LocalCluster(3, admission="always",
                                    data_capacity_per_node=256) as cluster:
                client = cluster.client()
                keys = [f"mig:{i}" for i in range(100)]
                for key in keys:
                    await client.set(key, key.encode())
                victim = sorted(cluster.nodes)[0]
                await cluster.remove_node(victim)
                assert victim not in cluster.nodes
                for key in keys:
                    assert await client.get(key) == key.encode()

        run(body())

    def test_cannot_remove_last_node(self):
        async def body():
            async with LocalCluster(1, admission="always") as cluster:
                name = next(iter(cluster.nodes))
                with pytest.raises(ValueError):
                    await cluster.remove_node(name)

        run(body())

    def test_peer_drain_verb_stops_the_target(self):
        async def body():
            async with LocalCluster(2, admission="always",
                                    data_capacity_per_node=64) as cluster:
                a, b = sorted(cluster.nodes.values(), key=lambda n: n.name)
                assert await a._peers[b.name].drain() is True
                assert b.draining is True

        run(body())

    def test_membership_changes_are_serialized(self):
        # a join and a leave launched together must not interleave their
        # ring edits and migrations (the membership lock)
        async def body():
            async with LocalCluster(2, admission="always",
                                    data_capacity_per_node=256) as cluster:
                client = cluster.client()
                keys = [f"ser:{i}" for i in range(50)]
                for key in keys:
                    await client.set(key, key.encode())
                victim = sorted(cluster.nodes)[0]
                join, leave = await asyncio.gather(
                    cluster.add_node(), cluster.remove_node(victim)
                )
                assert victim not in cluster.nodes
                assert join["node"] in cluster.nodes
                for key in keys:
                    assert await client.get(key) == key.encode()

        run(body())


class TestInvalFencing:
    """A holder that does not ack an INVAL must fence the write, not be
    logged over — the acked write would otherwise be stale-readable."""

    def test_unacked_inval_fails_the_write(self):
        async def body():
            async with LocalCluster(3, admission="always", replicas=2,
                                    data_capacity_per_node=64) as cluster:
                client = cluster.client()
                await client.set("fk", b"v1")
                owner_name, holder_name = cluster.ring.preference("fk", 2)
                owner = cluster.nodes[owner_name]
                holder = cluster.nodes[holder_name]
                assert holder.replica_store.get("fk") == b"v1"

                async def never_acks(*args, **kwargs):
                    raise ConnectionError("holder unreachable")

                # the holder is also the write's push target, so its
                # invalidation is the REPL push, and the failed write's
                # withdrawal an INVAL: fault both seams
                peer = owner._peers[holder_name]
                peer.repl = peer.inval = never_acks
                with pytest.raises(ServerError):
                    await client.set("fk", b"v2")
                # not acked, and nothing moved: the replica still equals
                # the last *acked* value, so no reader can go stale
                assert owner.store.get("fk") == b"v1"
                assert holder.replica_store.get("fk") == b"v1"
                assert holder_name in owner._pending_invals.get("fk", ())
                # the peer recovers: the next write clears the debt first
                del peer.repl, peer.inval
                assert await client.set("fk", b"v2")
                assert "fk" not in owner._pending_invals
                assert await client.get("fk") == b"v2"
                assert holder.replica_store.get("fk") in (b"v2", None)

        run(body())

    def test_debt_to_a_departed_member_clears(self):
        async def body():
            async with LocalCluster(2, admission="always",
                                    data_capacity_per_node=64) as cluster:
                client = cluster.client()
                name = cluster.ring.owner("dk")
                node = cluster.nodes[name]
                # a holder that left the cluster also left read routing:
                # nothing of it remains to invalidate
                node._pending_invals["dk"] = {"gone-node"}
                assert await client.set("dk", b"v") is True
                assert "dk" not in node._pending_invals

        run(body())

    def test_relinquish_hands_unacked_holders_to_the_adopter(self):
        async def body():
            async with LocalCluster(3, admission="always", replicas=2,
                                    data_capacity_per_node=64) as cluster:
                client = cluster.client()
                await client.set("ik", b"v1")
                owner_name, holder_name = cluster.ring.preference("ik", 2)
                owner = cluster.nodes[owner_name]

                async def never_acks(h, key, version):
                    return False

                owner._inval_one = never_acks
                failed = await owner.relinquish_key("ik")
                assert failed == (holder_name,)
                third = next(n for n in cluster.nodes.values()
                             if n.name != owner_name)
                third.inherit_pending("ik", failed)
                assert holder_name in third._pending_invals["ik"]
                third.inherit_pending("ik2", (third.name,))  # self: skipped
                assert "ik2" not in third._pending_invals

        run(body())

    def test_concurrent_fanout_debt_is_merged_not_overwritten(self):
        # the eviction path fans out without the key's write lock, so a
        # second round can park debt while the first awaits its acks; the
        # completing round must merge its result into the pending set
        async def body():
            async with LocalCluster(2, admission="always",
                                    data_capacity_per_node=64) as cluster:
                node = next(iter(cluster.nodes.values()))

                async def flaky(holder, key, version):
                    # a concurrent fan-out parks its own debt mid-flight
                    node._pending_invals.setdefault(key, set()).add("parked")
                    return holder != "bad"

                node._inval_one = flaky
                with pytest.raises(InvalidationError):
                    await node._invalidate("ck", 1, ["bad", "good"])
                assert node._pending_invals["ck"] == {"bad", "parked"}

                node._pending_invals.clear()
                await node._invalidate("sk", 1, ["good"])
                # the fully-acked round clears only its own targets
                assert node._pending_invals["sk"] == {"parked"}

        run(body())

    def test_a_write_timed_out_mid_fanout_leaves_no_stale_replica(self):
        # after a join, an old holder is still tracked but no longer a
        # push target, so an overwrite INVALs it; the write times out
        # mid-round, and the next acked write must still reach it
        async def body():
            cluster = LocalCluster(2, admission="always", replicas=2,
                                   data_capacity_per_node=512)
            for node in cluster.nodes.values():
                node.server.request_timeout = 0.3
            async with cluster:
                client = cluster.client()
                keys = [f"jk{i}" for i in range(200)]
                for key in keys:
                    assert await client.set(key, b"v1")
                await cluster.add_node()
                key, owner, holder = next(
                    (key, owner, cluster.nodes[h])
                    for key in keys
                    for owner in [cluster.nodes[cluster.ring.owner(key)]]
                    for h in owner.directory.holders_of(key)
                    if h not in cluster.ring.preference(key, 2)
                    and cluster.nodes[h].replica_store.get(key) == b"v1")
                peer = owner._peers[holder.name]

                async def slow_inval(key, version, trace=None):
                    await asyncio.sleep(1.0)
                    return await PeerClient.inval(peer, key, version)

                peer.inval = slow_inval
                with pytest.raises(ServerError, match="timeout"):
                    await client.set(key, b"v2")
                del peer.inval
                assert await client.set(key, b"v3")
                reader = PeerClient(holder.host, holder.port)
                try:
                    assert await reader.rget(key) in (None, b"v3")
                finally:
                    await reader.close()

        run(body())

    def test_a_write_timed_out_mid_push_parks_its_pushed_targets(self):
        # an overwrite pushes before its store changes: the first target
        # accepts v2, the second is held past request_timeout, and the
        # owner keeps v1, so the accepted copy must not go unparked
        async def body():
            cluster = LocalCluster(3, admission="always", replicas=3,
                                   data_capacity_per_node=512)
            for node in cluster.nodes.values():
                node.server.request_timeout = 0.3
            async with cluster:
                client = cluster.client()
                key = "rk"
                assert await client.set(key, b"v1")
                assert await client.set(key, b"v1")  # an update: push first
                owner = cluster.nodes[cluster.ring.owner(key)]
                first, second = (
                    n for n in cluster.ring.preference(key, 3)
                    if n != owner.name)
                peer = owner._peers[second]

                async def slow_repl(key, version, value, trace=None):
                    await asyncio.sleep(1.0)
                    return await PeerClient.repl(peer, key, version, value)

                peer.repl = slow_repl
                with pytest.raises(ServerError, match="timeout"):
                    await client.set(key, b"v2")
                del peer.repl
                assert owner.store.get(key) == b"v1"
                assert cluster.nodes[first].replica_store.get(key) == b"v2"
                assert owner._pending_invals.get(key) == {first, second}
                # the next acked write reaches both again
                assert await client.set(key, b"v3")
                for name in (first, second):
                    assert cluster.nodes[name].replica_store.get(key) == b"v3"

        run(body())

    def test_relinquish_waits_for_the_key_write_lock(self):
        # migration must not interleave with a half-done write to the key
        async def body():
            async with LocalCluster(2, admission="always",
                                    data_capacity_per_node=64) as cluster:
                client = cluster.client()
                await client.set("rk", b"v1")
                owner = cluster.nodes[cluster.ring.owner("rk")]
                lock = owner._key_lock("rk")
                await lock.acquire()
                task = asyncio.ensure_future(owner.relinquish_key("rk"))
                await asyncio.sleep(0.05)
                assert not task.done()      # blocked on the writer's lock
                lock.release()
                await task
                assert owner.store.get("rk") is None

        run(body())


class TestMergedPush:
    """An overwrite invalidates a holder that is also a push target with
    one REPL of the new value, fenced exactly as an INVAL would be."""

    @staticmethod
    def _record_invals(owner):
        sent = []

        async def recording(holder, key, version):
            sent.append(holder)
            return True

        owner._inval_one = recording
        return sent

    def test_stale_merged_push_acks_and_untracks(self):
        async def body():
            async with LocalCluster(3, admission="always", replicas=2,
                                    data_capacity_per_node=64) as cluster:
                client = cluster.client()
                await client.set("sk", b"v1")
                owner_name, holder_name = cluster.ring.preference("sk", 2)
                owner = cluster.nodes[owner_name]
                holder = cluster.nodes[holder_name]
                assert holder_name in owner.directory.holders_of("sk")
                holder.replica_store.invalidate("sk", 10 ** 6)
                sent = self._record_invals(owner)
                # a floor above the push proves no older copy survives
                assert await client.set("sk", b"v2") is True
                assert sent == []
                assert holder_name not in owner.directory.holders_of("sk")
                assert "sk" not in owner._pending_invals
                assert owner.directory.races == 0

        run(body())

    def test_push_floor_rejects_a_late_older_push_after_eviction(self):
        rs = ReplicaStore(4)
        assert rs.put("k", 5, b"v5", "o") == (True, [])
        assert rs.evict("k") == "o"
        # a timed-out REPL(4) landing now would be an untracked old copy
        assert rs.put("k", 4, b"v4", "o") == (False, [])
        assert rs.get("k") is None and rs.stale_rejects == 1
        assert rs.put("k", 5, b"v5", "o") == (True, [])  # retry-safe

    def test_holder_outside_the_push_set_still_gets_inval(self):
        async def body():
            async with LocalCluster(3, admission="always", replicas=2,
                                    data_capacity_per_node=64) as cluster:
                client = cluster.client()
                await client.set("hk", b"v1")
                owner_name, holder_name = cluster.ring.preference("hk", 2)
                owner = cluster.nodes[owner_name]
                third = next(n for n in cluster.nodes.values()
                             if n.name not in (owner_name, holder_name))
                owner.directory.note_replicate("hk", third.name)
                third.replica_store.put("hk", 1, b"v1", owner_name)
                original = owner._inval_one
                sent = []

                async def recording(holder, key, version):
                    sent.append(holder)
                    return await original(holder, key, version)

                owner._inval_one = recording
                assert await client.set("hk", b"v2") is True
                assert sent == [third.name]
                assert third.replica_store.get("hk") is None
                assert cluster.nodes[holder_name].replica_store.get("hk") \
                    == b"v2"

                # and its INVAL still fences the write
                owner.directory.note_replicate("hk", third.name)

                async def never_acks(holder, key, version):
                    return holder != third.name

                owner._inval_one = never_acks
                with pytest.raises(ServerError):
                    await client.set("hk", b"v3")
                assert owner.store.get("hk") == b"v2"
                assert third.name in owner._pending_invals["hk"]

        run(body())

    def test_pending_push_target_is_cleared_by_the_push_alone(self):
        async def body():
            async with LocalCluster(3, admission="always", replicas=2,
                                    data_capacity_per_node=64) as cluster:
                client = cluster.client()
                await client.set("dk", b"v1")
                owner_name, holder_name = cluster.ring.preference("dk", 2)
                owner = cluster.nodes[owner_name]
                owner._pending_invals["dk"] = {holder_name}
                sent = self._record_invals(owner)
                assert await client.set("dk", b"v2") is True
                assert sent == []
                assert "dk" not in owner._pending_invals
                assert cluster.nodes[holder_name].replica_store.get("dk") \
                    == b"v2"

        run(body())

    def test_failed_push_withdraws_an_earlier_accepted_copy(self):
        async def body():
            async with LocalCluster(3, admission="always", replicas=3,
                                    data_capacity_per_node=64) as cluster:
                client = cluster.client()
                await client.set("wk", b"v1")
                owner_name, first_name, second_name = \
                    cluster.ring.preference("wk", 3)
                owner = cluster.nodes[owner_name]
                first = cluster.nodes[first_name]
                second = cluster.nodes[second_name]
                assert first.replica_store.get("wk") == b"v1"
                assert second.replica_store.get("wk") == b"v1"
                peer = owner._peers[second_name]

                async def unreachable(*args, **kwargs):
                    raise ConnectionError("holder unreachable")

                # the first target accepts the push, the second never acks
                peer.repl = peer.inval = unreachable
                with pytest.raises(ServerError):
                    await client.set("wk", b"v2")
                # the first target's v2 was taken back and is fenced: no
                # reachable copy is newer than the owner's acked value
                assert owner.store.get("wk") == b"v1"
                assert first.replica_store.get("wk") is None
                assert first.replica_store.put("wk", 2, b"v2", owner_name) \
                    == (False, [])
                assert second.replica_store.get("wk") == b"v1"
                assert owner._pending_invals["wk"] == {second_name}
                del peer.repl, peer.inval
                assert await client.set("wk", b"v3")
                assert "wk" not in owner._pending_invals
                assert first.replica_store.get("wk") == b"v3"
                assert second.replica_store.get("wk") == b"v3"

        run(body())

    def test_a_timed_out_push_that_landed_is_withdrawn(self):
        async def body():
            async with LocalCluster(3, admission="always", replicas=2,
                                    data_capacity_per_node=64) as cluster:
                client = cluster.client()
                await client.set("lk", b"v1")
                owner_name, holder_name = cluster.ring.preference("lk", 2)
                owner = cluster.nodes[owner_name]
                holder = cluster.nodes[holder_name]
                peer = owner._peers[holder_name]
                landed = []

                async def lands_then_times_out(key, version, value):
                    # delivered and stored, but the ack never comes back
                    landed.append(
                        await PeerClient.repl(peer, key, version, value))
                    raise asyncio.TimeoutError

                peer.repl = lands_then_times_out
                with pytest.raises(ServerError):
                    await client.set("lk", b"v2")
                assert landed == [True, True]  # the push and its retry
                assert owner.store.get("lk") == b"v1"
                # the withdrawal's INVAL was acked: v2 is gone and fenced,
                # so the holder owes nothing
                assert holder.replica_store.get("lk") is None
                assert holder.replica_store.put("lk", 2, b"v2", owner_name) \
                    == (False, [])
                assert "lk" not in owner._pending_invals
                del peer.repl
                assert await client.set("lk", b"v3")
                assert holder.replica_store.get("lk") == b"v3"

        run(body())


class TestPessimisticReplication:
    """A timed-out REPL push may still land at the peer — the holder must
    be tracked before the push, not only on a confirmed accept."""

    def test_timed_out_push_keeps_holder_tracked(self):
        async def body():
            async with LocalCluster(3, admission="always", replicas=2,
                                    data_capacity_per_node=64) as cluster:
                client = cluster.client()
                owner_name, holder_name = cluster.ring.preference("pk", 2)
                owner = cluster.nodes[owner_name]

                async def push_times_out(key, version, value):
                    raise asyncio.TimeoutError

                owner._peers[holder_name].repl = push_times_out
                assert await client.set("pk", b"v1")
                # outcome unknown: the holder stays tracked so the next
                # write's INVAL fan-out reaches a late-landing copy
                assert holder_name in owner.directory.holders_of("pk")

        run(body())

    def test_confirmed_stale_push_untracks_the_holder(self):
        async def body():
            async with LocalCluster(3, admission="always", replicas=2,
                                    data_capacity_per_node=64) as cluster:
                client = cluster.client()
                owner_name, holder_name = cluster.ring.preference("sk", 2)
                owner = cluster.nodes[owner_name]
                holder = cluster.nodes[holder_name]
                holder.replica_store.invalidate("sk", 10 ** 6)
                assert await client.set("sk", b"v1")
                # STALE is a proof the peer kept nothing
                assert holder_name not in owner.directory.holders_of("sk")
                assert owner.directory.races == 0

        run(body())


class TestMigrationGuards:
    def test_maybe_adopt_defers_to_fresh_writes(self):
        cluster = LocalCluster(1, admission="always")
        node = next(iter(cluster.nodes.values()))
        node.versions["mk"] = 5  # the new owner already took a client write
        assert node.maybe_adopt("mk", b"migrated", 3) is False
        assert node.store.get("mk") is None
        assert node.maybe_adopt("other", b"migrated", 3) is True
        assert node.store.get("other") == b"migrated"


class TestFloorAging:
    def test_young_floors_survive_the_count_bound(self):
        rs = ReplicaStore(1)  # count bound would be 4
        for i in range(10):
            rs.invalidate(f"k{i}", 5)
        # younger than floor_min_age: kept, so a delayed REPL of any
        # invalidated key still cannot resurrect an old value
        assert len(rs._floor) == 10
        for i in range(10):
            assert rs.put(f"k{i}", 4, b"late", "o") == (False, [])

    def test_aged_floors_are_evicted_past_the_bound(self):
        rs = ReplicaStore(1, floor_min_age=0.0)
        for i in range(10):
            rs.invalidate(f"k{i}", 5)
        assert len(rs._floor) <= 4


class TestVersionCompaction:
    def test_dead_counters_fold_into_the_base(self):
        cluster = LocalCluster(1, admission="always",
                               data_capacity_per_node=8)
        node = next(iter(cluster.nodes.values()))
        node.store.force_set("live", b"v")
        node.versions["live"] = 3
        node.versions.update({f"dead:{i}": i + 1 for i in range(2000)})
        node._compact_versions()
        assert len(node.versions) < 100  # the dead tail is gone
        assert node.versions["live"] == 3  # stored keys keep their counter
        # monotonicity survives the prune: every future assignment starts
        # above every version this owner ever handed out
        assert node.version_of("dead:1999") >= 2000
        assert node.version_of("never-seen") >= 2000


class TestClientCancellation:
    def test_cancelled_request_cannot_poison_the_next(self):
        async def body():
            async def answer_late(reader, writer):
                # answer the first request only after the second arrives
                enc = FrameEncoder()
                first = await read_frame(reader)
                second = await read_frame(reader)
                writer.write(encode_reply(enc, Reply("PONG"), first.seq))
                writer.write(encode_reply(enc, Reply("MISS"), second.seq))
                await writer.drain()
                await reader.read()
                writer.close()

            server = await asyncio.start_server(answer_late, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            client = CacheClient("127.0.0.1", port)
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(client.ping(), 0.2)
            # the cancelled call abandoned its sequence id ...
            assert client.transport._conn.pending == {}
            # ... so its late answer is dropped, and the next request on
            # the same connection gets its own
            assert await client.get("k") is None
            await client.close()
            server.close()
            await server.wait_closed()

        run(body())


class TestConsistencyStorm:
    def test_storm_sees_no_stale_reads(self):
        async def body():
            async with LocalCluster(3, admission="always", replicas=2,
                                    data_capacity_per_node=128) as cluster:
                client = cluster.client(read_replicas=True)
                report = await run_storm(
                    client, num_keys=12, writers=3, readers=6,
                    writes_per_writer=30,
                )
                assert report.ok, report.to_dict()
                assert report.writes > 0 and report.reads > 0
                snap = cluster.status_snapshot()
                assert snap["protocol_races"] == 0

        run(body())

    def test_storm_survives_eviction_pressure(self):
        async def body():
            # per-node capacity far below the keyset: DataRepl/TagRepl
            # invalidations fire constantly
            async with LocalCluster(3, admission="always", replicas=2,
                                    data_capacity_per_node=8) as cluster:
                client = cluster.client(read_replicas=True)
                report = await run_storm(
                    client, num_keys=24, writers=4, readers=4,
                    writes_per_writer=25,
                )
                assert report.ok, report.to_dict()

        run(body())

    def test_storm_after_join_stays_consistent(self):
        async def body():
            async with LocalCluster(2, admission="always", replicas=2,
                                    data_capacity_per_node=64) as cluster:
                client = cluster.client(read_replicas=True)
                await run_storm(client, num_keys=8, writers=2, readers=2,
                                writes_per_writer=10)
                await cluster.add_node()
                report = await run_storm(
                    client, num_keys=8, writers=2, readers=4,
                    writes_per_writer=20,
                )
                assert report.ok, report.to_dict()

        run(body())


class TestClusterCliSizes:
    """``repro cluster`` rejects store sizes with one error line and exit 1,
    as ``repro serve`` does, before any node starts."""

    @pytest.mark.parametrize("subcommand", ["serve", "smoke", "trace"])
    def test_tag_capacity_below_data_store_is_an_error_line(self, subcommand):
        from repro.cluster.cli import main

        with pytest.raises(SystemExit) as info:
            main([subcommand, "--tag-capacity", "10"])
        message = str(info.value.code)
        assert message.startswith(f"repro cluster {subcommand}: tag directory")
        assert "cannot be smaller than the data store" in message

    def test_valid_sizes_pass_the_check(self):
        from repro.cluster.cli import build_cluster_parser, check_store_sizes

        args = build_cluster_parser().parse_args(["smoke", "--tag-capacity", "4096"])
        assert check_store_sizes(args) is None

    def test_exit_status_is_one(self):
        import os
        import pathlib
        import subprocess
        import sys

        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "cluster", "smoke", "--refs", "500",
             "--tag-capacity", "10"],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=str(src)),
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("repro cluster smoke: ")
        assert "Traceback" not in proc.stderr


class TestClusterCliSurface:
    def test_bench_is_no_longer_a_subcommand(self, capsys):
        from repro.cluster.cli import main

        with pytest.raises(SystemExit) as info:
            main(["bench"])
        assert info.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["n0", "n0=127.0.0.1", "n0=host:port"])
    def test_a_bad_node_spec_is_one_error_line(self, spec):
        from repro.cluster.client import parse_node_specs

        with pytest.raises(SystemExit) as info:
            parse_node_specs(["n1=127.0.0.1:9000", spec])
        assert info.value.code == (
            f"bad --node {spec!r}; expected NAME=HOST:PORT")

    def test_node_specs_parse_to_client_addresses(self):
        from repro.cluster.client import parse_node_specs

        assert parse_node_specs(["a=127.0.0.1:9000", "b=::1:9001"]) == {
            "a": ("127.0.0.1", 9000), "b": ("::1", 9001)}


class TestClusterScalingExperiment:
    def test_tiny_sweep_is_deterministic_and_monotonic(self):
        from repro.experiments.cluster_scaling import run_cluster_scaling
        from repro.experiments.common import ExperimentParams

        params = ExperimentParams(n_refs=300)
        first = run_cluster_scaling(params)
        assert run_cluster_scaling(params) == first
        assert first["node_counts"] == [1, 2, 3]
        assert first["monotonic_hit_rate"], first["reuse"]["hit_rates"]
        for admission in ("reuse", "always"):
            rows = first[admission]["sweep"]
            assert [row["nodes"] for row in rows] == [1, 2, 3]
            for row in rows:
                assert row["gets"] == 300 * first["cores"]
                assert row["server_hit_rate"] == row["hit_rate"]
                assert row["stored_entries"] <= row["data_capacity_entries"]
