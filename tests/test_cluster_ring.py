"""Tests for :mod:`repro.cluster.ring`: the consistent-hash ring that maps
keys to owner nodes (emptiness, ownership, bounded movement on join,
deterministic cross-process placement)."""

import asyncio
import bisect
import hashlib
import pathlib
import subprocess
import sys

import pytest

from repro.cluster import ClusterClient, HashRing, RingEmptyError
from repro.cluster import ring as ring_module
from repro.cluster.ring import DEFAULT_VNODES, KEY_POINT_MEMO, _point

KEYS = [f"key:{i}" for i in range(400)]


class TestMembership:
    def test_empty_ring_raises_cleanly(self):
        ring = HashRing()
        with pytest.raises(RingEmptyError):
            ring.owner("k")
        with pytest.raises(RingEmptyError):
            ring.preference("k", 2)
        assert len(ring) == 0

    def test_ring_empty_error_is_a_lookup_error(self):
        # callers that guard generic lookup failures still catch it
        assert issubclass(RingEmptyError, LookupError)

    def test_duplicate_add_and_missing_remove_are_loud(self):
        ring = HashRing(["a"])
        with pytest.raises(ValueError):
            ring.add("a")
        with pytest.raises(ValueError):
            ring.remove("b")

    def test_vnodes_must_be_positive(self):
        with pytest.raises(ValueError):
            HashRing(vnodes=0)

    def test_contains_and_nodes_sorted(self):
        ring = HashRing(["b", "a", "c"])
        assert "a" in ring and "z" not in ring
        assert ring.nodes == ("a", "b", "c")


class TestOwnership:
    def test_single_node_owns_all_keys(self):
        ring = HashRing(["solo"])
        assert all(ring.owner(k) == "solo" for k in KEYS)
        assert ring.shares(KEYS) == {"solo": 1.0}

    def test_preference_head_is_owner(self):
        ring = HashRing(["a", "b", "c"])
        for key in KEYS[:50]:
            pref = ring.preference(key, 3)
            assert pref[0] == ring.owner(key)
            assert len(pref) == len(set(pref)) == 3

    def test_preference_clamps_to_ring_size(self):
        ring = HashRing(["a", "b"])
        assert len(ring.preference("k", 5)) == 2

    def test_shares_are_roughly_balanced(self):
        ring = HashRing(["a", "b", "c", "d"])
        shares = ring.shares(KEYS)
        # vnodes keep every node within a loose band around 1/N
        for node, share in shares.items():
            assert 0.10 <= share <= 0.45, (node, share)

    def test_insertion_order_is_irrelevant(self):
        forward = HashRing(["a", "b", "c"])
        backward = HashRing(["c", "b", "a"])
        assert forward.fingerprint() == backward.fingerprint()
        assert all(forward.owner(k) == backward.owner(k) for k in KEYS)


class TestJoinMovement:
    def test_join_moves_at_most_fair_share(self):
        """Adding one node to N moves <= ~1/(N+1) + eps of the keys."""
        for n in (1, 2, 3, 4):
            nodes = [f"n{i}" for i in range(n)]
            ring = HashRing(nodes)
            before = {k: ring.owner(k) for k in KEYS}
            ring.add("joiner")
            moved = sum(1 for k in KEYS if ring.owner(k) != before[k])
            bound = 1.0 / (n + 1) + 0.10  # vnode-variance allowance
            assert moved / len(KEYS) <= bound, (n, moved)

    def test_moved_keys_only_go_to_the_joiner(self):
        ring = HashRing(["a", "b", "c"])
        before = {k: ring.owner(k) for k in KEYS}
        ring.add("d")
        for key in KEYS:
            after = ring.owner(key)
            if after != before[key]:
                assert after == "d", (key, before[key], after)

    def test_leave_is_the_mirror_of_join(self):
        ring = HashRing(["a", "b", "c", "d"])
        before = {k: ring.owner(k) for k in KEYS}
        ring.remove("d")
        for key in KEYS:
            after = ring.owner(key)
            if before[key] != "d":
                assert after == before[key]  # survivors keep their keys
            else:
                assert after != "d"


class TestDeterminism:
    def test_seed_changes_placement(self):
        a = HashRing(["a", "b", "c"], seed=1)
        b = HashRing(["a", "b", "c"], seed=2)
        assert a.fingerprint() != b.fingerprint()

    def test_point_ignores_pythonhashseed_inputs(self):
        # blake2b over the token string: same args, same 64-bit point
        assert _point(2013, "node", "a", 0) == _point(2013, "node", "a", 0)
        assert _point(2013, "key", "x") != _point(2013, "key", "y")

    def test_placement_byte_stable_across_processes(self):
        """A fresh interpreter (new PYTHONHASHSEED) builds the same ring."""
        ring = HashRing(["alpha", "beta", "gamma"], seed=2013)
        script = (
            "from repro.cluster import HashRing;"
            "r = HashRing(['alpha', 'beta', 'gamma'], seed=2013);"
            "print(r.fingerprint());"
            "print(r.owner('probe:17'))"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True,
            env={
                "PYTHONPATH": str(
                    pathlib.Path(__file__).resolve().parents[1] / "src"
                ),
                "PYTHONHASHSEED": "12345",
            },
        ).stdout.split()
        assert out[0] == ring.fingerprint()
        assert out[1] == ring.owner("probe:17")

    def test_default_vnodes_constant(self):
        assert HashRing(["a"]).vnodes == DEFAULT_VNODES


def _unmemoised_preference(ring, key, n):
    """``ring.preference(key, n)`` walked from a freshly hashed key point."""
    points, owners = ring._points, ring._owners
    start = bisect.bisect_right(points, _point(ring.seed, "key", key))
    want, found = min(n, len(ring)), []
    for step in range(len(points)):
        owner = owners[(start + step) % len(points)]
        if owner not in found:
            found.append(owner)
            if len(found) == want:
                break
    return found


class TestKeyPointMemo:
    """``HashRing.key_point``: a bounded memo of the key's blake2b point."""

    KEYS = [f"key:{i}" for i in range(10_000)]

    def _assert_unmemoised_placement(self, ring):
        for key in self.KEYS:
            want = _unmemoised_preference(ring, key, 3)
            assert ring.preference(key, 3) == want
            assert ring.preference(key, 1) == want[:1]
            assert ring.owner(key) == want[0]

    def test_bound_is_the_documented_constant(self):
        assert HashRing(["a"]).key_point.cache_info().maxsize == KEY_POINT_MEMO
        # the benchmark's cluster workload touches 8,874 distinct keys
        assert KEY_POINT_MEMO >= 8874

    def test_placement_is_unchanged_across_membership_and_eviction(self):
        ring = HashRing(["n0", "n1", "n2"])
        self._assert_unmemoised_placement(ring)
        # key points do not depend on membership: the memo stays valid
        misses = ring.key_point.cache_info().misses
        ring.add("n3")
        self._assert_unmemoised_placement(ring)
        ring.remove("n1")
        self._assert_unmemoised_placement(ring)
        assert ring.key_point.cache_info().misses == misses
        for i in range(3 * KEY_POINT_MEMO):
            ring.owner(f"evict:{i}")
        info = ring.key_point.cache_info()
        assert info.currsize == KEY_POINT_MEMO
        self._assert_unmemoised_placement(ring)  # every key hashed again
        assert ring.key_point.cache_info().misses == (
            info.misses + len(self.KEYS))

    def test_fingerprint_and_placement_digest_are_unchanged(self):
        # pinned from the unmemoised ring: routing is byte-identical
        for nodes, fingerprint, placement in (
            (["node0", "node1"], "e6fcac00999db563daa517216c5d50ea",
             "b1869775139d0ddc7c981be27803e10d"),
            (["node0", "node1", "node2"], "6d4017f85329da7ddbfee81b972c4215",
             "497bb435ae133e28f2f4e0327c1de192"),
        ):
            ring = HashRing(nodes, seed=2013)
            assert ring.fingerprint() == fingerprint
            digest = hashlib.blake2b(digest_size=16)
            for key in self.KEYS:
                digest.update((ring.owner(key) + ","
                               + ",".join(ring.preference(key, 2))
                               + ";").encode())
            assert digest.hexdigest() == placement

    def test_one_blake2b_per_distinct_key(self, monkeypatch):
        ring = HashRing(["n0", "n1", "n2"])
        hashed = []
        blake2b = hashlib.blake2b

        def counting_blake2b(data, **kwargs):
            hashed.append(data)
            return blake2b(data, **kwargs)

        monkeypatch.setattr(ring_module.hashlib, "blake2b", counting_blake2b)
        keys = [f"hot:{i}" for i in range(100)]
        for _ in range(5):
            for key in keys:
                ring.owner(key)
                ring.preference(key, 2)
                ring.key_point(key)
        assert hashed == [f"{ring.seed}:key:{key}".encode() for key in keys]

    def test_cluster_client_get_walks_the_ring_once(self):
        class _Peer:
            def __init__(self, name, served):
                self.name, self.served = name, served

            async def get(self, key, trace=None):
                self.served.append((key, self.name, "GET"))
                return b"v"

            async def rget(self, key, trace=None):
                self.served.append((key, self.name, "RGET"))
                return None  # a replica miss falls back to the owner

        nodes = {"n0": ("127.0.0.1", 1), "n1": ("127.0.0.1", 2),
                 "n2": ("127.0.0.1", 3)}
        keys = [f"key:{i}" for i in range(20)]
        owner_of = {key: HashRing(nodes).owner(key) for key in keys}

        async def body(read_replicas):
            client = ClusterClient(nodes, replicas=2,
                                   read_replicas=read_replicas)
            served = []
            client._clients = {name: _Peer(name, served) for name in nodes}
            ring, walks = client.ring, []
            for name in ("owner", "preference"):
                method = getattr(ring, name)
                setattr(ring, name, lambda *a, _m=method, _n=name:
                        walks.append(_n) or _m(*a))
            for key in keys:
                assert await client.get(key) == b"v"
            assert walks == ["preference"] * len(keys)
            # the owner answers GET, a replica holder only RGET
            for key, name, verb in served:
                assert (name == owner_of[key]) == (verb == "GET")
            return [verb for _, _, verb in served]

        assert asyncio.run(body(False)) == ["GET"] * len(keys)
        spread = asyncio.run(body(True))
        assert spread.count("GET") == len(keys) and "RGET" in spread
