"""Consistent-hash ring with virtual nodes and deterministic placement.

The ring is the cluster's key→owner map, shared (by construction, not by
messaging) between every :class:`~repro.cluster.client.ClusterClient` and
every node: placement depends only on ``(seed, node names, vnodes, key)``
through blake2b, never on process state, insertion order or ``PYTHONHASHSEED``
— the same property :func:`repro.service.store.stable_hash` gives the
key→shard map one level down.

Each node contributes ``vnodes`` points on a 64-bit ring; a key is owned by
the first point clockwise from the key's own hash.  Virtual nodes keep the
per-node share near ``1/N`` and — the property the cluster's join/leave
path relies on — adding a node to an ``N``-node ring moves roughly
``1/(N+1)`` of the keys *to the new node only*; ownership between surviving
nodes never changes.

:attr:`HashRing.key_point` memoises each key's blake2b position in one
LRU memo of :data:`KEY_POINT_MEMO` keys, the discipline
:attr:`~repro.service.sharding.ShardedStore.key_hash` applies one level
down: a hot key is hashed once, not on every ``owner``/``preference``
walk.  A key's position depends only on ``(seed, key)``, never on
membership, so ``add``/``remove`` leave the memo valid.
"""

from __future__ import annotations

import bisect
import hashlib
from functools import lru_cache, partial

__all__ = ["HashRing", "RingEmptyError", "DEFAULT_VNODES", "KEY_POINT_MEMO"]

#: virtual nodes per physical node (128 keeps share imbalance within ~20%)
DEFAULT_VNODES = 128

#: keys whose ring position one ring memoises (LRU): room for a working
#: set of hot keys, at about 120 bytes a key plus the key string it holds
KEY_POINT_MEMO = 16384


class RingEmptyError(LookupError):
    """A key lookup reached a ring with no nodes."""


def _point(seed: int, *parts: str) -> int:
    """Deterministic 64-bit ring position for a seeded token tuple."""
    token = ":".join(str(p) for p in parts)
    digest = hashlib.blake2b(
        f"{seed}:{token}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


class HashRing:
    """Consistent-hash ring mapping keys to node names."""

    def __init__(self, nodes=(), vnodes: int = DEFAULT_VNODES, seed: int = 2013):
        if vnodes <= 0:
            raise ValueError(f"vnodes must be positive, got {vnodes}")
        self.vnodes = vnodes
        self.seed = seed
        #: ``key_point(key)``: the key's own 64-bit ring position, memoised
        self.key_point = lru_cache(maxsize=KEY_POINT_MEMO)(
            partial(_point, seed, "key"))
        self._points = []  # sorted ring positions
        self._owners = []  # node name at the same index
        self._nodes = set()
        for node in nodes:
            self.add(node)

    # -- membership ----------------------------------------------------------

    @property
    def nodes(self) -> tuple:
        """Member node names, sorted (the ring itself is unordered)."""
        return tuple(sorted(self._nodes))

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    def add(self, node: str) -> None:
        """Add ``node``'s virtual points; idempotent errors are loud."""
        if node in self._nodes:
            raise ValueError(f"node {node!r} is already on the ring")
        self._nodes.add(node)
        for i in range(self.vnodes):
            point = _point(self.seed, "node", node, i)
            idx = bisect.bisect_left(self._points, point)
            # break the (astronomically unlikely) point collision by name
            # so placement stays independent of insertion order
            while (
                idx < len(self._points)
                and self._points[idx] == point
                and self._owners[idx] < node
            ):
                idx += 1
            self._points.insert(idx, point)
            self._owners.insert(idx, node)

    def remove(self, node: str) -> None:
        """Remove ``node``; keys it owned flow to their ring successors."""
        if node not in self._nodes:
            raise ValueError(f"node {node!r} is not on the ring")
        self._nodes.discard(node)
        keep = [i for i, owner in enumerate(self._owners) if owner != node]
        self._points = [self._points[i] for i in keep]
        self._owners = [self._owners[i] for i in keep]

    # -- placement -----------------------------------------------------------

    def owner(self, key: str) -> str:
        """The node owning ``key`` (first point clockwise from the key)."""
        if not self._nodes:
            raise RingEmptyError(
                "consistent-hash ring has no nodes; add nodes before "
                "routing keys"
            )
        idx = bisect.bisect_right(self._points, self.key_point(key))
        if idx == len(self._points):
            idx = 0  # wrap past the top of the ring
        return self._owners[idx]

    def preference(self, key: str, n: int) -> list:
        """First ``min(n, len(ring))`` distinct nodes clockwise from ``key``.

        ``preference(key, 1)[0] == owner(key)``; the tail names the replica
        targets, in the order the owner pushes to them.
        """
        if not self._nodes:
            raise RingEmptyError(
                "consistent-hash ring has no nodes; add nodes before "
                "routing keys"
            )
        want = min(n, len(self._nodes))
        found = []
        start = bisect.bisect_right(self._points, self.key_point(key))
        for step in range(len(self._points)):
            owner = self._owners[(start + step) % len(self._points)]
            if owner not in found:
                found.append(owner)
                if len(found) == want:
                    break
        return found

    # -- analysis helpers (tests, `repro cluster status`) ---------------------

    def shares(self, sample_keys) -> dict:
        """Fraction of ``sample_keys`` owned per node (placement balance)."""
        counts = {node: 0 for node in self._nodes}
        total = 0
        for key in sample_keys:
            counts[self.owner(key)] += 1
            total += 1
        return {
            node: counts[node] / total if total else 0.0
            for node in sorted(counts)
        }

    def fingerprint(self) -> str:
        """Stable digest of the whole placement (byte-stability checks)."""
        h = hashlib.blake2b(digest_size=16)
        for point, owner in zip(self._points, self._owners):
            h.update(point.to_bytes(8, "big"))
            h.update(owner.encode("utf-8"))
            h.update(b"\x00")
        return h.hexdigest()
