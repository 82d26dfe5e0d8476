"""Client-side routing for the cache cluster.

:class:`ClusterClient` is the cluster twin of
:class:`~repro.service.client.CacheClient`: it owns (or shares) a
:class:`~repro.cluster.ring.HashRing`, keeps one client connection per
node, and routes every operation to the key's owner — the same "compute
the placement locally, never ask" discipline the sharded store uses one
level down.

Reads can optionally spread over replica holders (``read_replicas=True``):
the client round-robins the key's preference list, reading replicas with
``RGET`` and falling back to the owner's authoritative ``GET`` on a
replica miss.  Because owners invalidate replicas *before* acknowledging
writes, a replica read can return the current value or miss — never a
stale one — so spreading reads costs no consistency.

Writes always go to the owner.  Nodes that repeatedly fail are marked
down: reads fail over along the preference list, writes raise
:class:`NodeDownError` (routing a write elsewhere would fork ownership).
``health()`` re-probes down nodes and revives the ones that answer.
"""

from __future__ import annotations

import asyncio

from ..obs.logging import get_logger
from .node import PeerClient
from .ring import HashRing

log = get_logger(__name__)

#: consecutive transport failures before a node is considered down
DOWN_AFTER = 3


class ClusterError(Exception):
    """Cluster-level routing failure."""


class NodeDownError(ClusterError):
    """The key's owner is marked down; writes cannot be re-routed."""


class ClusterClient:
    """Route cache operations across a cluster by consistent hashing."""

    def __init__(
        self,
        nodes: dict,
        ring: HashRing | None = None,
        replicas: int = 1,
        read_replicas: bool = False,
        pool_size: int = 2,
        timeout: float = 5.0,
        seed: int = 2013,
    ):
        """``nodes`` maps node name -> ``(host, port)``.

        Pass the cluster's own ``ring`` to share placement updates (node
        join/leave) in-process; otherwise a ring is built from the node
        names with ``seed`` and must match the server side's.
        ``pool_size`` is ignored: it remains only because the benchmark
        harness (``bench/svcwork.py``) passes it.
        """
        if not nodes:
            raise ClusterError("a cluster client needs at least one node")
        self.ring = ring if ring is not None else HashRing(nodes, seed=seed)
        self.replicas = replicas
        self.read_replicas = read_replicas
        self._clients = {
            name: PeerClient(host, port, timeout=timeout)
            for name, (host, port) in nodes.items()
        }
        self._failures = {name: 0 for name in nodes}
        self._down = set()
        self._reads = 0  # round-robin cursor for replica spreading

    # -- membership (kept in lockstep with the cluster manager) ---------------

    def add_node(self, name: str, host: str, port: int,
                 timeout: float = 5.0) -> None:
        """Register a node's address (the ring is updated by its owner)."""
        self._clients[name] = PeerClient(host, port, timeout=timeout)
        self._failures[name] = 0
        self._down.discard(name)

    async def remove_node(self, name: str) -> None:
        client = self._clients.pop(name, None)
        self._failures.pop(name, None)
        self._down.discard(name)
        if client is not None:
            await client.close()

    @property
    def node_names(self) -> tuple:
        return tuple(sorted(self._clients))

    @property
    def down_nodes(self) -> tuple:
        return tuple(sorted(self._down))

    # -- failure accounting ----------------------------------------------------

    def _ok(self, name: str) -> None:
        self._failures[name] = 0
        self._down.discard(name)

    def _fail(self, name: str) -> None:
        self._failures[name] = self._failures.get(name, 0) + 1
        if self._failures[name] >= DOWN_AFTER and name not in self._down:
            self._down.add(name)
            log.warning("marking node %s down after %d consecutive failures",
                        name, self._failures[name])

    def _client_for(self, name: str) -> PeerClient:
        try:
            return self._clients[name]
        except KeyError:
            raise ClusterError(
                f"ring routed to unknown node {name!r}; client membership "
                "is stale"
            ) from None

    # -- operations ------------------------------------------------------------

    def _read_order(self, key: str) -> tuple:
        """``(owner, nodes to try for a read)`` from one ring walk.

        The nodes are the key's preference list, replica-rotated; its
        head is the owner (``preference(key, 1)[0] == owner(key)``).
        """
        width = self.replicas if self.read_replicas else 1
        pref = self.ring.preference(key, width)
        owner = pref[0]
        if len(pref) > 1:
            self._reads += 1
            start = self._reads % len(pref)
            pref = pref[start:] + pref[:start]
        return owner, pref

    async def get(self, key: str, trace=None):
        """Value bytes for ``key`` or None; replica-spread, never stale."""
        owner, order = self._read_order(key)
        last_exc = None
        for name in order:
            if name in self._down:
                continue
            client = self._client_for(name)
            try:
                if name == owner:
                    value = await client.get(key, trace=trace)
                else:
                    value = await client.rget(key, trace=trace)
                self._ok(name)
            except (ConnectionError, asyncio.TimeoutError, OSError) as exc:
                self._fail(name)
                last_exc = exc
                continue
            if value is not None:
                return value
            if name == owner:
                return None  # authoritative miss
        # every replica missed (or was down): ask the owner directly
        if owner not in self._down:
            client = self._client_for(owner)
            try:
                value = await client.get(key, trace=trace)
                # repro: atomic=_down/_failures are advisory routing hints; a stale check only costs one extra try, never consistency
                self._ok(owner)
                return value
            except (ConnectionError, asyncio.TimeoutError, OSError) as exc:
                # repro: atomic=same advisory-health invariant as the _ok above
                self._fail(owner)
                last_exc = exc
        raise NodeDownError(
            f"no reachable node can answer GET {key!r} "
            f"(owner {owner!r}, down={sorted(self._down)})"
        ) from last_exc

    async def set(self, key: str, value: bytes, trace=None) -> bool:
        """Offer ``value`` to the key's owner; True iff stored."""
        owner = self.ring.owner(key)
        if owner in self._down:
            raise NodeDownError(f"owner {owner!r} of {key!r} is down")
        client = self._client_for(owner)
        try:
            stored = await client.set(key, value, trace=trace)
        except (ConnectionError, asyncio.TimeoutError, OSError):
            self._fail(owner)
            raise
        self._ok(owner)
        return stored

    async def delete(self, key: str, trace=None) -> bool:
        """Delete ``key`` at its owner; True iff a stored value was removed."""
        owner = self.ring.owner(key)
        if owner in self._down:
            raise NodeDownError(f"owner {owner!r} of {key!r} is down")
        client = self._client_for(owner)
        try:
            removed = await client.delete(key, trace=trace)
        except (ConnectionError, asyncio.TimeoutError, OSError):
            self._fail(owner)
            raise
        self._ok(owner)
        return removed

    # -- batch operations ------------------------------------------------------

    def _group_by_owner(self, keys) -> dict:
        """owner name -> ``[(position, key), ...]`` preserving key order.

        Raises :class:`NodeDownError` up front if any owner is down:
        batches are all-or-nothing at routing time, so a partial batch
        never silently drops the down node's slice.
        """
        groups = {}
        for idx, key in enumerate(keys):
            groups.setdefault(self.ring.owner(key), []).append((idx, key))
        for owner in groups:
            if owner in self._down:
                raise NodeDownError(f"owner {owner!r} is down")
        return groups

    async def _batch_per_owner(self, groups, op):
        """Fan ``op(client, pairs)`` out per owner node, concurrently.

        Owners hold disjoint key sets, so the fan-out preserves per-key
        operation order; results come back as ``(pairs, values)`` for
        positional reassembly.
        """
        async def one(owner, pairs):
            client = self._client_for(owner)
            try:
                values = await op(client, pairs)
            except (ConnectionError, asyncio.TimeoutError, OSError):
                self._fail(owner)
                raise
            self._ok(owner)
            return pairs, values

        return await asyncio.gather(
            *[one(owner, pairs) for owner, pairs in groups.items()]
        )

    async def mget(self, keys, trace=None) -> list:
        """Batch get across the cluster: one ``bytes | None`` per key.

        Keys are grouped by owner and fetched with one MGET per node
        (single round trip on v2).  Batch reads are owner-only — they
        skip the replica spreading of :meth:`get`, trading read fan-out
        for round-trip amortisation — and raise :class:`NodeDownError`
        if any key's owner is down.
        """
        keys = list(keys)
        if not keys:
            return []
        groups = self._group_by_owner(keys)
        results = await self._batch_per_owner(
            groups,
            lambda client, pairs: client.mget(
                [k for _, k in pairs], trace=trace
            ),
        )
        out = [None] * len(keys)
        for pairs, values in results:
            for (idx, _), value in zip(pairs, values):
                out[idx] = value
        return out

    async def mset(self, items, trace=None) -> list:
        """Batch set of ``(key, value)`` pairs: one stored-bool per item.

        Every item still goes to its key's owner and runs the owner's
        full write path (cluster nodes fan INVALs out per item before
        acking), so batching changes round trips, not semantics.
        """
        items = list(items)
        if not items:
            return []
        values_by_pos = [value for _, value in items]
        groups = self._group_by_owner([key for key, _ in items])
        results = await self._batch_per_owner(
            groups,
            lambda client, pairs: client.mset(
                [(k, values_by_pos[idx]) for idx, k in pairs], trace=trace
            ),
        )
        out = [False] * len(items)
        for pairs, flags in results:
            for (idx, _), flag in zip(pairs, flags):
                out[idx] = flag
        return out

    async def mdel(self, keys, trace=None) -> list:
        """Batch delete across the cluster: one removed-bool per key."""
        keys = list(keys)
        if not keys:
            return []
        groups = self._group_by_owner(keys)
        results = await self._batch_per_owner(
            groups,
            lambda client, pairs: client.mdel(
                [k for _, k in pairs], trace=trace
            ),
        )
        out = [False] * len(keys)
        for pairs, flags in results:
            for (idx, _), flag in zip(pairs, flags):
                out[idx] = flag
        return out

    # -- cluster-wide introspection --------------------------------------------

    async def ping_all(self) -> dict:
        """name -> bool reachability, without changing down-marks."""
        async def probe(name, client):
            try:
                return name, await asyncio.wait_for(client.ping(), 2.0)
            except (ConnectionError, asyncio.TimeoutError, OSError):
                return name, False

        results = await asyncio.gather(
            *[probe(n, c) for n, c in self._clients.items()]
        )
        return dict(sorted(results))

    async def health(self) -> dict:
        """Probe every node; revive down nodes that answer.

        Returns ``{name: {"up": bool, "was_down": bool}}``.
        """
        reachable = await self.ping_all()
        report = {}
        for name, up in reachable.items():
            was_down = name in self._down
            if up:
                self._ok(name)
            else:
                self._down.add(name)
            report[name] = {"up": up, "was_down": was_down}
        return report

    async def stats(self) -> dict:
        """Per-node STATS snapshots plus a cluster aggregate."""
        out = {"nodes": {}, "total": {}}
        hits = misses = stored = 0
        for name in self.node_names:
            if name in self._down:
                continue
            snap = await self._client_for(name).stats()
            out["nodes"][name] = snap
            total = snap.get("total", {})
            hits += total.get("hits", 0)
            misses += total.get("misses", 0)
            stored += snap.get("stored_entries", 0)
        lookups = hits + misses
        out["total"] = {
            "hits": hits,
            "misses": misses,
            "hit_rate": hits / lookups if lookups else 0.0,
            "stored_entries": stored,
        }
        return out

    async def status(self) -> dict:
        """Per-node CSTATUS blocks (cluster-layer view)."""
        out = {}
        for name in self.node_names:
            if name in self._down:
                out[name] = {"name": name, "unreachable": True}
                continue
            try:
                out[name] = await self._client_for(name).cstatus()
            except (ConnectionError, asyncio.TimeoutError, OSError):
                out[name] = {"name": name, "unreachable": True}
        return out

    #: CSTATUS counters summed into the ``totals`` block of
    #: :meth:`cstatus_summary` (absent keys count as zero)
    _SUMMED_STATUS_KEYS = (
        "stored", "data_capacity", "replicas_held", "pending_invals",
        "stale_rejects", "protocol_races", "directory_entries",
    )

    async def cstatus_summary(self) -> dict:
        """One aggregated cluster-health view over every node's CSTATUS.

        Backs ``repro top --cluster`` and tests: per-node blocks under
        ``"nodes"``, summed counters under ``"totals"``, plus the
        ``unreachable`` / ``draining`` name lists.  Down or mid-drain
        nodes are *reported*, never raised over.
        """
        nodes = await self.status()
        totals = {key: 0 for key in self._SUMMED_STATUS_KEYS}
        unreachable, draining = [], []
        for name, block in nodes.items():
            if block.get("unreachable"):
                unreachable.append(name)
                continue
            if block.get("draining"):
                draining.append(name)
            for key in self._SUMMED_STATUS_KEYS:
                totals[key] += block.get(key, 0)
        return {
            "nodes": nodes,
            "totals": totals,
            "num_nodes": len(nodes),
            "unreachable": sorted(unreachable),
            "draining": sorted(draining),
        }

    async def metrics(self) -> dict:
        """name -> Prometheus text from each node's METRICS verb.

        Unreachable nodes map to ``None`` (and count one failure toward
        the down-mark); nodes already marked down are skipped as ``None``
        without a probe.
        """
        out = {}
        for name in self.node_names:
            if name in self._down:
                out[name] = None
                continue
            try:
                out[name] = await self._client_for(name).metrics()
                self._ok(name)
            except (ConnectionError, asyncio.TimeoutError, OSError):
                self._fail(name)
                out[name] = None
        return out

    async def traces(self) -> dict:
        """Drain every reachable node's trace ring; name -> event dicts.

        The building block of ``repro cluster trace``: each node's TRACE
        verb hands over a disjoint JSONL batch (the server clears its ring
        on drain), parsed here into event dicts ready for
        :func:`repro.obs.dist.merge_node_traces`.  Down/unreachable nodes
        are skipped — their events stay in their rings for a later drain.
        """
        out = {}
        for name in self.node_names:
            if name in self._down:
                continue
            try:
                out[name] = await self._client_for(name).trace()
                self._ok(name)
            except (ConnectionError, asyncio.TimeoutError, OSError):
                self._fail(name)
        return out

    async def close(self) -> None:
        for client in self._clients.values():
            await client.close()

    async def __aenter__(self):
        return self

    async def __aexit__(self, *exc):
        await self.close()
