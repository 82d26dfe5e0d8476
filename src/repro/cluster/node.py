"""One cluster node: an owner store, a replica store, and the wire verbs.

A :class:`ClusterNode` wraps the single-process serving stack
(:class:`~repro.service.sharding.ShardedStore` behind a
:class:`~repro.service.server.CacheServer`) and adds the cross-node
machinery of :mod:`repro.coherence.distributed`:

* as the **owner** of the keys the ring assigns it, the node keeps a
  :class:`~repro.coherence.distributed.ReplicaDirectory` — tag-only
  entries naming which peers hold a replica — and turns every write,
  delete, and store-internal eviction into the protocol's invalidation
  fan-out *before* acknowledging the triggering operation;
* as a **peer**, it holds versioned read-only replicas pushed by other
  owners in a bounded :class:`ReplicaStore`, serving them over ``RGET``
  and dropping them on ``INVAL`` or replacing them on a newer ``REPL``.

Wire verbs added on top of the :mod:`repro.service` protocol — handlers
registered on :class:`ClusterServer`, framed like every other verb:

==========================  ==========================================
request                     response
==========================  ==========================================
``REPL key version value``  ``REPLICATED`` or ``STALE``
``INVAL key version``       ``INVALED``
``PUTS key node``           ``OK``
``RGET key``                ``VALUE`` (the replica's bytes) or ``MISS``
``CSTATUS``                 ``CSTATUS`` (a JSON document)
``DRAIN``                   ``DRAINING`` (node stops accepting, drains
                            in-flight)
==========================  ==========================================

Writes carry a per-key monotonic **version** assigned by the owner.
``INVAL`` and an accepted ``REPL`` both establish a *floor*: a peer that
saw ``INVAL(key, v)`` or accepted ``REPL(key, v)`` rejects any later
``REPL(key, v' < v)`` as ``STALE``, so a replication push that raced a
newer write can never resurrect an old value.  An overwrite therefore
sends a holder that is also one of the write's push targets a single
``REPL`` of the new value — it replaces the old copy and records the
floor — and every other holder an ``INVAL``.  Because the owner awaits
every such ack before acknowledging the write, an acknowledged write
guarantees no replica of an older version survives anywhere — the
cluster-wide version of the paper's rule that a line leaves the data
array the moment its tag group changes.

A holder that does not ack (down, or merely slow) is *not* papered over:
the write fails with ``ERR`` (:class:`InvalidationError`) after one
retry, the store keeps the last acked value, and the holder is parked in
the key's **pending-INVAL set** — every later fan-out for the key
re-targets it, and no write to the key acks until the debt clears.  A
push that failed may still have landed, so a failed write bumps the
key's version and sends an ``INVAL`` of it to every target it pushed
to: each one that acks holds no copy any more.  Only a target that acks
neither may serve the failed write's value until a later fan-out
reaches it.  Store evictions record the same debt without failing the
triggering operation (the surviving replica still equals the last acked
value, so nothing is stale *yet* — but the next write to the key must
reach it before acking).
"""

from __future__ import annotations

import asyncio
import json
import time

from ..obs import Observability
from ..obs.dist import (
    CAT_AUDIT,
    REPLICA_INVALIDATED,
    SpanIds,
    current_context,
    leaf_args,
    span_args,
    use_context,
)
from ..obs.logging import get_logger
from ..obs.prof import clock
from ..coherence.distributed import ReplicaDirectory
from ..coherence.states import State
from ..service.client import CacheClient
from ..service.protocol import Reply
from ..service.server import (
    CacheServer,
    ProtocolError,
    del_reply,
    set_reply,
    wire_verb,
)
from ..service.sharding import ShardedStore

log = get_logger(__name__)

#: wire verbs whose requests the node records as cluster requests (the
#: rest are recorded as plain service requests)
CLUSTER_VERBS = ("SET", "DEL", "REPL", "INVAL", "PUTS", "RGET", "CSTATUS",
                 "DRAIN")

#: tracing category for cross-node flows
CAT_CLUSTER = "cluster"

#: seconds a replica-store version floor survives even past the count
#: bound — long enough to fence any REPL push still in flight when the
#: INVAL that raced ahead of it was applied
FLOOR_MIN_AGE = 60.0


class InvalidationError(ProtocolError):
    """A write's invalidation fan-out is missing acks.

    The missing ack is an ``INVAL``'s or, for a holder the write pushes
    to, the ``REPL`` push's.  The write is NOT acknowledged (the client
    sees ``ERR``), because a holder that never acked may still serve its
    old replica over ``RGET``.
    """


class ReplicaStore:
    """Bounded, versioned store of read-only replicas held for peers.

    Entries are ``key -> (version, value, owner)``; capacity is enforced
    FIFO (oldest push evicted first) and evictions are reported back so the
    node can send the owner a ``PUTS`` notice.  ``invalidate(key, v)``
    drops any replica *strictly older* than ``v``; an accepted
    ``put(key, v, ...)`` replaces it.  Both record ``v`` as the key's
    version floor, and pushes strictly below the floor are rejected — the
    ordering guard described in the module docstring.  The push's floor
    outlives its entry: once the ``v`` copy is FIFO-evicted, a timed-out
    ``v-1`` push still in flight is rejected rather than landing
    untracked.  The bounds are strict so the fan-out for version ``v``
    (an ``INVAL`` to holders the write does not push to, one ``REPL`` to
    those it does) invalidates every older copy yet still lets the
    version-``v`` value itself replicate; a REPL retried after a lost
    response is likewise accepted idempotently rather than misreported
    as stale.

    The floor map is bounded at 4x capacity, but a floor younger than
    ``floor_min_age`` seconds is never evicted: it may still be fencing
    an in-flight REPL, and dropping it would reopen the exact
    resurrection window floors exist to close.  Residual window: a push
    delayed past ``floor_min_age`` *and* 4x-capacity younger floors of
    distinct keys can be re-accepted — the owner's pessimistic holder
    tracking (see :meth:`ClusterNode._replicate`) still reaches such a
    replica on the key's next write.
    """

    def __init__(self, capacity: int, floor_min_age: float = FLOOR_MIN_AGE):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.floor_min_age = floor_min_age
        self._entries = {}  # key -> (version, value, owner); insertion-ordered
        self._floor = {}  # key -> (version, monotonic stamp); insertion-ordered
        #: pushes rejected as stale (version below the key's floor or the
        #: held copy) — the fence working; CSTATUS surfaces it
        self.stale_rejects = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str):
        """Replica value bytes for ``key``, or ``None``."""
        entry = self._entries.get(key)
        return entry[1] if entry is not None else None

    def version_of(self, key: str):
        """Version of the held replica of ``key``, or ``None``."""
        entry = self._entries.get(key)
        return entry[0] if entry is not None else None

    def put(self, key: str, version: int, value: bytes, owner: str):
        """Accept a replica push; returns ``(accepted, evicted)``.

        An accepted push raises the key's floor to ``version``, exactly
        as ``invalidate(key, version)`` would.  ``evicted`` is a list of
        ``(key, owner)`` pairs displaced by the capacity bound, for PUTS
        notices.
        """
        floor = self._floor.get(key)
        if floor is not None and version < floor[0]:
            self.stale_rejects += 1
            return False, []
        current = self._entries.get(key)
        if current is not None and version < current[0]:
            self.stale_rejects += 1
            return False, []
        self._raise_floor(key, version)
        self._entries.pop(key, None)  # refresh insertion order
        self._entries[key] = (version, value, owner)
        evicted = []
        while len(self._entries) > self.capacity:
            old_key, (_, _, old_owner) = next(iter(self._entries.items()))
            del self._entries[old_key]
            evicted.append((old_key, old_owner))
        return True, evicted

    def invalidate(self, key: str, version: int) -> bool:
        """Drop any replica of ``key`` strictly older than ``version``.

        Records the floor either way; returns True iff a copy was dropped.
        """
        self._raise_floor(key, version)
        entry = self._entries.get(key)
        if entry is not None and entry[0] < version:
            del self._entries[key]
            return True
        return False

    def _raise_floor(self, key: str, version: int) -> None:
        old = self._floor.pop(key, None)  # re-insert to refresh order
        now = time.monotonic()
        self._floor[key] = (max(old[0] if old else 0, version), now)
        while len(self._floor) > 4 * self.capacity:
            oldest, (_, stamp) = next(iter(self._floor.items()))
            if now - stamp < self.floor_min_age:
                break  # young floors may fence in-flight REPLs: overgrow
            del self._floor[oldest]

    def evict(self, key: str):
        """Voluntarily drop ``key``; returns its owner or None."""
        entry = self._entries.pop(key, None)
        return entry[2] if entry is not None else None


class PeerClient(CacheClient):
    """Owner-to-peer client speaking the cluster verbs.

    Unlike the base client, the cluster verbs default their ``trace``
    argument to the *ambient* context (:func:`current_context`): fan-outs
    run under the triggering request's span (``use_context``), so the
    propagation happens without threading a ctx through every patchable
    call-site signature.  Pass ``trace`` explicitly to override.
    """

    async def repl(self, key: str, version: int, value: bytes,
                   trace=None) -> bool:
        """Push a replica; True iff the peer accepted (not STALE)."""
        trace = trace if trace is not None else current_context()
        reply = await self.transport.call("REPL", key, version, value,
                                          trace=trace)
        if reply.status == "REPLICATED":
            return True
        if reply.status == "STALE":
            return False
        raise ProtocolError(f"unexpected response {reply.status!r}")

    async def inval(self, key: str, version: int, trace=None) -> bool:
        """Invalidate the peer's replica up to ``version``."""
        trace = trace if trace is not None else current_context()
        reply = await self.transport.call("INVAL", key, version, trace=trace)
        return reply.status == "INVALED"

    async def puts(self, key: str, node: str, trace=None) -> bool:
        """Tell the owner this node dropped its replica of ``key``."""
        trace = trace if trace is not None else current_context()
        reply = await self.transport.call("PUTS", key, node, trace=trace)
        return reply.status == "OK"

    async def rget(self, key: str, trace=None):
        """Read the peer's replica of ``key``; None on a replica miss."""
        trace = trace if trace is not None else current_context()
        reply = await self.transport.call("RGET", key, trace=trace)
        if reply.status == "MISS":
            return None
        if reply.status == "VALUE":
            return reply.body if reply.body is not None else b""
        raise ProtocolError(f"unexpected response {reply.status!r}")

    async def cstatus(self) -> dict:
        """The node's cluster-level status block."""
        reply = await self.transport.call("CSTATUS")
        if reply.status != "CSTATUS":
            raise ProtocolError(f"unexpected response {reply.status!r}")
        return json.loads((reply.body or b"{}").decode("utf-8"))

    async def drain(self) -> bool:
        """Ask the peer to stop accepting connections and drain.

        The peer acks before it begins shutting down; in-flight requests
        on other connections still complete.
        """
        reply = await self.transport.call("DRAIN")
        return reply.status == "DRAINING"


class ClusterServer(CacheServer):
    """The service verb table plus the cluster's peer verbs, bound to one node.

    SET and DEL (singles and batches) override the base handlers with
    coroutines that run the full invalidate-before-ack owner write path,
    so every write on a cluster node waits for its fan-out.  Each runs
    its first step inline and continues in a task, bounded by the request
    timeout, only once it suspends.  The overrides keep the base handlers'
    names and so their table entries; the verbs stay in the service
    layer of the protocol spec.  GET, MGET and the peer verbs that never
    await (INVAL, PUTS, RGET, CSTATUS) are plain ``def`` handlers, served
    inline as their frames are parsed.
    """

    def __init__(self, node: "ClusterNode", store, **kwargs):
        super().__init__(store, **kwargs)
        self.node = node

    # -- the owner write path ------------------------------------------------

    async def _verb_set(self, key: str, value: bytes) -> Reply:
        return set_reply(await self.node.handle_set(key, value))

    async def _verb_del(self, key: str) -> Reply:
        return del_reply(await self.node.handle_delete(key))

    async def _verb_mset(self, items: list) -> Reply:
        # item by item, in order, each through the owner write path
        return Reply("STATUSES", values=[
            await self.node.handle_set(key, value) for key, value in items
        ])

    async def _verb_mdel(self, keys: list) -> Reply:
        return Reply("STATUSES", values=[
            await self.node.handle_delete(key) for key in keys
        ])

    # -- peer verbs ----------------------------------------------------------

    @wire_verb("REPL")
    async def _verb_repl(self, key: str, version: int, value: bytes) -> Reply:
        if await self.node.handle_repl(key, version, value):
            return Reply("REPLICATED", outcome="replicated")
        return Reply("STALE", outcome="stale")

    @wire_verb("INVAL")
    def _verb_inval(self, key: str, version: int) -> Reply:
        dropped = self.node.handle_inval(key, version)
        return Reply("INVALED", outcome="dropped" if dropped else "clean")

    @wire_verb("PUTS")
    def _verb_puts(self, key: str, holder: str) -> Reply:
        self.node.handle_puts(key, holder)
        return Reply("OK")

    @wire_verb("RGET")
    def _verb_rget(self, key: str) -> Reply:
        value = self.node.handle_rget(key)
        if value is None:
            return Reply("MISS", outcome="miss")
        return Reply("VALUE", value, outcome="hit")

    @wire_verb("CSTATUS")
    def _verb_cstatus(self) -> Reply:
        return Reply("CSTATUS", json.dumps(self.node.status()).encode("utf-8"))

    @wire_verb("DRAIN")
    async def _verb_drain(self) -> Reply:
        self.node.draining = True
        # stop accepting & drain in the background; this response (and
        # every other in-flight request) still completes
        asyncio.ensure_future(self.stop())
        return Reply("DRAINING")

    def _record_request(self, cmd: str, key, start: float, elapsed: float,
                        conn_id: int, ctx, outcome) -> None:
        if cmd not in CLUSTER_VERBS:
            super()._record_request(cmd, key, start, elapsed, conn_id,
                                    ctx, outcome)
            return
        if cmd in ("SET", "DEL") and key is not None:
            shard_idx = self.store.shard_of(key)
            self.store.shards[shard_idx].stats.record_latency(elapsed)
        self.node.record_request(cmd, elapsed, conn_id, start=start,
                                 ctx=ctx, key=key, outcome=outcome)


class ClusterNode:
    """One member of a cache cluster: owner of its ring span, peer to all.

    The node owns a sharded store, the replica directory for its keys, a
    replica store for other owners' keys, and one :class:`PeerClient` per
    peer.  ``lane`` indexes the node's tracing lane (the Chrome-trace
    *process* row), so a multi-node run reads as parallel timelines.
    """

    def __init__(
        self,
        name: str,
        store: ShardedStore,
        ring,
        host: str = "127.0.0.1",
        port: int = 0,
        replicas: int = 1,
        replica_capacity: int | None = None,
        lane: int = 0,
        peer_timeout: float = 2.0,
        obs: Observability | None = None,
        **server_kwargs,
    ):
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self.name = name
        self.store = store
        self.ring = ring
        self.replicas = replicas
        self.lane = lane
        self.peer_timeout = peer_timeout
        self.obs = obs if obs is not None else Observability.disabled()
        self.directory = ReplicaDirectory()
        self.replica_store = ReplicaStore(
            replica_capacity if replica_capacity is not None
            else max(1, store.data_capacity)
        )
        self.versions = {}  # key -> last version this owner assigned
        self._version_base = 0  # floor under every compacted-away counter
        self._pending_invals = {}  # key -> holders whose INVAL ack is owed
        self.draining = False
        self._peers = {}  # name -> PeerClient
        self._write_locks = {}  # key -> asyncio.Lock (pruned when idle)
        self._pending_evictions = []  # (key, kind) from the store listener
        #: request metric handles, looked up on first use (record_request)
        self._request_counters = {}  # verb -> counter
        self._request_latency = None
        #: fan-out and peer-verb counters, looked up on first use (_counter)
        self._counters = {}  # (name, *label values) -> counter
        store.set_evict_listener(self._on_store_evict)
        #: one id allocator for the node's request spans *and* its fan-out
        #: spans (the server shares it), prefixed with the node name so a
        #: merged trace's ids read as ``node0.17``
        self._trace_ids = SpanIds(name)
        self.server = ClusterServer(
            self, store, host=host, port=port, obs=self.obs,
            trace_ids=self._trace_ids, **server_kwargs
        )
        if self.obs.registry.enabled:
            self.obs.registry.gauge_callback(
                "repro_cluster_pending_invals",
                lambda: float(sum(
                    len(h) for h in self._pending_invals.values()
                )),
                help="unacked-INVAL debt currently fencing writes",
                node=name,
            )

    # -- lifecycle -----------------------------------------------------------

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    async def start(self) -> None:
        await self.server.start()

    async def stop(self, drain_timeout: float = 5.0) -> None:
        self.draining = True
        await self.server.stop(drain_timeout)
        for peer in self._peers.values():
            await peer.close()

    def connect_peer(self, name: str, host: str, port: int) -> None:
        """Register (or re-register) a peer's address.

        The peer's client makes one attempt per call (``max_retries=0``),
        timed by its connection's one timer at ``peer_timeout``: a dial
        of at most ``peer_timeout``, then a reply of at most
        ``peer_timeout``.  The node's own rounds are the only retry
        policy (:meth:`_invalidate`, :meth:`_replicate`).
        """
        old = self._peers.pop(name, None)
        if old is not None:
            # close asynchronously; the client may be mid-request elsewhere
            asyncio.ensure_future(old.close())
        self._peers[name] = PeerClient(host, port, max_retries=0,
                                       timeout=self.peer_timeout)

    async def disconnect_peer(self, name: str) -> None:
        peer = self._peers.pop(name, None)
        if peer is not None:
            await peer.close()
        # a removed member leaves read routing entirely, so any INVAL
        # debt owed to it is moot
        for key in [k for k, h in self._pending_invals.items() if name in h]:
            self._pending_invals[key].discard(name)
            if not self._pending_invals[key]:
                del self._pending_invals[key]

    def peer_names(self) -> tuple:
        return tuple(sorted(self._peers))

    # -- owner-side write path ------------------------------------------------

    def _key_lock(self, key: str) -> asyncio.Lock:
        lock = self._write_locks.get(key)
        if lock is None:
            lock = self._write_locks[key] = asyncio.Lock()
        return lock

    def _unlock(self, key: str, lock: asyncio.Lock) -> None:
        if not lock.locked() and self._write_locks.get(key) is lock:
            del self._write_locks[key]

    def version_of(self, key: str) -> int:
        """The key's effective version counter (base-folded after pruning)."""
        return self.versions.get(key, self._version_base)

    def _compact_versions(self) -> None:
        """Bound the version map (counters are deliberately never reset).

        Counters for keys gone from the store, the directory and the
        pending-INVAL set fold into a single global base that seeds every
        later assignment, so per-key monotonicity — the property peers'
        version floors rely on — survives the prune without per-key
        state.
        """
        limit = max(1024, 4 * self.store.data_capacity)
        if len(self.versions) <= limit:
            return
        for key in list(self.versions):
            if (key in self._pending_invals or self.store.contains(key)
                    or self.directory.state_of(key) is not State.I):
                continue
            self._version_base = max(self._version_base, self.versions.pop(key))

    async def handle_set(self, key: str, value: bytes, writer: str | None = None) -> bool:
        """Owner write: invalidate replicas, re-replicate, store, then ack.

        An overwrite sends each holder that is also a push target one
        ``REPL`` of the new value, before the store changes: the push
        replaces the old copy and raises the peer's floor, so it is that
        holder's invalidation.  Every other holder gets an ``INVAL``
        first.  Raises :class:`InvalidationError` (wire: ``ERR``) when a
        holder cannot be invalidated either way — the store is left
        untouched, any copy of the new value a push may have left is
        invalidated again (:meth:`_withdraw`), and the write is *not*
        acknowledged, so the surviving old replica is never
        newer-than-acked stale.
        """
        lock = self._key_lock(key)
        async with lock:
            try:
                version = self.version_of(key) + 1
                self.versions[key] = version
                if self.store.contains(key):
                    # update in place: always stored, so the push can go
                    # first; its targets are tracked before any await
                    owed = set(self.directory.note_update(key, writer))
                    owed.update(self._pending_invals.get(key, ()))
                    pushes = self._push_targets(key)
                    await self._invalidate(key, version, owed,
                                           pushed=pushes)
                    await self._replicate(key, version, value, pushes, owed)
                    stored = self.store.set(key, value)
                    push_after = False
                else:
                    # clear any pending INVAL debt before the value lands
                    await self._invalidate(key, version, ())
                    stored = self.store.set(key, value)
                    if stored:
                        holders = self.directory.note_admit(key)
                        await self._invalidate(key, version, holders)
                    push_after = stored
                await self._flush_evictions()
                self._compact_versions()
                if push_after:
                    await self._replicate(key, version, value,
                                          self._push_targets(key))
                return stored
            finally:
                self._unlock(key, lock)

    async def handle_delete(self, key: str) -> bool:
        """Owner delete: invalidate every replica before dropping the key.

        Like :meth:`handle_set`, an unacked INVAL fails the delete
        (``ERR``) instead of acking with an old replica still readable;
        the unreached holders stay parked in the pending set.
        """
        lock = self._key_lock(key)
        async with lock:
            try:
                version = self.version_of(key) + 1
                self.versions[key] = version
                holders = self.directory.note_dropped(key)
                await self._invalidate(key, version, holders)
                removed = self.store.delete(key)
                await self._flush_evictions()
                self._compact_versions()
                return removed
            finally:
                self._unlock(key, lock)

    async def relinquish_key(self, key: str) -> tuple:
        """Give up ownership of ``key`` (migration): INVAL holders, drop.

        The INVAL version is bumped past the last write so the strict
        floor drops replicas of the current value too; the adopting owner
        (seeded with the un-bumped version) bumps to the same number on
        its first write, so its replication pushes clear the floor.

        Returns the holders whose INVAL ack is still missing, for the
        adopting owner to inherit (:meth:`inherit_pending`) — this node
        is leaving the key behind and can no longer collect the debt.

        Takes the key's write lock like :meth:`handle_set` /
        :meth:`handle_delete`: a client write racing the migration must
        either complete before the relinquish (and have its replicas
        invalidated here) or start after it (and be routed by the ring).
        Interleaving with a half-done write could fold a version counter
        the write is about to re-publish, breaking monotonicity.
        """
        lock = self._key_lock(key)
        async with lock:
            try:
                version = self.version_of(key) + 1
                holders = self.directory.note_dropped(key)
                await self._invalidate(key, version, holders, strict=False)
                self.store.delete(key)
                # fold into the base: were this node to own the key again,
                # its versions must not restart below a peer-recorded floor
                self._version_base = max(
                    self._version_base, self.versions.pop(key, 0)
                )
                await self._flush_evictions()
                return tuple(sorted(self._pending_invals.pop(key, ())))
            finally:
                self._unlock(key, lock)

    def inherit_pending(self, key: str, holders) -> None:
        """Adopt a relinquishing owner's unacked-INVAL debt for ``key``.

        The inherited holders join this owner's pending set, so its next
        fan-out for the key re-invalidates them and no write acks until
        they answer.
        """
        holders = {h for h in holders if h != self.name}
        if holders:
            self._pending_invals.setdefault(key, set()).update(holders)

    def adopt(self, key: str, value: bytes, version: int) -> bool:
        """Take ownership of a migrated key (store bypassing admission)."""
        self.versions[key] = max(self.version_of(key), version)
        self.replica_store.evict(key)  # owner now: the replica copy is moot
        stored = self.store.force_set(key, value)
        if stored:
            self.directory.note_admit(key)
        return stored

    def maybe_adopt(self, key: str, value: bytes, version: int) -> bool:
        """Adopt ``key`` unless this owner already assigned it a version.

        Migration publishes the ring before it copies keys, so a client
        write can reach the new owner mid-migration; that fresh write
        must win — force-adopting the migrated old value over it would
        be a silent lost update.
        """
        if key in self.versions:
            return False
        return self.adopt(key, value, version)

    # -- store eviction -> DataRepl/TagRepl ----------------------------------

    def _on_store_evict(self, key: str, kind: str) -> None:
        # runs synchronously inside a store transition and must not
        # re-enter the store: just queue, the async caller flushes (and
        # awaits the INVAL fan-out) before acking
        self._pending_evictions.append((key, kind))

    async def _flush_evictions(self) -> None:
        while self._pending_evictions:
            key, kind = self._pending_evictions.pop(0)
            if kind == "data":
                holders = self.directory.note_data_evicted(key)
            else:
                holders = self.directory.note_dropped(key)
            if not holders:
                continue
            # the INVAL version is bumped past the evicted value's version
            # so the strict floor drops replicas of that exact version; the
            # bump is recorded (never reset — a reset would make peers
            # reject every replication of a re-admitted key as stale).
            # Non-strict: an unreached holder's replica still equals the
            # last acked value, so nothing is stale yet — the debt parks
            # in the pending set and fences the key's next write instead
            # of failing the unrelated operation that evicted it.
            version = self.version_of(key) + 1
            self.versions[key] = version
            await self._invalidate(key, version, holders, strict=False)

    # -- cross-node fan-out ---------------------------------------------------

    async def _invalidate(self, key: str, version: int, holders,
                          strict: bool = True, pushed=()) -> None:
        """Send INVAL to every holder and await the acks (before any ack
        of the operation that triggered it — the consistency linchpin).

        Holders still owed an INVAL from an earlier fan-out (the key's
        pending set) are always re-targeted, except those in ``pushed``:
        the write's ``REPL`` to them is their invalidation
        (:meth:`_replicate`).  A holder that does not ack after one retry
        is parked in the pending set, and with ``strict`` the triggering
        operation fails (:class:`InvalidationError`) rather than acking a
        write whose old copies may still be served — a slow peer keeps
        its replica; only the version floor on *recovery* is not enough.
        A fan-out cancelled mid-round (the triggering request timed out)
        parks every target it did not see ack before the cancel goes on.
        """
        targets = sorted(
            (set(holders) | self._pending_invals.get(key, set()))
            .difference(pushed)
        )
        if not targets:
            return
        tr = self.obs.tracer
        # the fan-out span: child of the request span that triggered it
        # (found via the contextvar — eviction fan-outs with no active
        # request become roots), propagated to each peer on the wire so
        # the peers' INVAL spans join the same tree
        ctx = self._trace_ids.begin(current_context()) if tr.enabled else None
        start = clock()
        # the rounds run under the fan-out span (a no-op re-set when
        # tracing is off), so each _inval_one picks the parent up from the
        # contextvar — keeping its signature patchable in tests
        unacked = targets
        with use_context(ctx if ctx is not None else current_context()):
            try:
                failed = await self._inval_round(targets, key, version)
                if failed:
                    # one immediate retry: a dropped connection or a slow
                    # peer, not necessarily a dead one
                    unacked = failed
                    failed = await self._inval_round(failed, key, version)
            except asyncio.CancelledError:
                # the triggering request timed out mid-round: the holders
                # are already gone from the directory, so one not seen to
                # ack is parked, or no later fan-out reaches it
                # repro: atomic=_settle_debt merges into the pending set (union failed), which commutes with concurrent rounds
                self._settle_debt(key, (), unacked)
                raise
        if self.obs.registry.enabled:
            self._counter(
                "repro_cluster_invalidations_total",
                "INVAL messages fanned out to replica holders",
            ).inc(len(targets))
            if failed:
                self._counter(
                    "repro_cluster_inval_failures_total",
                    "INVAL sends with no ack after retry",
                ).inc(len(failed))
        if failed:
            log.warning(
                "%s: %d invalidation(s) for %r unacked after retry; holders "
                "%s parked pending — no write to the key acks until they "
                "answer or leave the cluster",
                self.name, len(failed), key, failed,
            )
        # repro: atomic=_settle_debt re-reads the pending set after the acks and merges into it (subtract acked, union failed), which commutes with concurrent rounds
        self._settle_debt(key, set(targets).difference(failed), failed)
        if tr.enabled:
            tr.emit(
                "INVAL", cat=CAT_CLUSTER, ts=start, pid=self.lane, tid=0,
                dur=clock() - start,
                args=span_args(ctx, key=key, holders=len(targets)),
            )
        if failed and strict:
            self._raise_unacked(key, failed)

    def _settle_debt(self, key: str, acked, failed) -> None:
        """Fold one fan-out's outcome into the key's pending-INVAL set.

        Merge, never overwrite: the eviction path fans out without the
        key's write lock, so another round for the same key may have
        parked debt of its own while this one awaited its acks.
        Subtracting this round's acked holders and unioning its failed
        ones is commutative across rounds; assigning (or popping) the set
        wholesale would silently forgive a concurrent round's unacked
        INVAL.
        """
        pend = self._pending_invals.get(key)
        if failed:
            if pend is None:
                pend = self._pending_invals.setdefault(key, set())
            pend.difference_update(acked)
            pend.update(failed)
        elif pend is not None:
            pend.difference_update(acked)
            if not pend:
                del self._pending_invals[key]

    def _raise_unacked(self, key: str, failed) -> None:
        raise InvalidationError(
            f"inval fan-out incomplete for {key!r}: no ack from "
            f"{','.join(failed)}"
        )

    async def _inval_round(self, targets, key: str, version: int) -> list:
        """One concurrent INVAL round; returns the holders that did not ack."""
        results = await asyncio.gather(
            *[self._inval_one(h, key, version) for h in targets],
            return_exceptions=True,
        )
        return [h for h, r in zip(targets, results) if r is not True]

    async def _inval_one(self, holder: str, key: str, version: int) -> bool:
        """One INVAL, one transport attempt: True iff the holder acked.

        A refused, reset or silent peer raises ``ConnectionError`` after
        one attempt; :meth:`_invalidate`'s second round is the retry.
        """
        peer = self._peers.get(holder)
        if peer is None:
            # not a member any more: it left read routing with its peer
            # registration, so there is no replica left to invalidate
            return True
        return await peer.inval(key, version)

    def _push_targets(self, key: str) -> list:
        """The key's ring successors a write of it pushes to.

        Each is recorded as a holder here, before any push or other
        await: a timed out push may still be delivered and stored
        (cancellation does not undeliver the request bytes), and an
        untracked holder would be invisible to every future fan-out — a
        stale replica no write could ever clear.  Tracked up front, a
        store eviction of the key while a push is in flight invalidates
        the target too.
        """
        if self.replicas == 1:
            return []
        targets = [
            n for n in self.ring.preference(key, self.replicas)
            if n != self.name and n in self._peers
        ]
        for target in targets:
            self.directory.note_replicate(key, target)
        return targets

    async def _replicate(self, key: str, version: int, value: bytes,
                         targets, owed=()) -> None:
        """Push ``value`` to ``targets`` (from :meth:`_push_targets`).

        A push to a holder in ``owed`` — one the write must invalidate —
        *is* that invalidation: an accepted ``REPL(version)`` replaces the
        old copy and raises the peer's floor, and a ``STALE`` reply proves
        a floor above ``version`` already dropped it.  Such a push is
        retried once like an INVAL; if it still fails,
        :meth:`_withdraw` takes back every copy of ``version`` the write
        may have left and :class:`InvalidationError` fails the write
        before the store changes.  A push to any other target fails soft.

        Only a confirmed ``STALE`` rejection proves the peer kept nothing
        and untracks it; after a transport failure the possibly-phantom
        holder stays, costing at worst one spurious INVAL on the key's
        next write.
        """
        if not targets:
            return
        tr = self.obs.tracer
        ctx = self._trace_ids.begin(current_context()) if tr.enabled else None
        start = clock()
        try:
            with use_context(ctx if ctx is not None else current_context()):
                for i, target in enumerate(targets):
                    accepted = await self._push_one(target, key, version,
                                                    value)
                    if accepted is None and target in owed:
                        accepted = await self._push_one(target, key, version,
                                                        value)
                    if accepted is False:
                        self.directory.note_replica_evicted(key, target)
                    if self.obs.registry.enabled:
                        self._counter(
                            "repro_cluster_replications_total",
                            "replica pushes, by acceptance",
                            accepted=("unknown" if accepted is None
                                      else str(accepted).lower()),
                        ).inc()
                    if target not in owed:
                        continue
                    if accepted is None:
                        await self._withdraw(key, targets[:i + 1], target)
                    if accepted is False or (
                            target in self.directory.holders_of(key)):
                        # STALE proves no copy up to this version is left;
                        # an accepted push clears the debt only while the
                        # target is still tracked — an eviction fan-out
                        # that untracked it mid-push may owe it a newer
                        # INVAL this push cannot discharge
                        self._settle_debt(key, (target,), ())
        except asyncio.CancelledError:
            # the write timed out mid-round, before its store changed:
            # every target pushed so far may hold this version, newer
            # than the owner's, so each is parked for the next fan-out
            # repro: atomic=_settle_debt merges into the pending set (union failed), which commutes with concurrent rounds
            self._settle_debt(key, (), targets[:i + 1])
            raise
        finally:
            if tr.enabled:
                tr.emit(
                    "REPL", cat=CAT_CLUSTER, ts=start, pid=self.lane, tid=0,
                    dur=clock() - start,
                    args=span_args(ctx, key=key, targets=len(targets)),
                )

    async def _withdraw(self, key: str, pushed, failed: str) -> None:
        """Fail the write whose push to the owed holder ``failed`` went
        unacked, leaving no reachable copy newer than the last acked value.

        The write's version may have landed anyway: an earlier target in
        ``pushed`` accepted it, or ``failed`` stored it after the push
        timed out (cancelling does not undeliver the request bytes),
        while the owner's store still holds the older value.  So the
        key's version is bumped and every target in ``pushed`` gets a
        non-strict ``INVAL`` of it: each copy of the failed version is
        dropped and a late push of it meets the floor.  A target that
        does not ack that ``INVAL`` either is parked in the pending set
        and may keep serving whatever it applied, the failed version
        included, until a later fan-out for the key reaches it.
        """
        # parked before any await; the INVAL round below clears it on an ack
        self._pending_invals.setdefault(key, set()).add(failed)
        version = self.version_of(key) + 1
        self.versions[key] = version
        await self._invalidate(key, version, pushed, strict=False)
        self._raise_unacked(key, [failed])

    async def _push_one(self, target: str, key: str, version: int,
                        value: bytes):
        """One REPL push: True accepted, False STALE, None no answer.

        One transport attempt; :meth:`_replicate` retries a push it owes
        a holder once.
        """
        peer = self._peers.get(target)
        if peer is None:
            # left the cluster mid-write, and read routing with it: no
            # copy of it can be served, as if it had answered STALE
            return False
        try:
            return await peer.repl(key, version, value)
        except (ConnectionError, asyncio.TimeoutError, OSError):
            return None  # unknown: the push may still land

    # -- peer-side handlers ---------------------------------------------------

    async def handle_repl(self, key: str, version: int, value: bytes) -> bool:
        owner = self.ring.owner(key) if len(self.ring) else ""
        held = self.replica_store.version_of(key)
        accepted, evicted = self.replica_store.put(key, version, value, owner)
        if accepted and held is not None and held < version:
            self._audit_dropped(key, version)  # the older copy is gone
        for evicted_key, evicted_owner in evicted:
            await self._send_puts(evicted_key, evicted_owner)
        return accepted

    def handle_inval(self, key: str, version: int) -> bool:
        dropped = self.replica_store.invalidate(key, version)
        if self.obs.registry.enabled:
            self._counter(
                "repro_cluster_invals_received_total",
                "INVAL messages applied to the local replica store",
            ).inc()
        if dropped:
            self._audit_dropped(key, version)
        return dropped

    def _audit_dropped(self, key: str, version: int) -> None:
        tr = self.obs.tracer
        if tr.enabled:
            # audit instant hanging off this INVAL's or REPL's request
            # span: the moment the old replica actually left this holder
            tr.emit(
                REPLICA_INVALIDATED, cat=CAT_AUDIT, ts=clock(),
                pid=self.lane, tid=0,
                args=leaf_args(current_context(), key=key, version=version),
            )

    def handle_puts(self, key: str, holder: str) -> None:
        self.directory.note_replica_evicted(key, holder)

    def handle_rget(self, key: str):
        value = self.replica_store.get(key)
        if self.obs.registry.enabled:
            self._counter(
                "repro_cluster_replica_reads_total",
                "RGET lookups against the local replica store",
                outcome="hit" if value is not None else "miss",
            ).inc()
        return value

    async def _send_puts(self, key: str, owner: str) -> None:
        """Tell ``owner`` its replica of ``key`` left: one attempt, no retry."""
        peer = self._peers.get(owner)
        if peer is None:
            return
        try:
            await peer.puts(key, self.name, trace=current_context())
        except (ConnectionError, asyncio.TimeoutError, OSError):
            pass  # best-effort notice; the owner's INVAL still finds nothing

    # -- introspection --------------------------------------------------------

    def _counter(self, name: str, help: str, **labels):
        """This node's counter ``name`` for ``labels``, looked up once.

        The handle is resolved on its first use, so a counter never
        incremented exports no series.
        """
        key = (name, *labels.values())
        counter = self._counters.get(key)
        if counter is None:
            counter = self._counters[key] = self.obs.registry.counter(
                name, help=help, node=self.name, **labels)
        return counter

    def record_request(self, cmd: str, elapsed: float, conn_id: int,
                       start: float | None = None, ctx=None,
                       key: str | None = None, outcome=None) -> None:
        """Counters + tracing for one cluster-verb request."""
        registry = self.obs.registry
        if registry.enabled:
            counter = self._request_counters.get(cmd)
            if counter is None:
                counter = self._request_counters[cmd] = registry.counter(
                    "repro_cluster_requests_total",
                    help="cluster-verb requests answered, by node and verb",
                    node=self.name, cmd=cmd,
                )
            counter.inc()
            if self._request_latency is None:
                self._request_latency = registry.histogram(
                    "repro_cluster_request_latency_seconds",
                    help="cluster-verb service time, by node",
                    node=self.name,
                )
            self._request_latency.observe(elapsed)
        tr = self.obs.tracer
        if tr.enabled:
            extra = {}
            if key is not None:
                extra["key"] = key
            if outcome is not None:
                extra["outcome"] = outcome
            tr.emit(
                cmd, cat=CAT_CLUSTER,
                ts=start if start is not None else clock() - elapsed,
                pid=self.lane, tid=conn_id, dur=elapsed,
                args=span_args(ctx, **extra),
            )

    def status(self) -> dict:
        """The CSTATUS block: ownership, replication and protocol health."""
        return {
            "name": self.name,
            "host": self.host,
            "port": self.port,
            "draining": self.draining,
            "stored": len(self.store),
            "data_capacity": self.store.data_capacity,
            "replicas_held": len(self.replica_store),
            "replica_capacity": self.replica_store.capacity,
            "directory_entries": len(self.directory),
            "directory_holders": self.directory.tracked_holders,
            "protocol_races": self.directory.races,
            "versions_tracked": len(self.versions),
            "pending_invals": sum(
                len(h) for h in self._pending_invals.values()
            ),
            "stale_rejects": self.replica_store.stale_rejects,
            "eventloop_lag_s": self.server.eventloop_lag,
            "uptime_s": self.server.uptime_s,
            "connections_v1": self.server.connections_v1,
            "connections_v2": self.server.connections_v2,
            "peers": list(self.peer_names()),
            "replication_factor": self.replicas,
        }
