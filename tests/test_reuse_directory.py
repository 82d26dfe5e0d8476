"""Pins on the selective-allocation core shared by the simulator and the
service.

* a golden digest of the sharded store's decision stream and counters on
  seeded ``EXAMPLE_MIX`` traffic, read-through and with blind writes;
* the store re-admits a blind SET of a key whose value Clock evicted;
* a differential replay: one key trace through ``ReuseStore`` and through
  ``ReuseCache`` must yield the same tag_alloc/reuse/evict_data sequence.
"""

import hashlib
import random

import pytest

from repro.core.reuse_cache import ReuseCache
from repro.obs.tracing import DATA_REPL, REUSE_DETECTED, TAG_ONLY_ALLOC
from repro.service import ReuseStore, ShardedStore
from repro.service.loadgen import key_of, value_of
from repro.workloads.mixes import EXAMPLE_MIX, build_workload

#: integer counters of ``stats_snapshot()["total"]`` folded into the digest
COUNTERS = ("hits", "misses", "gets", "reuse_admissions", "tag_only_sets",
            "data_evictions", "tag_evictions", "deletes", "bytes_stored",
            "bytes_written")

#: (seed, blind writes) -> sha256 of the decision stream plus the counters
GOLDEN = {
    (2013, False):
        "2d18f9ed04cc9c013b3c5651b07035d267be6c6d1d562d2bafff80b9ef46f44d",
    (2013, True):
        "c3ce0c59442bb72d6a729d5e7a0c60e367281139183b0ffe416e18326cfb6ab7",
    (7, False):
        "930e0c5b5b1899d493d1e67beff671039b3092d72903ac989f919726584f9066",
    (7, True):
        "98b1daf64743cbb302b40582ed7457d1d4ef1b51bef03e4f1d1d87944a8d8da4",
}


def replay_digest(seed, blind_writes):
    """Replay seeded EXAMPLE_MIX through ShardedStore(4, 512).

    Scale 16 doubles the footprint of the default, so Clock evicts a few
    hundred values and NRR a few thousand tags.

    Read-through: GET, then SET on a miss.  With ``blind_writes`` a trace
    write is sent as a SET with no GET before it."""
    store = ShardedStore(4, 512)
    h = hashlib.sha256()
    store.set_decision_listener(
        lambda key, decision: h.update(f"{key} {decision}\n".encode()))
    workload = build_workload(EXAMPLE_MIX, 3000, seed=seed, scale=16)
    streams = [list(zip(t.addrs, t.writes)) for t in workload.traces]
    for i in range(max(len(s) for s in streams)):
        for stream in streams:
            if i >= len(stream):
                continue
            addr, write = stream[i]
            key = key_of(addr)
            if blind_writes and write:
                store.set(key, value_of(addr))
            elif store.get(key) is None:
                store.set(key, value_of(addr))
    total = store.stats_snapshot()["total"]
    h.update(repr([total[k] for k in COUNTERS]).encode())
    for shard in store.shards:
        assert shard.rdir.check_pointer_consistency()
    return h.hexdigest()


@pytest.mark.parametrize("seed,blind", sorted(GOLDEN))
def test_store_decision_stream_is_pinned(seed, blind):
    assert replay_digest(seed, blind) == GOLDEN[seed, blind]


def test_blind_set_after_clock_eviction_is_admitted():
    """DataRepl keeps the store's reuse count: a key whose value Clock
    evicted is re-admitted by a SET with no GET before it."""
    s = ReuseStore(data_capacity=1, tag_capacity=16)
    for key in ("a", "b"):  # b's admission evicts a's value
        s.get(key); s.get(key)
        assert s.set(key, b"x") is True
    assert not s.contains("a") and s.is_tracked("a")
    assert s.set("a", b"y") is True
    assert s.get("a") == b"y"


# -- differential: simulator vs service ---------------------------------------


class _EventLog:
    """Tracer stand-in recording ``(event, addr)`` pairs."""

    enabled = True

    def __init__(self):
        self.events = []

    def emit(self, name, ts=0, pid=0, tid=0, args=None, **_):
        if name == TAG_ONLY_ALLOC:
            self.events.append(("tag_alloc", key_of(args["addr"])))
        elif name == REUSE_DETECTED and args["promoted"]:
            self.events.append(("reuse", key_of(args["addr"])))
        elif name == DATA_REPL:
            self.events.append(("evict_data", key_of(args["addr"])))


def _key_trace(seed, n=3000, universe=48):
    rng = random.Random(seed)
    hot = list(range(universe // 4))
    return [rng.choice(hot) if rng.random() < 0.6 else rng.randrange(universe)
            for _ in range(n)]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_simulator_and_store_take_the_same_decisions(seed):
    """One 64-way tag set (no tag is ever evicted) over a fully associative
    16-entry Clock data array, fed the same keys, on both adapters."""
    trace = _key_trace(seed)

    store = ReuseStore(data_capacity=16, tag_capacity=64, tag_assoc=64)
    store_events = []
    store.decision_listener = lambda key, decision: (
        store_events.append((decision, key))
        if decision in ("tag_alloc", "reuse", "evict_data") else None)
    for addr in trace:
        if store.get(key_of(addr)) is None:
            store.set(key_of(addr), value_of(addr))

    rc = ReuseCache(64, 64, 16, data_assoc="full", num_cores=1,
                    rng=random.Random(0))
    log = _EventLog()
    rc.attach_tracer(log)
    for t, addr in enumerate(trace):
        rc.access(addr, 0, False, t)
        rc.notify_private_eviction(addr, 0, False)

    assert any(e == "evict_data" for e, _ in store_events)
    assert log.events == store_events
