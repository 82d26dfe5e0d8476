"""Multi-node cache cluster with coherence-based cross-node invalidation.

``repro.cluster`` scales the single-process reuse-cache service
(:mod:`repro.service`) out to N nodes behind a client-side consistent-hash
ring, and reuses the paper's TO-MSI coherence protocol — generalised in
:mod:`repro.coherence.distributed` — as the *distributed* invalidation
protocol: each owner node keeps tag-only directory entries naming which
peers hold a replica, and every write, delete, or store eviction becomes a
``DataRepl``-style ``INVAL`` fan-out that completes before the triggering
operation is acknowledged.

Layer map:

* :mod:`~repro.cluster.ring` — seeded consistent-hash ring (virtual
  nodes, byte-stable placement, bounded movement on membership change);
* :mod:`~repro.cluster.node` — one cluster member: the wire verbs
  (``REPL``/``INVAL``/``PUTS``/``RGET``/``CSTATUS``/``DRAIN``), the
  replica directory, the versioned replica store;
* :mod:`~repro.cluster.client` — ring-routing client with one
  connection per node, replica-spread reads and down-node failover;
* :mod:`~repro.cluster.local` — boot/join/leave/drain an N-node cluster
  in one process (the harness behind ``repro cluster ...``);
* :mod:`~repro.cluster.consistency` — the invalidation-storm checker
  certifying zero stale reads.
"""

from .client import ClusterClient, ClusterError, NodeDownError
from .consistency import StormReport, run_storm
from .local import LocalCluster
from .node import (
    ClusterNode,
    ClusterServer,
    InvalidationError,
    PeerClient,
    ReplicaStore,
)
from .ring import HashRing, RingEmptyError

__all__ = [
    "ClusterClient",
    "ClusterError",
    "ClusterNode",
    "ClusterServer",
    "HashRing",
    "InvalidationError",
    "LocalCluster",
    "NodeDownError",
    "PeerClient",
    "ReplicaStore",
    "RingEmptyError",
    "StormReport",
    "run_storm",
]
