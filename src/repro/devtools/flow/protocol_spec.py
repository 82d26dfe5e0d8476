"""Declarative wire-protocol verb spec — the single source of truth.

FLOW003 (:func:`repro.devtools.flow.checks.check_protocol`) extracts
each server layer's verb table, the codec's tables and the verbs
the clients actually send, and diffs all of them against :data:`SPEC`.
Adding a wire verb therefore takes three edits that must land together
or CI fails:

1. a :class:`Verb` entry here, naming its layer;
2. a ``VERB_IDS`` id and a ``REQUEST_FIELDS`` field schema in
   :data:`CODEC_FILE` — the schema fixes the verb's frame payload
   layout (there is one framing, binary v2 frames);
3. one handler in the layer's server file, registered with
   ``@wire_verb("VERB")``.

A client sender — a ``*.call("VERB", ...)`` transport call in one of
:data:`CLIENT_FILES` — must exist too, or the handler is reported as
dead protocol surface.

Layers: ``"service"`` is the base cache protocol served by
``repro.service.server.CacheServer``; ``"cluster"`` is the peer protocol
``repro.cluster.node.ClusterServer`` adds on top of it.  The cluster
server inherits the service table — it overrides the SET/DEL/MSET/MDEL
handler methods with the owner write path, under the base handlers'
registrations — so each verb has one layer.

Every verb is an ordinary one: the transport originates no verb of its
own, so each needs a handler and a client sender.

Every request additionally accepts one optional trace field
``T=<trace-id>/<span-id>`` (:mod:`repro.obs.dist`), flagged in the frame
header and decoded before dispatch; it is a field, not a verb, so it has
no :class:`Verb` entry.
"""

from __future__ import annotations

from dataclasses import dataclass

#: layer name -> repo-relative server file whose handlers define the layer
SERVER_FILES = {
    "service": "repro/service/server.py",
    "cluster": "repro/cluster/node.py",
}

#: repo-relative client files whose ``.call("VERB", ...)`` transport calls
#: are the senders
CLIENT_FILES = (
    "repro/service/client.py",
    "repro/service/transport.py",
    "repro/cluster/node.py",
    "repro/cluster/client.py",
)

#: repo-relative codec file holding the ``VERB_IDS`` / ``REQUEST_FIELDS``
#: tables
CODEC_FILE = "repro/service/protocol.py"


@dataclass(frozen=True)
class Verb:
    """One wire verb: name, serving layers, and a summary."""

    name: str
    layers: tuple
    summary: str


SPEC = (
    Verb("GET", ("service",), "read a value by key"),
    Verb("SET", ("service",), "store a value (cluster: owner write path)"),
    Verb("DEL", ("service",), "delete a key (cluster: owner write path)"),
    Verb("MGET", ("service",), "read many keys in one frame"),
    Verb("MSET", ("service",), "store many pairs in one frame"),
    Verb("MDEL", ("service",), "delete many keys in one frame"),
    Verb("STATS", ("service",), "per-shard + aggregate stats snapshot"),
    Verb("METRICS", ("service",), "obs registry in Prometheus text format"),
    Verb("TRACE", ("service",), "drain the node's trace ring (JSONL batch)"),
    Verb("PING", ("service",), "liveness round-trip"),
    Verb("QUIT", ("service",), "close this connection gracefully"),
    Verb("REPL", ("cluster",), "owner pushes a versioned replica to a peer; "
         "replaces an older copy and records the version floor, so it also "
         "invalidates a holder the write pushes to"),
    Verb("INVAL", ("cluster",), "owner invalidates a peer replica up to a version"),
    Verb("PUTS", ("cluster",), "peer tells the owner it dropped its replica"),
    Verb("RGET", ("cluster",), "read a peer's replica copy"),
    Verb("CSTATUS", ("cluster",), "node's cluster-level status block"),
    Verb("DRAIN", ("cluster",), "stop accepting and hand keys off"),
)


def verbs_for_layer(layer: str) -> set:
    """Names of the verbs declared for ``layer``."""
    return {verb.name for verb in SPEC if layer in verb.layers}


def documented_verbs() -> set:
    """Every declared verb name, across all layers."""
    return {verb.name for verb in SPEC}
