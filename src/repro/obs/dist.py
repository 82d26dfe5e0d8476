"""Distributed causal tracing: wire context, cross-node merge, key audit.

PR 6 made the cache multi-node; this module makes a multi-node operation
*one* observable object.  A SET that fans INVALs out to two peers used to
appear as three unrelated span fragments in three per-node ring buffers —
now every wire request can carry an optional trailing trace field
(``T=<trace-id>/<span-id>``, see :func:`wire_token`), each server opens a
child span under it, and the merged Chrome trace renders owner-write →
INVAL-fan-out → peer-ack as a single causal tree with cross-node flow
arrows.

The pieces, bottom up:

* :class:`TraceContext` / :class:`SpanIds` — span identity.  Ids are
  allocated from a per-node counter (``node0.17``), never from a clock or
  RNG: deterministic replays produce deterministic trees (and REP001 bans
  unseeded randomness anyway);
* :func:`wire_token` / :func:`pop_trace_token` — the optional trailing
  request-line field.  Absent token costs one ``startswith`` per request,
  which keeps the obs-off path inside the <5% overhead budget;
* :func:`current_context` / :func:`use_context` — a :mod:`contextvars`
  slot carrying the active request span through the async call chain, so
  fan-outs started deep inside :class:`~repro.cluster.node.ClusterNode`
  parent themselves correctly without threading a ``ctx`` argument through
  every signature;
* :func:`span_args` / :func:`leaf_args` — the ``args`` vocabulary events
  use to declare identity (``trace``/``span``/``parent``).  A *span* owns
  an id; a *leaf* (decision-audit instant) only points at its parent;
* :func:`merge_node_traces` — per-node event lists → one Chrome trace:
  one process lane per node (``process_name`` metadata), plus ``s``/``f``
  flow events (``cat="xnode"``) for every parent/child edge that crosses
  nodes — the happens-before arrows of the INVAL-before-ack protocol;
* :func:`trace_topology` — the merged tree reduced to a normalized
  multiset of root-to-event paths (ids and timestamps stripped), so two
  deterministic runs can be compared for identical causal shape;
* :func:`explain_key` / :func:`format_explain` — the per-key lifecycle
  (tag-only alloc, reuse detected, admission denied/granted, eviction,
  replica invalidation) extracted from a collected trace: the paper's
  selective allocation made inspectable per key, across nodes.

Layer note: this module stays at layer 1 (stdlib + :mod:`repro.obs`
siblings only); servers and CLIs import *it*, never the reverse.
"""

from __future__ import annotations

import contextvars
from contextlib import contextmanager

from .tracing import DATA_REPL, REUSE_DETECTED, TAG_ONLY_ALLOC, TAG_REPL

#: wire prefix of the optional trailing trace field on request lines
TRACE_FIELD_PREFIX = "T="

#: category of the cross-node flow arrows in a merged trace (CI greps it)
CAT_XNODE = "xnode"
#: category of per-key decision-audit instants
CAT_AUDIT = "audit"

# -- decision-audit event names (extend the tracing taxonomy) -----------------

#: a SET was declined by the reuse filter (value tagged, not stored)
ADMISSION_DENIED = "AdmissionDenied"
#: a SET passed the admission filter and the value was stored
ADMITTED = "Admitted"
#: a SET updated an already-stored value in place
UPDATED = "Updated"
#: a DEL removed a stored value (tag dropped too)
DELETED = "Deleted"
#: a peer lost an old replica: an owner's INVAL dropped it, or a newer
#: REPL push replaced it
REPLICA_INVALIDATED = "ReplicaInvalidated"

#: store decision kind -> audit event name (see ReuseStore.decision_listener)
DECISION_EVENTS = {
    "tag_alloc": TAG_ONLY_ALLOC,
    "reuse": REUSE_DETECTED,
    "deny": ADMISSION_DENIED,
    "admit": ADMITTED,
    "update": UPDATED,
    "delete": DELETED,
    "evict_data": DATA_REPL,
    "evict_tag": TAG_REPL,
}


class TraceContext:
    """Identity of one span: its trace, its own id, its parent's id."""

    __slots__ = ("trace_id", "span_id", "parent_id")

    def __init__(self, trace_id: str, span_id: str, parent_id: str | None = None):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id

    def __repr__(self) -> str:
        return (f"TraceContext(trace={self.trace_id!r}, span={self.span_id!r}, "
                f"parent={self.parent_id!r})")

    def __eq__(self, other) -> bool:
        return (isinstance(other, TraceContext)
                and self.trace_id == other.trace_id
                and self.span_id == other.span_id
                and self.parent_id == other.parent_id)

    def __hash__(self) -> int:
        return hash((self.trace_id, self.span_id, self.parent_id))


class SpanIds:
    """Deterministic span-id allocator: ``<prefix>.<n>`` from a counter.

    One allocator per node (the cluster passes the node name as prefix)
    keeps ids unique across the node's request spans and its fan-out
    spans; a root span's id doubles as the trace id.
    """

    __slots__ = ("prefix", "_next")

    def __init__(self, prefix: str):
        self.prefix = str(prefix)
        self._next = 0

    def _new_id(self) -> str:
        self._next += 1
        return f"{self.prefix}.{self._next}"

    def root(self) -> TraceContext:
        """Start a new trace (no incoming context)."""
        span_id = self._new_id()
        return TraceContext(span_id, span_id, None)

    def child(self, parent: TraceContext) -> TraceContext:
        """A span continuing ``parent``'s trace."""
        return TraceContext(parent.trace_id, self._new_id(), parent.span_id)

    def begin(self, parent: TraceContext | None) -> TraceContext:
        """Child of ``parent`` when given, fresh root otherwise."""
        return self.child(parent) if parent is not None else self.root()


# -- wire field ----------------------------------------------------------------


def wire_token(ctx: TraceContext) -> str:
    """The trailing request-line field propagating ``ctx`` to a server."""
    return f"{TRACE_FIELD_PREFIX}{ctx.trace_id}/{ctx.span_id}"


def parse_token(token: str) -> TraceContext | None:
    """Parse one ``T=<trace>/<span>`` token; None when it is not one."""
    if not token.startswith(TRACE_FIELD_PREFIX):
        return None
    trace_id, sep, span_id = token[len(TRACE_FIELD_PREFIX):].partition("/")
    if not sep or not trace_id or not span_id:
        return None
    return TraceContext(trace_id, span_id, None)


def pop_trace_token(parts: list) -> tuple:
    """Strip a trailing trace field from split request-line ``parts``.

    Returns ``(parts_without_token, TraceContext | None)``.  Stripping
    happens *before* arity checks, so every verb accepts the optional
    field without its usage message changing.  A key that itself looks
    like a trace field (``T=<x>/<y>`` in final position) would be eaten;
    the wire doc reserves that trailing shape.
    """
    if parts and parts[-1].startswith(TRACE_FIELD_PREFIX):
        ctx = parse_token(parts[-1])
        if ctx is not None:
            return parts[:-1], ctx
    return parts, None


# -- active-context propagation ------------------------------------------------

_ACTIVE: contextvars.ContextVar = contextvars.ContextVar(
    "repro_trace_context", default=None
)


def current_context() -> TraceContext | None:
    """The request span active on this async call chain, if any."""
    return _ACTIVE.get()


@contextmanager
def use_context(ctx: TraceContext | None):
    """Make ``ctx`` the active context for the duration of the block."""
    token = _ACTIVE.set(ctx)
    try:
        yield ctx
    finally:
        _ACTIVE.reset(token)


def span_args(ctx: TraceContext | None, **extra) -> dict | None:
    """Event ``args`` for a span that *owns* ``ctx``'s id."""
    args = dict(extra)
    if ctx is not None:
        args["trace"] = ctx.trace_id
        args["span"] = ctx.span_id
        if ctx.parent_id is not None:
            args["parent"] = ctx.parent_id
    return args or None


def leaf_args(ctx: TraceContext | None, **extra) -> dict | None:
    """Event ``args`` for an instant *attached to* the active span.

    Leaves carry ``parent`` (the enclosing span) but no ``span`` of their
    own — they are evidence on a span, not tree nodes.
    """
    args = dict(extra)
    if ctx is not None:
        args["trace"] = ctx.trace_id
        args["parent"] = ctx.span_id
    return args or None


# -- cross-node merge ----------------------------------------------------------


def _event_list(doc) -> list:
    """The event array of a Chrome-trace document (dict or bare list)."""
    if isinstance(doc, dict):
        return doc.get("traceEvents") or []
    return doc if isinstance(doc, list) else []


def _process_names(events) -> dict:
    """pid -> node name, from ``process_name`` metadata events."""
    names = {}
    for event in events:
        if event.get("ph") == "M" and event.get("name") == "process_name":
            args = event.get("args") or {}
            if "name" in args:
                names[event.get("pid")] = args["name"]
    return names


def merge_node_traces(node_events: dict, time_unit: str = "s") -> dict:
    """Merge per-node Chrome event lists into one causal cluster trace.

    ``node_events`` maps node name -> list of exported event dicts (the
    output of the ``TRACE`` verb).  Each node becomes one Chrome *process*
    lane (named via ``process_name`` metadata); every parent/child span
    edge whose endpoints live on different nodes gains an ``s``/``f``
    flow-event pair with ``cat="xnode"`` — the rendered happens-before
    arrow of the INVAL-before-ack protocol.
    """
    names = sorted(node_events)
    merged = []
    # span id -> (pid, tid, ts) of the event that owns it
    span_home = {}
    for pid, node in enumerate(names):
        merged.append({
            "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
            "ts": 0, "args": {"name": node},
        })
    for pid, node in enumerate(names):
        for event in node_events[node]:
            event = dict(event)
            event["pid"] = pid
            merged.append(event)
            args = event.get("args")
            if isinstance(args, dict) and "span" in args:
                span_home[args["span"]] = (
                    pid, event.get("tid", 0), event.get("ts", 0.0),
                )
    edges = 0
    flows = []
    for event in merged:
        args = event.get("args")
        if not isinstance(args, dict):
            continue
        parent = args.get("parent")
        if parent is None:
            continue
        home = span_home.get(parent)
        if home is None or home[0] == event["pid"]:
            continue
        edges += 1
        flows.append({
            "ph": "s", "cat": CAT_XNODE, "name": "causal", "id": edges,
            "pid": home[0], "tid": home[1], "ts": home[2],
        })
        flows.append({
            "ph": "f", "bp": "e", "cat": CAT_XNODE, "name": "causal",
            "id": edges, "pid": event["pid"], "tid": event.get("tid", 0),
            "ts": event.get("ts", 0.0),
        })
    merged.extend(flows)
    return {
        "traceEvents": merged,
        "displayTimeUnit": "ms",
        "otherData": {
            "nodes": names,
            "cross_node_edges": edges,
            "time_unit": time_unit,
        },
    }


# -- topology normalization ----------------------------------------------------


def trace_topology(doc) -> list:
    """The causal shape of a trace as a sorted multiset of path strings.

    Each span/leaf event is reduced to a signature ``node:name:key`` (no
    ids, no timestamps, no connection lanes) and replaced by its
    root-to-event signature path.  Two deterministic runs of the same
    workload must produce *equal* topologies even though every id and
    timestamp differs.  Events whose parent is missing are prefixed
    ``ORPHAN/`` (a causally complete trace has none); parent cycles are
    cut with a ``CYCLE/`` prefix.
    """
    events = [e for e in _event_list(doc)
              if isinstance(e, dict) and e.get("ph") != "M"
              and e.get("cat") != CAT_XNODE]
    names = _process_names(_event_list(doc))

    def sig(event) -> str:
        args = event.get("args") or {}
        node = names.get(event.get("pid"), event.get("pid"))
        return f"{node}:{event.get('name')}:{args.get('key', '')}"

    owner = {}
    for event in events:
        args = event.get("args")
        if isinstance(args, dict) and "span" in args:
            owner[args["span"]] = event

    memo = {}  # id(event) -> path string

    def path(event, trail) -> str:
        key = id(event)
        if key in memo:
            return memo[key]
        args = event.get("args") or {}
        parent = args.get("parent")
        if parent is None:
            out = sig(event)
        elif key in trail:
            out = "CYCLE/" + sig(event)
        else:
            parent_event = owner.get(parent)
            if parent_event is None:
                out = "ORPHAN/" + sig(event)
            else:
                trail.add(key)
                out = path(parent_event, trail) + "/" + sig(event)
                trail.discard(key)
        memo[key] = out
        return out

    return sorted(path(event, set()) for event in events)


# -- per-key lifecycle ---------------------------------------------------------


def explain_key(doc, key: str) -> list:
    """Every recorded event about ``key``, time-ordered across nodes.

    Returns dicts with ``ts``/``node``/``name``/``cat``/``dur``/``trace``
    and a ``detail`` dict of the remaining args (trace plumbing stripped).
    """
    events = _event_list(doc)
    names = _process_names(events)
    records = []
    for event in events:
        if not isinstance(event, dict) or event.get("ph") == "M":
            continue
        args = event.get("args")
        if not isinstance(args, dict) or args.get("key") != key:
            continue
        detail = {k: v for k, v in args.items()
                  if k not in ("trace", "span", "parent", "key")}
        records.append({
            "ts": event.get("ts", 0.0),
            "node": names.get(event.get("pid"), event.get("pid")),
            "name": event.get("name"),
            "cat": event.get("cat", ""),
            "dur": event.get("dur"),
            "trace": args.get("trace"),
            "detail": detail,
        })
    records.sort(key=lambda r: (r["ts"], str(r["node"]), str(r["name"])))
    return records


#: audit event name -> one-line meaning shown by ``repro explain``
_EXPLAIN_GLOSS = {
    TAG_ONLY_ALLOC: "first touch: tag allocated, no data (I -> TO)",
    REUSE_DETECTED: "second miss on a live tag: admission armed (TO reuse)",
    ADMISSION_DENIED: "SET declined by the reuse filter (stayed tag-only)",
    ADMITTED: "SET admitted into the data store (TO -> S)",
    UPDATED: "SET updated the stored value in place",
    DELETED: "stored value dropped by DEL",
    DATA_REPL: "data-array eviction, tag kept with history (S -> TO)",
    TAG_REPL: "tag eviction: everything dropped (* -> I)",
    REPLICA_INVALIDATED: ("replica holder lost its old copy: the owner's INVAL "
                          "dropped it or a newer REPL replaced it"),
}


def format_explain(key: str, records: list) -> str:
    """Human-readable lifecycle report for ``repro explain --key K``."""
    if not records:
        return (f"repro explain: no events recorded for key {key!r} "
                "(never touched, sampled out, or drained earlier)")
    lines = [f"repro explain — key {key!r}: {len(records)} event(s)"]
    counts = {}
    for rec in records:
        counts[rec["name"]] = counts.get(rec["name"], 0) + 1
        gloss = _EXPLAIN_GLOSS.get(rec["name"], "")
        detail = " ".join(f"{k}={v}" for k, v in sorted(rec["detail"].items()))
        node = str(rec["node"])
        lines.append(
            f"  {rec['ts']:>14.1f}us  {node:<10} {rec['name']:<20}"
            + (f" {detail}" if detail else "")
            + (f"   # {gloss}" if gloss else "")
        )
    audited = [(name, counts[name]) for name in _EXPLAIN_GLOSS if name in counts]
    if audited:
        lines.append("lifecycle: " + ", ".join(
            f"{count}x {name}" for name, count in audited
        ))
    return "\n".join(lines)
