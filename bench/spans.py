"""In-memory span recorder for the traced benchmark pass.

The benchmark measures the program only from outside: it replaces public
methods and functions with timing wrappers (:meth:`SpanRecorder.patch`) and
never edits the program's sources.  Every wrapped call becomes one span with
a name, start, end, parent span and request id.  The parent is found through
a context variable, so spans nest correctly both in the sequential simulator
and across ``await`` in asyncio code, where each task carries its own
context.

Spans are aggregated per name as they close (calls, total seconds, self
seconds).  Self time is the span's duration minus its children's.  Children
of one span never overlap in the simulator; concurrent async children can,
so self time is floored at zero.  Only the first ``KEEP_EVENTS`` spans started are
kept as Chrome-trace events: a kept span's parent started earlier and is
kept too, so the written file has no orphan parents.
"""

from __future__ import annotations

import contextvars
import inspect
import itertools
from time import perf_counter as clock

#: spans kept as Chrome-trace events, per process (the first ones started)
KEEP_EVENTS = 20_000


class _Span:
    __slots__ = ("name", "sid", "parent", "req", "child_s")

    def __init__(self, name, sid, parent):
        self.name = name
        self.sid = sid
        self.parent = parent
        self.req = parent.req if parent is not None else sid
        self.child_s = 0.0


class SpanRecorder:
    """Aggregates wrapped calls per span name and keeps the first events."""

    def __init__(self, pid: int):
        self.pid = pid
        #: span name -> [calls, total seconds, self seconds]
        self.totals = {}
        #: span name -> total seconds of its spans that had no parent
        self.roots = {}
        self.events = []
        self._ids = itertools.count(1)
        self._current = contextvars.ContextVar(f"bench_span_{pid}", default=None)

    # -- span lifecycle ----------------------------------------------------

    def _enter(self, name):
        span = _Span(name, next(self._ids), self._current.get())
        return span, self._current.set(span), clock()

    def _exit(self, span, token, start) -> None:
        end = clock()
        self._current.reset(token)
        dur = end - start
        parent = span.parent
        if parent is not None:
            parent.child_s += dur
        else:
            self.roots[span.name] = self.roots.get(span.name, 0.0) + dur
        self_s = max(0.0, dur - span.child_s)
        row = self.totals.get(span.name)
        if row is None:
            row = self.totals[span.name] = [0, 0.0, 0.0]
        row[0] += 1
        row[1] += dur
        row[2] += self_s
        if span.sid <= KEEP_EVENTS:
            # perf_counter is one monotonic clock for every process on the
            # host, so client and server events share a timeline
            self.events.append({
                "name": span.name, "cat": "bench", "ph": "X",
                "ts": start * 1e6, "dur": dur * 1e6,
                "pid": self.pid, "tid": 0,
                "args": {
                    "span": f"{self.pid}.{span.sid}",
                    "parent": (f"{self.pid}.{parent.sid}"
                               if parent is not None else None),
                    "req": f"{self.pid}.{span.req}",
                },
            })

    # -- wrappers ----------------------------------------------------------

    def wrap(self, name: str, fn):
        """``fn`` timed as span ``name`` (coroutine functions stay async)."""
        if inspect.iscoroutinefunction(fn):
            async def timed_async(*args, **kwargs):
                span, token, start = self._enter(name)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    self._exit(span, token, start)
            return timed_async

        def timed(*args, **kwargs):
            span, token, start = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(span, token, start)
        return timed

    def patch(self, owner, attr: str) -> None:
        """Replace ``owner.attr`` (class, instance or module) by a wrapper.

        The span is named ``<Class>.<attr>`` for classes and instances and
        ``<attr>`` for module-level functions.
        """
        if inspect.ismodule(owner):
            name = attr
        else:
            cls = owner if inspect.isclass(owner) else type(owner)
            name = f"{cls.__name__}.{attr}"
        setattr(owner, attr, self.wrap(name, getattr(owner, attr)))

    # -- views -------------------------------------------------------------

    def calls(self, *names) -> int:
        return sum(self.totals.get(n, (0, 0.0, 0.0))[0] for n in names)

    def total_s(self, *names) -> float:
        return sum(self.totals.get(n, (0, 0.0, 0.0))[1] for n in names)

    def self_s(self, *names) -> float:
        return sum(self.totals.get(n, (0, 0.0, 0.0))[2] for n in names)

    def root_s(self, *names) -> float:
        return sum(self.roots.get(n, 0.0) for n in names)

    def dump(self) -> dict:
        """JSON-safe state (what a traced server process writes at exit)."""
        return {"totals": self.totals, "roots": self.roots,
                "events": self.events}

    @classmethod
    def load(cls, doc: dict, pid: int) -> "SpanRecorder":
        """A read-only recorder rebuilt from :meth:`dump` output."""
        rec = cls(pid=pid)
        rec.totals = doc["totals"]
        rec.roots = doc["roots"]
        rec.events = doc["events"]
        return rec
