"""Zero-dependency host timing for simulator and service code.

* **phase timers** — ``with prof.phase("simulate")`` wraps a coarse region
  (building a workload, running a cell, serving a request).  Phases nest;
  each exit records one observation under the slash-joined path of the
  enclosing phases (``cell/simulate``) into an in-memory aggregate and,
  when a registry is attached, into the labelled histogram
  ``repro_phase_seconds{phase=...}``.  The disabled timer hands out one
  shared no-op context manager, so instrumented code needs no guards and
  the cost of an inactive site is a method call.  Timers are opt-in and
  cannot change a result.

This module is also the repo's sanctioned host-clock access point:
:func:`clock` and :func:`cpu_clock` wrap ``time.perf_counter`` /
``time.process_time`` so that lint rule REP011 can ban direct calls
everywhere outside :mod:`repro.obs` and :mod:`repro.runner` — host timing
that does not flow through here cannot land in the registry or in the
runner's per-cell accounts.  Simulated time is unaffected: it comes from
model cycle counters (REP002), never from these clocks.
"""

from __future__ import annotations

import sys
import time

try:  # unix-only; Windows callers see zeros rather than an ImportError
    import resource as _resource
except ImportError:  # pragma: no cover - non-posix platform
    _resource = None

#: histogram bounds for phase durations: 1 µs .. ~65 s, factor 4
PHASE_SECONDS_BOUNDS = tuple(1e-6 * 4 ** i for i in range(13))


def clock() -> float:
    """Monotonic wall-clock seconds (``time.perf_counter``).

    The one sanctioned wall-clock read for interval timing outside
    :mod:`repro.obs` / :mod:`repro.runner` (lint rule REP011).
    """
    return time.perf_counter()


def cpu_clock() -> float:
    """Process CPU seconds (``time.process_time``); REP011's CPU twin."""
    return time.process_time()


def peak_rss_kb() -> int:
    """Peak resident set size of this process in KiB (0 where unknown).

    ``ru_maxrss`` is kibibytes on Linux and bytes on macOS; normalise to
    KiB so accounts recorded on either are comparable.
    """
    if _resource is None:
        return 0
    peak = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - macOS units
        peak //= 1024
    return int(peak)


def process_resources() -> dict:
    """Point-in-time resource snapshot of this process.

    ``cpu_s`` is cumulative process CPU time, ``peak_rss_kb`` the
    high-water resident set — the pair every resource account in the repo
    (runner cells, service STATS) is built from.
    """
    return {"cpu_s": cpu_clock(), "peak_rss_kb": peak_rss_kb()}


# -- phase timers -------------------------------------------------------------


class _NullPhase:
    """Shared no-op context manager handed out by a disabled timer."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_PHASE = _NullPhase()


class _Phase:
    """Context manager for one phase entry (pooled per nesting level)."""

    __slots__ = ("timer", "name", "start")

    def __init__(self, timer: "PhaseTimer"):
        self.timer = timer
        self.name = ""
        self.start = 0.0

    def __enter__(self):
        self.timer._stack.append(self.name)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        elapsed = time.perf_counter() - self.start
        self.timer._record(elapsed)
        return False


class PhaseTimer:
    """Nestable named timers aggregated by slash-joined phase path.

    One timer instance per logical scope (a cell execution, a server).
    ``enabled=False`` (or :data:`NULL_PHASE_TIMER`) makes :meth:`phase`
    return a shared no-op so call sites never need guards.  A timer is not
    thread-safe — cells own one each, and the asyncio server runs on one
    loop — which keeps the hot path to a list append and two clock reads.
    """

    __slots__ = ("enabled", "registry", "_stack", "_agg", "_pool")

    def __init__(self, enabled: bool = True, registry=None):
        self.enabled = enabled
        #: optional MetricsRegistry receiving repro_phase_seconds
        self.registry = registry
        self._stack: list = []
        #: path -> [count, total_seconds] in first-entry order
        self._agg: dict = {}
        self._pool: list = []

    def phase(self, name: str):
        """Context manager timing the block as phase ``name`` (nestable)."""
        if not self.enabled:
            return _NULL_PHASE
        depth = len(self._stack)
        while len(self._pool) <= depth:
            self._pool.append(_Phase(self))
        ctx = self._pool[depth]
        ctx.name = name
        return ctx

    def _record(self, elapsed: float) -> None:
        path = "/".join(self._stack)
        self._stack.pop()
        slot = self._agg.get(path)
        if slot is None:
            self._agg[path] = [1, elapsed]
        else:
            slot[0] += 1
            slot[1] += elapsed
        if self.registry is not None:
            self.registry.histogram(
                "repro_phase_seconds",
                help="duration of profiled phases, by slash-joined path",
                bounds=PHASE_SECONDS_BOUNDS,
                phase=path,
            ).observe(elapsed)

    # -- views -----------------------------------------------------------------

    def table(self) -> dict:
        """Flat ``path -> {"count", "seconds"}`` in first-entry order."""
        return {
            path: {"count": count, "seconds": seconds}
            for path, (count, seconds) in self._agg.items()
        }

    def tree(self) -> dict:
        """Nested ``name -> {"count", "seconds", "children"}`` view.

        Structure and counts are deterministic for a deterministic program;
        only the ``seconds`` values carry timing noise (the determinism
        tests compare trees with :func:`phase_shape`).
        """
        root: dict = {}
        for path, (count, seconds) in self._agg.items():
            node, children = None, root
            for part in path.split("/"):
                node = children.setdefault(
                    part, {"count": 0, "seconds": 0.0, "children": {}}
                )
                children = node["children"]
            node["count"] += count
            node["seconds"] += seconds
        return root

    def clear(self) -> None:
        """Drop every aggregate (the stack must be empty)."""
        if self._stack:
            raise RuntimeError(f"phases still open: {self._stack}")
        self._agg.clear()


#: the shared disabled timer (what Observability.disabled() carries)
NULL_PHASE_TIMER = PhaseTimer(enabled=False)


def phase_shape(tree: dict) -> dict:
    """``tree()`` with the timing noise stripped: names and counts only."""
    return {
        name: {"count": node["count"],
               "children": phase_shape(node["children"])}
        for name, node in tree.items()
    }
