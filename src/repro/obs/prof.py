"""Zero-dependency host timing for simulator and service code.

This module is the repo's sanctioned host-clock access point:
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

