"""repro.runner — parallel experiment execution with result memoization.

Every figure/table of the paper reduces over many independent *cells*: one
(system configuration, workload) simulation, fully determined by its seeds.
This package is the single place such cells are executed:

* :mod:`repro.runner.cells` — the declarative cell model.  A
  :class:`WorkloadRef` describes how to (re)build a workload
  deterministically in any process; a :class:`Cell` pairs it with a
  :class:`~repro.hierarchy.config.SystemConfig` and the run options.  Both
  are small, picklable and hashable, so cells travel cheaply to worker
  processes and key an on-disk cache.
* :mod:`repro.runner.fingerprint` — a content hash of the simulator's own
  source code, folded into every cache key so edits to the model invalidate
  stale results automatically.
* :mod:`repro.runner.cache` — :class:`ResultCache`, a content-addressed
  on-disk store of :class:`~repro.hierarchy.system.RunResult` pickles keyed
  by SHA-256 of (cell, code fingerprint).
* :mod:`repro.runner.engine` — :class:`Runner`, which fans cells out over a
  ``ProcessPoolExecutor``, restores submission order, publishes obs
  counters (cells run/cached/failed, per-cell latency) and guarantees the
  combined output is byte-identical to a serial in-process run.

Direct ``threading`` / ``multiprocessing`` / ``concurrent.futures`` use
anywhere else in the package is a lint error (REP010): parallelism stays centralized here so
it remains deterministic and seedable.  See ``docs/runner.md``.
"""

from __future__ import annotations

from .cache import ResultCache, cell_key
from .cells import Cell, WorkloadRef, as_workload_ref
from .engine import Runner, RunnerStats, execute_cell, execute_cell_measured
from .fingerprint import code_fingerprint

__all__ = [
    "Cell",
    "WorkloadRef",
    "as_workload_ref",
    "ResultCache",
    "cell_key",
    "Runner",
    "RunnerStats",
    "execute_cell",
    "execute_cell_measured",
    "code_fingerprint",
]
