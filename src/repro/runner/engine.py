"""The parallel experiment engine.

:class:`Runner` executes batches of :class:`~repro.runner.cells.Cell` with
three interchangeable strategies that produce byte-identical results:

* **in-process serial** (``parallel <= 1``) — exactly the code path the
  experiment drivers used before the runner existed;
* **process pool** (``parallel > 1``) — cells fan out over a
  ``ProcessPoolExecutor``; every worker rebuilds its workload from the
  cell's declarative :class:`~repro.runner.cells.WorkloadRef` with the same
  seeds, so scheduling order cannot influence any result, and the engine
  restores submission order before returning;
* **cache replay** — with a :class:`~repro.runner.cache.ResultCache`
  attached, clean cells load from disk and only dirty ones recompute,
  which is what makes interrupted or re-run sweeps resume instantly.

Observability: when given an enabled :class:`~repro.obs.Observability`
bundle the runner publishes ``repro_runner_cells_total{status=...}``
counters and a per-cell wall-latency histogram, and emits one progress
callback per finished cell (the ``repro run`` CLI renders these).

Resource accounting: every executed cell is measured *inside the process
that runs it* — wall seconds, CPU seconds, the process's peak RSS at cell
end and references simulated per second.  Measurements live in
:class:`RunnerStats` (``stats.cells``) and in the result cache's entry
envelope, never inside the :class:`RunResult` itself, so the engine's
byte-identical guarantee (serial == parallel == cache replay) is
untouched by instrumentation.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field

from ..hierarchy.system import RunResult, System
from ..obs import Observability
from ..obs.logging import get_logger
from ..obs.prof import peak_rss_kb
from .cache import ResultCache, cell_key
from .cells import Cell
from .fingerprint import code_fingerprint

log = get_logger(__name__)

#: histogram buckets for per-cell wall latency (seconds)
CELL_SECONDS_BOUNDS = (0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 60.0,
                       120.0, 300.0, 600.0)


def execute_cell(cell: Cell) -> RunResult:
    """Run one cell to completion.

    Deterministic by construction: the workload is rebuilt from the cell's
    recipe and every random decision inside :class:`System` draws from
    generators seeded by the cell's own configuration.
    """
    return execute_cell_measured(cell)[0]


def execute_cell_measured(cell: Cell) -> tuple:
    """Run one cell and account its resources (the worker entry point).

    Returns ``(result, resources)`` where ``resources`` holds ``wall_s``,
    ``cpu_s``, ``peak_rss_kb`` (the executing process's high-water RSS at
    cell end) and ``refs`` / ``refs_per_s``.  The result object itself is
    never touched by the measurement, so measured and bare runs stay
    byte-identical.
    """
    wall_start = time.perf_counter()
    cpu_start = time.process_time()
    workload = cell.workload.build()
    system = System(
        cell.config,
        workload,
        record_generations=cell.record_generations,
        capture_llc_trace=cell.capture_llc_trace,
    )
    result = system.run(warmup_frac=cell.warmup_frac)
    if cell.capture_llc_trace:
        result.extra["llc_trace"] = system.llc_trace
    wall_s = time.perf_counter() - wall_start
    refs = sum(trace.n_refs for trace in workload.traces)
    resources = {
        "wall_s": wall_s,
        "cpu_s": time.process_time() - cpu_start,
        "peak_rss_kb": peak_rss_kb(),
        "refs": refs,
        "refs_per_s": refs / wall_s if wall_s > 0 else 0.0,
    }
    return result, resources


@dataclass
class RunnerStats:
    """Cumulative outcome counts and resources over a runner's lifetime."""

    run: int = 0
    cached: int = 0
    failed: int = 0
    seconds: float = 0.0
    #: summed CPU seconds of executed cells (measured in their process)
    cpu_seconds: float = 0.0
    #: summed original wall seconds of cells served from the cache — the
    #: compute a warm replay *saved* (0.0s-per-cell reports were the old bug)
    cached_wall_s: float = 0.0
    #: highest per-process peak RSS observed across executed cells (KiB)
    peak_rss_kb: int = 0
    #: memory references simulated by executed (non-cached) cells
    refs: int = 0
    #: per-cell account records, in completion order: label, status,
    #: wall/cpu/rss/refs for executed cells, cached_wall_s for replays
    cells: list = field(default_factory=list)
    #: per-status cell counts of the most recent ``run_cells`` batch
    last_batch: dict = field(default_factory=dict)

    @property
    def total(self) -> int:
        """Cells that reached a terminal state (run, cached or failed)."""
        return self.run + self.cached + self.failed

    @property
    def hit_rate(self) -> float:
        """Fraction of completed cells served from the cache."""
        done = self.run + self.cached
        return self.cached / done if done else 0.0

    @property
    def refs_per_s(self) -> float:
        """Aggregate simulation throughput of the executed cells."""
        return self.refs / self.seconds if self.seconds > 0 else 0.0

    def to_dict(self) -> dict:
        """JSON-safe view (the ``--stats-json`` payload body)."""
        return {
            "run": self.run,
            "cached": self.cached,
            "failed": self.failed,
            "total": self.total,
            "hit_rate": self.hit_rate,
            "compute_seconds": self.seconds,
            "cpu_seconds": self.cpu_seconds,
            "cached_wall_s": self.cached_wall_s,
            "peak_rss_kb": self.peak_rss_kb,
            "refs": self.refs,
            "refs_per_s": self.refs_per_s,
            "cells": list(self.cells),
        }


def _env_parallel() -> int:
    raw = os.environ.get("REPRO_PARALLEL")
    if not raw:
        return 0
    value = int(raw)
    if value < 0:
        raise ValueError(f"REPRO_PARALLEL must be >= 0, got {raw!r}")
    return value


class Runner:
    """Executes cells serially or in parallel, memoizing through a cache."""

    def __init__(
        self,
        parallel: int = 0,
        cache: ResultCache | None = None,
        force: bool = False,
        obs: Observability | None = None,
        progress=None,
    ):
        self.parallel = parallel
        self.cache = cache
        self.force = force
        self.obs = obs if obs is not None else Observability.disabled()
        self.progress = progress
        self.stats = RunnerStats()
        # one fingerprint per runner: cells of a batch must share a key basis
        self._fingerprint = code_fingerprint() if cache is not None else None

    @classmethod
    def default(cls) -> "Runner":
        """The environment-driven runner every driver falls back to.

        Serial and uncached unless ``REPRO_PARALLEL`` / ``REPRO_CACHE_DIR``
        say otherwise, so library behaviour is unchanged for callers that
        never heard of the runner.
        """
        cache_dir = os.environ.get("REPRO_CACHE_DIR")
        return cls(
            parallel=_env_parallel(),
            cache=ResultCache(cache_dir) if cache_dir else None,
        )

    # -- single cell -----------------------------------------------------------
    def run_cell(self, cell: Cell) -> RunResult:
        """Execute (or replay) one cell."""
        return self.run_cells([cell])[0]

    # -- batch ----------------------------------------------------------------
    def run_cells(self, cells) -> list:
        """Execute a batch; results come back in submission order.

        Cached cells are replayed from disk, the rest run serially or on
        the process pool.  Any worker failure is re-raised with the cell's
        label attached after the batch's already-running cells are drained.
        """
        cells = list(cells)
        results = [None] * len(cells)
        pending = []  # (index, cell, key)
        batch = {"run": 0, "cached": 0, "failed": 0}

        for i, cell in enumerate(cells):
            key = None
            if self.cache is not None and not self.force:
                key = cell_key(cell, self._fingerprint)
                hit = self.cache.get_entry(key)
                if hit is not None:
                    results[i] = hit["result"]
                    batch["cached"] += 1
                    self._account("cached", cell, 0.0, len(cells), batch,
                                  {"cached_wall_s": hit["wall_s"]})
                    continue
            elif self.cache is not None:
                key = cell_key(cell, self._fingerprint)
            pending.append((i, cell, key))

        if pending:
            if self.parallel and self.parallel > 1 and len(pending) > 1:
                self._run_pool(pending, results, batch, len(cells))
            else:
                self._run_serial(pending, results, batch, len(cells))

        self.stats.last_batch = batch
        return results

    # -- execution strategies ----------------------------------------------------
    def _run_serial(self, pending, results, batch, total) -> None:
        for i, cell, key in pending:
            try:
                result, resources = execute_cell_measured(cell)
            except Exception as exc:
                self._fail(cell, batch, exc)
            self._commit(i, cell, key, result, results, batch, resources,
                         total)

    def _run_pool(self, pending, results, batch, total) -> None:
        workers = min(self.parallel, len(pending))
        log.info("fanning %d cell(s) out over %d worker process(es)",
                 len(pending), workers)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {}
            for i, cell, key in pending:
                future = pool.submit(execute_cell_measured, cell)
                futures[future] = (i, cell, key)
            outstanding = set(futures)
            while outstanding:
                done, outstanding = wait(outstanding,
                                         return_when=FIRST_COMPLETED)
                for future in done:
                    i, cell, key = futures[future]
                    exc = future.exception()
                    if exc is not None:
                        for other in outstanding:
                            other.cancel()
                        self._fail(cell, batch, exc)
                    result, resources = future.result()
                    self._commit(i, cell, key, result, results, batch,
                                 resources, total)

    # -- bookkeeping -------------------------------------------------------------
    def _commit(self, i, cell, key, result, results, batch, resources, total):
        results[i] = result
        if key is not None:
            self.cache.put(key, result, wall_s=resources["wall_s"])
        batch["run"] += 1
        self._account("run", cell, resources["wall_s"], total, batch,
                      resources)

    def _fail(self, cell: Cell, batch, exc: Exception):
        batch["failed"] += 1
        self.stats.failed += 1
        registry = self.obs.registry
        if registry.enabled:
            registry.counter(
                "repro_runner_cells_total",
                help="cells by terminal status", status="failed",
            ).inc()
        log.error("cell %s failed: %s", cell.label, exc)
        raise RuntimeError(f"cell {cell.label} failed") from exc

    def _account(self, status, cell, seconds, total, batch, resources=None):
        record = {"label": cell.label, "status": status}
        if status == "run":
            self.stats.run += 1
            self.stats.seconds += seconds
            if resources is not None:
                self.stats.cpu_seconds += resources["cpu_s"]
                self.stats.peak_rss_kb = max(
                    self.stats.peak_rss_kb, resources["peak_rss_kb"]
                )
                self.stats.refs += resources["refs"]
                record.update(resources)
        else:
            self.stats.cached += 1
            if resources is not None:
                self.stats.cached_wall_s += resources["cached_wall_s"]
                record.update(resources)
        self.stats.cells.append(record)
        registry = self.obs.registry
        if registry.enabled:
            registry.counter(
                "repro_runner_cells_total",
                help="cells by terminal status", status=status,
            ).inc()
            if status == "run":
                registry.histogram(
                    "repro_runner_cell_seconds",
                    help="wall-clock latency of executed cells",
                    bounds=CELL_SECONDS_BOUNDS,
                ).observe(seconds)
        done = batch["run"] + batch["cached"] + batch["failed"]
        log.debug("cell %d/%d %s (%s, %.2fs)", done, total, cell.label,
                  status, seconds)
        if self.progress is not None:
            self.progress(done, total, cell, status, seconds)
