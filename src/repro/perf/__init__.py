"""repro.perf — the gate on the repository benchmark.

``bench/run.py`` (described by ``BENCHMARK.json``) is the one source of
speed numbers.  This package compares its ``--json`` runs of a change
with runs of the parent commit, on the same host, at the per-metric bounds
of ``BENCHMARK.json``:

* :mod:`repro.perf.compare` — load run files, take medians, apply bounds;
* :mod:`repro.perf.cli` — ``repro perf compare --parent … --change …``,
  exit 1 on a regression; the CI ``bench-gate`` job runs it.
"""

from __future__ import annotations

from .compare import compare_runs, format_report, load_runs, load_spec

__all__ = ["compare_runs", "format_report", "load_runs", "load_spec"]
