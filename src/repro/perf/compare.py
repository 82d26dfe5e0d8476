"""Compare ``bench/run.py --json`` runs of a parent commit and a change.

A run file comes in one of two shapes, both written by ``bench/run.py``:

* the **record** of one run (one workload, no ``--repeat``):
  ``{"workload", "trace", "result": {"correct", "attempted", "failed",
  "metrics": {name: {"value", "unit"}}}, ...}``;
* the **document** of several (``--repeat N`` or several workloads):
  ``{"meta": {"trace", ...}, "runs": [record, ...], ...}``, where a run
  whose child process died carries ``"result": null``.

The bounds come from ``BENCHMARK.json``.  For every workload and
end-to-end metric the parent reports, :func:`compare_runs` takes the
median over each side's untraced runs and fails the change when

* its median is worse than the parent's by more than ``bound`` × the
  parent median, in the direction of the metric's ``better``;
* its failed/attempted share of operations is above the parent's;
* any of its runs is not ``correct`` (a dead child counts as such);
* it lacks a workload or metric the parent reports.

Traced runs (``--trace 1``) report per-layer metrics.  Those are shown
side by side and gate nothing.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict


def load_spec(path) -> dict:
    """``BENCHMARK.json``: the end-to-end bounds and per-layer names."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def load_runs(path) -> list:
    """Every run record of one ``bench/run.py --json`` file (either shape).

    ``ValueError`` names the file when it is neither shape.
    """
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    runs = doc.get("runs") if isinstance(doc, dict) else None
    if isinstance(runs, list):
        trace = doc.get("meta", {}).get("trace", 0)
    else:
        runs, trace = [doc], 0
    for run in runs:
        if not (isinstance(run, dict) and "workload" in run
                and "result" in run):
            raise ValueError(
                f"{path}: not a bench/run.py --json record or document")
    return [dict({"trace": trace}, **run) for run in runs]


def _group(runs: list) -> dict:
    """(trace, workload) -> that side's run results (``None`` if it died)."""
    groups = defaultdict(list)
    for run in runs:
        groups[(int(run.get("trace", 0)), run["workload"])].append(
            run.get("result"))
    return groups


def _medians(results: list) -> dict:
    """metric -> median over the results that report it."""
    values = defaultdict(list)
    for result in results:
        for name, row in (result or {}).get("metrics", {}).items():
            values[name].append(row["value"])
    return {name: statistics.median(vals) for name, vals in values.items()}


def _failed_share(results: list) -> tuple:
    failed = sum(r["failed"] for r in results if r)
    attempted = sum(r["attempted"] for r in results if r)
    return failed, attempted


def _worse_by(parent: float, change: float, better: str) -> float:
    """How much worse ``change`` is than ``parent``, as a share of it."""
    if parent == 0:
        worse = change > 0 if better == "lower" else False
        return float("inf") if worse else 0.0
    delta = (change - parent) / abs(parent)
    return delta if better == "lower" else -delta


def compare_runs(spec: dict, parent: list, change: list) -> dict:
    """Gate ``change`` run records against ``parent`` ones.

    Returns ``{"ok", "failures", "rows", "layers"}``: ``rows`` and
    ``layers`` hold one ``(workload, metric, unit, parent, change, worse,
    bound)`` tuple per compared end-to-end and per-layer metric (``bound``
    is ``None`` for per-layer rows, ``worse`` the share by which the change
    is worse, negative when it is better); ``failures`` one line per
    reason to reject the change.
    """
    parents, changes = _group(parent), _group(change)
    failures, rows, layers = [], [], []
    for (trace, workload), parent_results in sorted(parents.items()):
        change_results = changes.get((trace, workload))
        kind = "per_layer" if trace else "end_to_end"
        if change_results is None:
            if not trace:
                failures.append(f"{workload}: no change run")
            continue
        parent_med = _medians(parent_results)
        change_med = _medians(change_results)
        for metric in spec[kind]:
            name = metric["name"]
            if name not in parent_med:
                continue
            if name not in change_med:
                if not trace:
                    failures.append(f"{workload} {name}: not reported "
                                    "by the change")
                continue
            worse = _worse_by(parent_med[name], change_med[name],
                              metric["better"])
            bound = metric.get("bound")  # per-layer metrics have none
            (layers if trace else rows).append(
                (workload, name, metric["unit"], parent_med[name],
                 change_med[name], worse, bound))
            if bound is not None and worse > bound:
                failures.append(
                    f"{workload} {name}: {parent_med[name]:.6g} -> "
                    f"{change_med[name]:.6g} {metric['unit']}, "
                    f"{worse:.1%} worse (bound {bound:.1%})")
        if trace:
            continue
        bad = sum(1 for r in change_results if not (r and r["correct"]))
        if bad:
            failures.append(f"{workload}: {bad} change run(s) not correct")
        p_failed, p_attempted = _failed_share(parent_results)
        c_failed, c_attempted = _failed_share(change_results)
        if (c_failed / max(1, c_attempted)
                > p_failed / max(1, p_attempted)):
            failures.append(
                f"{workload}: {c_failed} of {c_attempted} ops failed "
                f"(parent: {p_failed} of {p_attempted})")
    return {"ok": not failures, "failures": failures, "rows": rows,
            "layers": layers}


def format_report(report: dict, n_parent: int, n_change: int) -> str:
    """What ``repro perf compare`` prints: rows, then the verdict."""
    lines = [f"perf compare: {n_parent} parent run(s), {n_change} change "
             "run(s); medians, bounds from BENCHMARK.json"]
    for title, rows in (("end-to-end", report["rows"]),
                        ("per-layer, not gated", report["layers"])):
        if not rows:
            continue
        lines.append(f"{title}:")
        lines.append(f"  {'workload':<14} {'metric':<36} {'parent':>12} "
                     f"{'change':>12} {'worse':>8} {'bound':>7}")
        for workload, name, unit, p, c, worse, bound in rows:
            shown = "-" if bound is None else f"{bound:.1%}"
            lines.append(f"  {workload:<14} {name:<36} {p:>12.6g} "
                         f"{c:>12.6g} {worse:>+8.1%} {shown:>7}  {unit}")
    for failure in report["failures"]:
        lines.append(f"FAIL {failure}")
    verdict = "OK" if report["ok"] else "FAIL"
    lines.append(f"{verdict}: {len(report['rows'])} gated metric(s), "
                 f"{len(report['failures'])} failure(s)")
    return "\n".join(lines)
