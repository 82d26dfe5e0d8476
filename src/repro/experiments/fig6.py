"""Figure 6: per-workload speedup curves of the selected reuse caches
(Section 5.2): RC-8/4, RC-8/2, RC-4/1, RC-4/0.5, each sorted by speedup.

The paper's observations: RC-8/4 beats the baseline on 99/100 workloads;
RC-4/1 wins on 64/100 with extremes 1.14 / 0.82.
"""

from __future__ import annotations

from ..hierarchy.config import LLCSpec
from .common import ExperimentParams, SpeedupStudy, format_table

SELECTED_SPECS = [
    LLCSpec.reuse(8, 4),
    LLCSpec.reuse(8, 2),
    LLCSpec.reuse(4, 1),
    LLCSpec.reuse(4, 0.5),
]


def run_fig6(params: ExperimentParams, runner=None) -> dict:
    """Per-workload speedups of the selected configurations."""
    study = SpeedupStudy(params, runner=runner)
    results = study.evaluate_many(SELECTED_SPECS)
    out = {}
    for spec in SELECTED_SPECS:
        speedups = results[spec.label].speedups
        out[spec.label] = {
            "sorted_speedups": sorted(speedups),
            "wins": sum(1 for s in speedups if s > 1.0),
            "n": len(speedups),
            "min": min(speedups),
            "max": max(speedups),
            "mean": sum(speedups) / len(speedups),
        }
    return out


def format_fig6(result: dict) -> str:
    """Render the sorted speedup curves and their summary."""
    from ..metrics.textplot import line_plot

    series = {
        label: list(enumerate(d["sorted_speedups"]))
        for label, d in result.items()
    }
    plot = line_plot(
        series,
        title="Fig. 6: per-workload speedups, sorted (x = workload rank)",
    )
    rows = [
        (
            label,
            f"{d['wins']}/{d['n']}",
            f"{d['min']:.3f}",
            f"{d['mean']:.3f}",
            f"{d['max']:.3f}",
        )
        for label, d in result.items()
    ]
    table = format_table(
        ["config", "wins", "min", "mean", "max"],
        rows,
        title="Fig. 6: per-workload speedups (sorted curves summarised)",
    )
    return plot + "\n\n" + table
