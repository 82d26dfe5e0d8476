"""Tables 2, 3, 5 and 6 of the paper.

Tables 2 and 3 are analytical (exact bit accounting and the CACTI latency
surrogate).  Table 5 measures baseline MPKIs per application over the mix
suite; Table 6 measures the reuse cache's data-allocation selectivity.
"""

from __future__ import annotations

from collections import defaultdict

from ..core.cost_model import table2, ways_per_kbit_summary
from ..core.latency_model import table3
from ..hierarchy.config import LLCSpec
from .common import ExperimentParams, SpeedupStudy, format_table

#: the reuse-cache configurations Table 6 reports
TABLE6_SPECS = [
    LLCSpec.reuse(8, 4),
    LLCSpec.reuse(8, 2),
    LLCSpec.reuse(4, 1),
    LLCSpec.reuse(4, 0.5),
]


def run_table2() -> dict:
    """The three Table 2 cost breakdowns (analytical, exact)."""
    return table2()


def format_table2(result: dict) -> str:
    """Render Table 2 column by column."""
    parts = ["Table 2: hardware cost"]
    conv = result["conv-8MB"]
    for breakdown in result.values():
        parts.append(ways_per_kbit_summary(breakdown))
        if breakdown is not conv:
            parts.append(f"  reduction vs conv-8MB: {breakdown.reduction_vs(conv):.1%}")
    return "\n".join(parts)


def run_table3() -> list:
    """The Table 3 latency comparisons (CACTI surrogate)."""
    return table3()


def format_table3(rows) -> str:
    """Render the Table 3 rows."""
    return format_table(
        ["Org.", "Tag acc.", "Data acc.", "Total acc."],
        [
            (r.label, f"{r.tag_delta:+.0%}", f"{r.data_delta:+.0%}", f"{r.total_delta:+.0%}")
            for r in rows
        ],
        title="Table 3: access latency vs conventional 8 MB (paper: +36%/same/+10% "
        "and +36%/-16%/-3%)",
    )


def run_table5(params: ExperimentParams, runner=None) -> dict:
    """Average per-application MPKI at L1/L2/LLC in the baseline system."""
    study = SpeedupStudy(params, runner=runner)
    sums = defaultdict(lambda: [0.0, 0.0, 0.0, 0])
    for run in study.baseline_runs:
        for core, app in enumerate(run.app_names):
            entry = sums[app]
            entry[0] += run.l1_mpki[core]
            entry[1] += run.l2_mpki[core]
            entry[2] += run.llc_mpki[core]
            entry[3] += 1
    return {
        app: {
            "l1": entry[0] / entry[3],
            "l2": entry[1] / entry[3],
            "llc": entry[2] / entry[3],
            "instances": entry[3],
        }
        for app, entry in sorted(sums.items())
    }


def format_table5(result: dict) -> str:
    """Render the measured per-application MPKI table."""
    rows = [
        (app, f"{d['l1']:.1f}", f"{d['l2']:.1f}", f"{d['llc']:.1f}", d["instances"])
        for app, d in result.items()
    ]
    return format_table(
        ["Application", "L1", "L2", "LLC", "n"],
        rows,
        title="Table 5: average MPKI per level (baseline 8 MB LRU)",
    )


def run_table6(params: ExperimentParams, runner=None) -> dict:
    """Mean/min percentage of lines never entered in the data array."""
    study = SpeedupStudy(params, runner=runner)
    results = study.evaluate_many(TABLE6_SPECS)
    out = {}
    for spec in TABLE6_SPECS:
        fractions = []
        for run in results[spec.label].runs:
            fractions.append(run.llc_stats["fraction_not_entered"])
        out[spec.label] = {
            "avg": sum(fractions) / len(fractions),
            "min": min(fractions),
        }
    out["conv-8MB-lru"] = {"avg": 0.0, "min": 0.0}
    return out


def format_table6(result: dict) -> str:
    """Render Table 6 with the paper's percentages quoted."""
    rows = [
        (label, f"{d['avg']:.1%}", f"{d['min']:.1%}")
        for label, d in result.items()
    ]
    return format_table(
        ["Config", "Avg not entered", "Min not entered"],
        rows,
        title="Table 6: lines not entered in the data array "
        "(paper avg: 93/93/95.4/95%, conventional 0%)",
    )
