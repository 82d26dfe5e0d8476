"""Figure 7: average fraction of live lines (Section 5.4).

Compares the 8 MB conventional cache under LRU, DRRIP and NRR with the data
arrays of the selected reuse caches.  Paper values: 16.1 %, 35.9 %, 40.0 %
for the conventional policies and 55.1 % / 57.3 % / 48.7 % / 41.5 % for
RC-8/4 / RC-8/2 / RC-4/1 / RC-4/0.5.
"""

from __future__ import annotations

from ..hierarchy.config import LLCSpec
from .common import ExperimentParams, SpeedupStudy, format_table

FIG7_SPECS = [
    LLCSpec.conventional(8, "lru"),
    LLCSpec.conventional(8, "drrip"),
    LLCSpec.conventional(8, "nrr"),
    LLCSpec.reuse(8, 4),
    LLCSpec.reuse(8, 2),
    LLCSpec.reuse(4, 1),
    LLCSpec.reuse(4, 0.5),
]

#: paper's reported averages, for side-by-side display
PAPER_VALUES = {
    "conv-8MB-lru": 0.161,
    "conv-8MB-drrip": 0.359,
    "conv-8MB-nrr": 0.400,
    "RC-8/4": 0.551,
    "RC-8/2": 0.573,
    "RC-4/1": 0.487,
    "RC-4/0.5": 0.415,
}


def run_fig7(params: ExperimentParams, runner=None) -> dict:
    """Mean live-line fraction per configuration."""
    study = SpeedupStudy(params, record_generations=True, runner=runner)
    results = study.evaluate_many(FIG7_SPECS)
    out = {}
    for spec in FIG7_SPECS:
        fractions = [
            run.generations.mean_live_fraction()
            for run in results[spec.label].runs
        ]
        out[spec.label] = sum(fractions) / len(fractions)
    return out


def format_fig7(result: dict) -> str:
    """Render Fig. 7 with the paper's values side by side."""
    rows = [
        (label, f"{frac:.1%}", f"{PAPER_VALUES.get(label, float('nan')):.1%}")
        for label, frac in result.items()
    ]
    return format_table(
        ["config", "live fraction", "paper"],
        rows,
        title="Fig. 7: average fraction of live lines in the (data) array",
    )
