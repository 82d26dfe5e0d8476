"""Figure 10: per-application speedup distributions (Section 5.6).

For RC-8/4, RC-8/2 and RC-8/1, each application's speedup is measured as
the ratio of its core's IPC between the reuse-cache run and the baseline run
of the same workload; over all workloads containing the application the five
numbers (min, Q1, median, Q3, max) summarise the boxplot of Fig. 10.
"""

from __future__ import annotations

from collections import defaultdict

from ..hierarchy.config import LLCSpec
from ..metrics.perf import quartiles
from .common import ExperimentParams, SpeedupStudy, format_table

FIG10_SPECS = [
    LLCSpec.reuse(8, 4),
    LLCSpec.reuse(8, 2),
    LLCSpec.reuse(8, 1),
]


def run_fig10(params: ExperimentParams, runner=None) -> dict:
    """Per-application speedup quartiles for RC-8/4, 8/2, 8/1."""
    study = SpeedupStudy(params, runner=runner)
    results = study.evaluate_many(FIG10_SPECS)
    out = {}
    for spec in FIG10_SPECS:
        per_app = defaultdict(list)
        config_result = results[spec.label]
        for run, base in zip(config_result.runs, study.baseline_runs):
            base_ipc = base.ipc
            run_ipc = run.ipc
            for core, app in enumerate(run.app_names):
                if base_ipc[core] > 0:
                    per_app[app].append(run_ipc[core] / base_ipc[core])
        out[spec.label] = {
            app: {
                "quartiles": quartiles(vals),
                "n": len(vals),
            }
            for app, vals in sorted(per_app.items())
        }
    return out


def format_fig10(result: dict) -> str:
    """Render one quartile table per configuration."""
    blocks = []
    for label, per_app in result.items():
        rows = [
            (
                app,
                d["n"],
                *(f"{q:.2f}" for q in d["quartiles"]),
            )
            for app, d in per_app.items()
        ]
        blocks.append(
            format_table(
                ["app", "n", "min", "Q1", "median", "Q3", "max"],
                rows,
                title=f"Fig. 10 ({label}): per-application speedup distribution",
            )
        )
    return "\n\n".join(blocks)
