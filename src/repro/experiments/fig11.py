"""Figure 11: parallel applications (Section 5.7).

Five PARSEC/SPLASH-2 applications with >1 MPKI at the baseline SLLC, run
with reuse caches from RC-8/4 down to RC-4/0.5.  The paper finds only ferret
losing performance (−1 % to −11 %); canneal and ocean gain more than 10 %
even with the smallest data arrays.
"""

from __future__ import annotations

from ..hierarchy.config import LLCSpec
from ..runner import Runner, WorkloadRef
from ..workloads.parallel import PARALLEL_APPS
from .common import BASELINE_SPEC, ExperimentParams, format_table

FIG11_SPECS = [
    LLCSpec.reuse(8, 4),
    LLCSpec.reuse(8, 2),
    LLCSpec.reuse(4, 1),
    LLCSpec.reuse(4, 0.5),
]


def run_fig11(params: ExperimentParams, runner=None) -> dict:
    """Parallel-application speedups for the Fig. 11 configurations."""
    runner = runner if runner is not None else Runner.default()
    specs = [BASELINE_SPEC] + list(FIG11_SPECS)
    cells = []
    for app in PARALLEL_APPS:
        workload = WorkloadRef.parallel(
            app, params.n_refs, seed=params.seed, scale=params.scale
        )
        cells.extend(params.cell(spec, workload) for spec in specs)
    runs = iter(runner.run_cells(cells))
    out = {}
    for app in PARALLEL_APPS:
        base = next(runs)
        per_spec = {
            spec.label: next(runs).performance / base.performance
            for spec in FIG11_SPECS
        }
        out[app] = {
            "speedups": per_spec,
            "baseline_llc_mpki": sum(base.llc_mpki) / len(base.llc_mpki),
        }
    return out


def format_fig11(result: dict) -> str:
    """Render the Fig. 11 rows."""
    headers = ["app", "LLC MPKI"] + [s.label for s in FIG11_SPECS]
    rows = []
    for app, d in result.items():
        rows.append(
            [app, f"{d['baseline_llc_mpki']:.1f}"]
            + [f"{d['speedups'][s.label]:.3f}" for s in FIG11_SPECS]
        )
    return format_table(
        headers, rows, title="Fig. 11: parallel-application speedups vs baseline"
    )
