"""Belady OPT bound study (an extension beyond the paper's evaluation).

The paper argues that replacement policies on conventional SLLCs were
already within ~5 % of each other and chose to shrink the cache instead.
This study quantifies the headroom directly: capture the demand stream the
SLLC observes under the baseline, then compare the *hit ratios* of

* the conventional 8 MB cache (LRU / NRR),
* the selected reuse-cache data arrays, and
* fully associative bypass-capable OPT at the same data capacities.

OPT at 1 MB vs OPT at 8 MB also shows how much of the stream's reuse is
even capturable at a downsized capacity — the headroom the reuse cache's
selective allocation exploits.
"""

from __future__ import annotations

from ..cache.belady import belady_hit_ratio
from ..hierarchy.config import LLCSpec, capacity_lines
from ..runner import Runner
from .common import BASELINE_SPEC, ExperimentParams, format_table

#: data capacities (MB) at which OPT is evaluated
CAPACITIES_MB = (8, 4, 2, 1, 0.5)

#: configurations whose measured hit ratios bracket the OPT bound
MEASURED_SPECS = (
    BASELINE_SPEC,
    LLCSpec.conventional(8, "nrr"),
    LLCSpec.reuse(8, 2),
    LLCSpec.reuse(4, 1),
)


def run_opt_bound(params: ExperimentParams, runner=None) -> dict:
    """OPT hit ratios on the captured stream plus measured ratios."""
    runner = runner if runner is not None else Runner.default()
    refs = params.workload_refs()
    capture_cells = [
        params.cell(BASELINE_SPEC, ref, capture_llc_trace=True) for ref in refs
    ]
    measured_cells = [
        params.cell(spec, ref) for spec in MEASURED_SPECS for ref in refs
    ]
    runs = runner.run_cells(capture_cells + measured_cells)

    opt = {mb: 0.0 for mb in CAPACITIES_MB}
    for run in runs[: len(refs)]:
        trace = run.extra["llc_trace"]
        for mb in CAPACITIES_MB:
            opt[mb] += belady_hit_ratio(trace, capacity_lines(mb, params.scale))

    measured = {}
    rest = iter(runs[len(refs):])
    for spec in MEASURED_SPECS:
        total = 0.0
        for _ in refs:
            stats = next(rest).llc_stats
            accesses = stats.get("accesses", 0)
            hits = stats.get("data_hits", 0)
            total += hits / accesses if accesses else 0.0
        measured[spec.label] = total / len(refs)

    n = len(refs)
    return {
        "opt": {mb: v / n for mb, v in opt.items()},
        "measured": measured,
    }


def format_opt_bound(result: dict) -> str:
    """Render the OPT-vs-measured hit-ratio table."""
    rows = [
        (f"OPT @ {mb:g} MB (FA, bypass)", f"{ratio:.1%}")
        for mb, ratio in result["opt"].items()
    ]
    rows += [
        (label, f"{ratio:.1%}") for label, ratio in result["measured"].items()
    ]
    return format_table(
        ["configuration", "SLLC data hit ratio"],
        rows,
        title="OPT bound: achievable vs measured hit ratios on the baseline "
        "demand stream",
    )
