"""Prefetching extension study (paper Section 6, related-work discussion).

The paper argues the reuse cache adopts prefetch-aware cache management "in
a straightforward way: simply considering prefetched lines to have a
priority as low as the non-reused data" — which is what a tag-only fill
with its NRR bit set *is*.  This study adds a sequential L2 prefetcher and
compares how a conventional cache (prefetched lines allocate data and
pollute) and a reuse cache (prefetched lines stay tag-only until demand
reuse) respond as the prefetch degree grows.
"""

from __future__ import annotations

from ..hierarchy.config import LLCSpec
from ..runner import Runner
from .common import BASELINE_SPEC, ExperimentParams, format_table

DEGREES = (0, 1, 2)
SPECS = [BASELINE_SPEC, LLCSpec.reuse(4, 1)]


def run_prefetch(params: ExperimentParams, runner=None) -> dict:
    """{spec label: {degree: mean speedup vs degree-0 conventional baseline}}."""
    runner = runner if runner is not None else Runner.default()
    refs = params.workload_refs()
    base_cells = [params.cell(BASELINE_SPEC, ref) for ref in refs]
    sweep_cells = [
        params.cell(spec, ref, prefetch_degree=degree)
        for spec in SPECS
        for degree in DEGREES
        for ref in refs
    ]
    runs = runner.run_cells(base_cells + sweep_cells)
    base_perf = [run.performance for run in runs[: len(refs)]]
    sweep = iter(runs[len(refs):])
    out = {}
    for spec in SPECS:
        per_degree = {}
        for degree in DEGREES:
            total = 0.0
            for base in base_perf:
                total += next(sweep).performance / base
            per_degree[degree] = total / len(refs)
        out[spec.label] = per_degree
    return out


def format_prefetch(result: dict) -> str:
    """Render the prefetch-degree table."""
    rows = []
    for label, per_degree in result.items():
        for degree, speedup in per_degree.items():
            rows.append((label, degree, f"{speedup:.3f}"))
    return format_table(
        ["config", "prefetch degree", "speedup vs no-prefetch baseline"],
        rows,
        title="Extension: sequential prefetching (Section 6 discussion)",
    )
