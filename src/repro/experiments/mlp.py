"""Core-model sensitivity: do the conclusions survive latency overlap?

The paper's cores are in-order and blocking, which maximises the price of
every SLLC miss.  This extension study swaps in the 'overlap' core model
(misses within an ``mlp_window``-instruction burst overlap — a simple
stand-in for out-of-order cores) and re-measures the key comparisons.  The
expected qualitative result: memory-level parallelism hides part of the
reload cost *and* part of the baseline's miss cost, shrinking all deltas
but preserving the orderings.
"""

from __future__ import annotations

from ..hierarchy.config import LLCSpec
from ..runner import Runner
from .common import BASELINE_SPEC, ExperimentParams, format_table

#: (label, core_model, mlp_window)
CORE_MODELS = [
    ("inorder", "inorder", 0),
    ("overlap-16", "overlap", 16),
    ("overlap-64", "overlap", 64),
]

SPECS = [LLCSpec.conventional(16, "lru"), LLCSpec.reuse(8, 2), LLCSpec.reuse(4, 1)]


def run_mlp(params: ExperimentParams, runner=None) -> dict:
    """Speedups vs the same-core-model 8 MB LRU baseline, per core model."""
    runner = runner if runner is not None else Runner.default()
    refs = params.workload_refs()

    def cell_for(spec, ref, model, window):
        return params.cell(
            spec, ref, core_model=model, mlp_window=window or 32
        )

    cells = []
    for _, model, window in CORE_MODELS:
        cells.extend(cell_for(BASELINE_SPEC, ref, model, window) for ref in refs)
        cells.extend(
            cell_for(spec, ref, model, window) for spec in SPECS for ref in refs
        )
    runs = iter(runner.run_cells(cells))
    out = {}
    for label, _, _ in CORE_MODELS:
        base_perf = [next(runs).performance for _ in refs]
        per_spec = {}
        for spec in SPECS:
            total = 0.0
            for base in base_perf:
                total += next(runs).performance / base
            per_spec[spec.label] = total / len(refs)
        out[label] = per_spec
    return out


def format_mlp(result: dict) -> str:
    """Render the core-model sensitivity table."""
    models = list(result)
    labels = list(next(iter(result.values())))
    rows = [
        [label] + [f"{result[m][label]:.3f}" for m in models]
        for label in labels
    ]
    return format_table(
        ["config"] + models,
        rows,
        title="Core-model sensitivity: speedups vs the same-core 8 MB LRU "
        "baseline (overlap = simple MLP model)",
    )
