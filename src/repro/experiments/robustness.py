"""Scale-robustness study: do the conclusions survive the scaling knob?

DESIGN.md argues that dividing all capacities (and workload footprints) by
``scale`` preserves every *relative* result.  This study tests that claim
empirically: the key configuration comparisons are re-run at scales 64, 32
and 16 (structures 2x smaller / the default / 2x larger than the default),
and their speedups over the respective baselines are reported side by
side.  Stable orderings across a 4x scale range are the evidence that the
reproduction's conclusions are not artifacts of one chosen scale.
"""

from __future__ import annotations

from dataclasses import replace

from ..hierarchy.config import LLCSpec
from .common import ExperimentParams, SpeedupStudy, format_table

SCALES = (64, 32, 16)
PROBE_SPECS = [
    LLCSpec.conventional(16, "lru"),
    LLCSpec.conventional(8, "drrip"),
    LLCSpec.reuse(8, 2),
    LLCSpec.reuse(4, 1),
    LLCSpec.reuse(4, 0.5),
]


def run_robustness(params: ExperimentParams, runner=None) -> dict:
    """Key-configuration speedups at scales 1/64, 1/32 and 1/16."""
    out = {}
    for scale in SCALES:
        # keep trace length proportional to structure size so warm-up
        # coverage is comparable across scales
        refs = max(1000, params.n_refs * 32 // scale)
        scaled = replace(params, scale=scale, n_refs=refs)
        study = SpeedupStudy(scaled, runner=runner)
        out[scale] = {
            r.spec.label: r.mean_speedup
            for r in study.evaluate_all(PROBE_SPECS)
        }
    return out


def format_robustness(result: dict) -> str:
    """Render the cross-scale table and an ordering-stability summary."""
    scales = sorted(result)
    labels = list(next(iter(result.values())))
    rows = []
    for label in labels:
        rows.append([label] + [f"{result[s][label]:.3f}" for s in scales])
    table = format_table(
        ["config"] + [f"scale 1/{s}" for s in scales],
        rows,
        title="Scale robustness: speedups vs the same-scale 8 MB LRU baseline",
    )
    # ordering stability: count pairwise rank inversions between scales,
    # ignoring pairs closer than 1% (within run-to-run noise)
    inversions = 0
    decided_pairs = 0
    for i, a in enumerate(labels):
        for b in labels[i + 1:]:
            signs = set()
            for s in scales:
                diff = result[s][a] - result[s][b]
                if abs(diff) > 0.01:
                    signs.add(diff > 0)
            if signs:
                decided_pairs += 1
                if len(signs) > 1:
                    inversions += 1
    return table + (
        f"\nordering stability: {decided_pairs - inversions}/{decided_pairs} "
        "decided pairs agree across all scales (ties within 1% ignored)"
    )
