"""Figure 8: reuse caches vs conventional caches with state-of-the-art
replacement (Section 5.5), annotated with storage cost in Kbits.

The paper shows RC-16/8 edging out 16 MB DRRIP/NRR at ~41 % lower cost,
RC-8/4 beating 8 MB TA-DRRIP by ~2 % at ~48 % lower cost, and RC-4/0.5
matching 4 MB DRRIP/NRR at ~80 % lower cost.
"""

from __future__ import annotations

from ..core.cost_model import figure8_storage_kbits
from ..hierarchy.config import LLCSpec
from .common import ExperimentParams, SpeedupStudy, format_table

RC_SPECS = [
    LLCSpec.reuse(16, 8),
    LLCSpec.reuse(8, 4),
    LLCSpec.reuse(8, 2),
    LLCSpec.reuse(4, 1),
    LLCSpec.reuse(4, 0.5),
]

CONV_SPECS = [
    LLCSpec.conventional(size, policy)
    for size in (4, 8, 16)
    for policy in ("drrip", "nrr")
]


def run_fig8(params: ExperimentParams, runner=None) -> dict:
    """Speedups plus exact storage Kbits for the Fig. 8 configurations."""
    study = SpeedupStudy(params, runner=runner)
    storage = figure8_storage_kbits()
    results = study.evaluate_many(list(RC_SPECS) + list(CONV_SPECS))
    out = {"reuse": {}, "conventional": {}}
    for spec in RC_SPECS:
        key = spec.label  # e.g. "RC-8/4"
        out["reuse"][key] = {
            "speedup": results[key].mean_speedup,
            "kbits": storage[key],
        }
    for spec in CONV_SPECS:
        size = int(spec.size_mb)
        kbits_key = f"conv-{size}MB-drrip" if spec.policy == "drrip" else f"conv-{size}MB"
        out["conventional"][spec.label] = {
            "speedup": results[spec.label].mean_speedup,
            "kbits": storage[kbits_key],
        }
    return out


def format_fig8(result: dict) -> str:
    """Render the Fig. 8 rows."""
    rows = []
    for group in ("reuse", "conventional"):
        for label, d in result[group].items():
            rows.append((label, f"{d['speedup']:.3f}", f"{d['kbits']:.0f}"))
    return format_table(
        ["config", "speedup", "storage (Kbits)"],
        rows,
        title="Fig. 8: speedups and storage of reuse vs conventional caches",
    )
