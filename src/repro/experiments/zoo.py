"""Replacement-policy zoo: every related-work policy on the 8 MB SLLC.

An extension of the paper's Fig. 8 comparison: besides TA-DRRIP and NRR it
covers the rest of the lineage the related-work section traces — NRU (the
commercial baseline), DIP (dynamic insertion), SRRIP, segmented LRU (the
disk-cache ancestor of reuse-aware replacement) and SHiP (signature-based
hit prediction) — against the selected reuse-cache configurations.  The
paper's framing is that *all* of these stay within a few percent of each
other while the reuse cache reaches similar performance at a fraction of the
storage.
"""

from __future__ import annotations

from ..hierarchy.config import LLCSpec
from .common import ExperimentParams, SpeedupStudy, format_table

ZOO_POLICIES = ("lru", "nru", "random", "dip", "srrip", "drrip", "slru", "ship", "nrr")
RC_REFERENCES = [LLCSpec.reuse(8, 2), LLCSpec.reuse(4, 1), LLCSpec.vway(8)]


def run_zoo(params: ExperimentParams, size_mb: float = 8, runner=None) -> dict:
    """Mean speedup of every zoo policy plus the RC/V-way references."""
    study = SpeedupStudy(params, runner=runner)
    specs = [
        LLCSpec.conventional(size_mb, policy) for policy in ZOO_POLICIES
    ] + list(RC_REFERENCES)
    return {
        r.spec.label: r.mean_speedup for r in study.evaluate_all(specs)
    }


def format_zoo(result: dict) -> str:
    """Render the zoo, sorted by speedup."""
    rows = [
        (label, f"{speedup:.3f}")
        for label, speedup in sorted(result.items(), key=lambda kv: kv[1])
    ]
    return format_table(
        ["config", "speedup vs 8MB LRU"],
        rows,
        title="Replacement zoo: related-work policies vs the reuse cache",
    )
