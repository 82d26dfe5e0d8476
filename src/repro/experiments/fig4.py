"""Figure 4: data-array size and associativity sweep (Section 5.1).

Reuse caches with an 8 MBeq tag array and data arrays of 4, 2, 1 and 0.5 MB,
each organised 16/32/64/128-way or fully associative.  The paper finds that
associativity barely matters (fully associative is slightly ahead) and that
RC-8/2 still beats the 8 MB baseline while RC-8/1 is the turning point.
"""

from __future__ import annotations

from ..hierarchy.config import LLCSpec
from .common import ExperimentParams, SpeedupStudy, format_table

DATA_SIZES_MB = (4, 2, 1, 0.5)
ASSOCIATIVITIES = (16, 32, 64, 128, "full")


def run_fig4(params: ExperimentParams, tag_mbeq: float = 8, runner=None) -> dict:
    """{data_mb: {assoc: mean speedup}} relative to the 8 MB LRU baseline."""
    study = SpeedupStudy(params, runner=runner)
    specs = [
        LLCSpec.reuse(tag_mbeq, data_mb, data_assoc=assoc)
        for data_mb in DATA_SIZES_MB
        for assoc in ASSOCIATIVITIES
    ]
    evaluations = iter(study.evaluate_all(specs))
    result = {}
    for data_mb in DATA_SIZES_MB:
        result[data_mb] = {
            str(assoc): next(evaluations).mean_speedup
            for assoc in ASSOCIATIVITIES
        }
    return result


def format_fig4(result: dict) -> str:
    """Render the Fig. 4 size x associativity grid."""
    headers = ["config"] + [f"{a}-assoc" for a in ASSOCIATIVITIES]
    rows = []
    for data_mb, per_assoc in result.items():
        rows.append(
            [f"RC-8/{data_mb:g}"] + [f"{per_assoc[str(a)]:.3f}" for a in ASSOCIATIVITIES]
        )
    return format_table(
        headers,
        rows,
        title="Fig. 4: speedup vs baseline, 8 MBeq tags, varying data size/assoc",
    )
