"""Figure 9: reuse cache vs NCID (Section 5.5).

NCID ties the data array to the tag sets, so shrinking the data array
shrinks the data associativity (8 MBeq tags with a 1 MB data array leave 2
data ways per set).  For a fair comparison the paper pits NCID against reuse
caches with the *same* data-array sets and associativity; the reuse cache
wins by 7.0 / 6.4 / 5.2 / 5.3 % at 4 / 2 / 1 / 0.5 MB.
"""

from __future__ import annotations

from ..hierarchy.config import LLCSpec, capacity_lines
from .common import ExperimentParams, SpeedupStudy, format_table

DATA_SIZES_MB = (4, 2, 1, 0.5)


def matched_data_assoc(params: ExperimentParams, tag_mbeq: float, data_mb: float, banks: int = 4) -> int:
    """Data ways per set when the data array shares the tag array's sets."""
    tag_sets = capacity_lines(tag_mbeq, params.scale) // banks // 16
    data_lines = capacity_lines(data_mb, params.scale) // banks
    assoc = data_lines // tag_sets
    if assoc < 1:
        raise ValueError(
            f"NCID geometry impossible: {data_lines} data lines over {tag_sets} sets"
        )
    return assoc


def run_fig9(params: ExperimentParams, tag_mbeq: float = 8, runner=None) -> dict:
    """RC vs NCID at matched data-array geometry."""
    study = SpeedupStudy(params, runner=runner)
    assocs = {
        data_mb: matched_data_assoc(params, tag_mbeq, data_mb)
        for data_mb in DATA_SIZES_MB
    }
    specs = []
    for data_mb in DATA_SIZES_MB:
        specs.append(LLCSpec.reuse(tag_mbeq, data_mb, data_assoc=assocs[data_mb]))
        specs.append(LLCSpec.ncid(tag_mbeq, data_mb))
    evaluations = iter(study.evaluate_all(specs))
    out = {}
    for data_mb in DATA_SIZES_MB:
        rc = next(evaluations)
        ncid = next(evaluations)
        out[data_mb] = {
            "rc": rc.mean_speedup,
            "ncid": ncid.mean_speedup,
            "data_assoc": assocs[data_mb],
        }
    return out


def format_fig9(result: dict) -> str:
    """Render the Fig. 9 rows with the paper's gains quoted."""
    rows = [
        (
            f"8/{data_mb:g} ({d['data_assoc']}-way data)",
            f"{d['rc']:.3f}",
            f"{d['ncid']:.3f}",
            f"{(d['rc'] - d['ncid']) * 100:+.1f}%",
        )
        for data_mb, d in result.items()
    ]
    return format_table(
        ["config", "RC", "NCID", "RC gain"],
        rows,
        title="Fig. 9: reuse cache vs NCID (paper gains: +7.0/+6.4/+5.2/+5.3%)",
    )
