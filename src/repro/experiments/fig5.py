"""Figure 5: tag-array size sweep per data-array size (Section 5.2).

For each data array (8, 4, 2 MB — plus the selected small configurations)
the tag array varies; conventional 4/8/16 MB LRU caches provide reference
lines.  The paper's finding: the optimal tag:data ratio is 4 (except where
the 2 MB of private caches bound the minimum tag array), RC-16/8 beats a
conventional 16 MB cache and RC-4/0.5 matches a conventional 4 MB one.
"""

from __future__ import annotations

from ..hierarchy.config import LLCSpec
from .common import ExperimentParams, SpeedupStudy, format_table

#: data_mb -> candidate tag MBeq values (paper Fig. 5 x-axis groups)
TAG_SWEEP = {
    8: (16, 32, 64),
    4: (8, 16, 32),
    2: (4, 8, 16),
    1: (2, 4, 8),
    0.5: (2, 4),
}

#: conventional reference lines
CONV_SIZES = (4, 8, 16)


def run_fig5(params: ExperimentParams, runner=None) -> dict:
    """Tag-size sweep per data size plus conventional reference points."""
    study = SpeedupStudy(params, runner=runner)
    reuse_specs = [
        LLCSpec.reuse(tag, data_mb)
        for data_mb, tag_options in TAG_SWEEP.items()
        for tag in tag_options
    ]
    conv_specs = [LLCSpec.conventional(size, "lru") for size in CONV_SIZES]
    evaluations = iter(study.evaluate_all(reuse_specs + conv_specs))
    reuse = {}
    for data_mb, tag_options in TAG_SWEEP.items():
        reuse[data_mb] = {
            tag: next(evaluations).mean_speedup for tag in tag_options
        }
    conventional = {
        size: next(evaluations).mean_speedup for size in CONV_SIZES
    }
    return {"reuse": reuse, "conventional": conventional}


def format_fig5(result: dict) -> str:
    """Render Fig. 5 as a bar chart plus table."""
    from ..metrics.textplot import bar_chart

    items = []
    for data_mb, per_tag in result["reuse"].items():
        for tag, sp in per_tag.items():
            items.append((f"RC-{tag}/{data_mb:g}", sp))
    for size, sp in result["conventional"].items():
        items.append((f"conv-{size}MB-lru", sp))
    chart = bar_chart(
        items,
        baseline=1.0,
        title="Fig. 5: speedup vs baseline, varying tag and data array sizes "
        "(| marks the 8 MB LRU baseline)",
    )
    rows = [(label, f"{sp:.3f}") for label, sp in items]
    return chart + "\n\n" + format_table(["config", "speedup"], rows)
