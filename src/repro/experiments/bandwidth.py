"""Section 5.8: sensitivity to main-memory bandwidth.

The paper adds 2- and 4-channel memory systems and observes system
performance varying by less than 1 % for both the conventional and the
reuse cache — the extra second fetches of the reuse cache do not congest the
memory system.
"""

from __future__ import annotations

from ..dram.ddr3 import DDR3Config
from ..hierarchy.config import LLCSpec
from ..runner import Runner
from .common import BASELINE_SPEC, ExperimentParams, format_table

CHANNEL_COUNTS = (1, 2, 4)
SPECS = [BASELINE_SPEC, LLCSpec.reuse(4, 1)]


def run_bandwidth(params: ExperimentParams, runner=None) -> dict:
    """Mean performance at 1/2/4 channels, normalised to 1 channel."""
    runner = runner if runner is not None else Runner.default()
    refs = params.workload_refs()
    cells = [
        params.cell(spec, ref, dram=DDR3Config(channels=channels))
        for spec in SPECS
        for channels in CHANNEL_COUNTS
        for ref in refs
    ]
    runs = iter(runner.run_cells(cells))
    out = {}
    for spec in SPECS:
        per_channels = {}
        for channels in CHANNEL_COUNTS:
            perf = sum(next(runs).performance for _ in refs)
            per_channels[channels] = perf / len(refs)
        base = per_channels[1]
        out[spec.label] = {
            channels: perf / base for channels, perf in per_channels.items()
        }
    return out


def format_bandwidth(result: dict) -> str:
    """Render the Section 5.8 rows."""
    rows = []
    for label, per_channels in result.items():
        for channels, rel in per_channels.items():
            rows.append((label, channels, f"{rel:.4f}"))
    return format_table(
        ["config", "channels", "perf vs 1 channel"],
        rows,
        title="Sec. 5.8: memory-bandwidth sensitivity (paper: <1% variation)",
    )
