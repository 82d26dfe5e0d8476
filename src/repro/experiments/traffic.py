"""Memory-traffic study: the cost of selective allocation (Section 5.3).

Table 6 notes the reuse cache's downside: reused lines are loaded twice,
"paying twice the main memory accessing cost".  This study quantifies the
resulting DRAM traffic — demand reads, reuse reloads and writebacks per
kilo-instruction — for the baseline and the selected reuse caches, showing
the trade the paper describes: a few percent more reads bought a 6x smaller
data array.
"""

from __future__ import annotations

from ..hierarchy.config import LLCSpec
from ..runner import Runner
from .common import BASELINE_SPEC, ExperimentParams, format_table

TRAFFIC_SPECS = [
    BASELINE_SPEC,
    LLCSpec.reuse(8, 4),
    LLCSpec.reuse(8, 2),
    LLCSpec.reuse(4, 1),
    LLCSpec.reuse(4, 0.5),
]


def run_traffic(params: ExperimentParams, runner=None) -> dict:
    """DRAM reads/reloads/writes per kilo-instruction per config."""
    runner = runner if runner is not None else Runner.default()
    refs = params.workload_refs()
    runs = iter(runner.run_cells(
        [params.cell(spec, ref) for spec in TRAFFIC_SPECS for ref in refs]
    ))
    out = {}
    for spec in TRAFFIC_SPECS:
        acc = {"reads": 0, "writes": 0, "reloads": 0, "kinst": 0.0}
        for _ in refs:
            result = next(runs)
            acc["reads"] += result.dram_stats["reads"]
            acc["writes"] += result.dram_stats["writes"]
            acc["reloads"] += result.llc_stats.get("reuse_reloads", 0)
            acc["kinst"] += sum(result.instructions) / 1000.0
        kinst = acc["kinst"] or 1.0
        out[spec.label] = {
            "reads_pki": acc["reads"] / kinst,
            "writes_pki": acc["writes"] / kinst,
            "reloads_pki": acc["reloads"] / kinst,
        }
    return out


def format_traffic(result: dict) -> str:
    """Render the traffic table, normalised to the baseline."""
    base = result["conv-8MB-lru"]
    base_total = base["reads_pki"] + base["writes_pki"]
    rows = []
    for label, t in result.items():
        total = t["reads_pki"] + t["writes_pki"]
        rows.append(
            (
                label,
                f"{t['reads_pki']:.2f}",
                f"{t['reloads_pki']:.2f}",
                f"{t['writes_pki']:.2f}",
                f"{total / base_total:.2f}x",
            )
        )
    return format_table(
        ["config", "DRAM reads/kinst", "of which reloads", "writes/kinst",
         "traffic vs baseline"],
        rows,
        title="Memory traffic: the double-fetch cost of selective allocation",
    )
