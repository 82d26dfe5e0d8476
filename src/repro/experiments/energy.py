"""Energy study: what downsizing buys in power (paper Section 1 motivation).

Runs the workload suite on the baseline and the selected reuse caches and
reports SLLC dynamic energy, leakage, DRAM energy and the totals — the
quantitative version of the paper's "the saved area could ... reduce power
consumption" argument, including the reload-energy downside of selective
allocation.
"""

from __future__ import annotations

from ..core.energy_model import EnergyBreakdown, run_energy
from ..hierarchy.config import LLCSpec
from ..runner import Runner
from .common import BASELINE_SPEC, ExperimentParams, format_table

ENERGY_SPECS = [
    BASELINE_SPEC,
    LLCSpec.reuse(8, 2),
    LLCSpec.reuse(4, 1),
    LLCSpec.reuse(4, 0.5),
]


def run_energy_study(params: ExperimentParams, runner=None) -> dict:
    """Average energy breakdown per configuration over the suite."""
    runner = runner if runner is not None else Runner.default()
    refs = params.workload_refs()
    runs = iter(runner.run_cells(
        [params.cell(spec, ref) for spec in ENERGY_SPECS for ref in refs]
    ))
    out = {}
    for spec in ENERGY_SPECS:
        acc = {"tag": 0.0, "data": 0.0, "leak": 0.0, "dram": 0.0, "perf": 0.0}
        for _ in refs:
            result = next(runs)
            e: EnergyBreakdown = run_energy(spec, result)
            acc["tag"] += e.tag_dynamic
            acc["data"] += e.data_dynamic
            acc["leak"] += e.leakage
            acc["dram"] += e.dram
            acc["perf"] += result.performance
        n = len(refs)
        out[spec.label] = {k: v / n for k, v in acc.items()}
    return out


def format_energy(result: dict) -> str:
    """Render the energy table, normalised to the baseline."""
    base = result["conv-8MB-lru"]
    base_total = base["tag"] + base["data"] + base["leak"] + base["dram"]
    rows = []
    for label, e in result.items():
        total = e["tag"] + e["data"] + e["leak"] + e["dram"]
        rows.append(
            (
                label,
                f"{(e['tag'] + e['data']) * 1e6:.1f}",
                f"{e['leak'] * 1e6:.1f}",
                f"{e['dram'] * 1e6:.1f}",
                f"{total / base_total:.2f}x",
            )
        )
    return format_table(
        ["config", "SLLC dyn (uJ)", "SLLC leak (uJ)", "DRAM (uJ)", "total vs baseline"],
        rows,
        title="Energy study: SLLC downsizing vs DRAM reload energy",
    )
