"""Figure 1: line-usage patterns of a conventional 8 MB SLLC (Section 2).

* **Fig. 1a** — the instantaneous fraction of live SLLC lines over time for
  the example workload (gcc, mcf, povray, leslie3d, h264ref, lbm, namd, gcc)
  under LRU, with the DRRIP/NRR averages the accompanying text quotes
  (17.4 % / 34.8 % / 37.9 % for the example workload).
* **Fig. 1b** — the distribution of hits over all loaded line generations,
  split into 200 groups of 0.5 % each; the paper's headline numbers are the
  top group receiving 47 % of hits (11.5 hits/line) and only ~5 % of loaded
  lines being useful at all.
"""

from __future__ import annotations

from ..hierarchy.config import LLCSpec
from ..runner import Runner, WorkloadRef
from ..workloads.mixes import EXAMPLE_MIX
from .common import ExperimentParams, format_table


def _example_cell(params: ExperimentParams, policy: str):
    workload = WorkloadRef.mix(
        EXAMPLE_MIX, params.n_refs, seed=params.seed, scale=params.scale
    )
    return params.cell(
        LLCSpec.conventional(8.0, policy), workload, record_generations=True
    )


def run_fig1a(params: ExperimentParams, n_samples: int = 60, runner=None) -> dict:
    """Live-line fraction over time (LRU) + per-policy averages."""
    runner = runner if runner is not None else Runner.default()
    policies = ("lru", "drrip", "nrr")
    runs = runner.run_cells(
        [_example_cell(params, policy) for policy in policies]
    )
    series = {}
    averages = {}
    for policy, run in zip(policies, runs):
        log = run.generations
        span = max(1, log.end_time - log.start_time)
        interval = max(1, span // n_samples)
        times, fracs = log.live_fraction_series(interval)
        series[policy] = (times.tolist(), fracs.tolist())
        averages[policy] = log.mean_live_fraction(interval)
    return {"series": series, "averages": averages}


def run_fig1b(params: ExperimentParams, n_groups: int = 200, runner=None) -> dict:
    """Hit distribution across loaded lines for the LRU baseline."""
    runner = runner if runner is not None else Runner.default()
    run = runner.run_cell(_example_cell(params, "lru"))
    log = run.generations
    share, avg_hits = log.hit_distribution(n_groups)
    return {
        "group_share": share.tolist(),
        "group_avg_hits": avg_hits.tolist(),
        "top_group_share": float(share[0]),
        "top_group_avg_hits": float(avg_hits[0]),
        "useful_fraction": log.useful_fraction(),
        "n_generations": log.n_generations,
    }


def format_fig1a(result: dict) -> str:
    """Render Fig. 1a averages plus the LRU sample strip."""
    rows = [
        (policy, f"{avg:.1%}")
        for policy, avg in result["averages"].items()
    ]
    header = format_table(
        ["policy", "avg live fraction"], rows,
        title="Fig. 1a: average fraction of live SLLC lines (example workload)",
    )
    lru_times, lru_fracs = result["series"]["lru"]
    spark = " ".join(f"{f:.2f}" for f in lru_fracs[:20])
    return header + f"\nLRU live-fraction samples (first 20): {spark}"


def format_fig1b(result: dict) -> str:
    """Render the top Fig. 1b groups and headline fractions."""
    rows = []
    for g in range(min(15, len(result["group_share"]))):
        rows.append(
            (
                f"group {g + 1}",
                f"{result['group_share'][g]:.1%}",
                f"{result['group_avg_hits'][g]:.2f}",
            )
        )
    table = format_table(
        ["0.5% group", "share of hits", "avg hits/line"],
        rows,
        title="Fig. 1b: hit distribution across loaded lines (top groups)",
    )
    return (
        table
        + f"\nuseful lines (>=1 hit): {result['useful_fraction']:.1%}"
        + f"  (paper: ~5%)\ntop group: {result['top_group_share']:.0%} of hits"
        + " (paper: 47%)"
    )
