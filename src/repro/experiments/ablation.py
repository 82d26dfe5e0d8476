"""Ablation studies on the reuse cache's design choices.

The paper fixes three low-cost choices: NRR for the tag array, Clock/NRU
for the data array, and selective (reuse-driven) data allocation.  Section 6
argues other policies could serve; these ablations quantify how much each
choice matters on the same workload suite used by the figures:

* **tag-policy ablation** — replace NRR with LRU / SRRIP / random in the
  RC-4/1 tag array (inclusion protection stays, as the paper requires);
* **data-policy ablation** — replace Clock with NRU / LRU / random in the
  fully associative data array;
* **allocation ablation** — compare selective allocation against NCID-style
  geometry (the closest allocate-on-miss decoupled design) and against a
  conventional cache of the same data capacity, isolating how much of the
  win comes from *selectivity* rather than decoupling.
"""

from __future__ import annotations

from ..hierarchy.config import LLCSpec
from .common import ExperimentParams, SpeedupStudy, format_table

TAG_POLICIES = ("nrr", "lru", "srrip", "random")
DATA_POLICIES = ("clock", "nru", "lru", "random")


def _sweep(params, named_specs, runner=None) -> dict:
    """Evaluate ``[(name, spec), ...]`` as one runner batch."""
    study = SpeedupStudy(params, runner=runner)
    evaluations = study.evaluate_all([spec for _, spec in named_specs])
    return {
        name: result.mean_speedup
        for (name, _), result in zip(named_specs, evaluations)
    }


def run_tag_policy_ablation(params: ExperimentParams, tag_mbeq=4, data_mb=1,
                            runner=None) -> dict:
    """Swap the RC tag-array policy (NRR/LRU/SRRIP/random)."""
    return _sweep(
        params,
        [
            (policy, LLCSpec.reuse(tag_mbeq, data_mb, tag_policy=policy))
            for policy in TAG_POLICIES
        ],
        runner=runner,
    )


def run_data_policy_ablation(params: ExperimentParams, tag_mbeq=4, data_mb=1,
                             runner=None) -> dict:
    """Swap the RC data-array policy (Clock/NRU/LRU/random)."""
    return _sweep(
        params,
        [
            (policy, LLCSpec.reuse(tag_mbeq, data_mb, data_policy=policy))
            for policy in DATA_POLICIES
        ],
        runner=runner,
    )


def run_allocation_ablation(params: ExperimentParams, data_mb=1,
                            runner=None) -> dict:
    """Selective allocation vs allocate-on-miss at equal data capacity."""
    return _sweep(
        params,
        [
            ("RC-4/1 (selective)", LLCSpec.reuse(4, data_mb)),
            ("NCID-4/1 (5% duel)", LLCSpec.ncid(4, data_mb)),
            ("conv-1MB-lru", LLCSpec.conventional(data_mb, "lru")),
            ("conv-1MB-nrr", LLCSpec.conventional(data_mb, "nrr")),
        ],
        runner=runner,
    )


def run_threshold_ablation(params: ExperimentParams, tag_mbeq=4, data_mb=1,
                           runner=None) -> dict:
    """Sweep the reuse threshold: 0 (allocate-on-miss, non-selective),
    1 (the paper's second-access rule), 2 and 3 (stricter selectivity)."""
    return _sweep(
        params,
        [
            (f"threshold={k}",
             LLCSpec.reuse(tag_mbeq, data_mb, reuse_threshold=k))
            for k in (0, 1, 2, 3)
        ],
        runner=runner,
    )


def format_ablation(result: dict, title: str) -> str:
    """Render one ablation result as a text table."""
    rows = [(name, f"{sp:.3f}") for name, sp in result.items()]
    return format_table(["variant", "speedup vs 8MB LRU"], rows, title=title)
