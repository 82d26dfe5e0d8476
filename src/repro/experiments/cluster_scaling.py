"""Extension study: does the reuse-cache win survive scaling *out*?

The paper's argument is per-chip: at equal data RAM, selective allocation
buys more hits per byte.  This experiment replays the serving workload
against live :class:`~repro.cluster.local.LocalCluster` instances of
growing node count at **equal per-node RAM** — the scaled-out version of
the same question.  Two claims are measured:

* aggregate hit capacity: the client-observed hit rate must grow
  monotonically with node count (more nodes = more aggregate data RAM for
  the same workload footprint);
* the admission comparison one level up: every cluster size is swept
  under both reuse admission and admit-always, so the
  selective-allocation gain can be read at cluster scale.

Every cluster replays in :func:`~repro.service.loadgen.replay_interleaved`'s
deterministic order, so the node count is the only variable, and the rows
hold counts only: the result is byte-identical on every run.  Unlike the
figure reproductions this driver runs live asyncio servers, not simulator
cells, so the ``runner`` argument is accepted for registry uniformity but
unused — there is nothing to cache or parallelise below the event loop.
"""

from __future__ import annotations

import asyncio

from ..cluster.local import LocalCluster
from ..service.loadgen import VALUE_BYTES, replay_interleaved
from ..workloads.mixes import EXAMPLE_MIX, build_workload
from .common import ExperimentParams

#: cluster sizes the study sweeps
NODE_COUNTS = (1, 2, 3)

#: data-store entries per node, held fixed across the sweep (the
#: downsized regime where admission quality matters, cf. paper Fig. 6)
DATA_CAPACITY_PER_NODE = 256

#: references per core at most: live servers, so keep the wall short
MAX_REFS = 12_000


async def _replay_cluster(num_nodes: int, admission: str, workload,
                          seed: int) -> dict:
    """Replay the workload through one cluster size; summarise the counts."""
    cluster = LocalCluster(
        num_nodes=num_nodes,
        data_capacity_per_node=DATA_CAPACITY_PER_NODE,
        admission=admission,
        seed=seed,
    )
    async with cluster:
        client = cluster.client()
        result = await replay_interleaved(client, workload)
        stats = await client.stats()
    entries = DATA_CAPACITY_PER_NODE * num_nodes
    return {
        **result.summary(),
        "nodes": num_nodes,
        "data_capacity_entries": entries,
        "data_capacity_bytes": entries * VALUE_BYTES,
        "stored_entries": stats["total"]["stored_entries"],
        "server_hit_rate": stats["total"]["hit_rate"],
    }


async def _sweep(admission: str, workload, seed: int) -> dict:
    rows = [await _replay_cluster(n, admission, workload, seed)
            for n in NODE_COUNTS]
    hit_rates = [row["hit_rate"] for row in rows]
    return {
        "sweep": rows,
        "hit_rates": hit_rates,
        "monotonic_hit_rate": all(
            b >= a for a, b in zip(hit_rates, hit_rates[1:])
        ),
    }


def run_cluster_scaling(params: ExperimentParams | None = None, runner=None):
    """Sweep node counts under both admission policies; returns a dict."""
    if params is None:
        params = ExperimentParams.from_env()
    refs = min(params.n_refs, MAX_REFS)
    workload = build_workload(EXAMPLE_MIX, n_refs=refs, seed=params.seed,
                              scale=params.scale)

    async def _run():
        return {admission: await _sweep(admission, workload, params.seed)
                for admission in ("reuse", "always")}

    sweeps = asyncio.run(_run())
    reuse_rates = sweeps["reuse"]["hit_rates"]
    always_rates = sweeps["always"]["hit_rates"]
    return {
        "workload": workload.name,
        "cores": workload.num_cores,
        "node_counts": list(NODE_COUNTS),
        "data_capacity_per_node": DATA_CAPACITY_PER_NODE,
        "refs_per_core": refs,
        "scale": params.scale,
        "seed": params.seed,
        "reuse": sweeps["reuse"],
        "always": sweeps["always"],
        "monotonic_hit_rate": sweeps["reuse"]["monotonic_hit_rate"],
        "admission_gain_by_nodes": [
            r - a for r, a in zip(reuse_rates, always_rates)
        ],
    }


def format_cluster_scaling(result: dict) -> str:
    """Render the scaling study as aligned text rows."""
    lines = [
        f"cluster scaling — {result['data_capacity_per_node']} entries/node, "
        f"{result['refs_per_core']} refs/core (seed {result['seed']})",
        f"{'nodes':>5} {'reuse hr':>9} {'always hr':>10} {'gain':>8}",
    ]
    for i, n in enumerate(result["node_counts"]):
        reuse_hr = result["reuse"]["hit_rates"][i]
        always_hr = result["always"]["hit_rates"][i]
        lines.append(
            f"{n:>5} {reuse_hr:>9.4f} {always_hr:>10.4f} "
            f"{result['admission_gain_by_nodes'][i]:>+8.4f}"
        )
    verdict = ("grows monotonically" if result["monotonic_hit_rate"]
               else "DOES NOT grow monotonically")
    lines.append(
        f"aggregate hit capacity {verdict} with node count "
        "at equal per-node RAM"
    )
    return "\n".join(lines)
