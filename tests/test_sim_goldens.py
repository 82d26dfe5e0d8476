"""Byte-level goldens for simulator variants the repository benchmark skips.

``bench/reference.json`` pins RC-8/1 and conv-8MB-LRU, in-order, without
prefetch.  This suite pins every other simulated path: the other
replacement policies, the other SLLC organisations, the reuse threshold,
the overlapping core model, the prefetcher and the generation recorder.
The multiprogrammed mix shares no data between cores; two variants run a
parallel application instead, so cache-to-cache transfers, coherence
invalidations and upgrades of shared lines are pinned too.
Each golden is a SHA-256 over a small seeded run's instructions, cycles,
SLLC and DRAM statistics (plus the generation log's arrays where one is
recorded), so any change to the simulated outcome, however small, fails
here.  A speed-only change to the simulator must leave every digest as it
is.

To print the current digests (after a deliberate model change), run
``PYTHONPATH=src python tests/test_sim_goldens.py``.
"""

import hashlib
import json

import pytest

from repro.hierarchy.config import LLCSpec, SystemConfig
from repro.hierarchy.system import System
from repro.workloads.mixes import build_workload
from repro.workloads.parallel import generate_parallel_workload

#: an SLLC-heavy mix, so every SLLC path (TagRepl, DataRepl, inclusion
#: victims, writebacks, peer transfers) fires many times
MIX = ("mcf", "lbm", "libquantum", "GemsFDTD", "milc", "soplex", "sphinx3",
       "xalancbmk")
REFS = 3000
SEED = 5

#: a parallel application with a skewed shared working set
PARALLEL_APP = "canneal"

#: variant name -> (SLLC spec, extra SystemConfig fields, record_generations)
VARIANTS = {
    "conv-lru": (LLCSpec.conventional(8, "lru"), {}, False),
    "conv-nrr": (LLCSpec.conventional(8, "nrr"), {}, False),
    "conv-drrip": (LLCSpec.conventional(8, "drrip"), {}, False),
    "rc-full": (LLCSpec.reuse(8, 1), {}, False),
    "rc-4way": (LLCSpec.reuse(8, 1, data_assoc=4), {}, False),
    "ncid": (LLCSpec.ncid(8, 1), {}, False),
    "vway": (LLCSpec.vway(4), {}, False),
    "rc-threshold-0": (LLCSpec.reuse(8, 1, reuse_threshold=0), {}, False),
    "rc-threshold-2": (LLCSpec.reuse(8, 1, reuse_threshold=2), {}, False),
    "rc-overlap": (LLCSpec.reuse(8, 1), {"core_model": "overlap"}, False),
    "conv-overlap": (LLCSpec.conventional(8), {"core_model": "overlap"}, False),
    "rc-prefetch": (LLCSpec.reuse(8, 1), {"prefetch_degree": 2}, False),
    "conv-prefetch": (LLCSpec.conventional(8), {"prefetch_degree": 2}, False),
    "rc-generations": (LLCSpec.reuse(8, 1), {}, True),
    "conv-generations": (LLCSpec.conventional(8, "drrip"), {}, True),
    "rc-parallel": (LLCSpec.reuse(8, 1), {}, False),
    "conv-parallel": (LLCSpec.conventional(8), {}, False),
}

GOLDENS = {
    "conv-drrip": "6c52ea01e940f5a3c63684a91a642fe26a7edd2759d55b934cd101c2557173ea",
    "conv-generations": "4197bd3710bdf72c87523fa70211ecaadefa6e8d06301a1981d9004a33054cd3",
    "conv-lru": "0e9f91da9b149a34f324308e4c738921fbff5e0e39becf6343ed2d9de9266a28",
    "conv-nrr": "67e079c0f4a2c17dd31784c6e4a80b08118d27c346c7057e355a15082c547aab",
    "conv-overlap": "c7ffeae3deed92cd5ffd3a944378dfa8fb2f67aa97042a8cf2a778f4407b46af",
    "conv-parallel": "0e834d9bcd38a88020bcf6669f273b6f0bc42959715ab4a5a66dd6409aa22d97",
    "conv-prefetch": "ea43b5bb21d36f804d13fc873ed3cdf5011407552fabe9243c0fd0ba6b7f09de",
    "ncid": "321dceb2679bc1c4c51b3f12bb448b8d908e75bde6e654e69b7a8186f1c22fb8",
    "rc-4way": "89049da43b1155c46ae534e730aeedc12ad335b8ef18c585dae46d46361dbc80",
    "rc-full": "bc4977ab61b8ef97518d8ea0d3dbf27df406731b3dd4a7d6c1bc43077a19b6ea",
    "rc-generations": "f1d83172053745d6d435efa177b9a2bd9f0221f4ee21b2fc02ee61fb631b0064",
    "rc-overlap": "68be2cbe4964eb2bd2e652545c82750dcf007097698b413e7c224d0b5a40cb37",
    "rc-parallel": "c532abc3157259815df678c4b6b03ffb26c731749d71fd68d4ff11a014a3304b",
    "rc-prefetch": "59e7a6d93c75ca921413c3e083b2042dcafb0f57e3bd208ba81e56197db9ec54",
    "rc-threshold-0": "4c6979f0f9ee8d4f2d4744b4e7e21c6fce7664e57f150a052b36d5b58853b53b",
    "rc-threshold-2": "339925c2fd0c445a45dc1b7ff7add59318e3d0532acd23ca16f23c82d140ad68",
    "vway": "36c4d648b909c94c86f4bd8074d42ffc144364d38b05229fddc6c57288410828",
}


def digest(name: str) -> str:
    """SHA-256 of one variant's simulated outcome."""
    spec, extra, record = VARIANTS[name]
    if name.endswith("-parallel"):
        workload = generate_parallel_workload(PARALLEL_APP, REFS, seed=SEED, scale=32)
    else:
        workload = build_workload(list(MIX), REFS, seed=SEED, scale=32)
    config = SystemConfig(llc=spec, scale=32, **extra)
    result = System(config, workload, record_generations=record).run()
    doc = {
        "instructions": result.instructions,
        "cycles": result.cycles,
        "llc_stats": result.llc_stats,
        "dram_stats": result.dram_stats,
    }
    log = result.generations
    if log is not None:
        doc["generations"] = {
            "window": [log.start_time, log.end_time],
            "fills": log.fills.tolist(),
            "evicts": log.evicts.tolist(),
            "hits": log.hits.tolist(),
            "last_hits": log.last_hits.tolist(),
        }
    blob = json.dumps(doc, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_variant_matches_golden(name):
    assert digest(name) == GOLDENS[name]


if __name__ == "__main__":
    for variant in sorted(VARIANTS):
        print(f"    {variant!r}: {digest(variant)!r},")
