"""Code fingerprint folded into every result-cache key.

A cached :class:`~repro.hierarchy.system.RunResult` is only valid while the
simulator that produced it is unchanged, so the cache key includes a
SHA-256 over the source of every module that can influence a simulation:
the whole ``repro`` package except the serving stack (``repro.service``),
the static-analysis tooling (``repro.devtools``) and the benchmark gate
(``repro.perf``, which only reads ``bench/run.py`` result files), none of
which is importable from a simulation path (enforced by the REP008
layering rule).

Over-approximating the dependency set (e.g. hashing ``repro.obs`` even
though observability is off by default) only costs spurious recomputation
after unrelated edits — never a stale result — which is the right side to
err on for a correctness-critical cache.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from pathlib import Path

#: top-level subpackages whose source cannot affect simulation results
EXCLUDED_SUBPACKAGES = ("service", "devtools", "perf")


@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Hex digest of the simulation-relevant ``repro`` source tree."""
    import repro

    root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        if rel.split("/", 1)[0] in EXCLUDED_SUBPACKAGES:
            continue
        digest.update(rel.encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()
