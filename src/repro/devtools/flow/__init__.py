"""Flow-aware static analysis: async-atomicity, lock discipline, protocol.

The whole-project half of ``repro lint`` (rules FLOW001–FLOW003).  Layering:

* :mod:`.cfg` — per-function control-flow graphs with suspension points;
* :mod:`.callgraph` — project class/method index + call resolution;
* :mod:`.shared` — the conservative shared-state model and the
  ``# repro: atomic=`` / ``# repro: shared`` annotation contract;
* :mod:`.checks` — FLOW001 (async-atomicity dataflow), FLOW002 (lock
  discipline), FLOW003 (wire-protocol conformance), run over every
  parsed file by :class:`.checks.ProjectAnalysis`;
* :mod:`.protocol_spec` — the declarative verb spec FLOW003 diffs against.
"""

from __future__ import annotations

from .callgraph import CallGraph
from .cfg import build_cfg, iter_functions
from .checks import ProjectAnalysis, extract_handled_verbs, extract_sent_verbs
from .shared import FileAnnotations, Loc, SharedModel

__all__ = [
    "CallGraph",
    "FileAnnotations",
    "Loc",
    "ProjectAnalysis",
    "SharedModel",
    "build_cfg",
    "extract_handled_verbs",
    "extract_sent_verbs",
    "iter_functions",
]
