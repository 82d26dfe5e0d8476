"""Static-analysis devtools for the reuse-cache reproduction.

Two commands guard the correctness-critical surfaces of the repo:

* ``repro lint src`` — one engine (:mod:`repro.devtools.lint`) parses
  each file once and runs two kinds of rule over it: the per-node
  REP001–REP013 rules (determinism, async hygiene, layering) and the
  whole-project FLOW001–FLOW003 rules of :mod:`repro.devtools.flow`
  (per-function CFGs with suspension points, a project call graph and a
  shared-state model behind the async-atomicity, lock-discipline and
  wire-protocol-conformance checks).
* ``repro check-protocol`` — :mod:`repro.devtools.protocol_check`, a
  model checker that exhaustively enumerates every ``(State, Event)``
  pair against the executable TO-MSI/TO-MOSI coherence tables.

Both are wired into CI as a blocking job (see ``.github/workflows/ci.yml``)
and documented in ``docs/devtools.md``.  This package sits at the very top
of the layering order: it may import any ``repro`` package, and nothing
below the CLI may import it.
"""

from __future__ import annotations

from .lint import Finding, LintEngine, Rule, default_rules, run_lint
from .protocol_check import (
    ProtocolFinding,
    ProtocolSpec,
    all_specs,
    base_spec,
    check_protocol,
    extended_spec,
)

__all__ = [
    "Finding",
    "LintEngine",
    "Rule",
    "default_rules",
    "run_lint",
    "ProtocolFinding",
    "ProtocolSpec",
    "all_specs",
    "base_spec",
    "check_protocol",
    "extended_spec",
]
