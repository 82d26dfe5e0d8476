"""AST-based lint framework with repo-specific rules.

Importing this package registers the built-in rule set (REP001–REP013
and FLOW001–FLOW003, see :mod:`repro.devtools.lint.rules`);
:func:`run_lint` is the one-call entry point the CLI and tests use.
"""

from __future__ import annotations

from .engine import (
    Finding,
    LintEngine,
    ModuleContext,
    RULES,
    Rule,
    default_rules,
    format_human,
    format_json,
    module_name_for,
    register,
    run_lint,
)
from . import rules as _builtin_rules  # noqa: F401 - registers the rules

__all__ = [
    "Finding",
    "LintEngine",
    "ModuleContext",
    "RULES",
    "Rule",
    "default_rules",
    "format_human",
    "format_json",
    "module_name_for",
    "register",
    "run_lint",
]
