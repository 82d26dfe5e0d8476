"""CLI for the static checks: ``repro lint`` and ``repro check-protocol``.

Both commands exit 0 when clean, 1 when they report findings and 2 on a
usage error, so CI can gate on them (the ``lint`` job in
``.github/workflows/ci.yml`` runs both before the test matrix).
``--format json`` emits the machine-readable reports whose schemas are
pinned by ``tests/test_lint.py`` and ``tests/test_protocol_check.py``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import protocol_check
from .lint import RULES, format_human, format_json, run_lint

#: CLI names handled by this module (dispatched from repro.__main__)
DEVTOOLS_COMMANDS = ("lint", "check-protocol")


def build_devtools_parser() -> argparse.ArgumentParser:
    """Argument parser for the devtools subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Static checks for the reuse-cache reproduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    summary = (
        "run the repo's static checks in one pass: per-node rules "
        "REP001-REP013 and whole-project flow rules FLOW001-FLOW003 "
        "(async-atomicity, lock discipline, wire-protocol conformance)"
    )
    lint = sub.add_parser("lint", help=summary, description=summary)
    lint.add_argument(
        "paths", nargs="*", default=None,
        help="files or directories to lint (default: src, else cwd)",
    )
    lint.add_argument("--format", choices=("human", "json"), default="human")
    lint.add_argument(
        "--select", default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="print the registered rules and exit",
    )

    check = sub.add_parser(
        "check-protocol",
        help="model-check the TO-MSI / TO-MOSI coherence tables",
    )
    check.add_argument("--format", choices=("human", "json"), default="human")
    check.add_argument(
        "--cluster", action="store_true",
        help="also check the distributed replica-directory table "
             "(repro.coherence.distributed), including replica safety",
    )
    return parser


def default_lint_paths() -> list:
    """``src`` when run from the repo root, else the current directory."""
    return ["src"] if Path("src").is_dir() else ["."]


def print_rules(rule_map) -> None:
    """``--list-rules`` output: id, slug, severity, one-line description."""
    for cls in rule_map.values():
        print(
            f"{cls.id:<7}  {cls.name:<25} [{cls.severity}] "
            f"{cls.description}"
        )


def _parse_select(raw):
    if not raw:
        return None
    return {code.strip().upper() for code in raw.split(",")}


def lint_main(args) -> int:
    """Entry for ``repro lint``; returns the process exit code."""
    if args.list_rules:
        print_rules(RULES)
        return 0
    try:
        findings, engine = run_lint(
            args.paths or default_lint_paths(), _parse_select(args.select)
        )
    except ValueError as exc:  # unknown --select code
        print(str(exc), file=sys.stderr)
        return 2
    if args.format == "json":
        print(format_json(findings, engine.files_checked, engine.rules))
    else:
        print(format_human(findings, engine.files_checked))
    return 1 if findings else 0


def check_protocol_main(args) -> int:
    """Entry for ``repro check-protocol``; returns the process exit code."""
    specs = protocol_check.all_specs(cluster=getattr(args, "cluster", False))
    findings = protocol_check.check_all(specs)
    if args.format == "json":
        print(
            json.dumps(
                protocol_check.findings_to_dict(findings, specs), indent=2
            )
        )
    else:
        print(protocol_check.format_findings_human(findings, specs))
    return 1 if findings else 0


def main(argv=None) -> int:
    """Dispatch a devtools subcommand (called from ``repro.__main__``)."""
    args = build_devtools_parser().parse_args(argv)
    if args.command == "lint":
        return lint_main(args)
    return check_protocol_main(args)


if __name__ == "__main__":
    sys.exit(main())
