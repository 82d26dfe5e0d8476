"""``repro perf compare`` — gate a change's benchmark runs on its parent's.

::

    python3 bench/run.py --workload sim-llc svc-get-set --seconds 3 --json p1.json
    ...                                     # the same on the change: c1.json
    repro perf compare --parent p1.json p2.json --change c1.json c2.json

Every file is ``bench/run.py --json`` output, a one-run record or a
``--repeat`` document; the bounds are read from ``BENCHMARK.json`` in the
current directory.  Exit status: 0 when the change passes, 1 when it fails
a bound or a check (see :mod:`repro.perf.compare`), 2 when an input is
missing or unreadable.
"""

from __future__ import annotations

import argparse
import sys

from .compare import compare_runs, format_report, load_runs, load_spec

#: first-word spellings dispatched here by ``repro.__main__``
PERF_COMMANDS = ("perf",)

SPEC_FILE = "BENCHMARK.json"


def build_parser() -> argparse.ArgumentParser:
    """Argument parser for ``repro perf``."""
    parser = argparse.ArgumentParser(
        prog="repro perf",
        description="Gate a change's bench/run.py runs on its parent's.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    cmp_ = sub.add_parser(
        "compare",
        help="compare bench/run.py --json runs at the BENCHMARK.json bounds")
    cmp_.add_argument("--parent", nargs="+", required=True, metavar="P.json",
                      help="runs of the parent commit")
    cmp_.add_argument("--change", nargs="+", required=True, metavar="C.json",
                      help="runs of the change")
    return parser


def main(argv) -> int:
    """Entry point for the ``perf`` subcommand family."""
    args = build_parser().parse_args(argv[1:])
    try:
        spec = load_spec(SPEC_FILE)
    except (OSError, ValueError) as exc:
        print(f"repro perf compare: cannot read {SPEC_FILE} in the current "
              f"directory: {exc}", file=sys.stderr)
        return 2
    try:
        parent = [run for path in args.parent for run in load_runs(path)]
        change = [run for path in args.change for run in load_runs(path)]
    except (OSError, ValueError) as exc:
        print(f"repro perf compare: {exc}", file=sys.stderr)
        return 2
    report = compare_runs(spec, parent, change)
    print(format_report(report, len(parent), len(change)))
    return 0 if report["ok"] else 1
