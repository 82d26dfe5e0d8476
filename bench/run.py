"""The repository benchmark: every workload and metric from one command.

    python bench/run.py                               # all workloads, seed 2013
    python bench/run.py --workload svc-batch --seed 7 --seconds 10 --trace 0
    python bench/run.py --repeat 5 --json runs.json   # medians and spreads
    python bench/run.py --trace                       # per-layer numbers

With one workload and no ``--repeat`` the workload runs in this process and
the last line of standard output is the result object: ``correct``,
``attempted``, ``failed`` and ``metrics`` — BENCHMARK.json's end-to-end
metrics, or its per-layer metrics with ``--trace 1``.  Otherwise every
workload runs in a fresh child process, so peak memory and warm state never
carry over, and the workload order alternates between repeats.  The exit
status is 1 when any output check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys

import harness
import simwork
import svcwork
from harness import OUT_DIR, ROOT

from repro.obs.tracing import validate_chrome_trace

SPEC = harness.load_spec()
MODULES = {name: simwork for name in simwork.WORKLOADS}
MODULES.update({name: svcwork for name in svcwork.WORKLOADS})
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="bench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", choices=WORKLOADS,
                        default=None, help="workloads to run (default: all)")
    parser.add_argument("--seed", type=int, default=2013,
                        help="seed of the generated inputs")
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                        help="length of each timed phase")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: the traced pass, reporting per-layer metrics")
    parser.add_argument("--repeat", type=int, default=1,
                        help="rounds over the workloads")
    parser.add_argument("--json", metavar="OUT", default=None,
                        help="write every run's values to OUT")
    return parser.parse_args(argv)


def _kind(trace: int) -> str:
    return "per_layer" if trace else "end_to_end"


# -- one workload in this process --------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Run, check and print one workload; returns its --json record."""
    out = MODULES[name].run(name, seed, seconds, bool(trace))
    if trace:
        _write_trace(out)
    result = out.result(_kind(trace))
    print(f"# {name}  seed {seed}  seconds {seconds:g}  trace {trace}")
    for metric, row in result["metrics"].items():
        print(f"  {metric:<36} {row['value']:>16.6g} {row['unit']}")
    if trace:
        _print_layers(out)
    print(f"  {'error_rate':<36} {out.failed / max(1, out.attempted):>16.6g}"
          f" fraction ({out.failed} failed / {out.attempted} attempted)")
    for key, value in out.extra.items():
        print(f"  {key}: {value}")
    for problem in out.problems:
        print(f"  CHECK FAILED: {problem}")
    print(json.dumps(result), flush=True)
    return {"workload": name, "seed": seed, "seconds": seconds,
            "trace": trace, "result": result, "extra": out.extra,
            "problems": out.problems}


def _write_trace(out) -> None:
    """All processes' spans as one Chrome trace, checked like the CLI does."""
    events = []
    for label, recorder, _ in out.recorders:
        events.append({"name": "process_name", "ph": "M", "ts": 0,
                       "pid": recorder.pid, "args": {"name": label}})
        events.extend(recorder.events)
    doc = {"traceEvents": events, "displayTimeUnit": "ms"}
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{out.workload}-trace.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    out.extra["trace_file"] = str(path.relative_to(ROOT))
    for problem in validate_chrome_trace(doc)[:5]:
        out.problem(f"trace file: {problem}")


def _print_layers(out) -> None:
    for label, recorder, wall in out.recorders:
        print(f"  spans of the {label} process over {wall:.2f} s traced:")
        print(f"    {'span':<36} {'calls':>10} {'total_s':>10} "
              f"{'self_s':>10} {'self share':>10}")
        rows = sorted(recorder.totals.items(), key=lambda kv: -kv[1][2])
        for span, (calls, total, self_s) in rows:
            print(f"    {span:<36} {calls:>10} {total:>10.4f} "
                  f"{self_s:>10.4f} {self_s / wall:>10.2%}")


# -- several workloads, one child process each --------------------------------


def _child(name: str, args, round_no: int) -> dict:
    OUT_DIR.mkdir(exist_ok=True)
    record_path = OUT_DIR / f"{name}-run.json"
    record_path.unlink(missing_ok=True)
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--json", str(record_path)]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        code = proc.wait()
    finally:
        if proc.poll() is None:
            # SIGTERM, unlike subprocess.run's SIGKILL, lets the child stop
            # its server before it exits
            proc.terminate()
            proc.wait()
    if not record_path.exists():
        return {"workload": name, "round": round_no, "exit": code,
                "result": None, "problems": [f"child exited {code}"]}
    with open(record_path, encoding="utf-8") as fh:
        record = json.load(fh)
    record.update({"round": round_no, "exit": code})
    return record


def _spread(values: list) -> dict:
    med = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3,
            "min": min(values), "max": max(values),
            "iqr_share": (q3 - q1) / med if med else 0.0,
            "range_share": (max(values) - min(values)) / med if med else 0.0}


def summarize(runs: list, names: list, kind: str) -> dict:
    summary = {}
    for name in names:
        results = [r["result"] for r in runs
                   if r["workload"] == name and r["result"]]
        if not results:
            continue
        summary[name] = {
            metric["name"]: dict(
                _spread([res["metrics"][metric["name"]]["value"]
                         for res in results]),
                unit=metric["unit"])
            for metric in SPEC[kind]
        }
    return summary


def _print_summary(summary: dict, runs: int) -> None:
    print(f"\n# summary over {runs} round(s): median [q1, q3] "
          "(IQR/median, range/median)")
    for name, metrics in summary.items():
        print(f"## {name}")
        for metric, s in metrics.items():
            print(f"  {metric:<36} {s['median']:>14.6g} {s['unit']:<9} "
                  f"[{s['q1']:.6g}, {s['q3']:.6g}] "
                  f"({s['iqr_share']:.2%}, {s['range_share']:.2%})")


def _exit_on_sigterm(signum, frame):
    # unwinds through the workloads' finally blocks, which stop the servers
    sys.exit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    args = parse_args(argv)
    names = args.workload or WORKLOADS
    if len(names) == 1 and args.repeat == 1:
        record = run_workload(names[0], args.seed, args.seconds, args.trace)
        if args.json:
            with open(args.json, "w", encoding="utf-8") as fh:
                json.dump(record, fh, indent=1)
        return 0 if record["result"]["correct"] else 1

    runs = []
    for round_no in range(args.repeat):
        order = names if round_no % 2 == 0 else names[::-1]
        for name in order:
            runs.append(_child(name, args, round_no))
    summary = summarize(runs, names, _kind(args.trace))
    _print_summary(summary, args.repeat)
    ok = all(r["result"] and r["result"]["correct"] for r in runs)
    print(f"\n{'all checks passed' if ok else 'CHECKS FAILED'}: "
          f"{len(runs)} run(s), failed ops "
          f"{sum(r['result']['failed'] for r in runs if r['result'])} / "
          f"{sum(r['result']['attempted'] for r in runs if r['result'])}")
    if args.json:
        try:
            nproc = len(os.sched_getaffinity(0))
        except AttributeError:  # not Linux
            nproc = os.cpu_count()
        doc = {"meta": {"nproc": nproc,
                        "python": platform.python_version(),
                        "seed": args.seed, "seconds": args.seconds,
                        "trace": args.trace, "repeat": args.repeat},
               "summary": summary, "runs": runs}
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
