#!/usr/bin/env python3
"""The repo's benchmark.

    python3 bench/run.py [--workload W]... [--seed S] [--seconds T | --repeats R]
                         [--scale X] [--trace 0|1] [--out LEDGER.json]
    python3 bench/run.py --compare BASE.json NEW.json
    python3 bench/run.py --selfcheck

Each workload runs as a series of cycles, every cycle in a fresh child
process, one at a time; the outputs of every cycle are verified.  The
report gives each metric by name with unit, median, quartiles and
sample count.  ``--trace 0`` (default) measures the end-to-end metrics
with nothing attached; ``--trace 1`` pairs every untraced cycle with a
profiled and traced one and adds the per-layer metrics.  With a single
``--workload`` the last line of output is the result object
BENCHMARK.json's contract asks for.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import compare  # noqa: E402
import cycles  # noqa: E402
import selfcheck  # noqa: E402


def stamp() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=cycles.REPO_DIR,
            capture_output=True, text=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    return {
        "host": f"{platform.node()} ({os.cpu_count()} cpus, {platform.machine()})",
        "commit": commit or "not a git checkout",
        "python": platform.python_version(),
    }


def print_entry(entry: dict) -> None:
    print(f"\n== {entry['workload']}  seed {entry['seed']}  scale {entry['scale']}  "
          f"fingerprint {entry['fingerprint'][:16]}")
    for group in ("end_to_end", "per_layer"):
        if group not in entry:
            continue
        print(f"-- {group}")
        print(f"{'metric':<44} {'unit':<11} {'value':>12} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'n':>3}")
        for name, m in entry[group].items():
            print(f"{name:<44} {m['unit']:<11} {m['value']:>12.6g} {m['median']:>12.6g} "
                  f"{m['q1']:>12.6g} {m['q3']:>12.6g} {m['n']:>3}")
    for problem in entry["problems"]:
        print(f"!! {problem}")


def contract_line(entry: dict, benchmark: dict, traced: bool) -> str:
    """The result object for one workload: exactly the metrics that
    BENCHMARK.json declares for this kind of run."""
    group = "per_layer" if traced else "end_to_end"
    metrics = {}
    for declared in benchmark[group]:
        m = entry[group].get(declared["name"])
        if m is None:
            raise cycles.BenchError(f"{declared['name']} was not measured on {entry['workload']}")
        metrics[declared["name"]] = {"value": m["value"], "unit": m["unit"]}
    return json.dumps({
        "correct": not entry["problems"],
        "attempted": entry["attempted"],
        "failed": entry["failed"],
        "metrics": metrics,
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="wall budget of one workload's run")
    parser.add_argument("--repeats", type=int, help="cycles per workload, instead of --seconds")
    parser.add_argument("--scale", type=float, help="default: the one in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_const", const=1, dest="trace")
    parser.add_argument("--out", help="write the ledger here, for --compare")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args(argv)

    benchmark = cycles.load_benchmark()
    if args.compare:
        return compare.compare(*args.compare, benchmark)
    if not os.path.isdir(os.path.join(cycles.REPO_DIR, "src", "repro")):
        print("bench/run.py: src/repro, the program to measure, is not here", file=sys.stderr)
        return 2
    scale = args.scale if args.scale is not None else cycles.default_scale(benchmark)
    if args.selfcheck:
        return selfcheck.selfcheck(benchmark, args.seed, scale)

    names = [w["name"] for w in benchmark["workloads"]]
    workloads = args.workload or names
    unknown = sorted(set(workloads) - set(names))
    if unknown:
        parser.error(f"unknown workload {unknown}; choose from {names}")
    seconds = args.seconds
    if seconds is None and args.repeats is None:
        seconds = benchmark["run_seconds"]

    ledger = {**stamp(), "entries": {}}
    try:
        for workload in workloads:
            entry = cycles.measure(
                workload, args.seed, scale, bool(args.trace), seconds, args.repeats
            )
            ledger["entries"][workload] = entry
            print_entry(entry)
        if args.out:
            with open(args.out, "w") as fh:
                json.dump(ledger, fh, indent=1)
        if len(workloads) == 1:
            print(contract_line(entry, benchmark, bool(args.trace)))
    except (cycles.BenchError, subprocess.TimeoutExpired) as exc:
        print(f"bench/run.py: {exc}", file=sys.stderr)
        return 1
    return 1 if any(e["problems"] for e in ledger["entries"].values()) else 0


if __name__ == "__main__":
    sys.exit(main())
