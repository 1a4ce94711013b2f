"""Run benchmark cycles as child processes and summarise them.

The parent never imports the program: it starts ``child.py`` once per
cycle, one at a time, so every cycle pays its own interpreter start,
imports and world construction (``setup_s``) and has its own
``ru_maxrss``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

import calibrate
from layers import BENCH_DIR, REPO_DIR

CHILD = os.path.join(BENCH_DIR, "child.py")
#: The contract gives a whole run 180 s; no single cycle may use it up.
CHILD_TIMEOUT_S = 150


def floor_seconds(sliced: list[list[float]]) -> float:
    """The wall time of a phase with the host's interference taken out.

    Every cycle of one (workload, seed) is the same simulation, cut at
    the same ticks of simulated time, so slice ``i`` is the same work in
    each.  Interference from other tenants of the host only ever adds
    time, so the fastest cycle's slice ``i`` is the best estimate of
    what that work costs, and the phase costs the sum of those.  Costs
    that belong to the work (a collector pause, a cache miss) recur in
    every cycle and stay in.
    """
    if len({len(slices) for slices in sliced}) != 1:
        raise BenchError("cycles of one workload and seed were cut into different slices")
    return sum(map(min, zip(*sliced)))


def reference_seconds(cycles: list, phase: str | None = None) -> float:
    """Floor of a phase over the cycles (``phase=None``: of set-up), in
    seconds of the reference host (see calibrate.py)."""
    slowdown = floor_seconds([c["calibration_slices_s"] for c in cycles]) / calibrate.REFERENCE_S
    if phase is None:
        return min(c["end_to_end"]["setup_s"]["value"] for c in cycles) / slowdown
    return floor_seconds([c[f"{phase}_slices_s"] for c in cycles]) / slowdown


#: How a run turns its cycles into the value of a wall-clock metric
#: (every other metric: the median over cycles).
WALL_CLOCK = {
    "wall_req_per_s": lambda cycles: (
        cycles[0]["completed"] / reference_seconds(cycles, "serve")
    ),
    "recovery_wall_ms_per_krec": lambda cycles: (
        reference_seconds(cycles, "recover") * 1e6 / cycles[0]["scanned_records"]
    ),
    "setup_s": reference_seconds,
}


class BenchError(Exception):
    """A cycle crashed or failed verification."""


def load_benchmark() -> dict:
    with open(os.path.join(REPO_DIR, "BENCHMARK.json")) as fh:
        return json.load(fh)


def default_scale(benchmark: dict) -> float:
    """The scale factor recorded in BENCHMARK.json's command."""
    command = benchmark["command"]
    return float(command[command.index("--scale") + 1])


def spawn_cycle(workload: str, seed: int, scale: float, traced: bool, inject=None) -> dict:
    cmd = [
        sys.executable, CHILD, "--workload", workload, "--seed", str(seed),
        "--scale", repr(scale), "--traced", str(int(traced)),
        "--spawned-at", repr(time.time()),
    ]
    if inject:
        cmd += ["--inject", inject]
    # run() kills and reaps the child if it overruns.
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"{workload} cycle exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_cycles(
    workload: str, seed: int, scale: float, traced: bool,
    seconds: float | None = None, repeats: int | None = None,
) -> tuple[list, list]:
    """Run cycles until ``repeats`` are done or another would overrun
    ``seconds``.  Returns ``(untraced, traced)`` cycle lists; a traced
    run alternates the two so their ratio is the tracing overhead."""
    started = time.monotonic()
    untraced: list = []
    with_trace: list = []
    longest = 0.0
    while True:
        round_started = time.monotonic()
        untraced.append(spawn_cycle(workload, seed, scale, False))
        if traced:
            with_trace.append(spawn_cycle(workload, seed, scale, True))
        longest = max(longest, time.monotonic() - round_started)
        if repeats is not None:
            if len(untraced) >= repeats:
                break
        elif time.monotonic() - started + longest * 1.1 > seconds:
            break
    return untraced, with_trace


def summarize(values: list) -> dict:
    if len(values) > 1:
        q1, _median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values), "q1": q1, "q3": q3,
        "n": len(values), "values": values,
    }


def _collect(cycles: list, group: str) -> dict:
    """``{metric: summary}`` over the cycles that report the metric."""
    samples: dict = {}
    for cycle in cycles:
        for name, m in cycle[group].items():
            entry = samples.setdefault(name, {"unit": m["unit"], "values": []})
            entry["values"].append(m["value"])
    return {
        name: {
            "unit": entry["unit"],
            "value": WALL_CLOCK[name](cycles) if name in WALL_CLOCK
            else statistics.median(entry["values"]),
            **summarize(entry["values"]),
        }
        for name, entry in samples.items()
    }


def measure(
    workload: str, seed: int, scale: float, traced: bool,
    seconds: float | None = None, repeats: int | None = None,
) -> dict:
    """One ledger entry: every metric of one workload, checked."""
    untraced, with_trace = run_cycles(workload, seed, scale, traced, seconds, repeats)
    problems = []
    # Simulated results, step counts and log bytes are deterministic:
    # every cycle of one (workload, seed) must give the same fingerprint
    # (traced cycles among themselves: a tracer may steer the lazy pump).
    for kind, cycles in (("untraced", untraced), ("traced", with_trace)):
        if len({c["fingerprint"] for c in cycles}) > 1:
            problems.append(f"{kind} cycles of {workload} seed {seed} did not repeat exactly")
    entry = {
        "workload": workload, "seed": seed, "scale": scale,
        "fingerprint": untraced[0]["fingerprint"],
        "attempted": sum(c["attempted"] for c in untraced),
        "failed": sum(c["attempted"] - c["completed"] for c in untraced),
        "problems": problems,
        "end_to_end": _collect(untraced, "end_to_end"),
    }
    if entry["failed"]:
        problems.append(f"{entry['failed']} of {entry['attempted']} requests failed")
    if traced:
        per_layer = _collect(with_trace, "per_layer")
        ratios = summarize([
            (t["serve_wall_s"] + t["recover_wall_s"]) / (u["serve_wall_s"] + u["recover_wall_s"])
            for t, u in zip(with_trace, untraced)
        ])
        per_layer["harness.trace_overhead_ratio"] = {
            "unit": "ratio", "value": ratios["median"], **ratios
        }
        entry["per_layer"] = per_layer
        entry["traced_fingerprint"] = with_trace[0]["fingerprint"]
    return entry
