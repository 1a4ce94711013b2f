"""Run an expanded scenario matrix under the process pool.

Each cell is one complete fleet run; cells execute concurrently via
``repro.parallel.run_tasks`` (cell order in the report is spec order,
so the report bytes are identical at any ``--jobs`` value).  The cell
record keeps only deterministic fields — wall-clock timing never enters
it — and the matrix fingerprint is a SHA-256 over the canonical JSON of
all cell records, the ``--jobs`` invariance check for the whole matrix.
"""

from __future__ import annotations

import hashlib
import json
from typing import Callable, Optional

from repro.fleet.runner import fleet_fingerprint, run_fleet
from repro.parallel import run_tasks
from repro.scenarios.spec import ScenarioCell, ScenarioSpec
from repro.trace.metrics import nearest_rank


def _quantiles(samples: list[float]) -> dict:
    """min/p50/max over a small sample list."""
    if not samples:
        return {"n": 0}
    ordered = sorted(samples)
    return {
        "n": len(ordered),
        "min_ms": ordered[0],
        "p50_ms": nearest_rank(ordered, 0.50),
        "max_ms": ordered[-1],
    }


def execute_cell(cell: ScenarioCell) -> dict:
    """Run one cell's fleet and trim the result down to the
    deterministic record the report consumes.

    The fleet runs at ``jobs=1``: cell-level parallelism comes from the
    pool, and a fleet result is byte-identical at any jobs value anyway,
    so nesting pools would only add overhead.
    """
    result = run_fleet(cell.fleet, jobs=1)
    recovery = result["recovery"]
    standby = {
        name: stats
        for shard in result["shards"]
        for name, stats in sorted(shard.get("standby", {}).items())
    }
    return {
        "cell": cell.cell_id,
        "family": cell.family,
        "topology": cell.topology,
        "seed": cell.seed,
        "baseline_of": cell.baseline_of,
        "verdicts": result["verdicts"],
        "violations": result["violations"],
        "totals": result["totals"],
        "latency_ms": result["latency_ms"],
        "dropped_partition": result["ledger"].get("dropped_partition", 0),
        "recovery_events": recovery,
        "recovery": _quantiles([e["duration_ms"] for e in recovery]),
        "standby": standby,
        "fingerprint": fleet_fingerprint(result),
    }


def run_matrix(
    spec: ScenarioSpec,
    jobs: int = 1,
    progress: Optional[Callable] = None,
    task_timeout_s: Optional[float] = None,
) -> dict:
    """Run every cell; returns the deterministic matrix report dict."""
    outcomes = run_tasks(
        execute_cell,
        spec.expand(),
        jobs=jobs,
        task_timeout_s=task_timeout_s,
        progress=progress,
    )
    records = [outcome.unwrap() for outcome in outcomes]
    return build_report(spec, records)


def build_report(spec: ScenarioSpec, records: list[dict]) -> dict:
    """Aggregate cell records into the matrix report (pure function)."""
    by_id = {r["cell"]: r for r in records}

    failover_checks = []
    for record in records:
        target = record.get("baseline_of")
        if not target or target not in by_id:
            continue
        warm = by_id[target]
        warm_events = {e["msp"]: e for e in warm["recovery_events"]}
        cold_events = {e["msp"]: e for e in record["recovery_events"]}
        for msp in sorted(warm_events):
            cold = cold_events.get(msp)
            warm_ms = warm_events[msp]["duration_ms"]
            failover_checks.append(
                {
                    "cell": target,
                    "msp": msp,
                    "failover_ms": warm_ms,
                    "cold_restart_ms": cold["duration_ms"] if cold else None,
                    "faster": bool(cold) and warm_ms < cold["duration_ms"],
                }
            )

    families = sorted({r["family"] for r in records})
    family_recovery = {
        fam: _quantiles(
            [
                e["duration_ms"]
                for r in records
                if r["family"] == fam
                for e in r["recovery_events"]
            ]
        )
        for fam in families
    }

    # Invariant coverage: how many cells exercised and passed each
    # fleet verdict — the report's "coverage trend" row.
    invariants: dict[str, dict] = {}
    for record in records:
        for name, ok in record["verdicts"].items():
            slot = invariants.setdefault(name, {"checked": 0, "passed": 0})
            slot["checked"] += 1
            slot["passed"] += int(bool(ok))

    failing = [r["cell"] for r in records if not r["verdicts"]["clean"]]
    # A struck MSP with no cold-restart sample, or a disaster cell with
    # no pairing at all, proves nothing about failover: that is a
    # failed verdict, not a skipped one (``faster`` is false without a
    # cold sample).
    disasters = {r["cell"] for r in records if r["family"] == "disaster"}
    paired = {check["cell"] for check in failover_checks}
    failover_wins = disasters <= paired and all(
        check["faster"] for check in failover_checks
    )
    report = {
        "matrix": spec.name,
        "cells": records,
        "families": families,
        "family_recovery_ms": family_recovery,
        "failover_vs_cold": failover_checks,
        "invariants": invariants,
        "verdicts": {
            "all_clean": not failing,
            "every_invariant_checked": all(
                slot["checked"] == len(records) for slot in invariants.values()
            ),
            "failover_beats_cold": failover_wins,
        },
        "failing_cells": failing,
    }
    report["fingerprint"] = matrix_fingerprint(report)
    return report


def canonical_report_bytes(report: dict) -> bytes:
    stable = {k: v for k, v in report.items() if k != "fingerprint"}
    return json.dumps(stable, sort_keys=True, separators=(",", ":")).encode()


def matrix_fingerprint(report: dict) -> str:
    return hashlib.sha256(canonical_report_bytes(report)).hexdigest()
