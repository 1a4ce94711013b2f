"""Module-level worker entry points for the process pool.

A spawned worker imports this module by name and receives one picklable
spec; it rebuilds the whole seeded world (a fresh ``Simulator``) from
the spec and returns a picklable result.  Nothing live — no simulator,
no open generator, no probe listener — ever crosses the process
boundary, which is what makes ``--jobs N`` byte-identical to
``--jobs 1``: each task's world depends only on its spec.

Specs deliberately carry *serialized* schedules (the same
``CrashSchedule.to_dict`` form the failure artifacts use) so a spec
printed in an error report is directly replayable via
``python -m repro fuzz --replay`` / ``--replay-file``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


# ---------------------------------------------------------------------------
# fuzz: one crash schedule per task
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FuzzTaskSpec:
    """One crash schedule to execute (serialized, replayable form)."""

    schedule: dict
    params: "object"  # repro.fuzz.explorer.FuzzParams (picklable dataclass)
    case_seed: Optional[int] = None


def run_fuzz_schedule(spec: FuzzTaskSpec):
    """Execute one schedule in a fresh world; returns ``ScheduleResult``."""
    from repro.fuzz.explorer import CrashSchedule, run_schedule

    return run_schedule(CrashSchedule.from_dict(spec.schedule), spec.params)


def minimize_fuzz_failure(spec: FuzzTaskSpec) -> dict:
    """Shrink one failing schedule against the deterministic oracle.

    Returns ``{"schedule": <minimized dict>, "attempts": N}``; runs in a
    worker so several failures minimize concurrently.
    """
    from repro.fuzz.minimize import minimize_recorded_failure

    minimized, attempts = minimize_recorded_failure(spec.schedule, spec.params)
    return {"schedule": minimized, "attempts": attempts}


# ---------------------------------------------------------------------------
# harness: one workload sweep point per task
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WorkloadPointSpec:
    """One paper-workload run inside an experiment sweep.

    ``key`` labels the point for error reports (e.g. ``("fig15a",
    "64KB")``); ``verify_exactly_once`` runs the shared-counter oracle
    in the worker, where the live workload still exists.
    """

    key: tuple
    params: "object"  # repro.workloads.WorkloadParams (picklable dataclass)
    verify_exactly_once: bool = False
    limit_ms: float = 36_000_000.0
    extra: dict = field(default_factory=dict)


def run_workload_point(spec: WorkloadPointSpec):
    """Build and run one paper workload; returns its ``PaperRunResult``."""
    from repro.workloads import PaperWorkload

    workload = PaperWorkload(spec.params)
    result = workload.run(limit_ms=spec.limit_ms)
    if spec.verify_exactly_once:
        workload.verify_exactly_once()
    return result


# ---------------------------------------------------------------------------
# scenarios: one matrix cell (a full fleet run) per task
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioCellSpec:
    """One scenario-matrix cell: a complete :class:`FleetSpec` plus its
    matrix coordinates.

    The worker runs the fleet at ``jobs=1`` — cell-level parallelism
    comes from the pool, and a fleet result is byte-identical at any
    jobs value anyway, so nesting pools would only add overhead.
    ``baseline_of`` links a cold-restart baseline cell to the disaster
    cell whose failover it calibrates.
    """

    cell_id: str
    family: str
    topology: str
    seed: int
    fleet: "object"  # repro.fleet.FleetSpec (picklable frozen dataclass)
    baseline_of: Optional[str] = None


def run_scenario_cell(spec: ScenarioCellSpec) -> dict:
    """Run one cell's fleet to quiescence; returns the trimmed,
    deterministic cell record the report is built from."""
    from repro.scenarios.runner import execute_cell

    return execute_cell(spec)
