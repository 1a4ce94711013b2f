"""Deterministic multi-core fan-out for independent seeded simulations.

Every crash schedule, benchmark cell and figure experiment in this repo
is an independent seeded simulation; this package fans them across
cores without changing a single result byte:

- :mod:`repro.parallel.pool` — the work-dispatch core: picklable task
  specs in, outcomes merged back in *task order* regardless of
  completion order, spawn-safe process pool, worker-crash and deadline
  handling (a dead or hung worker is reported as a failed task carrying
  its spec, never silently dropped), ``jobs=1`` falling back to today's
  in-process path for debugging;
- :mod:`repro.parallel.progress` — the shared progress/ETA reporter the
  fuzz and harness front ends print through;
- :mod:`repro.parallel.tasks` — the module-level worker entry points
  (they must be importable by name in a spawned interpreter) that
  rebuild a ``Simulator`` world from a spec and run it.

The determinism contract is documented in DESIGN.md §11.
"""

from repro.parallel.pool import (
    TaskOutcome,
    WorkerFailure,
    resolve_jobs,
    run_tasks,
)
from repro.parallel.progress import ProgressReporter

__all__ = [
    "ProgressReporter",
    "TaskOutcome",
    "WorkerFailure",
    "resolve_jobs",
    "run_tasks",
]
