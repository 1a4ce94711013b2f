"""Deterministic multi-core fan-out for independent seeded simulations.

Every crash schedule, benchmark cell and figure experiment in this repo
is an independent seeded simulation; this package fans them across
cores without changing a single result byte:

- :mod:`repro.parallel.pool` — the work-dispatch core: a module-level
  worker (importable by name in a spawned interpreter, e.g.
  ``repro.fuzz.explorer.run_schedule`` or
  ``repro.scenarios.runner.execute_cell``) over picklable specs,
  outcomes merged back in *task order* regardless of completion order,
  spawn-safe process pool, worker-crash and deadline handling (a dead
  or hung worker is reported as a failed task carrying its spec, never
  silently dropped), ``jobs=1`` running in-process for debugging — a
  worker that raises is a failed task there too, so a fuzz schedule
  that raises is a ``worker-failure:`` at every jobs value;
- :mod:`repro.parallel.progress` — the shared progress/ETA reporter the
  fuzz and harness front ends print through.

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
