"""Deterministic crash-schedule exploration (systematic crash fuzzing).

The paper's core claim (§4) is that an MSP can fail-stop at *any*
point — mid-append, mid-flush, mid-checkpoint, even during recovery
itself — and the system still delivers exactly-once semantics.  This
package turns that claim into an executable search problem: enumerate
every instrumented crash site the workload reaches, kill the MSP there,
run recovery, and check an invariant battery; then fuzz multi-crash and
network-fault compositions from replayable integer seeds.

- :mod:`repro.fuzz.sites` — site traces and the crash injector;
- :mod:`repro.fuzz.invariants` — the battery every schedule must pass;
- :mod:`repro.fuzz.explorer` — exhaustive and random modes, schedules,
  seed derivation, reports;
- :mod:`repro.fuzz.minimize` — greedy shrinking of failing schedules;
- :mod:`repro.fuzz.cli` — the ``python -m repro fuzz`` command.
"""

from repro.fuzz.explorer import (
    CrashSchedule,
    FaultSpec,
    FuzzParams,
    FuzzReport,
    ScheduleResult,
    case_seed_for,
    discover_sites,
    enumerate_schedules,
    explore_exhaustive,
    fleet_fuzz_params,
    fuzz_random,
    run_random_case,
    run_schedule,
    schedule_from_seed,
)
from repro.fuzz.invariants import check_msp, check_world
from repro.fuzz.minimize import minimize_schedule
from repro.fuzz.sites import CrashInjector, SiteEvent, TraceRecorder

__all__ = [
    "CrashInjector",
    "CrashSchedule",
    "FaultSpec",
    "FuzzParams",
    "FuzzReport",
    "ScheduleResult",
    "SiteEvent",
    "TraceRecorder",
    "case_seed_for",
    "check_msp",
    "check_world",
    "discover_sites",
    "enumerate_schedules",
    "explore_exhaustive",
    "fleet_fuzz_params",
    "fuzz_random",
    "minimize_schedule",
    "run_random_case",
    "run_schedule",
    "schedule_from_seed",
]
