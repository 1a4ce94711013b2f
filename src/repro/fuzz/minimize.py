"""Greedy schedule minimization.

A failure found by random multi-crash fuzzing usually carries baggage:
kills that never fired, faults that don't matter, crashes that happen
after the bug already triggered.  :func:`minimize_schedule` shrinks a
failing schedule to its shortest reproducing prefix by re-executing
candidate simplifications against a ``still_fails`` oracle (in real use,
``lambda s: run_schedule(s, params).failed``):

1. drop the fault model entirely;
2. keep only the shortest failing *prefix* of the kill list;
3. drop remaining individual kills one at a time;
4. soften remaining fault probabilities to zero, one field at a time.

Each pass restarts after an improvement, so the result is a local
minimum: no single further deletion still reproduces the failure.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable

from repro.fuzz.explorer import CrashSchedule, FuzzParams, run_schedule


def minimize_recorded_failure(
    schedule_dict: dict, params: FuzzParams, max_attempts: int = 200
) -> tuple[dict, int]:
    """Minimize one serialized failing schedule against the real oracle.

    The module-level, fully-picklable form of :func:`minimize_schedule`
    (the oracle is rebuilt here instead of closed over), so each failure
    of a fuzz run can shrink in its own pool worker.  Returns the
    minimized schedule in the same serialized form, plus oracle calls.
    """
    schedule = CrashSchedule.from_dict(schedule_dict)
    minimized, attempts = minimize_schedule(
        schedule,
        lambda candidate: run_schedule(candidate, params).failed,
        max_attempts=max_attempts,
    )
    return minimized.to_dict(), attempts


def minimize_schedule(
    schedule: CrashSchedule,
    still_fails: Callable[[CrashSchedule], bool],
    max_attempts: int = 200,
) -> tuple[CrashSchedule, int]:
    """Shrink ``schedule``; returns ``(minimized, oracle_calls)``.

    ``still_fails`` must be deterministic (it is, for explorer runs —
    that is the point of seeded schedules).  The input schedule is
    assumed to fail; it is returned unchanged if nothing smaller does.
    """
    attempts = 0

    def check(candidate: CrashSchedule) -> bool:
        nonlocal attempts
        attempts += 1
        return still_fails(candidate)

    best = schedule
    improved = True
    while improved and attempts < max_attempts:
        improved = False

        # 1. The whole fault model.
        if best.faults is not None:
            candidate = replace(best, faults=None)
            if check(candidate):
                best = candidate
                improved = True
                continue

        # 2. Shortest failing prefix of the kill list.
        for length in range(1, len(best.kills)):
            candidate = replace(best, kills=best.kills[:length])
            if check(candidate):
                best = candidate
                improved = True
                break
        if improved:
            continue

        # 3. Individual kills (order-preserving deletion).
        if len(best.kills) > 1:
            for i in range(len(best.kills)):
                candidate = replace(
                    best, kills=best.kills[:i] + best.kills[i + 1 :]
                )
                if check(candidate):
                    best = candidate
                    improved = True
                    break
        if improved:
            continue

        # 4. Soften remaining fault fields one at a time.
        if best.faults is not None:
            for fields in (
                {"loss_prob": 0.0},
                {"duplicate_prob": 0.0},
                {"reorder_prob": 0.0},
            ):
                key, value = next(iter(fields.items()))
                if getattr(best.faults, key) == value:
                    continue
                candidate = replace(best, faults=replace(best.faults, **fields))
                if check(candidate):
                    best = candidate
                    improved = True
                    break

    return best, attempts
