"""Process-pool work dispatch with a deterministic merge.

The contract (DESIGN.md §11):

- a *task* is ``worker(spec)`` where ``worker`` is a module-level
  callable and ``spec`` is picklable — workers rebuild their own world
  (e.g. a ``Simulator``) from the spec, so nothing live crosses the
  process boundary;
- results are merged in **task order** (the order of ``specs``),
  regardless of the order workers finish in, so a parallel run is
  byte-identical to a sequential one;
- a worker that raises returns a failed :class:`TaskOutcome` carrying
  the exception text; a worker that *dies* (segfault, OOM-kill) breaks
  the pool — completed results are kept, the unfinished tasks are
  retried once in a fresh pool, and tasks that break a pool twice are
  reported as failed with their spec; a pool that makes no progress for
  ``task_timeout_s`` is treated as hung and every unfinished task is
  failed with its spec.  No task is ever silently dropped.
- ``jobs=1`` runs everything in-process (no pool, no pickling), which
  is the debugging path and the reference behaviour; a worker that
  raises is a failed outcome there as well.

``resolve_jobs`` implements the ``--jobs N`` / ``REPRO_JOBS`` /
auto-detect precedence shared by every CLI entry point.
"""

from __future__ import annotations

import multiprocessing
import os
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

#: Environment variable consulted when no explicit ``--jobs`` is given.
JOBS_ENV_VAR = "REPRO_JOBS"


class WorkerFailure(Exception):
    """Raised by strict consumers when a task outcome carries an error."""


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """The effective worker count: ``--jobs`` > ``REPRO_JOBS`` > cores.

    ``0`` and negative values mean auto-detect, like ``None``.
    """
    if jobs is None:
        env = os.environ.get(JOBS_ENV_VAR, "").strip()
        if env:
            try:
                jobs = int(env)
            except ValueError:
                raise ValueError(
                    f"{JOBS_ENV_VAR} must be an integer, got {env!r}"
                ) from None
    if jobs is None or jobs <= 0:
        jobs = os.cpu_count() or 1
    return max(1, jobs)


@dataclass
class TaskOutcome:
    """The result slot of one task, at its spec's index."""

    index: int
    spec: Any
    result: Any = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def unwrap(self):
        """The result, or :class:`WorkerFailure` if the task failed."""
        if self.error is not None:
            raise WorkerFailure(f"task {self.index} failed: {self.error}")
        return self.result


def _run_sequential(
    worker: Callable[[Any], Any],
    specs: Sequence[Any],
    progress: Optional[Callable[[int, int, TaskOutcome], None]],
) -> list[TaskOutcome]:
    """The ``jobs=1`` reference path: same process, same interpreter."""
    outcomes: list[TaskOutcome] = []
    for index, spec in enumerate(specs):
        try:
            outcome = TaskOutcome(index, spec, result=worker(spec))
        except Exception:
            outcome = TaskOutcome(index, spec, error=traceback.format_exc(limit=8))
        outcomes.append(outcome)
        if progress is not None:
            progress(index + 1, len(specs), outcome)
    return outcomes


def run_tasks(
    worker: Callable[[Any], Any],
    specs: Sequence[Any],
    jobs: Optional[int] = None,
    task_timeout_s: Optional[float] = None,
    progress: Optional[Callable[[int, int, TaskOutcome], None]] = None,
) -> list[TaskOutcome]:
    """Run ``worker`` over ``specs``; outcomes come back in spec order.

    ``progress(done, total, outcome)`` is invoked in the parent as tasks
    finish (completion order); the *returned list* is always in task
    order.  ``task_timeout_s`` is a stall deadline: if no task completes
    for that long, unfinished tasks are failed as hung.
    """
    jobs = resolve_jobs(jobs)
    specs = list(specs)
    if jobs == 1 or len(specs) <= 1:
        return _run_sequential(worker, specs, progress)

    total = len(specs)
    outcomes: list[Optional[TaskOutcome]] = [None] * total
    done_count = 0

    def record(outcome: TaskOutcome) -> None:
        nonlocal done_count
        outcomes[outcome.index] = outcome
        done_count += 1
        if progress is not None:
            progress(done_count, total, outcome)

    remaining = list(range(total))
    pool_breaks = 0
    while remaining:
        remaining, hung = _dispatch_round(
            worker, specs, remaining, jobs, task_timeout_s, record
        )
        if hung:
            for index in remaining:
                record(
                    TaskOutcome(
                        index,
                        specs[index],
                        error=f"worker hung: no task completed for "
                        f"{task_timeout_s}s (deadline exceeded)",
                    )
                )
            remaining = []
        elif remaining:
            pool_breaks += 1
            if pool_breaks > 1:
                for index in remaining:
                    record(
                        TaskOutcome(
                            index,
                            specs[index],
                            error="worker process died (pool broke twice); "
                            "task not retried again",
                        )
                    )
                remaining = []
    return outcomes  # type: ignore[return-value]  # every slot is filled


def _dispatch_round(
    worker: Callable[[Any], Any],
    specs: Sequence[Any],
    indices: list[int],
    jobs: int,
    task_timeout_s: Optional[float],
    record: Callable[[TaskOutcome], None],
) -> tuple[list[int], bool]:
    """One pool generation.  Returns ``(unfinished_indices, hung)``.

    ``unfinished_indices`` is non-empty only when the pool broke (a
    worker process died) or stalled past the deadline; the caller
    decides whether to retry or fail them.
    """
    # ``spawn`` everywhere: identical semantics on every platform, and no
    # forked copies of the parent's (unpicklable, half-initialized)
    # simulator state — workers import the code fresh and rebuild their
    # world from the spec alone.  That import-freshness is also what
    # makes parallel results trustworthy: nothing leaks between tasks.
    context = multiprocessing.get_context("spawn")
    pending: dict[Any, int] = {}
    broken: list[int] = []
    hung = False
    with ProcessPoolExecutor(
        max_workers=min(jobs, len(indices)), mp_context=context
    ) as pool:
        for index in indices:
            pending[pool.submit(worker, specs[index])] = index
        while pending:
            done, _not_done = wait(
                pending, timeout=task_timeout_s, return_when=FIRST_COMPLETED
            )
            if not done:
                hung = True
                _terminate(pool)
                break
            for future in done:
                index = pending.pop(future)
                try:
                    record(TaskOutcome(index, specs[index], result=future.result()))
                except BrokenProcessPool:
                    # A worker process died; we cannot tell whose task
                    # killed it, so every victim goes back for a retry.
                    broken.append(index)
                except Exception:
                    record(
                        TaskOutcome(
                            index, specs[index], error=traceback.format_exc(limit=8)
                        )
                    )
            if broken:
                # Every sibling future fails with BrokenProcessPool too;
                # collect whichever still finished, return the rest.
                break
        unfinished = sorted(broken + list(pending.values()))
        if broken or hung:
            pool.shutdown(wait=False, cancel_futures=True)
    return (unfinished, hung) if (broken or hung) else ([], False)


def _terminate(pool: ProcessPoolExecutor) -> None:
    """Kill a hung pool's workers (best effort, private API guarded)."""
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except Exception:  # pragma: no cover - platform specific
            pass
