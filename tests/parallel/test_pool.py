"""Tests for the deterministic process-pool dispatch (DESIGN.md §11).

Workers here are module-level so spawn children can import them; the
slow cases (worker death, hang deadline) each pay real pool start-up
and are kept to two specs.
"""

import os
import pickle
import time

import pytest

from repro.parallel import WorkerFailure, resolve_jobs, run_tasks
from repro.parallel.pool import JOBS_ENV_VAR


def _square(spec):
    return spec * spec


def _mixed(spec):
    if spec == "boom":
        raise ValueError("synthetic failure")
    return spec


def _die(spec):
    if spec == "die":
        # Give siblings time to return their results before the pool
        # breaks, so only the dying task is reported as lost.
        time.sleep(0.5)
        os._exit(13)
    return spec


def _sleep(spec):
    time.sleep(spec)
    return spec


# -- resolve_jobs -----------------------------------------------------------


def test_resolve_jobs_explicit_wins(monkeypatch):
    monkeypatch.setenv(JOBS_ENV_VAR, "5")
    assert resolve_jobs(2) == 2


def test_resolve_jobs_env(monkeypatch):
    monkeypatch.setenv(JOBS_ENV_VAR, "5")
    assert resolve_jobs() == 5


def test_resolve_jobs_bad_env(monkeypatch):
    monkeypatch.setenv(JOBS_ENV_VAR, "lots")
    with pytest.raises(ValueError):
        resolve_jobs()


def test_resolve_jobs_auto_detect(monkeypatch):
    monkeypatch.delenv(JOBS_ENV_VAR, raising=False)
    auto = resolve_jobs()
    assert auto >= 1
    assert resolve_jobs(0) == auto  # <= 0 means auto, like None
    assert resolve_jobs(-3) == auto


# -- the jobs=1 reference path ----------------------------------------------


def test_sequential_order_errors_and_progress():
    calls = []
    outcomes = run_tasks(
        _mixed,
        [1, "boom", 3],
        jobs=1,
        progress=lambda done, total, o: calls.append((done, total, o.index)),
    )
    assert [o.index for o in outcomes] == [0, 1, 2]
    assert outcomes[0].ok and outcomes[0].result == 1
    assert not outcomes[1].ok and "ValueError" in outcomes[1].error
    assert outcomes[1].spec == "boom"  # failed spec kept for replay
    assert outcomes[2].ok and outcomes[2].result == 3
    assert calls == [(1, 3, 0), (2, 3, 1), (3, 3, 2)]


def test_unwrap():
    ok, bad = run_tasks(_mixed, [4, "boom"], jobs=1)
    assert ok.unwrap() == 4
    with pytest.raises(WorkerFailure):
        bad.unwrap()


def test_single_spec_stays_in_process():
    (outcome,) = run_tasks(_square, [7], jobs=8)
    assert outcome.unwrap() == 49


# -- the spawn-pool path ----------------------------------------------------


def test_parallel_results_merge_in_spec_order():
    outcomes = run_tasks(_square, list(range(6)), jobs=2)
    assert [o.unwrap() for o in outcomes] == [0, 1, 4, 9, 16, 25]
    assert [o.index for o in outcomes] == list(range(6))


def test_parallel_worker_exception_is_captured():
    outcomes = run_tasks(_mixed, [1, "boom", 3], jobs=2)
    assert outcomes[0].unwrap() == 1
    assert not outcomes[1].ok and "ValueError" in outcomes[1].error
    assert outcomes[2].unwrap() == 3


def test_dead_worker_fails_its_task_with_spec():
    outcomes = run_tasks(_die, ["survivor", "die"], jobs=2)
    assert len(outcomes) == 2 and all(o is not None for o in outcomes)
    dead = outcomes[1]
    assert dead.spec == "die"  # replayable spec survives the pool break
    assert not dead.ok and "died" in dead.error
    # The sibling either finished before the break or was retried; it is
    # never silently dropped.
    assert outcomes[0].ok or "died" in outcomes[0].error


def test_hung_pool_fails_unfinished_tasks():
    outcomes = run_tasks(_sleep, [0.0, 60.0], jobs=2, task_timeout_s=4.0)
    assert outcomes[0].unwrap() == 0.0
    assert not outcomes[1].ok and "hung" in outcomes[1].error
    assert outcomes[1].spec == 60.0


# -- task specs -------------------------------------------------------------


def test_task_specs_are_picklable():
    from repro.fuzz.explorer import CrashSchedule, FuzzParams
    from repro.__main__ import EXPERIMENTS

    specs = [CrashSchedule(target="msp1", kills=(3,), seed=0), FuzzParams()]
    for experiment in EXPERIMENTS.values():
        specs.extend(experiment.specs(0.0, 1))
    for spec in specs:
        assert pickle.loads(pickle.dumps(spec)) == spec
