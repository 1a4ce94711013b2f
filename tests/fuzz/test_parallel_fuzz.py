"""Parallel fuzz runs must be byte-identical to sequential ones, and a
died/hung worker must surface as a replayable failure, never vanish."""

from repro.fuzz.explorer import (
    FuzzParams,
    FuzzReport,
    _merge_outcomes,
    enumerate_schedules,
    explore_exhaustive,
    fuzz_random,
)


def test_pair_schedules_are_ordered_two_kill_and_deterministic():
    params = FuzzParams()
    schedules, counts = enumerate_schedules(params, kills=2, max_schedules=20)
    assert len(schedules) == 20
    for schedule in schedules:
        assert len(schedule.kills) == 2
        assert schedule.kills[0] < schedule.kills[1]
        assert schedule.target in counts
    again, _ = enumerate_schedules(params, kills=2, max_schedules=20)
    assert [s.to_dict() for s in schedules] == [s.to_dict() for s in again]


def test_pair_sampling_spans_the_product():
    params = FuzzParams()
    bounded, counts = enumerate_schedules(params, kills=2, stride=16, max_schedules=12)
    total_sites = sum(counts.values())
    assert total_sites > 0
    # Even sampling reaches late ordinals, not just the head of the
    # product: the largest sampled second kill is in the upper half.
    assert max(s.kills[1] for s in bounded) > max(counts.values()) // 2


def test_exhaustive_jobs_parity():
    params = FuzzParams()
    seq = explore_exhaustive(params, stride=150, jobs=1)
    par = explore_exhaustive(params, stride=150, jobs=2)
    assert seq.schedules_run > 1
    assert seq.to_dict() == par.to_dict()


def test_pairs_jobs_parity():
    params = FuzzParams()
    seq = explore_exhaustive(params, stride=64, max_schedules=6, jobs=1, pairs=True)
    par = explore_exhaustive(params, stride=64, max_schedules=6, jobs=2, pairs=True)
    assert seq.mode == "exhaustive-pairs"
    assert seq.schedules_run == 6
    assert seq.to_dict() == par.to_dict()


def test_random_jobs_parity():
    seq = fuzz_random(master_seed=3, runs=4, jobs=1)
    par = fuzz_random(master_seed=3, runs=4, jobs=2)
    assert seq.to_dict() == par.to_dict()


def test_worker_failure_becomes_replayable_failure():
    params = FuzzParams()
    schedules, _ = enumerate_schedules(params, kills=2, max_schedules=2)
    executed = [
        (None, "Traceback (most recent call last):\n  ...\nOSError: worker died"),
        (None, None),
    ]
    # A (result=None, error=None) pair can only come from a real run; use
    # a real sequential result for the healthy slot.
    from repro.fuzz.explorer import run_schedule

    executed[1] = (run_schedule(schedules[1], params), None)
    report = _merge_outcomes(FuzzReport(mode="test"), schedules, executed)
    assert report.schedules_run == 2
    assert len(report.failures) >= 1
    failure = report.failures[0]
    assert failure.violations == ["worker-failure: OSError: worker died"]
    # The spec is preserved in the standard artifact form, so
    # --replay-file reaches it directly.
    assert failure.schedule == schedules[0].to_dict()
