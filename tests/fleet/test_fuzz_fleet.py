"""Bounded fuzz battery over the multi-domain fleet topology.

A CI-sized slice of the fleet crash enumeration: discover the crash
sites a small two-domain fleet reaches, fail-stop MSPs at a spread of
them, and require the full fleet invariant battery (exactly-once across
domain-crossing chains, DV isolation, ledger balance) to hold on every
schedule.
"""

from repro.fuzz import enumerate_schedules, fleet_fuzz_params, run_schedule


def small_params():
    # Chains two hops deep, 75% of hops cross a domain boundary, over a
    # 400 ms arrival window: the fixed shape of every fleet fuzz world.
    return fleet_fuzz_params(fleet_msps=4, fleet_domains=2, fleet_sessions=8)


def test_fleet_discovery_reaches_all_msps():
    params = small_params()
    _schedules, counts = enumerate_schedules(params, seed=0, max_schedules=1)
    assert set(counts) == {"m000", "m001", "m002", "m003"}
    # Chained cross-domain traffic must reach probe sites everywhere.
    assert all(count > 0 for count in counts.values()), counts


def test_fleet_crash_schedules_hold_invariants():
    params = small_params()
    schedules, _counts = enumerate_schedules(params, seed=0, max_schedules=8)
    assert len(schedules) == 8
    injected = 0
    for schedule in schedules:
        result = run_schedule(schedule, params)
        assert not result.violations, (
            schedule.to_dict(),
            result.violations,
        )
        injected += result.crashes_injected
    assert injected > 0


def test_fleet_no_crash_baseline_is_clean():
    from repro.fuzz import CrashSchedule

    params = small_params()
    result = run_schedule(
        CrashSchedule(target="m000", kills=(), seed=1), params
    )
    assert not result.violations, result.violations
    assert result.crashes_injected == 0
    assert result.completed_requests > 0
