"""Satellite: the invariant battery against the partitioned log.

Everything the single-log battery checks must hold at ``--partitions
4``: crashes landing inside any one partition's flush, DV-ordered
merge recovery (the merge re-checks its own order on every
recovery), and the cross-incarnation aliasing regression the recovery
rewind exists for — case 33 crashes msp1 so that one partition keeps a
durable record whose cross-partition dependency was lost, and a later
crash re-reads the offsets the first recovery excised.
"""

from repro.fuzz import (
    CrashSchedule,
    FuzzParams,
    discover_sites,
    explore_exhaustive,
    fuzz_random,
    run_random_case,
    run_schedule,
)

_params4 = FuzzParams(log_partitions=4)


def test_partitioned_exhaustive_smoke_is_clean():
    report = explore_exhaustive(_params4, seed=0, max_schedules=16)
    assert report.ok, [f.to_dict() for f in report.failures]
    assert report.schedules_run == 16
    assert report.crashes_injected > 0


def test_partitioned_random_smoke_is_clean():
    report = fuzz_random(master_seed=0, runs=8, params=_params4)
    assert report.ok, [f.to_dict() for f in report.failures]
    assert report.crashes_injected > 0


def test_crash_during_partition_flush():
    """Kill each MSP inside a physical partition write: the other
    partitions' flushes are in flight, so recovery sees a mix of
    durable prefixes — exactly the consistent-cut case."""
    trace = discover_sites(_params4, seed=0)
    ran = 0
    for target in ("msp1", "msp2"):
        ordinals = [
            e.ordinal
            for e in trace.events
            if e.owner == target and e.site == "log.flush.begin"
        ]
        assert ordinals, f"log.flush.begin never fired for {target}"
        # First, middle and last firing: early flushes run against cold
        # partitions, late ones against every partition in flight.
        for ordinal in {ordinals[0], ordinals[len(ordinals) // 2], ordinals[-1]}:
            result = run_schedule(
                CrashSchedule(target=target, kills=(ordinal,), seed=0), _params4
            )
            assert result.crashes_injected == 1
            assert result.violations == [], (target, ordinal, result.violations)
            ran += 1
    assert ran >= 4


def test_cross_incarnation_aliasing_case33_regression():
    """Random case 33 at P=4: recovery 1 excises a durable suffix of
    one partition; without the physical rewind, recovery 2 accepted a
    dead record against an offset the new incarnation had reused."""
    result = run_random_case(33, _params4)
    assert result.violations == [], result.violations
    assert result.crashes_injected == 3


def test_scan_floor_hole_case2497_regression():
    """Random case 2497 at P=3, 4 clients x 12 requests: an MSP
    checkpoint used to capture its scan floors between a shared-variable
    write's append and its apply, so the writer's partition looked
    untouched and the restart lost the write (SV3 ended one short).  The
    write now lands in the append's own step."""
    params = FuzzParams(log_partitions=3, num_clients=4, requests_per_client=12)
    result = run_random_case(2497, params)
    assert result.violations == [], result.violations
    assert result.crashes_injected == 1
