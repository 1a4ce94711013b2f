"""Fleet fault families: partitions, correlated crashes, disasters.

Every family must settle to clean verdicts (the resend protocol rides
out blackouts, recovery rides out crashes) and stay byte-identical at
any ``--jobs`` value — faults are part of the spec, not of the
execution schedule.
"""

import pytest

from repro.fleet import FleetSpec, FleetTopology
from repro.fleet.runner import fleet_fingerprint, run_fleet
from repro.fleet.shard import FleetShard


def base_spec(**overrides):
    defaults = dict(
        msps=4,
        domains=2,
        shards=2,
        seed=5,
        sessions=30,
        duration_ms=2500.0,
        chain_depth=1,
        cross_domain_fraction=0.5,
    )
    defaults.update(overrides)
    return FleetSpec(**defaults)


SPLIT = (
    ("m000", "m002", "c.m000", "c.m002"),
    ("m001", "m003", "c.m001", "c.m003"),
)


def test_partition_window_settles_clean_and_jobs_invariant():
    spec = base_spec(
        partition_plan=((900.0, 1500.0, SPLIT[0], SPLIT[1]),),
    )
    result = run_fleet(spec, jobs=1)
    assert result["verdicts"]["clean"], result["violations"]
    assert result["ledger"]["dropped_partition"] > 0
    again = run_fleet(spec, jobs=2)
    assert fleet_fingerprint(again) == fleet_fingerprint(result)


def test_correlated_crash_records_one_event_per_victim():
    spec = base_spec(crash_plan=((1200.0, "m000"), (1200.0, "m002")))
    result = run_fleet(spec, jobs=1)
    assert result["verdicts"]["clean"], result["violations"]
    events = result["recovery"]
    assert [(e["msp"], e["kind"], e["at_ms"]) for e in events] == [
        ("m000", "restart", 1200.0),
        ("m002", "restart", 1200.0),
    ]
    assert all(e["duration_ms"] > 0 for e in events)


def test_disaster_fails_over_and_beats_cold_restart():
    """Whole-domain loss with warm standby: verified failover, clean
    settle, and a fault-to-open time below the same-instant cold
    restart (the standby skips restart_delay_ms)."""
    warm = base_spec(seed=9, disaster_plan=((1100.0, 1),))
    cold = base_spec(seed=9, crash_plan=((1100.0, "m001"), (1100.0, "m003")))

    warm_result = run_fleet(warm, jobs=1)
    assert warm_result["verdicts"]["clean"], warm_result["violations"]
    warm_events = {e["msp"]: e for e in warm_result["recovery"]}
    assert set(warm_events) == {"m001", "m003"}
    assert all(e["kind"] == "failover" for e in warm_events.values())

    cold_result = run_fleet(cold, jobs=1)
    assert cold_result["verdicts"]["clean"], cold_result["violations"]
    cold_events = {e["msp"]: e for e in cold_result["recovery"]}
    for msp, warm_event in warm_events.items():
        assert warm_event["duration_ms"] < cold_events[msp]["duration_ms"], (
            msp,
            warm_event,
            cold_events[msp],
        )

    # Promoted standbys are reported; untouched ones audited clean.
    standby = {
        name: stats
        for shard in warm_result["shards"]
        for name, stats in shard["standby"].items()
    }
    assert standby["m001"]["promoted"] and standby["m003"]["promoted"]
    assert not standby["m000"]["promoted"]
    assert standby["m000"]["verifications"] >= 1  # end-of-run audit ran


def test_disaster_and_standby_runs_are_jobs_invariant():
    spec = base_spec(
        seed=13,
        disaster_plan=((1000.0, 0),),
        partition_plan=((1800.0, 2100.0, SPLIT[0], SPLIT[1]),),
    )
    first = run_fleet(spec, jobs=1)
    second = run_fleet(spec, jobs=2)
    assert first["verdicts"]["clean"], first["violations"]
    assert fleet_fingerprint(first) == fleet_fingerprint(second)


def test_standbys_follow_the_disaster_plan():
    """A disaster plan gives every MSP a warm standby (there is nothing
    else to recover from); a crash-only plan gives none."""
    warm = FleetShard(base_spec(shards=1, disaster_plan=((100.0, 0),)), 0)
    assert sorted(warm.standbys) == ["m000", "m001", "m002", "m003"]
    cold = FleetShard(base_spec(shards=1, crash_plan=((100.0, "m000"),)), 0)
    assert cold.standbys == {}


def test_spec_validation_of_fault_plans():
    with pytest.raises(ValueError, match="unknown domain"):
        FleetTopology(base_spec(disaster_plan=((100.0, 7),)))
    with pytest.raises(ValueError, match="unknown nodes"):
        FleetTopology(
            base_spec(partition_plan=((0.0, 10.0, ("m000",), ("nope",)),))
        )
    with pytest.raises(ValueError, match="empty partition window"):
        FleetTopology(
            base_spec(partition_plan=((10.0, 10.0, ("m000",), ("m001",)),))
        )
