"""Satellite: the invariant battery under ``recovery_mode: lazy``.

The drain's probe sites (``recovery.drain``,
``recovery.session.begin``/``end``, ``recovery.pump.step``) fire in
both recovery modes, but only while a restart is in flight — so, as
with the other ``recovery.*`` sites, a first kill mid-run opens the
window and a second kill ordinal lands *inside* the recovery.  Lazy is
where they spread out in time: with fewer workers than sessions a kill
can land during one session's on-demand replay or between worker steps
while the MSP is serving traffic partially recovered.  The battery
checks that every such crash still recovers to exactly-once (including
the drain invariants: no session served before it is replayed, no
session left pending after quiesce).
"""

from repro.fuzz import CrashSchedule, FuzzParams, explore_exhaustive, fuzz_random, run_schedule
from repro.fuzz.explorer import LIMIT_MS, build_world, _crash_and_restart
from repro.fuzz.sites import CrashInjector, TraceRecorder

LAZY_SITES = (
    "recovery.drain",
    "recovery.session.begin",
    "recovery.session.end",
    "recovery.pump.step",
)

#: Mid-run first kill; its lazy recovery runs against live traffic.
#: (An earlier kill finds no live sessions — the pump then has nothing
#: to drain and only ``recovery.drain`` fires.)
FIRST_KILL = 150

_lazy = FuzzParams(recovery_mode="lazy")
_lazy4 = FuzzParams(recovery_mode="lazy", log_partitions=4)


def test_lazy_exhaustive_smoke_is_clean():
    report = explore_exhaustive(_lazy, seed=0, max_schedules=16)
    assert report.ok, [f.to_dict() for f in report.failures]
    assert report.schedules_run == 16
    assert report.crashes_injected > 0


def test_lazy_partitioned_random_smoke_is_clean():
    report = fuzz_random(master_seed=0, runs=8, params=_lazy4)
    assert report.ok, [f.to_dict() for f in report.failures]
    assert report.crashes_injected > 0


def _lazy_ordinals(target: str, params: FuzzParams) -> dict[str, list[int]]:
    """All ordinals of each lazy probe site reached after the first kill."""
    workload = build_world(params, seed=0, faults=None)
    recorder = TraceRecorder(workload.sim).attach()
    injector = CrashInjector(
        workload.sim, target, (FIRST_KILL,), _crash_and_restart(workload, target)
    ).attach()
    workload.run(limit_ms=LIMIT_MS)
    recorder.detach()
    injector.detach()
    assert injector.crashes_injected == 1
    ordinals: dict[str, list[int]] = {}
    for event in recorder.events:
        if event.owner == target and event.site in LAZY_SITES:
            ordinals.setdefault(event.site, []).append(event.ordinal)
    return ordinals


def test_crash_during_lazy_replay_recovers():
    """Kill msp2 inside its own lazy recovery, at every lazy phase:
    right after analysis opens the MSP, at the begin/end of a session's
    chain replay, and at a pump step between replays."""
    ordinals = _lazy_ordinals("msp2", _lazy)
    assert set(ordinals) == set(LAZY_SITES), ordinals
    for site in LAZY_SITES:
        sites = ordinals[site]
        # First and last firing: the first lands while almost every
        # session is still pending, the last while almost none are.
        for ordinal in {sites[0], sites[-1]}:
            result = run_schedule(
                CrashSchedule(target="msp2", kills=(FIRST_KILL, ordinal), seed=0),
                _lazy,
            )
            assert result.crashes_injected == 2, (site, ordinal)
            assert result.violations == [], (site, ordinal, result.violations)


def test_crash_while_partially_recovered_partitioned():
    """P=4: a crash mid-pump leaves some sessions replayed and some
    pending; the next recovery re-derives every chain head from the
    merged scan and the battery still holds."""
    ordinals = _lazy_ordinals("msp2", _lazy4)
    assert "recovery.pump.step" in ordinals, ordinals
    steps = ordinals["recovery.pump.step"]
    mid = steps[len(steps) // 2]
    result = run_schedule(
        CrashSchedule(target="msp2", kills=(FIRST_KILL, mid), seed=0), _lazy4
    )
    assert result.crashes_injected == 2
    assert result.violations == [], result.violations


def test_third_crash_during_second_lazy_recovery():
    ordinals = _lazy_ordinals("msp2", _lazy)
    mid = ordinals["recovery.session.begin"][0]
    result = run_schedule(
        CrashSchedule(target="msp2", kills=(FIRST_KILL, mid, mid + 20), seed=0),
        _lazy,
    )
    assert result.crashes_injected == 3
    assert result.violations == [], result.violations
