"""Crashes landing *inside* crash recovery itself.

Ordinal counting continues across crashes, so a second kill ordinal can
target any of the ``recovery.*`` probe sites reached while the first
crash is being recovered — the paper's claim that recovery is itself
fail-stop safe (a crash during recovery restarts recovery, which is
idempotent because analysis only reads the durable prefix).
"""

from repro.fuzz import CrashSchedule, FuzzParams, run_schedule
from repro.fuzz.explorer import LIMIT_MS, build_world, _crash_and_restart
from repro.fuzz.sites import CrashInjector, TraceRecorder

RECOVERY_SITES = (
    "recovery.begin",
    "recovery.anchor-read",
    "recovery.scanned",
    "recovery.analyzed",
    "recovery.announced",
    "recovery.checkpointed",
    "recovery.drain",
    "recovery.end",
)

#: Mid-run first kill; its recovery runs against live client traffic.
FIRST_KILL = 60


def _recovery_ordinals(target: str) -> dict[str, int]:
    """Ordinals of each recovery step reached after the first kill."""
    params = FuzzParams()
    workload = build_world(params, seed=0, faults=None)
    recorder = TraceRecorder(workload.sim).attach()
    injector = CrashInjector(
        workload.sim, target, (FIRST_KILL,), _crash_and_restart(workload, target)
    ).attach()
    workload.run(limit_ms=LIMIT_MS)
    recorder.detach()
    injector.detach()
    assert injector.crashes_injected == 1
    ordinals: dict[str, int] = {}
    for event in recorder.events:
        if event.owner == target and event.site.startswith("recovery."):
            ordinals.setdefault(event.site, event.ordinal)
    return ordinals


def test_second_crash_during_recovery_also_recovers():
    params = FuzzParams()
    for target in ("msp1", "msp2"):
        ordinals = _recovery_ordinals(target)
        assert set(ordinals) == set(RECOVERY_SITES), (target, ordinals)
        for site, ordinal in sorted(ordinals.items()):
            result = run_schedule(
                CrashSchedule(target=target, kills=(FIRST_KILL, ordinal), seed=0),
                params,
            )
            assert result.crashes_injected == 2, (target, site)
            assert result.violations == [], (target, site, result.violations)


def test_third_crash_during_second_recovery():
    params = FuzzParams()
    ordinals = _recovery_ordinals("msp2")
    mid = ordinals["recovery.scanned"]
    result = run_schedule(
        CrashSchedule(target="msp2", kills=(FIRST_KILL, mid, mid + 40), seed=0),
        params,
    )
    assert result.crashes_injected == 3
    assert result.violations == []
