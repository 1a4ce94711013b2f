"""Satellite: crashes around the checkpoint-driven truncate step.

Truncation runs only after the log anchor is durable, so the crash
window that matters is between anchor-durable and segment-recycle (the
``log.truncate.begin`` probe) and right after the recycle
(``log.truncate.end``).  A crash at either must recover exactly like a
crash anywhere else: the floor is not recovery state — recycled
segments are physically gone, and the next checkpoint simply
re-truncates.  These tests kill each MSP at both probes and assert the
invariant battery, plus the floor/anchor ordering directly.
"""

import pytest

from repro.fuzz import CrashSchedule, FuzzParams, discover_sites, run_schedule
from repro.fuzz.explorer import LIMIT_MS, QUIESCE_MS, build_world, _crash_and_restart
from repro.fuzz.sites import CrashInjector

TRUNCATE_PHASES = ("log.truncate.begin", "log.truncate.end")

_params = FuzzParams()
_trace = discover_sites(_params, seed=0)


def _ordinals(owner: str, site: str, limit: int = 2) -> list[int]:
    found = [
        e.ordinal for e in _trace.events if e.owner == owner and e.site == site
    ]
    if len(found) > limit:
        found = [found[0], found[-1]]
    return found


def test_truncate_probes_fire_and_segments_recycle():
    """The fuzz workload genuinely exercises truncation: both probes
    appear in the discovery trace and a plain run recycles segments."""
    hist = _trace.site_histogram()
    for phase in TRUNCATE_PHASES:
        assert hist.get(phase, 0) > 0, f"{phase} never fired"
    workload = build_world(_params, seed=0, faults=None)
    workload.run(limit_ms=LIMIT_MS)
    recycled = sum(
        msp.store.recycled_segments for msp in (workload.msp1, workload.msp2)
    )
    assert recycled > 0, "fuzz params too coarse: no segment was recycled"


@pytest.mark.parametrize("target", ("msp1", "msp2"))
@pytest.mark.parametrize("phase", TRUNCATE_PHASES)
def test_crash_at_truncate_phase(target, phase):
    ordinals = _ordinals(target, phase)
    assert ordinals, f"{phase} never fired for {target}"
    for ordinal in ordinals:
        result = run_schedule(
            CrashSchedule(target=target, kills=(ordinal,), seed=0), _params
        )
        assert result.crashes_injected == 1
        assert result.violations == [], (phase, ordinal, result.violations)


@pytest.mark.parametrize("phase", TRUNCATE_PHASES)
def test_floor_never_passes_anchor_after_truncate_crash(phase):
    """Kill at the truncate step; after recovery and quiesce the floor
    must still trail the anchored checkpoint (truncation safety), and
    reads at the floor must work."""
    ordinal = _ordinals("msp2", phase)[0]
    workload = build_world(_params, seed=0, faults=None)
    injector = CrashInjector(
        workload.sim, "msp2", (ordinal,), _crash_and_restart(workload, "msp2")
    ).attach()
    workload.run(limit_ms=LIMIT_MS)
    workload.sim.run(until=workload.sim.now + QUIESCE_MS)
    injector.detach()
    assert injector.crashes_injected == 1
    store = workload.msp2.store
    floor = store.truncate_lsn
    anchor_raw = store.read_anchor()
    assert anchor_raw is not None
    anchor = int.from_bytes(anchor_raw, "big")
    assert floor <= anchor
    record, _next = workload.msp2.log.record_at(anchor)
    assert record.partition_floors(anchor)[0] >= floor
