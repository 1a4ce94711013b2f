"""Satellite: crashes at every checkpoint phase boundary.

The paper's fuzzy MSP checkpoint (§3.4) writes the checkpoint record
into the log stream and only re-points the durable anchor *after* the
record is flushed.  A crash between any two phases must therefore leave
recovery with a usable anchor: either the previous checkpoint (the new
one was torn) or the new one (fully durable).  These tests kill the MSP
at each instrumented phase boundary — including the session and
shared-variable checkpoint phases — and assert the invariant battery,
plus the anchor property directly.
"""

import pytest

from repro.core.records import MspCheckpointRecord
from repro.fuzz import CrashSchedule, FuzzParams, discover_sites, run_schedule
from repro.fuzz.explorer import LIMIT_MS, QUIESCE_MS, build_world, _crash_and_restart
from repro.fuzz.sites import CrashInjector

MSP_CKPT_PHASES = (
    "ckpt.msp.begin",
    "ckpt.msp.forced",
    "ckpt.msp.logged",
    "ckpt.msp.flushed",
    "ckpt.msp.anchored",
)
OTHER_CKPT_PHASES = (
    "ckpt.session.begin",
    "ckpt.session.flushed",
    "ckpt.session.logged",
    "ckpt.sv.begin",
    "ckpt.sv.flushed",
    "ckpt.sv.logged",
)

_params = FuzzParams()
_trace = discover_sites(_params, seed=0)


def _ordinals(owner: str, site: str, limit: int = 2) -> list[int]:
    found = [
        e.ordinal for e in _trace.events if e.owner == owner and e.site == site
    ]
    # Sample the first and the last firing: early checkpoints run against
    # live traffic, late ones against the idle tail.
    if len(found) > limit:
        found = [found[0], found[-1]]
    return found


@pytest.mark.parametrize("target", ("msp1", "msp2"))
@pytest.mark.parametrize("phase", MSP_CKPT_PHASES)
def test_crash_at_msp_checkpoint_phase(target, phase):
    ordinals = _ordinals(target, phase)
    assert ordinals, f"{phase} never fired for {target}"
    for ordinal in ordinals:
        result = run_schedule(
            CrashSchedule(target=target, kills=(ordinal,), seed=0), _params
        )
        assert result.crashes_injected == 1
        assert result.violations == [], (phase, ordinal, result.violations)


@pytest.mark.parametrize("phase", OTHER_CKPT_PHASES)
def test_crash_at_session_and_sv_checkpoint_phase(phase):
    ran = 0
    for target in ("msp1", "msp2"):
        for ordinal in _ordinals(target, phase):
            result = run_schedule(
                CrashSchedule(target=target, kills=(ordinal,), seed=0), _params
            )
            assert result.crashes_injected == 1
            assert result.violations == [], (target, phase, ordinal)
            ran += 1
    assert ran > 0, f"{phase} never fired for either MSP"


@pytest.mark.parametrize("phase", ("ckpt.msp.logged", "ckpt.msp.flushed"))
def test_torn_checkpoint_anchor_never_used_by_analysis(phase):
    """Kill between checkpoint phases; recovery's anchor must point at a
    complete, durable MSP checkpoint record — never the torn one."""
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
    anchor_raw = store.read_anchor()
    assert anchor_raw is not None
    anchor = int.from_bytes(anchor_raw, "big")
    assert anchor < store.durable_end
    record, _next = workload.msp2.log.record_at(anchor)
    assert isinstance(record, MspCheckpointRecord)
    assert workload.msp2.log.is_durable(anchor)
