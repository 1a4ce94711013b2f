"""The invariant battery: passes a clean world, catches corruption."""

import pytest

from repro.core.session import SessionStatus
from repro.fuzz import FuzzParams, check_world
from repro.fuzz.explorer import LIMIT_MS, build_world
from repro.fuzz.invariants import (
    check_durable_log,
    check_no_orphans,
    check_running,
    check_sv_undo,
)


@pytest.fixture
def world():
    params = FuzzParams(num_clients=1, requests_per_client=3)
    workload = build_world(params, seed=0, faults=None)
    workload.run(limit_ms=LIMIT_MS)
    return workload


def test_clean_world_passes_battery(world):
    assert check_world(world) == []


def test_detects_lost_counter_update(world):
    sv = world.msp1.shared["SV0"]
    sv.value = (0).to_bytes(8, "big") + sv.value[8:]
    violations = world.violations()
    assert violations and violations[0].startswith("exactly-once:")


def test_detects_stalled_client(world):
    world.params.requests_per_client += 1
    violations = world.violations()
    assert any(v.startswith("liveness:") for v in violations)


def test_detects_stuck_recovering_session(world):
    session = next(iter(world.msp1.sessions.values()))
    session.status = SessionStatus.RECOVERING
    violations = check_no_orphans(world.msp1)
    assert any("stuck in RECOVERING" in v for v in violations)


def test_detects_unserved_msp(world):
    world.msp2.crash()
    assert check_running(world.msp2) == [
        "recovery: msp2 is not serving after quiesce"
    ]


def test_detects_broken_sv_chain(world):
    # The edge the next write would log must name a write record of the
    # variable: neither a hole past the log's end nor another kind.
    sv = world.msp1.shared["SV0"]
    good = sv.last_write_lsn
    sv.last_write_lsn = world.msp1.store.end + 10_000
    violations = check_sv_undo(world.msp1)
    assert len(violations) == 1 and "merge edge" in violations[0]
    sv.last_write_lsn = world.msp1.log.read_anchor()
    violations = check_sv_undo(world.msp1)
    assert len(violations) == 1 and "MspCheckpointRecord" in violations[0]
    sv.last_write_lsn = good
    assert check_sv_undo(world.msp1) == []


def test_detects_stale_sv_undo_stack(world):
    # Rollback restores the stack's top: it must be the live state, and
    # the stack holds no write from before its base.
    sv = world.msp1.shared["SV1"]  # one write above its last checkpoint
    assert len(sv.history) == 1 and sv.history[-1][0] == sv.value
    sv.value = b"not what was pushed"
    violations = check_sv_undo(world.msp1)
    assert len(violations) == 1 and "live state" in violations[0]
    sv.history.clear()  # now the base, the checkpoint, is the top
    assert "live state" in check_sv_undo(world.msp1)[0]
    sv.roll_back(world.msp1.table)
    assert check_sv_undo(world.msp1) == []
    sv.history += [sv.base] * (sv.writes_since_ckpt + 1)
    violations = check_sv_undo(world.msp1)
    assert len(violations) == 1 and "deeper" in violations[0]


def test_detects_corrupt_durable_prefix(world):
    store = world.msp1.store
    assert store.durable_end > 0
    offset = store.durable_end // 2
    store._segments[offset // store.segment_bytes][offset % store.segment_bytes] ^= 0xFF
    violations = check_durable_log(world.msp1)
    assert violations and violations[0].startswith("durable-log:")


def test_detects_anchor_past_durable_boundary(world):
    store = world.msp1.store
    store.write_anchor((store.durable_end + 4096).to_bytes(8, "big"))
    store.flush_anchor()
    violations = check_durable_log(world.msp1)
    assert any("points past the durable boundary" in v for v in violations)


def test_detects_anchor_at_wrong_record(world):
    # Re-point the anchor at a shared-variable write record: analysis
    # must never treat that as a checkpoint.
    store = world.msp1.store
    wrong_lsn = world.msp1.shared["SV0"].last_write_lsn
    assert wrong_lsn >= 0
    store.write_anchor(wrong_lsn.to_bytes(8, "big"))
    store.flush_anchor()
    violations = check_durable_log(world.msp1)
    assert violations and "anchor" in violations[0]
