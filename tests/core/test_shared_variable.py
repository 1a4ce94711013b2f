"""Unit tests for shared variables: undo stack, rollback, bookkeeping."""

import random

import pytest

from repro.core.dv import DependencyVector, RecoveryTable, StateId
from repro.core.log_manager import LogManager
from repro.core.records import NO_LSN, SvCheckpointRecord, SvWriteRecord
from repro.core.shared_variable import SharedVariable
from repro.sim import ProcessGroup, Simulator
from repro.storage import Disk, StableStore


def make_env():
    sim = Simulator()
    store = StableStore()
    disk = Disk(sim, rng=random.Random(0))
    log = LogManager(sim, store, disk)
    log.start(group=ProcessGroup("t"))
    return sim, log


def dv_of(*entries):
    dv = DependencyVector()
    for msp, epoch, lsn in entries:
        dv.observe(msp, StateId(epoch, lsn))
    return dv


def write(log, sv, value, writer_dv):
    """Append a write record and apply it, like the context does."""
    record = SvWriteRecord(
        session_id="s",
        variable=sv.name,
        value=value,
        writer_dv=writer_dv,
        prev_write_lsn=sv.last_write_lsn,
    )
    lsn, _ = log.append(record)
    sv.apply_write(lsn, value, writer_dv)
    return lsn


def test_initial_state():
    sim, _log = make_env()
    sv = SharedVariable(sim, "v", b"init")
    assert sv.value == b"init"
    assert sv.last_write_lsn == NO_LSN
    assert sv.state_lsn is None
    assert sv.scan_start_frontier(1) is None


def test_apply_write_bookkeeping():
    sim, log = make_env()
    sv = SharedVariable(sim, "v", b"init")
    dv = dv_of(("p", 0, 5))
    lsn = write(log, sv, b"one", dv)
    assert sv.value == b"one"
    assert sv.state_lsn == lsn
    assert sv.last_write_lsn == lsn
    assert sv.scan_start_frontier(1) == lsn
    assert sv.writes_since_ckpt == 1
    assert sv.dv == dv
    # The DV is replaced by a copy: mutating the source must not leak.
    dv.observe("q", StateId(0, 1))
    assert sv.dv != dv


def test_apply_checkpoint_breaks_chain():
    sim, log = make_env()
    sv = SharedVariable(sim, "v", b"init")
    write(log, sv, b"one", dv_of(("p", 0, 5)))
    ckpt_lsn, _ = log.append(SvCheckpointRecord(variable="v", value=sv.value))
    sv.apply_checkpoint(ckpt_lsn)
    assert sv.writes_since_ckpt == 0
    assert sv.last_ckpt_lsn == ckpt_lsn
    assert sv.last_write_lsn == ckpt_lsn
    assert not sv.dv
    assert sv.scan_start_frontier(1) == ckpt_lsn


def test_orphan_detection_uses_table():
    sim, _log = make_env()
    sv = SharedVariable(sim, "v", b"init")
    sv.dv = dv_of(("p", 0, 100))
    table = RecoveryTable()
    assert not sv.is_orphan(table)
    table.record("p", 0, 50)
    assert sv.is_orphan(table)


def test_rollback_to_most_recent_non_orphan_write():
    sim, log = make_env()
    sv = SharedVariable(sim, "v", b"init")
    good_lsn = write(log, sv, b"good", dv_of(("p", 0, 10)))
    write(log, sv, b"bad1", dv_of(("p", 0, 60)))
    write(log, sv, b"bad2", dv_of(("p", 0, 80)))
    table = RecoveryTable()
    table.record("p", 0, 50)  # 60 and 80 lost; 10 survived

    reads_before = log.disk.stats.reads
    hops = sv.roll_back(table)  # a plain call: no log, no simulated time
    assert sv.value == b"good"
    assert sv.state_lsn == sv.last_write_lsn == good_lsn
    assert hops == 2  # one per snapshot popped
    assert len(sv.history) == 1  # the survivor stays for the next rollback
    assert not table.is_orphan(sv.dv)
    assert log.disk.stats.reads == reads_before


def test_rollback_stops_at_checkpoint():
    sim, log = make_env()
    sv = SharedVariable(sim, "v", b"init")
    write(log, sv, b"checkpointed", dv_of(("p", 0, 10)))
    ckpt_lsn, _ = log.append(SvCheckpointRecord(variable="v", value=sv.value))
    sv.apply_checkpoint(ckpt_lsn)
    write(log, sv, b"orphaned", dv_of(("p", 0, 99)))
    table = RecoveryTable()
    table.record("p", 0, 50)

    assert sv.roll_back(table) == 1
    assert sv.value == b"checkpointed"
    assert sv.state_lsn == sv.last_write_lsn == ckpt_lsn
    assert not sv.dv
    assert sv.scan_start_frontier(1) == ckpt_lsn
    # Nothing below the checkpoint can come back, however often asked.
    assert sv.roll_back(table) == 0
    assert sv.value == b"checkpointed"


def test_rollback_to_initial_value_when_chain_exhausted():
    # "Exhausted": every write since the start is an orphan and no
    # checkpoint was ever taken — the stack's base is the initial value.
    sim, log = make_env()
    sv = SharedVariable(sim, "v", b"init")
    write(log, sv, b"bad", dv_of(("p", 0, 99)))
    table = RecoveryTable()
    table.record("p", 0, 50)

    assert sv.roll_back(table) == 1
    assert sv.value == b"init"
    assert sv.last_write_lsn == NO_LSN
    assert sv.state_lsn is None
    assert sv.scan_start_frontier(1) is None


def test_rollback_keeps_new_epoch_writes():
    """A dependency on epoch 1 is not an orphan of the epoch-0 crash."""
    sim, log = make_env()
    sv = SharedVariable(sim, "v", b"init")
    write(log, sv, b"fresh", dv_of(("p", 1, 5)))
    table = RecoveryTable()
    table.record("p", 0, 50)

    assert sv.roll_back(table) == 0
    assert sv.value == b"fresh"


def test_undo_entry_shares_the_writes_one_dv_copy():
    """A push must not copy the DV a second time: the variable's DV is
    the single copy of the writer's, and the stack entry is that object."""
    sim, log = make_env()
    sv = SharedVariable(sim, "v", b"init")
    writer_dv = dv_of(("p", 0, 5))
    write(log, sv, b"one", writer_dv)
    assert sv.dv is not writer_dv
    assert sv.history[-1][1] is sv.dv
    ckpt_lsn, _ = log.append(SvCheckpointRecord(variable="v", value=sv.value))
    popped_dv = sv.dv
    sv.apply_checkpoint(ckpt_lsn)
    # Rebound, not cleared: the writer's copy is untouched.
    assert not sv.dv and popped_dv == writer_dv and sv.history == []
