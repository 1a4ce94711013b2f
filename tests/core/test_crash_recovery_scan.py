"""Unit tests for the crash-recovery analysis scan (paper §4.3).

These build logs by hand (append + flush + crash), then restart the MSP
and verify what the single-threaded scan reconstructed: position
streams, EOS pruning, session-end removal, shared-variable roll-forward
and the anchor-bounded scan start.
"""

import pytest

from repro.core import RecoveryConfig, ServiceDomainConfig
from repro.core.dv import DependencyVector
from repro.core.msp import MiddlewareServer
from repro.core.records import (
    EosRecord,
    RequestRecord,
    SessionEndRecord,
    SvWriteRecord,
)
from repro.net import Network
from repro.sim import RngRegistry, Simulator


def build_msp(seed=0):
    sim = Simulator()
    rng = RngRegistry(seed)
    net = Network(sim, rng=rng)
    msp = MiddlewareServer(
        sim, net, "server", ServiceDomainConfig(), config=RecoveryConfig(), rng=rng
    )
    msp.register_service("noop", lambda ctx, arg: iter(()))
    msp.register_shared("v", b"init")
    boot = msp.start_process()
    sim.run_until_process(boot, limit=60_000)
    return sim, msp


def flush_all(sim, msp):
    def run():
        yield from msp.log.flush(None)

    p = sim.spawn(run())
    sim.run_until_process(p, limit=60_000)


def crash_restart(sim, msp):
    msp.crash()
    boot = msp.restart_process()
    sim.run_until_process(boot, limit=600_000)


def append_request(msp, session_id, seq):
    record = RequestRecord(session_id, seq, "noop", b"", None)
    session = msp.session_for(session_id)
    lsn, size = msp.log.append(record)
    session.account_record(lsn, size, msp.epoch)
    return lsn


def test_scan_reconstructs_position_streams():
    sim, msp = build_msp()
    lsns_a = [append_request(msp, "a", i) for i in range(3)]
    lsns_b = [append_request(msp, "b", i) for i in range(2)]
    flush_all(sim, msp)
    crash_restart(sim, msp)
    # Position streams rebuilt from the scan, interleaving resolved.
    assert msp.sessions["a"].position_stream.positions() == lsns_a
    assert msp.sessions["b"].position_stream.positions() == lsns_b


def test_scan_excludes_unflushed_tail():
    sim, msp = build_msp()
    kept = append_request(msp, "a", 0)
    flush_all(sim, msp)
    append_request(msp, "a", 1)  # never flushed: lost in the crash
    crash_restart(sim, msp)
    assert msp.sessions["a"].position_stream.positions() == [kept]


def test_scan_prunes_at_eos():
    """An EOS record makes the skipped range invisible after a crash."""
    sim, msp = build_msp()
    keep = append_request(msp, "a", 0)
    orphan = append_request(msp, "a", 1)
    append_request(msp, "a", 2)
    msp.log.append(EosRecord("a", orphan_lsn=orphan))
    after = append_request(msp, "a", 3)
    flush_all(sim, msp)
    crash_restart(sim, msp)
    # Records in [orphan, EOS) are skipped; the one after EOS is kept.
    assert msp.sessions["a"].position_stream.positions() == [keep, after]


def test_scan_removes_ended_sessions():
    sim, msp = build_msp()
    append_request(msp, "gone", 0)
    msp.log.append(SessionEndRecord("gone"))
    append_request(msp, "alive", 0)
    flush_all(sim, msp)
    crash_restart(sim, msp)
    assert "gone" not in msp.sessions
    assert "alive" in msp.sessions


def test_scan_rolls_shared_variable_forward():
    sim, msp = build_msp()
    session = msp.session_for("a")
    prev = msp.shared["v"].last_write_lsn
    for value in (b"one", b"two", b"three"):
        record = SvWriteRecord("a", "v", value, DependencyVector(), prev_write_lsn=prev)
        lsn, size = msp.log.append(record)
        msp.shared["v"].apply_write(lsn, value, DependencyVector())
        session.account_record(lsn, size, msp.epoch)
        prev = lsn
    flush_all(sim, msp)
    crash_restart(sim, msp)
    assert msp.shared["v"].value == b"three"


def test_scan_loses_unflushed_writes():
    sim, msp = build_msp()
    session = msp.session_for("a")
    record = SvWriteRecord("a", "v", b"durable", DependencyVector())
    lsn, size = msp.log.append(record)
    msp.shared["v"].apply_write(lsn, b"durable", DependencyVector())
    session.account_record(lsn, size, msp.epoch)
    flush_all(sim, msp)
    record = SvWriteRecord("a", "v", b"volatile", DependencyVector(), prev_write_lsn=lsn)
    lsn2, size2 = msp.log.append(record)
    msp.shared["v"].apply_write(lsn2, b"volatile", DependencyVector())
    crash_restart(sim, msp)
    assert msp.shared["v"].value == b"durable"


def test_epoch_increments_per_recovery():
    sim, msp = build_msp()
    assert msp.epoch == 0
    crash_restart(sim, msp)
    assert msp.epoch == 1
    crash_restart(sim, msp)
    assert msp.epoch == 2
    # Own recovery history is tracked across epochs.
    assert msp.table.recovered_lsn("server", 0) is not None
    assert msp.table.recovered_lsn("server", 1) is not None


def test_recovered_number_is_durable_end():
    sim, msp = build_msp()
    append_request(msp, "a", 0)
    flush_all(sim, msp)
    durable = msp.store.durable_end
    append_request(msp, "a", 1)  # volatile
    crash_restart(sim, msp)
    assert msp.table.recovered_lsn("server", 0) == durable


def test_anchor_bounds_scan_start():
    """With checkpoints, the scan reads only the log suffix."""
    config = RecoveryConfig(
        session_ckpt_threshold=2048, msp_ckpt_interval_ms=1_000_000.0
    )
    sim = Simulator()
    rng = RngRegistry(0)
    net = Network(sim, rng=rng)
    msp = MiddlewareServer(sim, net, "server", ServiceDomainConfig(), config=config, rng=rng)
    msp.register_service("noop", lambda ctx, arg: iter(()))
    boot = msp.start_process()
    sim.run_until_process(boot, limit=60_000)

    from repro.core.checkpoint import perform_msp_checkpoint, take_session_checkpoint

    for i in range(50):
        append_request(msp, "a", i)
    flush_all(sim, msp)

    def ckpt():
        yield from take_session_checkpoint(msp, msp.sessions["a"])
        yield from perform_msp_checkpoint(msp)

    p = sim.spawn(ckpt())
    sim.run_until_process(p, limit=60_000)
    tail = [append_request(msp, "a", 50 + i) for i in range(3)]
    flush_all(sim, msp)
    crash_restart(sim, msp)
    # Only the 3 post-checkpoint records were scanned and reconstructed.
    assert msp.sessions["a"].position_stream.positions() == tail
    assert msp.stats.recovery_scan_records < 20
