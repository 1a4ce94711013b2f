"""Tests for session / shared-variable / fuzzy MSP checkpointing."""

import pytest

from repro.core import RecoveryConfig, ServiceDomainConfig
from repro.core.client import EndClient
from repro.core.msp import MiddlewareServer
from repro.core.records import (
    MspCheckpointRecord,
    SessionCheckpointRecord,
    SvCheckpointRecord,
)
from repro.net import Network
from repro.sim import RngRegistry, Simulator


def counter_method(ctx, argument):
    yield from ctx.compute(0.1)
    new = yield from ctx.update_shared(
        "total", lambda raw: (int.from_bytes(raw, "big") + 1).to_bytes(8, "big")
    )
    raw = yield from ctx.get_session_var("n")
    n = int.from_bytes(raw or b"\x00", "big") + 1
    yield from ctx.set_session_var("n", n.to_bytes(4, "big"))
    return n.to_bytes(4, "big")


def build(config=None, seed=0):
    sim = Simulator()
    rng = RngRegistry(seed)
    net = Network(sim, rng=rng)
    msp = MiddlewareServer(
        sim, net, "server", ServiceDomainConfig(), config=config or RecoveryConfig(), rng=rng
    )
    msp.register_service("counter", counter_method)
    msp.register_shared("total", (0).to_bytes(8, "big"))
    client = EndClient(sim, net, "client")
    return sim, msp, client


def drive(sim, msp, client, n):
    msp.start_process()
    session = client.open_session("server")
    results = []

    def driver():
        yield 1.0
        for _ in range(n):
            result = yield from session.call("counter", b"x" * 100)
            results.append(int.from_bytes(result.payload, "big"))

    p = sim.spawn(driver())
    sim.run_until_process(p, limit=600_000)
    return results, session


def records_of(msp, kind):
    found = []
    # Checkpoint-driven truncation recycles the log below the floor, so
    # walk only the live suffix.
    offset = msp.store.truncate_lsn
    while offset < msp.store.end:
        record, offset = msp.log.record_at(offset)
        if isinstance(record, kind):
            found.append(record)
    return found


def test_session_checkpoint_taken_at_threshold():
    config = RecoveryConfig(session_ckpt_threshold=4096)
    sim, msp, client = build(config=config)
    drive(sim, msp, client, 30)
    ckpts = records_of(msp, SessionCheckpointRecord)
    assert len(ckpts) >= 2
    assert msp.stats.session_checkpoints == len(ckpts)
    # Each checkpoint captured the session variables of the moment.
    assert all("n" in c.variables for c in ckpts)


def test_session_checkpoint_resets_threshold_accounting():
    config = RecoveryConfig(session_ckpt_threshold=4096)
    sim, msp, client = build(config=config)
    _, session = drive(sim, msp, client, 30)
    server_session = msp.sessions[session.id]
    assert server_session.bytes_since_ckpt < 4096


def test_sv_checkpoint_every_n_writes():
    config = RecoveryConfig(sv_ckpt_write_threshold=10)
    sim, msp, client = build(config=config)
    drive(sim, msp, client, 25)
    ckpts = records_of(msp, SvCheckpointRecord)
    assert len(ckpts) == 2
    # The checkpointed values are the values at write 10 and write 20.
    assert [int.from_bytes(c.value[:8], "big") for c in ckpts] == [10, 20]


def test_msp_checkpoint_daemon_advances_anchor():
    config = RecoveryConfig(msp_ckpt_interval_ms=50.0)
    sim, msp, client = build(config=config)
    drive(sim, msp, client, 20)
    anchors = records_of(msp, MspCheckpointRecord)
    assert len(anchors) >= 3
    final_anchor = msp.log.read_anchor()
    assert final_anchor is not None
    record, _ = msp.log.record_at(final_anchor)
    assert isinstance(record, MspCheckpointRecord)


def test_forced_checkpoint_for_idle_session():
    """An idle session gets force-checkpointed after N MSP checkpoints
    so the scan start keeps advancing (paper §3.4)."""
    config = RecoveryConfig(
        msp_ckpt_interval_ms=20.0,
        forced_ckpt_msp_count=3,
        session_ckpt_threshold=100 * 1024 * 1024,  # never by size
    )
    sim, msp, client = build(config=config)
    msp.start_process()
    session = client.open_session("server")

    def driver():
        yield 1.0
        yield from session.call("counter", b"")
        yield 200.0  # idle long enough for forced checkpoints

    p = sim.spawn(driver())
    sim.run_until_process(p, limit=600_000)
    assert msp.stats.forced_checkpoints >= 1
    assert msp.stats.session_checkpoints >= 1


def test_msp_checkpoint_min_lsn_bounds_scan():
    """After checkpoints, crash-recovery scans only the log suffix."""
    config = RecoveryConfig(
        session_ckpt_threshold=4096, msp_ckpt_interval_ms=50.0
    )
    sim, msp, client = build(config=config)
    results, session = drive(sim, msp, client, 40)
    log_size = msp.store.durable_end
    msp.crash()
    boot = msp.restart_process()
    sim.run_until_process(boot, limit=600_000)
    # The analysis scan read far less than the whole log.
    scanned = msp.stats.recovery_scan_records
    total_records = msp.log.stats.appended_records
    assert scanned > 0

    def driver():
        yield 500.0
        result = yield from session.call("counter", b"")
        return int.from_bytes(result.payload, "big")

    p = sim.spawn(driver())
    sim.run_until_process(p, limit=600_000)
    assert p.result == 41  # exactly-once across the crash


def test_checkpoint_truncates_log_to_anchored_min_lsn():
    """Each anchored MSP checkpoint advances the truncation floor to its
    own minimal LSN and recycles the segments below it."""
    config = RecoveryConfig(
        session_ckpt_threshold=4096,
        msp_ckpt_interval_ms=50.0,
        sv_ckpt_write_threshold=8,
        log_segment_bytes=2048,
    )
    sim, msp, client = build(config=config)
    drive(sim, msp, client, 40)
    store = msp.store
    anchor = msp.log.read_anchor()
    assert anchor is not None
    record, _ = msp.log.record_at(anchor)
    assert isinstance(record, MspCheckpointRecord)
    assert [store.truncate_lsn] == record.partition_floors(anchor)
    assert store.recycled_segments > 0
    assert store.live_bytes < store.end


def test_truncation_disabled_keeps_whole_log():
    config = RecoveryConfig(
        session_ckpt_threshold=4096,
        msp_ckpt_interval_ms=50.0,
        sv_ckpt_write_threshold=8,
        log_segment_bytes=2048,
        log_truncation=False,
    )
    sim, msp, client = build(config=config)
    drive(sim, msp, client, 40)
    store = msp.store
    assert store.truncate_lsn == 0
    assert store.recycled_segments == 0
    assert store.live_bytes == store.end
    # The whole log stays readable from offset 0.
    assert records_of(msp, MspCheckpointRecord)


def test_crash_before_anchor_flush_keeps_previous_floor():
    """A checkpoint whose anchor was staged but not yet durable must not
    advance the floor past what the *previous* durable anchor justifies:
    recovery reads the old anchor, so the old minimal LSN must be readable."""
    config = RecoveryConfig(
        session_ckpt_threshold=4096,
        msp_ckpt_interval_ms=50.0,
        sv_ckpt_write_threshold=8,
        log_segment_bytes=2048,
    )
    sim, msp, client = build(config=config)
    drive(sim, msp, client, 40)
    floor_before = msp.store.truncate_lsn
    # Stage a new (higher) anchor without flushing it, then crash.
    msp.store.write_anchor(msp.store.durable_end.to_bytes(8, "big"))
    msp.crash()
    # The floor is whatever the last *anchored* checkpoint justified.
    assert msp.store.truncate_lsn == floor_before
    boot = msp.restart_process()
    sim.run_until_process(boot, limit=600_000)
    anchor = msp.log.read_anchor()
    record, _ = msp.log.record_at(anchor)
    assert record.partition_floors(anchor)[0] >= floor_before


def test_recovery_from_checkpoint_equals_full_replay():
    """Checkpoint equivalence: state recovered via checkpoint + suffix
    replay matches state recovered by full replay."""
    outcomes = {}
    for threshold in (2048, None):
        config = RecoveryConfig(session_ckpt_threshold=threshold)
        sim, msp, client = build(config=config)
        results, session = drive(sim, msp, client, 25)
        msp.crash()
        msp.restart_process()

        def driver():
            yield 500.0
            result = yield from session.call("counter", b"")
            return int.from_bytes(result.payload, "big")

        p = sim.spawn(driver())
        sim.run_until_process(p, limit=600_000)
        outcomes[threshold] = (
            p.result,
            int.from_bytes(msp.shared["total"].value, "big"),
        )
    assert outcomes[2048] == outcomes[None] == (26, 26)
