"""Unit tests for replay: divergence detection, going live mid-method.

These drive a ServiceContext with a replay cursor directly against
hand-built logs to pin down the §4.1 replay rules without a full
two-MSP scenario.
"""

import pytest

from repro.core import RecoveryConfig, ServiceDomainConfig
from repro.core.context import ReplayCursor, ServiceContext
from repro.core.errors import SessionProtocolError
from repro.core.msp import MiddlewareServer
from repro.core.config import COSTS
from repro.core.records import (
    EosRecord,
    ReplyRecord,
    SvReadRecord,
    SvUpdateRecord,
    SvWriteRecord,
)
from repro.core.dv import DependencyVector, StateId
from repro.net import Network
from repro.sim import RngRegistry, Simulator


def build_msp():
    sim = Simulator()
    rng = RngRegistry(0)
    net = Network(sim, rng=rng)
    msp = MiddlewareServer(
        sim, net, "server", ServiceDomainConfig(), config=RecoveryConfig(), rng=rng
    )
    msp.register_shared("v", b"init")
    boot = msp.start_process()
    sim.run_until_process(boot, limit=60_000)
    return sim, msp


def test_replay_read_returns_logged_value():
    sim, msp = build_msp()
    session = msp.session_for("s")
    # Log a read record with a specific historical value.
    record = SvReadRecord("s", "v", b"historical", DependencyVector())
    lsn, size = msp.log.append(record)
    session.account_record(lsn, size, msp.epoch)

    cursor = ReplayCursor(msp, list(session.position_stream.positions()))
    ctx = ServiceContext(msp, session, cursor)

    def run():
        value = yield from ctx.read_shared("v")
        return value

    p = sim.spawn(run())
    sim.run_until_process(p, limit=10_000)
    # The live variable holds b"init", but replay reads the log.
    assert p.result == b"historical"
    assert msp.shared["v"].value == b"init"


def test_replay_write_is_skipped():
    sim, msp = build_msp()
    session = msp.session_for("s")
    record = SvWriteRecord("s", "v", b"old-write", DependencyVector())
    lsn, size = msp.log.append(record)
    session.account_record(lsn, size, msp.epoch)

    cursor = ReplayCursor(msp, list(session.position_stream.positions()))
    ctx = ServiceContext(msp, session, cursor)

    def run():
        yield from ctx.write_shared("v", b"whatever")

    p = sim.spawn(run())
    sim.run_until_process(p, limit=10_000)
    p.result  # raises if the replay failed
    # The live variable is untouched: the variable recovers separately.
    assert msp.shared["v"].value == b"init"


def test_replay_divergence_raises():
    """The log says 'read v' but the method writes: nondeterminism bug."""
    sim, msp = build_msp()
    session = msp.session_for("s")
    record = SvReadRecord("s", "v", b"x", DependencyVector())
    lsn, size = msp.log.append(record)
    session.account_record(lsn, size, msp.epoch)

    cursor = ReplayCursor(msp, list(session.position_stream.positions()))
    ctx = ServiceContext(msp, session, cursor)

    def run():
        yield from ctx.write_shared("v", b"boom")

    p = sim.spawn(run())
    sim.run_until_process(p, limit=10_000)
    with pytest.raises(SessionProtocolError, match="divergence"):
        p.result


def test_replay_switches_to_normal_when_stream_exhausted():
    sim, msp = build_msp()
    session = msp.session_for("s")
    cursor = ReplayCursor(msp, [])
    ctx = ServiceContext(msp, session, cursor)
    assert ctx.is_replay

    def run():
        value = yield from ctx.read_shared("v")
        return value

    p = sim.spawn(run())
    sim.run_until_process(p, limit=10_000)
    # Stream empty: the read ran live against the real variable.
    assert p.result == b"init"
    assert not ctx.is_replay


def test_replay_session_vars_behave_normally():
    sim, msp = build_msp()
    session = msp.session_for("s")
    cursor = ReplayCursor(msp, [])
    ctx = ServiceContext(msp, session, cursor)

    def run():
        yield from ctx.set_session_var("k", b"1")
        value = yield from ctx.get_session_var("k")
        return value

    p = sim.spawn(run())
    sim.run_until_process(p, limit=10_000)
    assert p.result == b"1"
    assert session.variables["k"] == b"1"


def test_normal_context_reports_not_replay():
    sim, msp = build_msp()
    session = msp.session_for("s")
    ctx = ServiceContext(msp, session)
    assert ctx.is_replay is False
    assert ctx.session_id == "s"


def log_for(msp, session, *records):
    """Append ``records`` as ``session``'s and return their LSNs."""
    lsns = []
    for record in records:
        lsn, size = msp.log.append(record)
        session.account_record(lsn, size, msp.epoch)
        lsns.append(lsn)
    return lsns


def replay_context(msp, session):
    cursor = ReplayCursor(msp, list(session.position_stream.positions()))
    return ServiceContext(msp, session, cursor)


def run_to_end(sim, gen):
    p = sim.spawn(gen)
    sim.run_until_process(p, limit=sim.now + 10_000)
    return p.result


def record_charges(msp):
    """Record every CPU charge and every lock acquisition on ``v``."""
    charges, locks = [], []
    cpu = msp.cpu

    def charging(ms):
        charges.append(ms)
        yield from cpu(ms)

    msp.cpu = charging
    lock = msp.shared["v"].lock
    for mode in ("acquire_read", "acquire_write"):
        acquire = getattr(lock, mode)

        def acquiring(acquire=acquire, mode=mode):
            locks.append(mode)
            yield from acquire()

        setattr(lock, mode, acquiring)
    return charges, locks


@pytest.mark.parametrize(
    "operation, factor",
    [("read", 1), ("write", 0), ("update", 2), ("call", 1)],
)
def test_replayed_access_charges_dv_tracking_only_and_takes_no_lock(operation, factor):
    """A replayed read, RMW or call charges 1x, 2x or 1x the DV-tracking
    CPU and a replayed write nothing; none touches the variable's lock."""
    sim, msp = build_msp()
    session = msp.session_for("s")
    record = {
        "read": SvReadRecord("s", "v", b"logged", DependencyVector()),
        "write": SvWriteRecord("s", "v", b"logged", DependencyVector()),
        "update": SvUpdateRecord(
            "s", "v", b"logged", b"logged!", DependencyVector(), DependencyVector()
        ),
        "call": ReplyRecord("s", "s>peer", 0, b"logged"),
    }[operation]
    log_for(msp, session, record)
    ctx = replay_context(msp, session)
    charges, locks = record_charges(msp)
    access = {
        "read": lambda: ctx.read_shared("v"),
        "write": lambda: ctx.write_shared("v", b"new"),
        "update": lambda: ctx.update_shared("v", lambda old: old + b"!"),
        "call": lambda: ctx.call("peer", "m", b""),
    }[operation]

    result = run_to_end(sim, access())
    assert result == {"read": b"logged", "write": None, "update": b"logged!", "call": b"logged"}[
        operation
    ]
    assert charges == ([COSTS.dv_track_ms * factor] if factor else [])
    assert locks == []
    assert ctx.is_replay
    assert msp.shared["v"].value == b"init"


def test_replay_call_divergence_on_a_wrong_reply_seq():
    sim, msp = build_msp()
    session = msp.session_for("s")
    log_for(msp, session, ReplyRecord("s", "s>peer", 3, b"late"))
    ctx = replay_context(msp, session)
    with pytest.raises(SessionProtocolError, match="divergence"):
        run_to_end(sim, ctx.call("peer", "m", b""))
    assert session.outgoing_to("peer").next_seq == 0


def test_replay_update_divergence_on_a_wrong_record_kind():
    sim, msp = build_msp()
    session = msp.session_for("s")
    log_for(msp, session, SvReadRecord("s", "v", b"x", DependencyVector()))
    ctx = replay_context(msp, session)
    with pytest.raises(SessionProtocolError, match="divergence"):
        run_to_end(sim, ctx.update_shared("v", lambda old: old + b"!"))


def test_orphan_reply_mid_method_writes_eos_and_the_rest_runs_live():
    """The orphan log record is a reply the method reaches after a
    replayed read: EOS is written at its LSN, the position stream is
    cut there, and the call and everything after it run live."""
    sim = Simulator()
    rng = RngRegistry(0)
    net = Network(sim, rng=rng)
    domains = ServiceDomainConfig([["server", "peer"]])
    msp = MiddlewareServer(sim, net, "server", domains, config=RecoveryConfig(), rng=rng)
    peer = MiddlewareServer(sim, net, "peer", domains, config=RecoveryConfig(), rng=rng)
    msp.register_shared("v", b"init")

    def echo(ctx, argument):
        yield from ctx.compute(0.1)
        return b"live:" + argument

    peer.register_service("echo", echo)
    for server in (msp, peer):
        sim.run_until_process(server.start_process(), limit=sim.now + 60_000)

    # The logged reply depends on a state of "ghost" its recovery lost.
    lost = DependencyVector()
    lost.observe("ghost", StateId(0, 100))
    msp.table.record("ghost", 0, 50)
    session = msp.session_for("s")
    read_lsn, orphan_lsn = log_for(
        msp,
        session,
        SvReadRecord("s", "v", b"historical", DependencyVector()),
        ReplyRecord("s", "s>peer", 0, b"logged", sender_dv=lost),
    )
    ctx = replay_context(msp, session)
    appended = []
    append = msp.log.append

    def recording(record):
        appended.append(record)
        return append(record)

    msp.log.append = recording

    def method():
        value = yield from ctx.read_shared("v")
        assert ctx.is_replay
        reply = yield from ctx.call("peer", "echo", b"x")
        after = yield from ctx.read_shared("v")
        return value, reply, after

    assert run_to_end(sim, method()) == (b"historical", b"live:x", b"init")
    assert not ctx.is_replay
    eos = [r for r in appended if isinstance(r, EosRecord)]
    assert eos == [EosRecord("s", orphan_lsn=orphan_lsn)]
    # The stream is cut at the orphan; the live reply and read follow.
    positions = list(session.position_stream.positions())
    assert positions[0] == read_lsn and orphan_lsn not in positions
    assert [type(r) for r in appended[1:]] == [ReplyRecord, SvReadRecord]
    assert session.outgoing_to("peer").next_seq == 1
