"""Command logging (DESIGN.md §16) unit tests.

Covers the pieces the end-to-end suites exercise only indirectly:

- :class:`SharedVariable` command bookkeeping — the ``(lsn, ordinal)``
  frontier pairs, the ``uncaptured_commands`` seal, the in-memory undo
  history and its interaction with orphan rollback;
- command replay re-execution — the frontier guard that makes re-applies
  idempotent, and divergence detection when a handler violates the
  determinism contract (raises instead of silently corrupting state);
- the regime barrier — a value-logged write on a variable carrying
  unlogged command effects checkpoints it first;
- the session checkpoint's mode byte — a log written under one logging
  mode is refused by an MSP recovering under the other.
"""

import pytest

from repro.core import RecoveryConfig, ServiceDomainConfig
from repro.core.client import EndClient
from repro.core.context import ServiceContext
from repro.core.dv import DependencyVector, RecoveryTable, StateId
from repro.core.errors import SessionProtocolError
from repro.core.msp import MiddlewareServer
from repro.core.records import NO_LSN, CommandRecord, SvWriteRecord
from repro.core.replay import run_session_recovery
from repro.core.shared_variable import SharedVariable
from repro.net import Network
from repro.sim import RngRegistry, Simulator


def build_msp(logging_mode="command"):
    sim = Simulator()
    rng = RngRegistry(0)
    net = Network(sim, rng=rng)
    msp = MiddlewareServer(
        sim,
        net,
        "server",
        ServiceDomainConfig(),
        config=RecoveryConfig(logging_mode=logging_mode),
        rng=rng,
    )
    msp.register_shared("v", b"init")
    msp.register_shared("w", b"init")
    msp.register_shared("total", b"")
    boot = msp.start_process()
    sim.run_until_process(boot, limit=60_000)
    return sim, msp


def drive(gen):
    """Exhaust a sim generator synchronously, returning its value."""
    try:
        while True:
            next(gen)
    except StopIteration as stop:
        return stop.value


# -- SharedVariable bookkeeping -------------------------------------------


def test_apply_command_write_tracks_frontier_not_chain():
    sim = Simulator()
    sv = SharedVariable(sim, "v", b"0")
    dv = DependencyVector()
    dv.observe("MSP1", StateId(0, 10))

    sv.apply_command_write(100, 0, b"1", dv, "s")
    assert sv.value == b"1"
    assert sv.command_frontier == {"s": (100, 0)}
    assert sv.uncaptured_commands
    # No record backs the apply: the backward chain must be untouched.
    assert sv.last_write_lsn == NO_LSN
    assert sv.live_chain_floors == {}
    assert len(sv.history) == 1

    # A second apply from the same command advances the ordinal half.
    sv.apply_command_write(100, 1, b"2", dv, "s")
    assert sv.command_frontier == {"s": (100, 1)}
    assert len(sv.history) == 2


def test_apply_checkpoint_seals_command_effects():
    sim = Simulator()
    sv = SharedVariable(sim, "v", b"0")
    sv.apply_command_write(100, 0, b"1", DependencyVector(), "s")

    sv.apply_checkpoint(200)
    assert not sv.uncaptured_commands
    # The checkpoint captured the frontier: rollback past the history
    # reverts to it, not to empty.
    assert sv.base[4] == {"s": (100, 0)}
    assert sv.command_frontier == {"s": (100, 0)}
    assert sv.history == []
    assert sv.last_ckpt_lsn == 200


def test_rollback_pops_orphan_history_tail():
    sim = Simulator()
    sv = SharedVariable(sim, "v", b"0")
    clean_dv = DependencyVector()  # no dependencies: never an orphan
    orphan_dv = DependencyVector()
    orphan_dv.observe("OTHER", StateId(0, 500))

    sv.apply_command_write(100, 0, b"clean", clean_dv, "s")
    sv.apply_command_write(110, 0, b"poisoned", orphan_dv, "s2")

    table = RecoveryTable()
    table.record("OTHER", 0, 400)  # epoch 0 recovered to 400: LSN 500 lost

    hops = sv.roll_back(table)
    assert hops == 1
    assert sv.value == b"clean"
    assert sv.command_frontier == {"s": (100, 0)}
    assert sv.uncaptured_commands
    # The surviving snapshot stays on the stack for future rollbacks.
    assert len(sv.history) == 1


def test_rollback_exhausted_history_reverts_to_frontier_floor():
    sim = Simulator()
    sv = SharedVariable(sim, "v", b"genesis")
    sv.apply_command_write(90, 0, b"captured", DependencyVector(), "s")
    sv.apply_checkpoint(95)

    orphan_dv = DependencyVector()
    orphan_dv.observe("OTHER", StateId(0, 500))
    sv.apply_command_write(100, 0, b"poisoned", orphan_dv, "s2")
    sv.apply_command_write(100, 1, b"poisoned twice", orphan_dv, "s2")
    assert sv.command_frontier == {"s": (90, 0), "s2": (100, 1)}

    table = RecoveryTable()
    table.record("OTHER", 0, 400)

    # Every snapshot is an orphan: the base — the checkpoint's value
    # *and* the frontier it captured — comes back, not the initial value.
    assert sv.roll_back(table) == 2
    assert sv.value == b"captured"
    assert sv.command_frontier == {"s": (90, 0)}
    assert sv.state_lsn == sv.last_write_lsn == 95
    assert not sv.uncaptured_commands
    assert not sv.dv and sv.history == []


# -- command replay ----------------------------------------------------------


def _log_command(msp, session, method="m", argument=b""):
    record = CommandRecord(session.id, 0, method, argument, sender_dv=None)
    lsn, size = msp.log.append(record)
    session.account_record(lsn, size, msp.epoch)
    return lsn


def test_command_replay_reexecutes_rmw():
    sim, msp = build_msp()

    def handler(ctx, argument):
        yield from ctx.update_shared("total", lambda v: v + b"!")
        return b"ok"

    msp.register_service("m", handler)
    session = msp.session_for("s")
    cmd_lsn = _log_command(msp, session)

    p = sim.spawn(run_session_recovery(msp, session, orphan=False))
    sim.run_until_process(p, limit=120_000)
    p.result  # raises if replay failed

    sv = msp.shared["total"]
    assert sv.value == b"!"
    assert sv.command_frontier == {"s": (cmd_lsn, 0)}
    assert session.buffered_reply == b"ok"
    assert session.buffered_reply_seq == 0
    assert session.next_expected_seq == 1
    assert msp.stats.replayed_commands == 1


def test_command_replay_skips_captured_applies():
    """An apply the recovered frontier covers must not run twice."""
    sim, msp = build_msp()

    def handler(ctx, argument):
        yield from ctx.update_shared("total", lambda v: v + b"!")
        return b"ok"

    msp.register_service("m", handler)
    session = msp.session_for("s")
    cmd_lsn = _log_command(msp, session)

    # Simulate a checkpoint that captured the original apply.
    sv = msp.shared["total"]
    sv.value = b"!"
    sv.command_frontier["s"] = (cmd_lsn, 0)

    p = sim.spawn(run_session_recovery(msp, session, orphan=False))
    sim.run_until_process(p, limit=120_000)
    p.result

    assert sv.value == b"!"  # not b"!!": the re-apply was a no-op
    assert session.buffered_reply == b"ok"


def test_nondeterministic_handler_raises_divergence():
    """A handler whose replay takes a different path must raise, not
    silently diverge (the §16 determinism contract is checked)."""
    sim, msp = build_msp()
    target = {"name": "v"}

    def handler(ctx, argument):
        yield from ctx.write_shared(target["name"], b"out")
        return b"ok"

    msp.register_service("m", handler)
    session = msp.session_for("s")
    _log_command(msp, session)
    # The original execution wrote "v" (plain writes stay value-logged
    # even under command mode).
    record = SvWriteRecord("s", "v", b"out", DependencyVector())
    lsn, size = msp.log.append(record)
    session.account_record(lsn, size, msp.epoch)

    target["name"] = "w"  # nondeterminism: replay writes elsewhere
    p = sim.spawn(run_session_recovery(msp, session, orphan=False))
    sim.run_until_process(p, limit=120_000)
    with pytest.raises(SessionProtocolError, match="divergence"):
        p.result


def test_nondeterministic_handler_skipping_access_raises():
    """Replay that performs fewer accesses than logged leaves a stale
    record at the request boundary — also detected."""
    sim, msp = build_msp()
    do_write = {"flag": True}

    def handler(ctx, argument):
        if do_write["flag"]:
            yield from ctx.write_shared("v", b"out")
        yield from ctx.compute(0.01)
        return b"ok"

    msp.register_service("m", handler)
    session = msp.session_for("s")
    _log_command(msp, session)
    record = SvWriteRecord("s", "v", b"out", DependencyVector())
    lsn, size = msp.log.append(record)
    session.account_record(lsn, size, msp.epoch)

    do_write["flag"] = False
    p = sim.spawn(run_session_recovery(msp, session, orphan=False))
    sim.run_until_process(p, limit=120_000)
    with pytest.raises(SessionProtocolError, match="expected a request record"):
        p.result


def test_session_checkpoint_seals_command_effects_before_truncation():
    """Regression (found by the command-mode fuzz battery): a session
    checkpoint used to truncate the replay stream past CommandRecords
    whose SV effects no checkpoint had captured — after the next crash
    the commands were never re-executed and the effects silently lost.
    The checkpoint must seal touched variables first."""
    sim = Simulator()
    rng = RngRegistry(0)
    net = Network(sim, rng=rng)
    config = RecoveryConfig(
        logging_mode="command", session_ckpt_threshold=64
    )
    msp = MiddlewareServer(
        sim, net, "server", ServiceDomainConfig(), config=config, rng=rng
    )

    def bump(ctx, argument):
        yield from ctx.update_shared(
            "total",
            lambda raw: (int.from_bytes(raw, "big") + 1).to_bytes(8, "big"),
        )
        return b"ok"

    msp.register_service("bump", bump)
    msp.register_shared("total", (0).to_bytes(8, "big"))
    msp.start_process()
    client = EndClient(sim, net, "client")
    session = client.open_session("server")

    def driver():
        yield 1.0
        for _ in range(6):
            yield from session.call("bump", b"")

    p = sim.spawn(driver())
    sim.run_until_process(p, limit=600_000)
    # The tiny threshold made the truncation actually happen pre-crash.
    assert msp.stats.session_checkpoints > 0
    msp.crash()
    msp.restart_process()

    def after():
        yield 1.0
        yield from session.call("bump", b"")

    p2 = sim.spawn(after())
    sim.run_until_process(p2, limit=600_000)
    p2.result
    assert int.from_bytes(msp.shared["total"].value, "big") == 7


# -- the regime barrier ------------------------------------------------------


def test_value_write_seals_uncaptured_commands_first():
    # A plain write is value-logged in command mode too: only RMWs are
    # commands.
    sim, msp = build_msp()
    sv = msp.shared["v"]
    sv.apply_command_write(5, 0, b"cmd-effect", DependencyVector(), "cmd-sess")
    assert sv.uncaptured_commands

    session = msp.session_for("writer")
    ctx = ServiceContext(msp, session)

    def run():
        yield from ctx.write_shared("v", b"after")

    p = sim.spawn(run())
    sim.run_until_process(p, limit=60_000)
    p.result

    assert sv.value == b"after"
    assert not sv.uncaptured_commands
    # The barrier forced an SV checkpoint before the value write, so the
    # command effect is captured under it, frontier and all.
    assert sv.last_ckpt_lsn is not None
    assert sv.base[4] == {"cmd-sess": (5, 0)}


# -- the mode byte -------------------------------------------------------------


@pytest.mark.parametrize("written, recovering", [("value", "command"), ("command", "value")])
def test_checkpoint_from_the_other_logging_mode_fails_replay(written, recovering):
    """The logging mode is the MSP's: a session checkpoint records the
    mode that wrote it, and replay under the other mode refuses the log
    instead of misreading its suffix."""
    sim, msp = build_msp(logging_mode=recovering)
    session = msp.session_for("s")
    lsn, _size = msp.log.append(session.build_checkpoint(written))
    session.account_checkpoint(lsn)

    p = sim.spawn(run_session_recovery(msp, session, orphan=False))
    sim.run_until_process(p, limit=60_000)
    with pytest.raises(SessionProtocolError, match=f"logged in {written} mode"):
        p.result
    assert msp.failed_replays == 1
