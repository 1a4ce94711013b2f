"""Lazy on-demand session recovery (DESIGN.md §15): interleavings.

The hand-picked schedules ISSUE 7 names: a request arriving for a
session the background pump is mid-replay on, a duplicate request for a
session still being recovered inline, and a chain head pointing below
the truncation floor (which must raise, never serve stale state).  The
broad schedule space is covered by the fuzz battery and the hypothesis
equivalence tests; these pin the specific races.
"""

import pytest

from repro.core import RecoveryConfig, ServiceDomainConfig
from repro.core.client import EndClient
from repro.core.crash_recovery import walk_session_chain
from repro.core.msp import MiddlewareServer
from repro.core.records import NO_LSN
from repro.core.session import SessionStatus
from repro.net import Network
from repro.sim import RngRegistry, Simulator
from repro.storage import LogTruncatedError


def counter_method(ctx, argument):
    yield from ctx.compute(0.2)
    raw = yield from ctx.get_session_var("count")
    count = int.from_bytes(raw or b"\x00", "big") + 1
    yield from ctx.set_session_var("count", count.to_bytes(4, "big"))
    shared_raw = yield from ctx.read_shared("total")
    total = int.from_bytes(shared_raw, "big") + 1
    yield from ctx.write_shared("total", total.to_bytes(8, "big"))
    return count.to_bytes(4, "big")


def lazy_config(**overrides):
    config = RecoveryConfig(recovery_mode="lazy")
    for key, value in overrides.items():
        setattr(config, key, value)
    return config


def build_world(seed=0, config=None, n_clients=1):
    sim = Simulator()
    rng = RngRegistry(seed)
    net = Network(sim, rng=rng)
    domains = ServiceDomainConfig()
    msp = MiddlewareServer(
        sim, net, "msp1", domains, config=config or lazy_config(), rng=rng
    )
    msp.register_service("counter", counter_method)
    msp.register_shared("total", (0).to_bytes(8, "big"))
    clients = [EndClient(sim, net, f"client{i}") for i in range(n_clients)]
    return sim, net, msp, clients


def drive(sim, msp, clients, n_calls, crash_after_calls=()):
    """Each client runs ``n_calls`` on its own session; crash the MSP
    after the first client's i-th call for each i in the crash set.
    Runs until every driver finishes (not a fixed horizon, so the
    checkpoint daemons do not keep mutating state afterwards)."""
    msp.start_process()
    sessions = [c.open_session("msp1") for c in clients]
    results = [[] for _ in clients]

    def driver(idx):
        def process():
            yield 1.0
            for i in range(n_calls):
                result = yield from sessions[idx].call("counter", b"")
                results[idx].append(int.from_bytes(result.payload, "big"))
                if idx == 0 and (i + 1) in crash_after_calls:
                    msp.crash()
                    msp.restart_process()

        return process()

    procs = [sim.spawn(driver(idx)) for idx in range(len(clients))]
    for proc in procs:
        sim.run_until_process(proc, limit=1_200_000)
    return results


def settle(sim, msp):
    """Run until the pump has drained every lazy-pending session."""
    def idle():
        for _ in range(200):
            if not any(s.lazy_pending for s in msp.sessions.values()):
                return
            yield 50.0

    p = sim.spawn(idle())
    sim.run_until_process(p, limit=sim.now + 600_000)


# -- basic lazy crash/restart -------------------------------------------------


def test_lazy_crash_restart_is_exactly_once():
    sim, _net, msp, clients = build_world()
    results = drive(sim, msp, clients, 10, crash_after_calls={3, 7})
    assert results[0] == list(range(1, 11))
    total = int.from_bytes(msp.shared["total"].value, "big")
    assert total == 10
    assert msp.stats.lazy_recoveries >= 1
    assert msp.stats.served_before_recovery == 0


def test_lazy_multi_session_pump_drains_all():
    sim, _net, msp, clients = build_world(n_clients=4)
    results = drive(sim, msp, clients, 6, crash_after_calls={3})
    for r in results:
        assert r == list(range(1, 7))
    settle(sim, msp)
    assert not any(s.lazy_pending for s in msp.sessions.values())
    assert all(
        s.status is SessionStatus.NORMAL for s in msp.sessions.values()
    )
    # Four sessions were pending; the pump (or an arriving request)
    # recovered each exactly once.
    assert msp.stats.lazy_recoveries >= 4
    assert msp.stats.served_before_recovery == 0


# -- inline recovery: a request beats the pump --------------------------------


def test_request_for_unrecovered_session_recovers_inline(monkeypatch):
    """With the pump stubbed out, the only path back to NORMAL is the
    inline hook in ``_handle_request`` — the arriving resend must
    trigger the chain replay and then answer exactly-once."""
    import repro.core.crash_recovery as cr

    monkeypatch.setattr(cr, "spawn_recovery_pump", lambda msp: None)
    sim, _net, msp, clients = build_world()
    results = drive(sim, msp, clients, 8, crash_after_calls={4})
    assert results[0] == list(range(1, 9))
    assert msp.stats.inline_recoveries >= 1
    assert msp.stats.pump_recoveries == 0
    assert msp.stats.served_before_recovery == 0


def test_duplicate_request_during_inline_replay_gets_busy(monkeypatch):
    """Two requests for the same unrecovered session: the first claims
    the session and replays it inline; the client's resend (the second
    request) sees RECOVERING and is answered busy, then retried."""
    import repro.core.crash_recovery as cr

    monkeypatch.setattr(cr, "spawn_recovery_pump", lambda msp: None)
    # Make the replayed chain long (no session checkpoints) and the
    # client impatient, so resends land mid-replay.
    config = lazy_config(session_ckpt_threshold_bytes=None)
    sim, _net, msp, clients = build_world(config=config)
    clients[0].resend_timeout_ms = 5.0
    results = drive(sim, msp, clients, 30, crash_after_calls={25})
    assert results[0] == list(range(1, 31))
    assert msp.stats.inline_recoveries >= 1
    assert msp.stats.served_before_recovery == 0


# -- request arrives while the pump is mid-replay -----------------------------


def test_request_during_pump_replay_is_busy_then_served():
    """The pump claims S and is mid-replay when S's next request
    arrives: the request must not slip in (busy reply), and the resend
    is served from fully recovered state."""
    config = lazy_config(session_ckpt_threshold_bytes=None)
    sim, _net, msp, clients = build_world(config=config)
    clients[0].resend_timeout_ms = 5.0
    busy_before = msp.stats.busy_replies
    results = drive(sim, msp, clients, 40, crash_after_calls={35})
    assert results[0] == list(range(1, 41))
    assert msp.stats.lazy_recoveries >= 1
    assert msp.stats.served_before_recovery == 0
    # The claim raced with live traffic at least once: some request hit
    # a RECOVERING session and was turned away rather than served early.
    assert msp.stats.busy_replies > busy_before


# -- chain head below the truncation floor ------------------------------------


def test_chain_below_truncation_floor_raises():
    """A chain head pointing below the truncation floor must raise
    ``LogTruncatedError`` — never serve stale (partially replayed)
    state.  The floor only ever advances over state captured by a
    checkpoint, so this is unreachable in a correct log; the walk still
    refuses rather than trusting the caller."""
    sim, _net, msp, clients = build_world()
    results = drive(sim, msp, clients, 6)
    assert results[0] == list(range(1, 7))
    session = next(iter(msp.sessions.values()))
    assert session.chain_lsn != NO_LSN
    # Recycle everything durable, stranding the chain below the floor.
    unit = msp.log.partitions[0]
    assert unit.store.truncate(unit.store.durable_end) >= 0
    walk = walk_session_chain(msp, session, session.chain_lsn)
    with pytest.raises(LogTruncatedError):
        for _ in walk:
            pass


# -- stats and counters -------------------------------------------------------


def test_lazy_stats_partition_into_inline_and_pump():
    sim, _net, msp, clients = build_world(n_clients=3)
    drive(sim, msp, clients, 6, crash_after_calls={2, 4})
    settle(sim, msp)
    stats = msp.stats
    assert stats.lazy_recoveries == stats.inline_recoveries + stats.pump_recoveries
    assert stats.served_before_recovery == 0


def test_eager_mode_never_counts_lazy_recoveries():
    sim, _net, msp, clients = build_world(config=RecoveryConfig())
    results = drive(sim, msp, clients, 8, crash_after_calls={4})
    assert results[0] == list(range(1, 9))
    assert msp.stats.lazy_recoveries == 0
    assert msp.stats.inline_recoveries == 0
    assert msp.stats.pump_recoveries == 0
