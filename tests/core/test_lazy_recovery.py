"""Lazy on-demand session recovery (DESIGN.md §15): interleavings.

The hand-picked schedules ISSUE 7 names: a request arriving for a
session the background pump is mid-replay on, a duplicate request for a
session still being recovered inline, and a position stream lying below
the truncation floor (which must raise, never serve stale state).  The
broad schedule space is covered by the fuzz battery and the hypothesis
equivalence tests; these pin the specific races — and what ``lazy`` is
since the per-session backward chain left: a worker count for the one
drain both modes run, not a log format and not a second code path.
"""

import pytest

from repro.core import RecoveryConfig, ServiceDomainConfig
from repro.core.client import EndClient
from repro.core.crash_recovery import recover_session
from repro.core.msp import MiddlewareServer
from repro.core.session import SessionStatus
from repro.net import Network
from repro.sim import RngRegistry, Simulator
from repro.storage import LogTruncatedError
from repro.trace import Tracer


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
    """Run until the MSP is up and every rebuilt session is replayed."""
    def idle():
        for _ in range(200):
            if msp.running and not any(
                s.lazy_pending or s.recovery_pending for s in msp.sessions.values()
            ):
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
    assert msp.stats.inline_recoveries + msp.stats.pump_recoveries >= 1
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
    assert msp.stats.inline_recoveries + msp.stats.pump_recoveries >= 4
    assert msp.stats.served_before_recovery == 0


# -- inline recovery: a request beats the pump --------------------------------


def test_request_for_unrecovered_session_recovers_inline(monkeypatch):
    """With the drain stubbed out, the only path back to NORMAL is the
    inline hook in ``_handle_request`` — the arriving resend must
    trigger the replay and then answer exactly-once."""
    import repro.core.crash_recovery as cr

    monkeypatch.setattr(cr, "drain", lambda msp, state: None)
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

    monkeypatch.setattr(cr, "drain", lambda msp, state: None)
    # Make the replayed stream long (no session checkpoints) and the
    # client impatient, so resends land mid-replay.
    config = lazy_config(session_ckpt_threshold=None)
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
    config = lazy_config(session_ckpt_threshold=None)
    sim, _net, msp, clients = build_world(config=config)
    clients[0].resend_timeout_ms = 5.0
    busy_before = msp.stats.busy_replies
    results = drive(sim, msp, clients, 40, crash_after_calls={35})
    assert results[0] == list(range(1, 41))
    assert msp.stats.pump_recoveries >= 1
    assert msp.stats.served_before_recovery == 0
    # The claim raced with live traffic at least once: some request hit
    # a RECOVERING session and was turned away rather than served early.
    assert msp.stats.busy_replies > busy_before


# -- position stream below the truncation floor -------------------------------


def test_chain_below_truncation_floor_raises(monkeypatch):
    """A pending session whose position stream lies below the truncation
    floor must raise ``LogTruncatedError`` — never serve stale
    (partially replayed) state.  The floor only ever advances over state
    captured by a checkpoint, so this is unreachable in a correct log;
    the replay's window reader still refuses rather than trusting the
    caller."""
    import repro.core.crash_recovery as cr

    monkeypatch.setattr(cr, "drain", lambda msp, state: None)
    sim, _net, msp, clients = build_world()
    results = drive(sim, msp, clients, 6)
    assert results[0] == list(range(1, 7))
    msp.crash()
    msp.restart_process()
    sim.run(until=sim.now + 1_000)
    (session,) = msp.sessions.values()
    assert session.lazy_pending
    stream = session.position_stream.positions()
    assert stream
    # Recycle everything durable, stranding the stream below the floor.
    unit = msp.log.partitions[0]
    assert unit.store.truncate(unit.store.durable_end) >= 0
    assert stream[0] < unit.store.truncate_lsn
    with pytest.raises(LogTruncatedError):
        for _ in recover_session(msp, session):
            pass


# -- the pump: one pass in session-id order -----------------------------------


def quiesced_crash(sim, msp, clients, counts):
    """Client i completes ``counts[i]`` calls on its own session; once
    every client is idle the MSP crashes and restarts, so only the pump
    (or a request a test sends afterwards) can claim a session.
    Returns the client sessions."""
    msp.start_process()
    sessions = [c.open_session("msp1") for c in clients]

    def driver(session, n_calls):
        yield 1.0
        for _ in range(n_calls):
            yield from session.call("counter", b"")

    procs = [sim.spawn(driver(s, n)) for s, n in zip(sessions, counts)]
    for proc in procs:
        sim.run_until_process(proc, limit=1_200_000)
    msp.crash()
    msp.restart_process()
    return sessions


def record_claims(sim, msp):
    """``[(session id, sim time)]`` in the order sessions leave
    ``lazy_pending`` after a restart — ``recovery.session.begin`` fires
    right after the synchronous claim, whoever made it, and the claimed
    session stays ``recovery_pending`` until its replay ends."""
    claims = []

    def listener(site, owner):
        if site == "recovery.session.begin":
            seen = {sid for sid, _at in claims}
            claims.extend(
                (sid, sim.now)
                for sid, s in sorted(msp.sessions.items())
                if s.recovery_pending and not s.lazy_pending and sid not in seen
            )

    sim.add_probe_listener(listener)
    return claims


def pump_world(traced=False):
    """Five sessions of unequal request counts, one pump worker."""
    config = lazy_config(
        recovery_pump_concurrency=1, session_ckpt_threshold=None
    )
    sim, _net, msp, clients = build_world(config=config, n_clients=5)
    if traced:
        Tracer(sim).attach()
    return sim, msp, clients


def test_pump_drains_pending_sessions_in_id_order():
    sim, msp, clients = pump_world()
    claims = record_claims(sim, msp)
    quiesced_crash(sim, msp, clients, [2, 4, 6, 8, 10])
    settle(sim, msp)
    assert [sid for sid, _at in claims] == sorted(msp.sessions)
    assert len(claims) == 5
    assert msp.stats.pump_recoveries == 5
    assert msp.stats.inline_recoveries == 0
    # Each replay rebuilt its own session's state.
    assert [
        int.from_bytes(msp.sessions[sid].variables["count"], "big")
        for sid in sorted(msp.sessions)
    ] == [2, 4, 6, 8, 10]


def test_pump_skips_a_session_claimed_inline_meanwhile():
    """The last session's client comes back while the single pump worker
    is still on the first ones: its request claims the session inline,
    and the pump's pass skips it instead of replaying it twice."""
    sim, msp, clients = pump_world()
    claims = record_claims(sim, msp)
    clients[4].resend_timeout_ms = 5.0
    sessions = quiesced_crash(sim, msp, clients, [30, 30, 30, 30, 3])
    result = []

    def comeback():
        reply = yield from sessions[4].call("counter", b"")
        result.append(int.from_bytes(reply.payload, "big"))

    sim.run_until_process(sim.spawn(comeback()), limit=sim.now + 600_000)
    settle(sim, msp)
    assert result == [4]
    order = [sid for sid, _at in claims]
    assert sorted(order) == sorted(msp.sessions) and len(order) == 5
    ids = sorted(msp.sessions)
    assert order.index(ids[4]) < 4, "the inline claim came before the pump's"
    assert [sid for sid in order if sid != ids[4]] == ids[:4]
    stats = msp.stats
    assert (stats.inline_recoveries, stats.pump_recoveries) == (1, 4)
    assert stats.served_before_recovery == 0


def test_attaching_a_tracer_changes_no_pump_claim():
    """Pump order must not read trace state: the same sessions leave
    ``lazy_pending`` in the same order at the same simulated times with
    and without a ``Tracer`` (``Simulator.steps`` alone cannot tell — it
    was equal even when a tracer reversed the order)."""

    def run(traced):
        sim, msp, clients = pump_world(traced)
        claims = record_claims(sim, msp)
        quiesced_crash(sim, msp, clients, [2, 4, 6, 8, 10])
        settle(sim, msp)
        return claims, sim.steps

    untraced, traced = run(False), run(True)
    assert len(untraced[0]) == 5
    assert traced == untraced


# -- the mode is a drain policy, not a log format -----------------------------


def mode_config(mode, nparts):
    return RecoveryConfig(recovery_mode=mode, log_partitions=nparts)


def store_images(msp):
    return [
        (
            unit.store.truncate_lsn,
            unit.store.durable_end,
            unit.store.read(
                unit.store.truncate_lsn, unit.store.end - unit.store.truncate_lsn
            ),
        )
        for unit in msp.log.partitions
    ]


@pytest.mark.parametrize("nparts", [1, 4])
def test_recovery_mode_changes_no_logged_byte(nparts):
    """A crash-free seeded run leaves the same bytes in every partition
    store under either mode, so an eager-written log restarts lazily
    (and vice versa) through the same code."""
    images = {}
    for mode in ("eager", "lazy"):
        sim, _net, msp, clients = build_world(
            seed=7, config=mode_config(mode, nparts), n_clients=3
        )
        results = drive(sim, msp, clients, 12)
        assert all(r == list(range(1, 13)) for r in results)
        images[mode] = store_images(msp)
        assert any(image[2] for image in images[mode])
    assert images["lazy"] == images["eager"]


@pytest.mark.parametrize("nparts", [1, 4])
def test_lazy_restart_reads_what_an_eager_restart_reads(nparts):
    """Same seed, same crash point, both drained: lazy touches each
    replayed record as often as eager does — one scan, one replay along
    the stream the scan built, no second index to walk."""
    costs = {}
    for mode in ("eager", "lazy"):
        sim, _net, msp, clients = build_world(
            seed=7, config=mode_config(mode, nparts), n_clients=4
        )
        quiesced_crash(sim, msp, clients, [20, 20, 20, 20])
        settle(sim, msp)
        assert msp.stats.replayed_requests == 80
        costs[mode] = (
            msp.log.stats.read_chunks,
            sum(unit.disk.stats.sectors_read for unit in msp.log.partitions),
            msp.log.stats.appended_bytes,
        )
    assert costs["lazy"] == costs["eager"]
    assert costs["eager"][0] > 0


# -- stats and counters -------------------------------------------------------


def test_lazy_stats_partition_into_inline_and_pump():
    """Every claim is counted once, as inline or as a drain worker's."""
    sim, _net, msp, clients = build_world(n_clients=3)
    begun = []
    sim.add_probe_listener(
        lambda site, owner: site == "recovery.session.begin" and begun.append(site)
    )
    drive(sim, msp, clients, 6, crash_after_calls={2, 4})
    settle(sim, msp)
    stats = msp.stats
    assert begun
    assert stats.inline_recoveries + stats.pump_recoveries == len(begun)
    assert stats.served_before_recovery == 0


def test_eager_mode_replays_every_session_by_a_drain_worker():
    """Eager is the drain with one worker per session: each worker's
    first step claims its session, so none is left for a request."""
    sim, _net, msp, clients = build_world(config=RecoveryConfig(), n_clients=3)
    claims = record_claims(sim, msp)
    quiesced_crash(sim, msp, clients, [4, 4, 4])
    settle(sim, msp)
    assert msp.stats.pump_recoveries == len(msp.sessions) == 3
    assert msp.stats.inline_recoveries == 0
    # All three were claimed in the same instant, in session-id order.
    assert [sid for sid, _at in claims] == sorted(msp.sessions)
    assert len({at for _sid, at in claims}) == 1


def test_eager_restart_opens_for_traffic_while_sessions_still_replay():
    """Fig. 12 step 5: "while already accepting new sessions".  Eager
    means one drain worker per session, not drain-then-open: the MSP
    handles requests while a session is still ``recovery_pending``, and
    the request racing that session's replay is turned away busy —
    never replayed inline, never served early.  Fails if eager is ever
    made to wait for the drain before opening."""
    config = RecoveryConfig(session_ckpt_threshold=None)
    sim, _net, msp, clients = build_world(config=config)
    clients[0].resend_timeout_ms = 5.0
    open_while_replaying = []

    def listener(site, owner):
        if site == "msp.request" and msp.stats.crashes:
            open_while_replaying.append(
                msp.running
                and any(s.recovery_pending for s in msp.sessions.values())
            )

    sim.add_probe_listener(listener)
    results = drive(sim, msp, clients, 40, crash_after_calls={35})
    assert results[0] == list(range(1, 41))
    assert any(open_while_replaying)
    assert msp.stats.busy_replies > 0
    assert (msp.stats.inline_recoveries, msp.stats.pump_recoveries) == (0, 1)
    assert msp.stats.served_before_recovery == 0
