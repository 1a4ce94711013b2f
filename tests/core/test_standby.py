"""Warm-standby log shipping and disaster failover (DESIGN.md §18).

The shipping invariant: the standby's copy equals the primary's
*durable* prefix byte-for-byte at every instant — never ahead of it,
never behind a completed flush.  A disaster (storage destroyed) then
promotes the standby, and recovery from the shipped copy reaches the
identical state a local restart would have reached from the primary's
own disk, including exactly-once semantics for in-flight requests.
"""

from repro.core import RecoveryConfig, ServiceDomainConfig, WarmStandby
from repro.core.client import EndClient
from repro.core.msp import MiddlewareServer
from repro.net import Network
from repro.sim import RngRegistry, Simulator


def bump(ctx, argument):
    yield from ctx.compute(0.1)
    raw = yield from ctx.get_session_var("n")
    n = int.from_bytes(raw or b"\x00", "big") + 1
    yield from ctx.set_session_var("n", n.to_bytes(4, "big"))
    return n.to_bytes(4, "big")


def build(log_partitions=1):
    sim = Simulator()
    rng = RngRegistry(0)
    net = Network(sim, rng=rng)
    config = RecoveryConfig(
        msp_ckpt_interval_ms=200.0,
        log_partitions=log_partitions,
    )
    msp = MiddlewareServer(
        sim, net, "server", ServiceDomainConfig(), config=config, rng=rng
    )
    msp.register_service("bump", bump)
    client = EndClient(sim, net, "client")
    return sim, msp, client


def drive(sim, session, results, count, gap_ms=5.0):
    def driver():
        yield 1.0
        for _ in range(count):
            reply = yield from session.call("bump", b"")
            results.append(int.from_bytes(reply.payload, "big"))
            yield gap_ms

    p = sim.spawn(driver())
    sim.run_until_process(p, limit=120_000)


def test_shipping_tracks_the_durable_prefix():
    sim, msp, client = build()
    standby = WarmStandby(msp)
    msp.start_process()
    session = client.open_session("server")
    results = []
    drive(sim, session, results, count=10)
    assert results == list(range(1, 11))

    assert standby.stats.shipments > 0
    assert standby.stats.shipped_bytes > 0
    for primary, mirror in zip(msp.stores, standby.mirrors):
        assert mirror.end == primary.durable_end
        assert mirror.end <= primary.end  # never ships the volatile tail
    assert standby.verify_against_primary() == []


def test_standby_subscribes_instead_of_patching_the_store():
    """Shipping hangs off the store's durability-observer hook: no
    method of any store instance is assigned over."""
    _sim, msp, _client = build(log_partitions=2)
    WarmStandby(msp)
    for store in msp.stores:
        patched = {"mark_durable", "flush_anchor", "rewind"} & set(vars(store))
        assert not patched, patched


def test_shipping_covers_every_log_partition():
    sim, msp, client = build(log_partitions=3)
    standby = WarmStandby(msp)
    msp.start_process()
    # Sessions hash to partitions; enough of them touches every one.
    for _ in range(12):
        drive(sim, client.open_session("server"), [], count=2)
    assert len(standby.mirrors) == 3
    shipped = [m.end for m in standby.mirrors]
    assert all(end > 0 for end in shipped), shipped
    assert standby.verify_against_primary() == []


def test_verification_detects_divergence():
    sim, msp, client = build()
    standby = WarmStandby(msp)
    msp.start_process()
    drive(sim, client.open_session("server"), [], count=5)
    # Tamper: grow the mirror past the primary's durable end.
    standby.mirrors[0].append(b"garbage")
    problems = standby.verify_against_primary()
    assert problems and "shipped end" in problems[0]
    assert standby.stats.verification_failures


def test_promote_refuses_while_primary_runs():
    sim, msp, client = build()
    standby = WarmStandby(msp)
    msp.start_process()
    drive(sim, client.open_session("server"), [], count=2)
    try:
        standby.promote()
    except RuntimeError as exc:
        assert "running" in str(exc)
    else:  # pragma: no cover
        raise AssertionError("promote() must refuse a running primary")


def test_failover_recovers_identical_state():
    """Disaster mid-session: the standby's shipped log recovers the
    session and the resend protocol completes every call exactly once
    — the post-failover counter continues where the durable log ends."""
    sim, msp, client = build()
    standby = WarmStandby(msp)
    msp.start_process()
    session = client.open_session("server")
    results = []
    drive(sim, session, results, count=6)

    # Disaster: the primary dies and its storage is gone; only the
    # shipped copy survives.  (msp.crash() models the process death;
    # pointing the MSP at the mirrors models the storage loss.)
    msp.crash()
    standby.failover_process(takeover_delay_ms=5.0)
    assert standby.promoted
    assert msp.store is standby.mirrors[0]

    drive(sim, session, results, count=4)
    assert results == list(range(1, 11)), results
    assert msp.stats.recoveries == 1
    assert msp.stats.replayed_requests >= 1


def test_failover_skips_the_cold_restart_delay():
    """The standby is already booted: reopening after a failover must
    beat a cold restart of the same MSP at the same instant."""

    def run(cold):
        sim, msp, client = build()
        standby = None if cold else WarmStandby(msp)
        msp.start_process()
        session = client.open_session("server")
        drive(sim, session, [], count=6)
        struck = sim.now
        msp.crash()
        if cold:
            msp.restart_process()
        else:
            standby.failover_process(takeover_delay_ms=5.0)
        while not msp.running:
            sim.run(until=sim.now + 1.0)
        return sim.now - struck

    failover_ms = run(cold=False)
    cold_ms = run(cold=True)
    assert failover_ms < cold_ms, (failover_ms, cold_ms)
