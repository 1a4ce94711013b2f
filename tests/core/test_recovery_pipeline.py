"""One recorded single-log crash/restart, pinned across the refactor of
``recover_msp`` into phases (DESIGN.md §4.3).

The expected values were first recorded at commit ``92fdbba`` — the
last one with a dedicated single-partition recovery path — by running
this same world there, and stood while a single log kept that commit's
checkpoint bytes.  They were re-recorded once, when the three
checkpoint kinds got one layout for every partition count (a session
checkpoint is 1 byte longer, an MSP checkpoint carries its ends block,
a shared-variable checkpoint names the write it seals): every offset
below moved by those bytes, the sessions, checkpoints, ended set and
``SV0`` did not, and the run takes 2018 steps for 2017.  A single log
runs the N-partition pipeline with N=1; it must reach this
``AnalysisState``, announce the recovered frontier as the raw scalar
(``encode_frontier((x,)) == x``) and make the peer log these
announcement bytes.
"""

import repro.core.crash_recovery as crash_recovery
from repro.core import RecoveryConfig, ServiceDomainConfig
from repro.core.client import EndClient
from repro.core.msp import MiddlewareServer
from repro.core.records import AnnouncementRecord
from repro.net import Network
from repro.sim import RngRegistry, Simulator

RECORDED = {
    "positions": {
        "s0": [14641, 14968, 15340, 15584, 15702, 15921, 16118, 16347, 16471, 16571],
        "s2": [14444, 14838, 15098, 15222, 15464],
    },
    "session_ckpts": {"s0": 14318, "s2": 14192},
    "ended": {"s1"},
    "recovered_frontier": {0: 16692},
    "announcement_hex": ["09046d73703100b48201"],
    "steps": 2018,
}


def encode(n: int) -> bytes:
    return n.to_bytes(8, "big")


def decode(raw: bytes) -> int:
    return int.from_bytes(raw, "big")


def method1(ctx, argument):
    yield from ctx.compute(0.2)
    yield from ctx.update_shared("SV0", lambda raw: encode(decode(raw) + 1))
    yield from ctx.call("msp2", "method2", argument)
    seen = decode((yield from ctx.read_shared("SV1")))
    yield from ctx.write_shared("SV1", encode(seen + 1))
    raw = yield from ctx.get_session_var("count")
    count = decode(raw or encode(0)) + 1
    yield from ctx.set_session_var("count", encode(count))
    return encode(count)


def method2(ctx, argument):
    yield from ctx.compute(0.1)
    yield from ctx.update_shared("SV2", lambda raw: encode(decode(raw) + 1))
    return argument[:8]


def config() -> RecoveryConfig:
    return RecoveryConfig(
        session_ckpt_threshold=2048,
        sv_ckpt_write_threshold=5,
        msp_ckpt_interval_ms=60.0,
    )


def test_single_log_restart_matches_the_recorded_one(monkeypatch):
    sim = Simulator()
    rng = RngRegistry(11)
    net = Network(sim, rng=rng)
    domains = ServiceDomainConfig([["msp1", "msp2"]])
    msp1 = MiddlewareServer(sim, net, "msp1", domains, config=config(), rng=rng)
    msp2 = MiddlewareServer(sim, net, "msp2", domains, config=config(), rng=rng)
    msp1.register_service("method1", method1)
    msp1.register_shared("SV0", encode(0))
    msp1.register_shared("SV1", encode(0))
    msp2.register_service("method2", method2)
    msp2.register_shared("SV2", encode(0))
    client = EndClient(sim, net, "client1")
    msp1.start_process()
    msp2.start_process()

    def driver(session, calls, end):
        yield 1.0
        for _ in range(calls):
            yield from session.call("method1", b"x" * 100)
        if end:
            yield from session.end()

    drivers = [
        sim.spawn(driver(client.open_session("msp1", session_id=sid), calls, end))
        for sid, calls, end in (("s0", 9, False), ("s1", 5, True), ("s2", 7, False))
    ]
    for process in drivers:
        sim.run_until_process(process, limit=600_000)

    states = []
    analyze_scan = crash_recovery.analyze_scan

    def spy(*args, **kwargs):
        states.append(analyze_scan(*args, **kwargs))
        return states[-1]

    monkeypatch.setattr(crash_recovery, "analyze_scan", spy)
    msp1.crash()
    boot = msp1.restart_process()
    sim.run_until_process(boot, limit=600_000)
    sim.run(until=sim.now + 5.0)

    (state,) = states
    assert state.positions == RECORDED["positions"]
    assert state.session_ckpts == RECORDED["session_ckpts"]
    assert state.ended == RECORDED["ended"]
    # One partition: every per-partition vector has length one, and the
    # frontier is announced as the raw durable end.
    assert len(state.scan_starts) == 1
    assert state.cut == [RECORDED["recovered_frontier"][0]]
    assert state.recovered_lsn == RECORDED["recovered_frontier"][0]
    assert msp1.table.snapshot()["msp1"] == RECORDED["recovered_frontier"]
    assert msp1.epoch == 1

    logged = []
    lsn = msp2.store.truncate_lsn
    while lsn < msp2.store.end:
        record, lsn = msp2.log.record_at(lsn)
        if isinstance(record, AnnouncementRecord):
            logged.append(record.encode().hex())
    assert logged == RECORDED["announcement_hex"]
    assert decode(msp1.shared["SV0"].value) == 21
    assert sim.steps == RECORDED["steps"]
