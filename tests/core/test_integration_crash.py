"""Crash-recovery integration: single MSP crashes, exactly-once checks."""

import pytest

from repro.core import LoggingMode, RecoveryConfig, ServiceDomainConfig
from repro.core.client import EndClient
from repro.core.msp import MiddlewareServer
from repro.net import Network
from repro.sim import RngRegistry, Simulator


def counter_method(ctx, argument):
    yield from ctx.compute(0.2)
    raw = yield from ctx.get_session_var("count")
    count = int.from_bytes(raw or b"\x00", "big") + 1
    yield from ctx.set_session_var("count", count.to_bytes(4, "big"))
    shared_raw = yield from ctx.read_shared("total")
    total = int.from_bytes(shared_raw, "big") + 1
    yield from ctx.write_shared("total", total.to_bytes(8, "big"))
    return count.to_bytes(4, "big")


def build_world(seed=0, config=None):
    sim = Simulator()
    rng = RngRegistry(seed)
    net = Network(sim, rng=rng)
    domains = ServiceDomainConfig()
    config = config or RecoveryConfig()
    msp = MiddlewareServer(sim, net, "msp1", domains, config=config, rng=rng)
    msp.register_service("counter", counter_method)
    msp.register_shared("total", (0).to_bytes(8, "big"))
    client = EndClient(sim, net, "client1")
    return sim, net, msp, client


def drive_with_crashes(sim, msp, client, n_calls, crash_after_calls):
    """Run n_calls; crash+restart the MSP after each count in the set."""
    msp.start_process()
    session = client.open_session("msp1")
    results = []

    def driver():
        yield 1.0
        for i in range(n_calls):
            result = yield from session.call("counter", b"")
            results.append(int.from_bytes(result.payload, "big"))
            if (i + 1) in crash_after_calls:
                msp.crash()
                msp.restart_process()

    sim.spawn(driver())
    sim.run(until=600_000)
    return results


def test_crash_and_restart_recovers_session_state():
    sim, _net, msp, client = build_world()
    results = drive_with_crashes(sim, msp, client, 10, crash_after_calls={5})
    # Exactly-once: the session counter never repeats or skips.
    assert results == list(range(1, 11))
    assert msp.stats.crashes == 1
    assert msp.stats.recoveries == 1


def test_crash_recovers_shared_state():
    sim, _net, msp, client = build_world()
    results = drive_with_crashes(sim, msp, client, 10, crash_after_calls={3, 7})
    assert results == list(range(1, 11))
    total = int.from_bytes(msp.shared["total"].value, "big")
    assert total == 10
    assert msp.epoch == 2


def test_crash_mid_request_is_masked():
    """Crash while a request is in flight: the client's resend gets a
    correct (exactly-once) answer after recovery."""
    sim, _net, msp, client = build_world()
    msp.start_process()
    session = client.open_session("msp1")
    results = []

    def driver():
        yield 1.0
        for _ in range(5):
            result = yield from session.call("counter", b"")
            results.append(int.from_bytes(result.payload, "big"))

    def crasher():
        # Crash while request ~2 is being processed (response ~7 ms).
        yield 18.0
        msp.crash()
        msp.restart_process()

    sim.spawn(driver())
    sim.spawn(crasher())
    sim.run(until=600_000)
    assert results == [1, 2, 3, 4, 5]
    total = int.from_bytes(msp.shared["total"].value, "big")
    assert total == 5


def test_replay_count_matches_unflushed_work():
    """After a crash, exactly the logged requests are replayed."""
    sim, _net, msp, client = build_world()
    results = drive_with_crashes(sim, msp, client, 20, crash_after_calls={10})
    assert results == list(range(1, 21))
    # The session had logged requests to replay (some may be beyond the
    # durable boundary and correctly lost).
    assert msp.stats.replayed_requests >= 1


def test_multiple_crashes_back_to_back():
    sim, _net, msp, client = build_world()
    results = drive_with_crashes(sim, msp, client, 12, crash_after_calls={2, 4, 6, 8})
    assert results == list(range(1, 13))
    assert msp.epoch == 4
    total = int.from_bytes(msp.shared["total"].value, "big")
    assert total == 12


def test_session_checkpoint_bounds_replay():
    """With a tiny checkpoint threshold, recovery replays few requests."""
    config = RecoveryConfig(session_ckpt_threshold=2048)
    sim, _net, msp, client = build_world(config=config)
    results = drive_with_crashes(sim, msp, client, 30, crash_after_calls={25})
    assert results == list(range(1, 31))
    assert msp.stats.session_checkpoints > 0
    # Replay is bounded by the records since the last checkpoint.
    assert msp.stats.replayed_requests <= 10


def test_no_checkpointing_configuration():
    config = RecoveryConfig(session_ckpt_threshold=None)
    sim, _net, msp, client = build_world(config=config)
    results = drive_with_crashes(sim, msp, client, 10, crash_after_calls={6})
    assert results == list(range(1, 11))
    assert msp.stats.session_checkpoints == 0


def test_recovery_reads_log_from_disk():
    sim, _net, msp, client = build_world()
    drive_with_crashes(sim, msp, client, 10, crash_after_calls={5})
    assert msp.disk.stats.reads > 0
    assert msp.stats.recovery_scan_records > 0


def test_anchor_advances_with_msp_checkpoints():
    config = RecoveryConfig(msp_ckpt_interval_ms=100.0)
    sim, _net, msp, client = build_world(config=config)
    drive_with_crashes(sim, msp, client, 20, crash_after_calls=set())
    assert msp.stats.msp_checkpoints > 1
    assert msp.log.read_anchor() is not None


def test_new_session_after_crash_works():
    sim, _net, msp, client = build_world()
    msp.start_process()
    s1 = client.open_session("msp1")
    results = []

    def driver():
        yield 1.0
        r = yield from s1.call("counter", b"")
        results.append(("s1", int.from_bytes(r.payload, "big")))
        msp.crash()
        msp.restart_process()
        s2 = client.open_session("msp1")
        r = yield from s2.call("counter", b"")
        results.append(("s2", int.from_bytes(r.payload, "big")))
        r = yield from s1.call("counter", b"")
        results.append(("s1", int.from_bytes(r.payload, "big")))

    sim.spawn(driver())
    sim.run(until=600_000)
    assert ("s2", 1) in results
    assert results[-1] == ("s1", 2)
