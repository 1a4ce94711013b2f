"""Property-based exactly-once verification under adversarial schedules.

Hypothesis drives crash times, crash targets, network fault rates and
seeds; the invariant is always the same: every completed client request
took effect on session state and shared state exactly once, and the
servers end up consistent.  This is the paper's §2.3 correctness
criterion checked over a whole space of schedules rather than a few
hand-picked ones.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core import RecoveryConfig, ServiceDomainConfig
from repro.core.client import EndClient
from repro.core.msp import MiddlewareServer
from repro.net import FaultModel, Network
from repro.sim import RngRegistry, Simulator


def encode(n):
    return n.to_bytes(8, "big")


def decode(raw):
    return int.from_bytes(raw, "big")


def front_method(ctx, argument):
    yield from ctx.compute(0.2)
    yield from ctx.update_shared("f", lambda raw: encode(decode(raw) + 1))
    yield from ctx.call("backend", "bump", argument)
    raw = yield from ctx.get_session_var("n")
    n = decode(raw or encode(0)) + 1
    yield from ctx.set_session_var("n", encode(n))
    return encode(n)


def bump_method(ctx, argument):
    yield from ctx.compute(0.2)
    new = yield from ctx.update_shared("b", lambda raw: encode(decode(raw) + 1))
    return new


def run_schedule(seed, crash_times, crash_front, faults, same_domain=True):
    """Run 12 requests against two MSPs under the given schedule."""
    sim = Simulator()
    rng = RngRegistry(seed)
    net = Network(sim, rng=rng)
    if same_domain:
        domains = ServiceDomainConfig([["front", "backend"]])
    else:
        domains = ServiceDomainConfig([["front"], ["backend"]])
    front = MiddlewareServer(sim, net, "front", domains, config=RecoveryConfig(), rng=rng)
    backend = MiddlewareServer(sim, net, "backend", domains, config=RecoveryConfig(), rng=rng)
    front.register_service("work", front_method)
    front.register_shared("f", encode(0))
    backend.register_service("bump", bump_method)
    backend.register_shared("b", encode(0))
    if faults:
        net.set_link("client", "front", faults=FaultModel(
            loss_prob=0.1, duplicate_prob=0.1, reorder_prob=0.1
        ))
    front.start_process()
    backend.start_process()
    client = EndClient(sim, net, "client")
    session = client.open_session("front")
    results = []

    def driver():
        yield 1.0
        for _ in range(12):
            result = yield from session.call("work", b"")
            results.append(decode(result.payload))

    def chaos():
        previous = 0.0
        for t, target_front in crash_times:
            yield max(0.1, t - previous)
            previous = t
            target = front if (target_front and crash_front) else backend
            target.crash()
            target.restart_process()

    p = sim.spawn(driver())
    sim.spawn(chaos())
    sim.run_until_process(p, limit=3_600_000)

    assert results == list(range(1, 13)), f"client saw {results}"
    # Let recoveries quiesce, then check shared counters.
    def settle():
        yield 2_000.0

    sp = sim.spawn(settle())
    sim.run_until_process(sp, limit=sim.now + 600_000)
    assert front.running and backend.running
    f = decode(front.shared["f"].value)
    b = decode(backend.shared["b"].value)
    assert f == 12, f"front counter {f} != 12"
    assert b == 12, f"backend counter {b} != 12"


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 1000),
    crash_times=st.lists(
        st.tuples(st.floats(5.0, 400.0), st.booleans()), min_size=0, max_size=3
    ).map(lambda ts: sorted(ts)),
)
def test_exactly_once_random_backend_crashes(seed, crash_times):
    """Backend crashes at arbitrary times never break exactly-once."""
    run_schedule(seed, crash_times, crash_front=False, faults=False)


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 1000),
    crash_times=st.lists(
        st.tuples(st.floats(5.0, 400.0), st.booleans()), min_size=1, max_size=3
    ).map(lambda ts: sorted(ts)),
)
# A second kill between recovery's checkpoint becoming durable and its
# anchor write (test_exactly_once_regressions.py has the trace).
@example(seed=0, crash_times=[(203.0, True), (278.0, True)])
def test_exactly_once_random_crashes_either_msp(seed, crash_times):
    """Crashes of either MSP (or both) never break exactly-once."""
    run_schedule(seed, crash_times, crash_front=True, faults=False)


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 1000),
    crash_times=st.lists(
        st.tuples(st.floats(5.0, 300.0), st.booleans()), min_size=0, max_size=2
    ).map(lambda ts: sorted(ts)),
)
def test_exactly_once_with_network_faults_and_crashes(seed, crash_times):
    """Message loss/duplication/reordering plus crashes: still exactly-once."""
    run_schedule(seed, crash_times, crash_front=True, faults=True)


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 1000),
    crash_times=st.lists(
        st.tuples(st.floats(5.0, 400.0), st.booleans()), min_size=1, max_size=2
    ).map(lambda ts: sorted(ts)),
)
def test_exactly_once_pessimistic_domains(seed, crash_times):
    """The same invariant holds with each MSP in its own domain."""
    run_schedule(seed, crash_times, crash_front=True, faults=False, same_domain=False)
