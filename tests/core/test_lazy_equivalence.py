"""Property: lazy recovery is semantically identical to eager recovery.

Hypothesis drives crash times and seeds; the same workload runs once
under ``recovery_mode: eager`` and once under ``lazy``, and the final
*semantic* state — per-session variables, exactly-once bookkeeping
(``next_expected_seq``, buffered reply bytes), and shared-variable
values — must be byte-identical.  Timings and LSNs legitimately differ
(lazy opens earlier and replays in a different order); what a client or
a service method can observe must not.

Both modes replay a session along the position stream the analysis
scan built for it (the lazy backward chain and its cross-check against
that stream were deleted in PR 17), so the only thing the modes can
disagree on is *when* a session is replayed.

And since both modes run one drain that differs only in its worker
count, a lazy run with at least as many workers as sessions is not
merely equivalent to the eager run but *is* it: same simulated clock,
same kernel step count, same ``MspStats`` to the last counter.
"""

from dataclasses import asdict

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import RecoveryConfig, ServiceDomainConfig
from repro.core.client import EndClient
from repro.core.msp import MiddlewareServer
from repro.net import Network
from repro.sim import RngRegistry, Simulator


def encode(n):
    return n.to_bytes(8, "big")


def decode(raw):
    return int.from_bytes(raw, "big")


def mixed_method(ctx, argument):
    yield from ctx.compute(0.2)
    yield from ctx.update_shared("total", lambda raw: encode(decode(raw) + 1))
    raw = yield from ctx.get_session_var("n")
    n = decode(raw or encode(0)) + 1
    yield from ctx.set_session_var("n", encode(n))
    return encode(n)


def run_mode(
    mode, seed, crash_times, n_clients, n_calls, logging_mode="value",
    pump_concurrency=None, with_kernel=False,
):
    """Run the workload in one recovery mode; return its semantic state
    (``with_kernel``: plus the clock, step count and ``MspStats``)."""
    sim = Simulator()
    rng = RngRegistry(seed)
    net = Network(sim, rng=rng)
    config = RecoveryConfig(recovery_mode=mode, logging_mode=logging_mode)
    if pump_concurrency is not None:
        config.recovery_pump_concurrency = pump_concurrency
    msp = MiddlewareServer(
        sim, net, "msp1", ServiceDomainConfig(), config=config, rng=rng
    )
    msp.register_service("work", mixed_method)
    msp.register_shared("total", encode(0))
    msp.start_process()
    clients = [EndClient(sim, net, f"client{i}") for i in range(n_clients)]
    sessions = [c.open_session("msp1") for c in clients]
    results = [[] for _ in clients]

    def driver(idx):
        def process():
            yield 1.0
            for _ in range(n_calls):
                result = yield from sessions[idx].call("work", b"")
                results[idx].append(decode(result.payload))

        return process()

    def chaos():
        previous = 0.0
        for t in crash_times:
            yield max(0.1, t - previous)
            previous = t
            msp.crash()
            msp.restart_process()

    procs = [sim.spawn(driver(idx)) for idx in range(n_clients)]
    sim.spawn(chaos())
    for proc in procs:
        sim.run_until_process(proc, limit=3_600_000)

    # Drain the pump (lazy) / let recoveries quiesce (eager) so the
    # comparison sees fully recovered state in both modes.
    def settle():
        for _ in range(400):
            if not any(
                s.lazy_pending or s.recovery_pending
                for s in msp.sessions.values()
            ):
                return
            yield 50.0

    sp = sim.spawn(settle())
    sim.run_until_process(sp, limit=sim.now + 600_000)

    assert msp.stats.served_before_recovery == 0
    for idx in range(n_clients):
        assert results[idx] == list(range(1, n_calls + 1)), (
            mode, idx, results[idx]
        )
    state = {
        "sessions": {
            sid: (
                dict(s.variables),
                s.next_expected_seq,
                s.buffered_reply,
                s.buffered_reply_seq,
                s.buffered_reply_error,
            )
            for sid, s in sorted(msp.sessions.items())
        },
        "shared": {name: sv.value for name, sv in sorted(msp.shared.items())},
    }
    if with_kernel:
        state["kernel"] = (sim.now, sim.steps, asdict(msp.stats))
    return state


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 1000),
    crash_times=st.lists(
        st.floats(5.0, 300.0), min_size=1, max_size=3
    ).map(sorted),
)
def test_lazy_final_state_equals_eager(seed, crash_times):
    """Arbitrary crash schedules: lazy ≡ eager on all observable state."""
    eager = run_mode("eager", seed, crash_times, n_clients=1, n_calls=10)
    lazy = run_mode("lazy", seed, crash_times, n_clients=1, n_calls=10)
    assert lazy == eager


@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 1000),
    crash_times=st.lists(
        st.floats(5.0, 250.0), min_size=1, max_size=2
    ).map(sorted),
)
def test_logging_modes_times_recovery_modes_agree(seed, crash_times):
    """Modes matrix: value and command logging, under both recovery
    modes, land on the same semantic state as the value/eager
    baseline.  ``mixed_method``'s RMW is deterministic and commutative
    and its return value never reaches the reply, so it satisfies the
    §16 command contract; the session-variable counter and the buffered
    replies pin exactly-once across the regimes."""
    baseline = run_mode("eager", seed, crash_times, n_clients=1, n_calls=8)
    for logging_mode in ("value", "command"):
        for recovery_mode in ("eager", "lazy"):
            if (logging_mode, recovery_mode) == ("value", "eager"):
                continue
            state = run_mode(
                recovery_mode, seed, crash_times,
                n_clients=1, n_calls=8, logging_mode=logging_mode,
            )
            assert state == baseline, (logging_mode, recovery_mode)


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 1000),
    crash_times=st.lists(
        st.floats(5.0, 250.0), min_size=1, max_size=2
    ).map(sorted),
)
def test_lazy_equals_eager_multi_session(seed, crash_times):
    """Several sessions (pump + inline interleavings vary with the
    schedule): every session's state and the shared counter agree."""
    eager = run_mode("eager", seed, crash_times, n_clients=3, n_calls=6)
    lazy = run_mode("lazy", seed, crash_times, n_clients=3, n_calls=6)
    assert lazy == eager


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 1000),
    crash_times=st.lists(
        st.floats(5.0, 250.0), min_size=1, max_size=2
    ).map(sorted),
    spare_workers=st.integers(0, 2),
)
def test_lazy_with_a_worker_per_session_is_eager(seed, crash_times, spare_workers):
    """Eager is the degenerate lazy: with ``recovery_pump_concurrency >=
    sessions`` the two runs are the same run — equal not just on
    observable state but on ``sim.now``, ``Simulator.steps`` and the
    whole ``MspStats`` (no inline replay: every session is claimed by a
    worker the instant the MSP opens)."""
    n_clients = 3
    eager = run_mode(
        "eager", seed, crash_times, n_clients, n_calls=6, with_kernel=True
    )
    lazy = run_mode(
        "lazy", seed, crash_times, n_clients, n_calls=6, with_kernel=True,
        pump_concurrency=n_clients + spare_workers,
    )
    assert lazy == eager
    assert eager["kernel"][2]["inline_recoveries"] == 0
