"""Ablation experiments for the paper's design choices.

The paper argues for several design points without measuring them
directly; these experiments quantify each one on our substrate:

- **parallel session recovery** (Fig. 12 step 5: one drain worker per
  session) versus replaying sessions one at a time (a single worker) —
  "this results in faster recovery than replaying all activities
  sequentially in log order";
- **per-session dependency vectors** (§3.2) versus one DV for the whole
  MSP — "if only one DV is maintained ... all its sessions will roll
  back, possibly unnecessarily".
"""

from __future__ import annotations

from repro.core.client import EndClient
from repro.core.config import RecoveryConfig
from repro.core.domain import ServiceDomainConfig
from repro.core.msp import MiddlewareServer
from repro.core.session import SessionStatus
from repro.harness.experiments import ExperimentResult, sweep
from repro.net import Network
from repro.sim import RngRegistry, Simulator


def _counter_method(ctx, argument):
    yield from ctx.compute(0.2)

    def bump(raw: bytes) -> bytes:
        return (int.from_bytes(raw, "big") + 1).to_bytes(8, "big")

    yield from ctx.update_shared("total", bump)
    raw = yield from ctx.get_session_var("n")
    n = int.from_bytes(raw or b"\x00", "big") + 1
    yield from ctx.set_session_var("n", n.to_bytes(4, "big"))
    return n.to_bytes(4, "big")


def _measure_recovery_time(parallel: bool, sessions: int, requests: int, seed: int):
    """Build one MSP with history, crash it, time the recovery."""
    sim = Simulator()
    rng = RngRegistry(seed)
    network = Network(sim, rng=rng)
    # Sequential replay is the drain with a single worker (DESIGN.md §15).
    config = (
        RecoveryConfig()
        if parallel
        else RecoveryConfig(recovery_mode="lazy", recovery_pump_concurrency=1)
    )
    msp = MiddlewareServer(sim, network, "server", ServiceDomainConfig(), config=config, rng=rng)
    msp.register_service("counter", _counter_method)
    msp.register_shared("total", (0).to_bytes(8, "big"))
    msp.start_process()
    client = EndClient(sim, network, "client")

    def driver(session):
        yield 1.0
        for _ in range(requests):
            yield from session.call("counter", b"x" * 100)

    drivers = [
        sim.spawn(driver(client.open_session("server"))) for _ in range(sessions)
    ]
    for process in drivers:
        sim.run_until_process(process, limit=600_000)

    msp.crash()
    boot = msp.restart_process()
    crash_at = sim.now

    def wait_recovered():
        yield boot
        while any(
            s.status is not SessionStatus.NORMAL for s in msp.sessions.values()
        ) or not msp.sessions:
            yield 1.0

    waiter = sim.spawn(wait_recovered())
    sim.run_until_process(waiter, limit=sim.now + 600_000)
    recovery_ms = sim.now - crash_at - config.restart_delay_ms
    total = int.from_bytes(msp.shared["total"].value, "big")
    assert total == sessions * requests, "exactly-once violated in ablation"
    return recovery_ms, msp.stats.replayed_requests


def _recovery_point(spec):
    parallel, sessions, requests, seed = spec
    return _measure_recovery_time(parallel, sessions, requests, seed)


def ablation_parallel_recovery(
    scale: float = 1.0, seed: int = 0, sessions: int = 8,
    jobs=None, progress=None,
) -> ExperimentResult:
    """Parallel vs sequential session recovery after an MSP crash."""
    requests = max(30, int(400 * scale))
    result = ExperimentResult(
        experiment="ablation-parallel-recovery",
        description=(
            f"Crash recovery time (ms) for {sessions} sessions x {requests} "
            "logged requests, parallel vs sequential replay"
        ),
    )
    times = {}
    specs = [(parallel, sessions, requests, seed) for parallel in (True, False)]
    points = sweep(_recovery_point, specs, jobs=jobs, progress=progress)
    for spec, (recovery_ms, replayed) in zip(specs, points):
        parallel = spec[0]
        times[parallel] = recovery_ms
        result.rows.append(
            {
                "mode": "parallel" if parallel else "sequential",
                "recovery_ms": recovery_ms,
                "replayed_requests": replayed,
            }
        )
    result.claim(
        "parallel session recovery is faster than sequential replay",
        times[True] < times[False],
    )
    result.claim(
        "the speedup is material (>= 1.2x)",
        times[False] / max(times[True], 1e-9) >= 1.2,
    )
    return result


def _remote_method(ctx, argument):
    yield from ctx.compute(0.2)
    reply = yield from ctx.call("backend", "backend_op", argument)
    raw = yield from ctx.get_session_var("n")
    n = int.from_bytes(raw or b"\x00", "big") + 1
    yield from ctx.set_session_var("n", n.to_bytes(4, "big"))
    return reply


def _local_method(ctx, argument):
    yield from ctx.compute(0.2)
    raw = yield from ctx.get_session_var("n")
    n = int.from_bytes(raw or b"\x00", "big") + 1
    yield from ctx.set_session_var("n", n.to_bytes(4, "big"))
    return n.to_bytes(4, "big")


def _make_backend_op(controller):
    def backend_op(ctx, argument):
        yield from ctx.compute(0.2)

        def bump(raw: bytes) -> bytes:
            return (int.from_bytes(raw, "big") + 1).to_bytes(8, "big")

        new = yield from ctx.update_shared("count", bump)
        if not ctx.is_replay:
            controller.maybe_schedule_kill()
        return new

    return backend_op


class _OneShotCrash:
    """Kill the backend once, 2 ms after the Nth backend execution.

    The timing makes the orphan deterministic: the reply is already on
    the wire (it reaches the front MSP and is merged into its session's
    DV within ~1.6 ms), but no disk flush can complete within 2 ms, so
    the backend's records for that exchange are guaranteed lost."""

    def __init__(self, after: int):
        self.after = after
        self.seen = 0
        self.backend = None
        self.fired = False

    def maybe_schedule_kill(self) -> None:
        self.seen += 1
        if not self.fired and self.seen >= self.after:
            self.fired = True
            self.backend.sim.call_later(2.0, self._kill)

    def _kill(self) -> None:
        if self.backend.running:
            self.backend.crash()
            self.backend.restart_process()


def _measure_rollbacks(per_session_dv: bool, remote_sessions: int, local_sessions: int, seed: int):
    sim = Simulator()
    rng = RngRegistry(seed)
    network = Network(sim, rng=rng)
    domains = ServiceDomainConfig([["front", "backend"]])
    controller = _OneShotCrash(after=remote_sessions * 3)

    front = MiddlewareServer(
        sim, network, "front", domains,
        config=RecoveryConfig(per_session_dv=per_session_dv), rng=rng,
    )
    backend = MiddlewareServer(
        sim, network, "backend", domains, config=RecoveryConfig(), rng=rng
    )
    controller.backend = backend
    front.register_service("remote", _remote_method)
    front.register_service("local", _local_method)
    backend.register_service("backend_op", _make_backend_op(controller))
    backend.register_shared("count", (0).to_bytes(8, "big"))
    front.start_process()
    backend.start_process()
    client = EndClient(sim, network, "client")

    def driver(session, method):
        yield 1.0
        for _ in range(6):
            yield from session.call(method, b"x" * 50)

    drivers = []
    for _ in range(remote_sessions):
        drivers.append(sim.spawn(driver(client.open_session("front"), "remote")))
    for _ in range(local_sessions):
        drivers.append(sim.spawn(driver(client.open_session("front"), "local")))
    for process in drivers:
        sim.run_until_process(process, limit=600_000)
    # Let any trailing orphan recoveries settle.
    def settle():
        yield 200.0

    waiter = sim.spawn(settle())
    sim.run_until_process(waiter, limit=sim.now + 10_000)
    return front.stats.orphan_recoveries, network.messages_sent


def _dv_point(spec):
    per_session_dv, remote_sessions, local_sessions, seed = spec
    return _measure_rollbacks(per_session_dv, remote_sessions, local_sessions, seed)


def ablation_dv_granularity(
    scale: float = 1.0, seed: int = 0, jobs=None, progress=None
) -> ExperimentResult:
    """Per-session DVs vs one MSP-wide DV.

    Half the sessions only touch local state.  With one MSP-wide DV,
    every session's pre-send flush carries the whole domain's
    dependencies, so the backend is dragged into flushes by *local*
    sessions too — the per-MSP DV either floods the backend with extra
    flushes or (when a dependency is caught unflushed) rolls back every
    session at once, the paper's §3.2 "all its sessions will roll back,
    possibly unnecessarily".  Per-session DVs confine both costs to the
    sessions that actually depend on the backend.
    """
    remote = max(2, int(4 * scale)) if scale >= 1 else 4
    local = remote
    result = ExperimentResult(
        experiment="ablation-dv-granularity",
        description=(
            f"One backend crash; {remote} remote-calling + {local} purely "
            "local sessions at the front MSP"
        ),
    )
    rollbacks = {}
    backend_writes = {}
    specs = [(per_session, remote, local, seed) for per_session in (True, False)]
    points = sweep(_dv_point, specs, jobs=jobs, progress=progress)
    for spec, (count, messages) in zip(specs, points):
        per_session = spec[0]
        rollbacks[per_session] = count
        backend_writes[per_session] = messages
        result.rows.append(
            {
                "dv_granularity": "per-session" if per_session else "per-MSP",
                "orphan_recoveries": count,
                "network_messages": messages,
            }
        )
    result.claim(
        "per-session DVs never roll back purely local sessions",
        rollbacks[True] <= remote,
    )
    result.claim(
        "a per-MSP DV rolls back more sessions (including purely local "
        "ones) than per-session DVs",
        rollbacks[False] > rollbacks[True],
    )
    result.claim(
        "a per-MSP DV rolls back (nearly) every session",
        rollbacks[False] >= remote + local - 1,
    )
    return result
