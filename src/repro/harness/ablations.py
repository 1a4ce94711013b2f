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
from repro.harness.experiments import Claim, Experiment
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


#: Sessions with logged history at the crashed MSP.
RECOVERY_SESSIONS = 8


def _recovery_cell(spec: dict) -> list[dict]:
    """Build one MSP with history, crash it, time the recovery."""
    parallel, requests, seed = spec["parallel"], spec["requests"], spec["seed"]
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
        sim.spawn(driver(client.open_session("server"))) for _ in range(RECOVERY_SESSIONS)
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
    assert total == RECOVERY_SESSIONS * requests, "exactly-once violated in ablation"
    return [{
        "mode": "parallel" if parallel else "sequential",
        "recovery_ms": recovery_ms,
        "replayed_requests": msp.stats.replayed_requests,
    }]


def _recovery_claims(rows: list[dict]) -> list[Claim]:
    times = {row["mode"]: row["recovery_ms"] for row in rows}
    return [
        (
            "parallel session recovery is faster than sequential replay",
            times["parallel"] < times["sequential"],
        ),
        (
            "the speedup is material (>= 1.2x)",
            times["sequential"] / max(times["parallel"], 1e-9) >= 1.2,
        ),
    ]


#: Parallel vs sequential session recovery after an MSP crash.
ablation_parallel_recovery = Experiment(
    name="ablation-parallel-recovery",
    description=(
        f"Crash recovery time (ms) for {RECOVERY_SESSIONS} sessions x "
        "{requests} logged requests, parallel vs sequential replay"
    ),
    specs=lambda scale, seed: [
        dict(parallel=parallel, requests=max(30, int(400 * scale)), seed=seed)
        for parallel in (True, False)
    ],
    cell=_recovery_cell,
    claims=_recovery_claims,
)


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


def _dv_cell(spec: dict) -> list[dict]:
    """One backend crash under one DV granularity."""
    per_session_dv, remote_sessions, local_sessions, seed = (
        spec["per_session_dv"], spec["remote_sessions"], spec["local_sessions"],
        spec["seed"],
    )
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
    return [{
        "dv_granularity": "per-session" if per_session_dv else "per-MSP",
        "remote_sessions": remote_sessions,
        "local_sessions": local_sessions,
        "orphan_recoveries": front.stats.orphan_recoveries,
        "network_messages": network.messages_sent,
    }]


def _dv_specs(scale: float, seed: int) -> list[dict]:
    # As many purely local sessions as remote-calling ones.
    sessions = max(4, int(4 * scale))
    return [
        dict(per_session_dv=per_session, remote_sessions=sessions,
             local_sessions=sessions, seed=seed)
        for per_session in (True, False)
    ]


def _dv_claims(rows: list[dict]) -> list[Claim]:
    rollbacks = {row["dv_granularity"]: row["orphan_recoveries"] for row in rows}
    remote, local = rows[0]["remote_sessions"], rows[0]["local_sessions"]
    return [
        (
            "per-session DVs never roll back purely local sessions",
            rollbacks["per-session"] <= remote,
        ),
        (
            "a per-MSP DV rolls back more sessions (including purely local "
            "ones) than per-session DVs",
            rollbacks["per-MSP"] > rollbacks["per-session"],
        ),
        (
            "a per-MSP DV rolls back (nearly) every session",
            rollbacks["per-MSP"] >= remote + local - 1,
        ),
    ]


#: Per-session DVs vs one MSP-wide DV.  Half the sessions only touch
#: local state.  With one MSP-wide DV, every session's pre-send flush
#: carries the whole domain's dependencies, so the backend is dragged
#: into flushes by *local* sessions too — the per-MSP DV either floods
#: the backend with extra flushes or (when a dependency is caught
#: unflushed) rolls back every session at once, the paper's §3.2 "all
#: its sessions will roll back, possibly unnecessarily".  Per-session
#: DVs confine both costs to the sessions that actually depend on the
#: backend.
ablation_dv_granularity = Experiment(
    name="ablation-dv-granularity",
    description=(
        "One backend crash; {remote_sessions} remote-calling + {local_sessions} "
        "purely local sessions at the front MSP"
    ),
    specs=_dv_specs,
    cell=_dv_cell,
    claims=_dv_claims,
)
