"""The four benchmark workloads.

Every workload has the same shape, so every end-to-end metric is
measured on each of them: a *serve* phase (clients drive requests to
completion, with whatever crashes the workload schedules), then a
*recover* phase of quiesced restarts (crash an idle MSP, restart it,
step until it is open and no session is pending).  What differs is
which layer does the work; BENCHMARK.json and bench/README.md say why
each one exists.

Sizes are given at scale 1.0 (ten to fifteen timed seconds on the
host that wrote this); ``scale`` multiplies every request, session and
restart count, so one run can hold several cycles.  ``tick_ms`` is the
simulated time per slice of the timed phases, some 5 ms of wall time
on that host while serving: short enough to fit between two
interruptions by the host's other tenants.
"""

from __future__ import annotations

import random

from repro.fleet import FleetSpec, FleetTopology, generate_session_plans, run_fleet
from repro.fleet.runner import fleet_fingerprint
from repro.sim import RngRegistry
from repro.workloads.paper import PaperWorkload, WorkloadParams


def _scaled(count: float, scale: float, least: int = 1) -> int:
    return max(least, round(count * scale))


def _request_bytes(seed: int) -> int:
    """The paper's 100 B request argument, give or take 4 B by seed.

    The seed otherwise reaches the paper workloads only through the
    disks' interference draws, which leave most responses untouched:
    the 95th percentile of one closed-loop client came out as the very
    same float for every seed.  A few bytes on the wire move every
    simulated time a little, so no reported time is a constant.
    """
    return 96 + random.Random(seed).randrange(9)


class PaperWorld:
    """The paper's two-MSP topology (§5.1); restarts hit MSP1, after
    the servers have idled for ``idle_ms`` of simulated time."""

    def __init__(
        self, params: WorkloadParams, restarts: int, tick_ms: float, observer,
        idle_ms: float = 0.0,
    ):
        self.workload = PaperWorkload(params)
        self.attempted = params.num_clients * params.requests_per_client
        self._restarts = restarts
        self._idle_ms = idle_ms
        w = self.workload
        observer.add(w.sim, w.network, [w.msp1, w.msp2], [w.client], tick_ms)

    def serve(self) -> dict:
        result = self.workload.run()
        return {
            "completed": result.completed_requests,
            "sim_ms": result.elapsed_ms,
            "recovery_ms": [],
            "fleet": None,
        }

    def idle(self) -> None:
        sim = self.workload.sim
        sim.run(until=sim.now + self._idle_ms)

    def verify(self) -> None:
        self.workload.verify_exactly_once()
        self.workload.network.check_ledger()

    def restart_targets(self) -> list:
        return [(self.workload.sim, self.workload.msp1)] * self._restarts


class FleetWorld:
    """A sharded fleet under open-loop traffic; restarts hit every MSP
    in turn, ``rounds`` times."""

    def __init__(self, spec: FleetSpec, rounds: int, tick_ms: float, observer):
        self.spec = spec
        self._rounds = rounds
        self._tick_ms = tick_ms
        self._observer = observer
        self.shards: list = []
        self.result: dict = {}
        # The fleet draws its session plans from the spec's seed; the
        # same draw here gives the number of calls it will attempt.
        plans = generate_session_plans(
            FleetTopology(spec), RngRegistry(spec.seed).stream("fleet.traffic")
        )
        self.attempted = sum(len(plan.calls) for plan in plans)

    def _adopt(self, shard) -> None:
        self.shards.append(shard)
        self._observer.add(
            shard.sim, shard.network, list(shard.msps.values()),
            list(shard.clients.values()),
            self._tick_ms if shard.index == 0 else None,
        )

    def serve(self) -> dict:
        # jobs=1: one driver, one child, no worker processes.  The
        # tracer hook is how run_fleet hands its shards to a harness.
        self.result = result = run_fleet(self.spec, jobs=1, tracer_factory=self._adopt)
        timing = result["timing"]
        return {
            "completed": result["totals"]["completed_calls"],
            "sim_ms": result["sim_time_ms"],
            "recovery_ms": [event["duration_ms"] for event in result["recovery"]],
            "fleet": {
                "fingerprint": fleet_fingerprint(result),
                "epochs": result["epochs"],
                "cross_shard_messages": result["cross_shard_messages"],
                "wall_s": timing["wall_s"],
                "busy_s": timing["workers"]["busy_s"],
            },
        }

    def idle(self) -> None:
        """Not needed: every restart hits another MSP, in another state."""

    def verify(self) -> None:
        result = self.result
        problems = list(result["violations"])
        if not result["verdicts"]["clean"]:
            problems.append(f"verdicts not clean: {result['verdicts']}")
        if result["timed_out"] is not False:
            problems.append("fleet run timed out before settling")
        expected = result["expected_hits"]
        for shard in self.shards:
            shard.network.check_ledger()
            for name, msp in shard.msps.items():
                hits = int.from_bytes(msp.shared["hits"].value, "big")
                if hits != expected.get(name, 0):
                    problems.append(
                        f"{name}: {hits} hits, expected {expected.get(name, 0)}"
                    )
        if problems:
            raise AssertionError("; ".join(problems))

    def restart_targets(self) -> list:
        once = [(shard.sim, msp) for shard in self.shards for msp in shard.msps.values()]
        return once * self._rounds


def fig14_steady(seed: int, scale: float, observer) -> PaperWorld:
    """Paper §5.1 / Fig. 14: one closed-loop client, value logging,
    eager recovery, one log partition, no crashes while serving.

    How much log a restart has to scan right after this serve phase
    moves with the seed (3400 to 6500 records: which of the session,
    shared-variable and MSP checkpoints came last), and the simulated
    restart time with it, by up to half.  So the servers first idle for
    20 simulated seconds, until forced checkpoints have caught up, and
    the restarts measure what a restart costs when there is next to
    nothing to scan; ``restart_biglog`` measures the other end.
    """
    params = WorkloadParams(
        configuration="LoOptimistic", num_clients=1, calls_to_sm2=1,
        requests_per_client=_scaled(10_000, scale),
        request_arg_bytes=_request_bytes(seed), seed=seed,
    )
    return PaperWorld(
        params, _scaled(64, scale, least=2), 100.0, observer, idle_ms=20_000.0
    )


def fleet_open(seed: int, scale: float, observer) -> FleetWorld:
    """16 MSPs in 8 domains on 2 shards, open loop at 150 sessions per
    simulated second with 3x bursts, half the hops cross-domain, two
    crashes while serving."""
    duration_ms = 16_000.0 * scale
    spec = FleetSpec(
        msps=16, domains=8, shards=2, seed=seed,
        sessions=_scaled(2400, scale), duration_ms=duration_ms,
        think_ms=2, epoch_ms=40, cross_latency_ms=40, chain_depth=1,
        cross_domain_fraction=0.5,
        crash_plan=((duration_ms * 3 / 16, "m001"), (duration_ms * 9 / 16, "m004")),
    )
    return FleetWorld(spec, _scaled(16, scale), 10.0, observer)


def restart_biglog(seed: int, scale: float, observer) -> PaperWorld:
    """Eight closed-loop clients with batch flushing, served to the
    end, then restarts over the log they left (sequential scan, eager,
    one partition)."""
    params = WorkloadParams(
        configuration="LoOptimistic", num_clients=8,
        requests_per_client=_scaled(400, scale), atomic_sv_updates=True,
        batch_flush_timeout_ms=8, session_ckpt_threshold=256 * 1024,
        request_arg_bytes=_request_bytes(seed), seed=seed,
    )
    return PaperWorld(params, _scaled(20, scale, least=2), 20.0, observer)


def crashloop_lazy_p4(seed: int, scale: float, observer) -> PaperWorld:
    """Four clients over four log partitions with lazy recovery and an
    MSP2 kill every 200 requests (orphan recovery, partition cut and
    rewind, the lazy pump racing traffic), then restarts of MSP1.

    Session and forced checkpoints are off: with them, how much log the
    restarts face (30 records or 8000) depends on whether the last kill
    left the servers idle long enough to be checkpointed, which flips
    with the seed.  Without them every restart walks the whole log.
    """
    params = WorkloadParams(
        configuration="LoOptimistic", num_clients=4,
        requests_per_client=_scaled(1000, scale), atomic_sv_updates=True,
        log_partitions=4, recovery_mode="lazy", batch_flush_timeout_ms=8,
        crash_every_n=200, session_ckpt_threshold=None,
        forced_ckpt_msp_count=10**6, request_arg_bytes=_request_bytes(seed), seed=seed,
    )
    return PaperWorld(params, _scaled(5, scale, least=2), 50.0, observer)


WORKLOADS = {
    "fig14_steady": fig14_steady,
    "fleet_open": fleet_open,
    "restart_biglog": restart_biglog,
    "crashloop_lazy_p4": crashloop_lazy_p4,
}
