"""The deterministic crash-schedule explorer.

Two modes over a *world* — the paper workload (§5.1 topology: client,
MSP1, MSP2 in one service domain) or a single-shard fleet — reached
through one surface (DESIGN.md §10): ``msps``, ``run(limit_ms)`` and
``violations()``, plus the ``sim`` and ``network`` the probes hook:

- **exhaustive** single-crash enumeration: one instrumented discovery
  run records every crash site the workload reaches; then, for each
  enumerated site, a fresh world is built and the target MSP is
  fail-stopped exactly there, recovery runs, and the invariant battery
  (:mod:`repro.fuzz.invariants`) is checked;
- **random** multi-crash/fault fuzzing: each case is fully determined by
  one integer ``case_seed`` — it seeds the world, the kill ordinals
  (1–3 crashes, possibly landing *inside* recovery) and the link-fault
  model (loss/duplication/reordering via :mod:`repro.net.faults`).
  A failing case therefore replays byte-for-byte from its seed alone:
  ``python -m repro fuzz --replay <seed>``.

Schedules are expressed in per-owner probe ordinals ("the k-th crash
site MSP2 reaches"), the coordinate system of :mod:`repro.fuzz.sites`.

Every schedule is an independent seeded simulation, so both modes fan
out across cores (``jobs``/``REPRO_JOBS``, :mod:`repro.parallel`):
workers rebuild their world from the serialized schedule alone and the
parent merges verdicts in schedule order, so a ``--jobs 8`` run
produces the byte-identical report of a ``--jobs 1`` run.  Exhaustive
mode additionally offers a bounded two-crash *pair* product
(``enumerate_schedules(kills=2)``) whose quadratic schedule count is
only practical multi-core.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Iterable, Optional

from repro.core.config import same_named
from repro.fleet.shard import FleetShard, msp_settled
from repro.fleet.topology import FleetSpec
from repro.fuzz.invariants import check_world
from repro.fuzz.sites import CrashInjector, TraceRecorder
from repro.net.faults import FaultModel
from repro.parallel import run_tasks
from repro.workloads.paper import PaperWorkload, WorkloadParams

#: Case-seed derivation for random mode: ``master_seed * _SEED_STRIDE + i``.
_SEED_STRIDE = 1_000_003


@dataclass(frozen=True)
class FaultSpec:
    """Link faults a schedule composes into the run (see ``build_world``)."""

    loss_prob: float = 0.0
    duplicate_prob: float = 0.0
    reorder_prob: float = 0.0
    reorder_max_delay_ms: float = 5.0

    def to_model(self) -> FaultModel:
        return FaultModel(
            loss_prob=self.loss_prob,
            duplicate_prob=self.duplicate_prob,
            reorder_prob=self.reorder_prob,
            reorder_max_delay_ms=self.reorder_max_delay_ms,
        )


@dataclass(frozen=True)
class CrashSchedule:
    """One replayable crash/fault schedule.

    ``kills`` are per-owner probe ordinals at which ``target`` is
    fail-stopped (and restarted).  Ordinals beyond the run's trace never
    fire — a no-op kill, which the minimizer prunes.
    """

    target: str
    kills: tuple[int, ...]
    seed: int
    faults: Optional[FaultSpec] = None

    def to_dict(self) -> dict:
        data = {
            "target": self.target,
            "kills": list(self.kills),
            "seed": self.seed,
        }
        if self.faults is not None:
            data["faults"] = asdict(self.faults)
        return data

    @staticmethod
    def from_dict(data: dict) -> "CrashSchedule":
        faults = data.get("faults")
        return CrashSchedule(
            target=data["target"],
            kills=tuple(int(k) for k in data["kills"]),
            seed=int(data["seed"]),
            faults=FaultSpec(**faults) if faults else None,
        )


#: Simulated-time budget; a schedule that exceeds it is a liveness
#: failure (clients stalled), not a hang of the explorer.
LIMIT_MS = 60_000.0
#: Extra simulated time after the run for in-flight recoveries.
QUIESCE_MS = 2_000.0
#: Random mode samples kill ordinals from ``[0, KILL_HORIZON)``.
KILL_HORIZON = 600
#: Recovery settings of every fuzzed world: small thresholds and
#: periods so checkpoint phases appear in traces, and log segments small
#: enough — and sv/forced checkpoints frequent enough that the minimal
#: LSN actually advances — that the short fuzz workloads recycle real
#: segments, so the truncate-step crash probes guard genuine recycling,
#: not no-op truncations.  A fleet world takes the ones ``FleetSpec``
#: carries.
FUZZ_RECOVERY = {
    "session_ckpt_threshold": 4 * 1024,
    "msp_ckpt_interval_ms": 40.0,
    "log_segment_bytes": 2048,
    "sv_ckpt_write_threshold": 6,
    "forced_ckpt_msp_count": 2,
}
#: The fleet world's arrival window, request-chain depth and share of
#: hops that cross a domain boundary.
FLEET_DURATION_MS = 400.0
FLEET_CHAIN_DEPTH = 2
FLEET_CROSS_DOMAIN_FRACTION = 0.75


@dataclass
class FuzzParams:
    """Shape of the fuzzed workload: what the CLI and tests choose.

    A field named like a ``WorkloadParams`` or ``FleetSpec`` field is
    that setting of the world (the mode fields are ``RecoveryConfig``
    settings, as there).
    """

    num_clients: int = 2
    requests_per_client: int = 6
    targets: tuple[str, ...] = ("msp1", "msp2")
    #: Log partition count (1 = classical single log); >1 exercises the
    #: per-partition group commit and DV-ordered recovery merge.
    log_partitions: int = 1
    #: Crash-recovery mode (DESIGN.md §15): ``eager`` drains a restart
    #: with one worker per session, ``lazy`` with
    #: ``recovery_pump_concurrency`` workers plus inline replays.  The
    #: drain's crash sites (hand-off, worker steps, session replays)
    #: fire in both, so the exhaustive battery enumerates
    #: crash-during-replay and crash-while-partially-recovered; only
    #: lazy reaches a request racing a not-yet-claimed session.
    recovery_mode: str = "eager"
    #: Lazy mode's drain worker count (paper topology only: a fleet
    #: drains with the ``RecoveryConfig`` default).
    recovery_pump_concurrency: int = 4
    #: Request logging mode: ``value`` (historical, byte-identical) or
    #: ``command`` (log the request, not the deltas — DESIGN.md §16).
    #: Command mode exercises command replay, the (lsn, ordinal)
    #: idempotence frontier and the in-memory rollback history under
    #: arbitrary crash schedules.
    logging_mode: str = "value"
    #: World shape: ``paper`` (the §5.1 three-node topology) or
    #: ``fleet`` (a single-shard multi-domain fleet, DESIGN.md §17,
    #: whose request chains cross domain boundaries — crash probes can
    #: then land mid-chain while a cross-domain pessimistic flush is in
    #: flight).  The ``fleet_*`` fields apply only to the latter.
    topology: str = "paper"
    fleet_msps: int = 4
    fleet_domains: int = 2
    fleet_sessions: int = 10

    def workload_params(self, seed: int) -> WorkloadParams:
        return WorkloadParams(
            configuration="LoOptimistic",
            # Atomic RMW counters: with the paper's separate read + write
            # accesses, two concurrent clients can interleave and lose an
            # increment with no crash at all (the fuzzer's first find),
            # which would make the counter oracle unsound.
            atomic_sv_updates=True,
            seed=seed,
            **same_named(WorkloadParams, FUZZ_RECOVERY),
            **same_named(WorkloadParams, self),
        )

    def fleet_spec(self, seed: int) -> FleetSpec:
        """The single-shard fleet this parameter set fuzzes."""
        return FleetSpec(
            msps=self.fleet_msps,
            domains=self.fleet_domains,
            shards=1,
            seed=seed,
            sessions=self.fleet_sessions,
            duration_ms=FLEET_DURATION_MS,
            chain_depth=FLEET_CHAIN_DEPTH,
            cross_domain_fraction=FLEET_CROSS_DOMAIN_FRACTION,
            think_ms=2.0,
            **same_named(FleetSpec, FUZZ_RECOVERY),
            **same_named(FleetSpec, self),
        )


def fleet_fuzz_params(**overrides) -> FuzzParams:
    """FuzzParams for the multi-domain fleet topology.

    Targets default to *every* fleet MSP, so exhaustive mode enumerates
    crash sites across all domains — upstreams mid cross-domain call,
    downstreams mid flush-serve.
    """
    params = FuzzParams(topology="fleet", **overrides)
    if "targets" not in overrides:
        params.targets = tuple(f"m{i:03d}" for i in range(params.fleet_msps))
    return params


@dataclass
class ScheduleResult:
    """Outcome of executing one schedule."""

    schedule: CrashSchedule
    violations: list[str]
    crashes_injected: int
    sites_in_trace: int
    completed_requests: int
    elapsed_sim_ms: float
    #: The structured tracer of the run, present only when the schedule
    #: was executed with ``trace=True`` (replay/diagnosis paths).  Not
    #: part of the fingerprint: tracing must never affect outcomes.
    tracer: Optional[object] = None

    @property
    def failed(self) -> bool:
        return bool(self.violations)

    def fingerprint(self) -> tuple:
        """Deterministic digest two replays of one case must agree on."""
        return (
            tuple(self.violations),
            self.crashes_injected,
            self.sites_in_trace,
            self.completed_requests,
            round(self.elapsed_sim_ms, 6),
        )


@dataclass
class FuzzFailure:
    """A reported failure: everything needed to reproduce it."""

    schedule: dict
    violations: list[str]
    case_seed: Optional[int] = None

    def to_dict(self) -> dict:
        return {
            "schedule": self.schedule,
            "violations": self.violations,
            "case_seed": self.case_seed,
            "replay": (
                f"python -m repro fuzz --replay {self.case_seed}"
                if self.case_seed is not None
                else "python -m repro fuzz --replay-file <artifact> --index <n>"
            ),
        }


@dataclass
class FuzzReport:
    """Summary of one explorer invocation (the CI artifact on failure)."""

    mode: str
    sites_discovered: dict[str, int] = field(default_factory=dict)
    schedules_run: int = 0
    crashes_injected: int = 0
    failures: list[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "sites_discovered": dict(self.sites_discovered),
            "total_sites": sum(self.sites_discovered.values()),
            "schedules_run": self.schedules_run,
            "crashes_injected": self.crashes_injected,
            "failures": [f.to_dict() for f in self.failures],
        }


# ---------------------------------------------------------------------------
# world construction and schedule execution
# ---------------------------------------------------------------------------


def build_world(params: FuzzParams, seed: int, faults: Optional[FaultSpec]):
    """A fresh world for one schedule: the paper workload, or a
    single-shard fleet when ``params.topology == "fleet"``.

    Schedule faults go on the paper world's client and MSP links, and on
    every link between two fleet MSPs.  A fleet's client links stay
    clean: its oracle counts a call only once the client saw the reply,
    so MSP-side loss, duplication and reordering is where its recovery
    machinery is exercised.
    """
    if params.topology == "fleet":
        world = FleetShard(params.fleet_spec(seed), 0)
        faulted = list(world.msps)
    else:
        world = PaperWorkload(params.workload_params(seed))
        faulted = ["client", *world.msps]
    if faults is not None:
        world.network.set_faults(faulted, faults.to_model())
    return world


class UnknownTargetError(ValueError):
    """A kill target the world has no MSP for."""


def _msp(world, target: str):
    """The world's MSP called ``target``; an unknown name is an error
    that names the MSPs the world has."""
    msp = world.msps.get(target)
    if msp is None:
        raise UnknownTargetError(
            f"unknown target {target!r}: this world's MSPs are "
            f"{', '.join(world.msps)}"
        )
    return msp


def check_targets(params: FuzzParams, targets: Iterable[str]) -> None:
    """Raise :class:`UnknownTargetError` unless every target names an
    MSP of the world ``params`` builds — before any schedule runs."""
    world = build_world(params, 0, None)
    for target in targets:
        _msp(world, target)


def _crash_and_restart(world, target: str):
    msp = _msp(world, target)

    def crash() -> None:
        msp.crash()
        msp.restart_process()

    return crash


def discover_sites(params: FuzzParams, seed: int = 0) -> TraceRecorder:
    """One uninjected run; returns the recorder holding the site trace."""
    world = build_world(params, seed, faults=None)
    recorder = TraceRecorder(world.sim).attach()
    world.run(limit_ms=LIMIT_MS)
    world.sim.run(until=world.sim.now + QUIESCE_MS)
    recorder.detach()
    return recorder


def run_schedule(
    schedule: CrashSchedule, params: FuzzParams, trace: bool = False
) -> ScheduleResult:
    """Execute one schedule in a fresh world and check every invariant.

    ``trace=True`` attaches a structured tracer (:mod:`repro.trace`) to
    the run's simulator and returns it on the result — the artifact a
    failure replay dumps so the failing schedule's timeline can be read
    in ``chrome://tracing``.
    """
    world = build_world(params, schedule.seed, schedule.faults)
    tracer = None
    if trace:
        from repro.trace import Tracer

        tracer = Tracer(world.sim).attach()
    recorder = TraceRecorder(world.sim).attach()
    injector = CrashInjector(
        world.sim,
        schedule.target,
        schedule.kills,
        _crash_and_restart(world, schedule.target),
    ).attach()
    result = world.run(limit_ms=LIMIT_MS)
    world.sim.run(until=world.sim.now + QUIESCE_MS)
    # A kill that lands at the very edge of the quiesce window leaves its
    # recovery or session replays in flight; grant bounded extra time so
    # the battery judges a recovered world, not a mid-recovery snapshot.
    # (A recovery that cannot finish within this budget is a genuine
    # liveness violation.)
    settle_deadline = world.sim.now + QUIESCE_MS
    while world.sim.now < settle_deadline and not all(
        msp_settled(msp) for msp in world.msps.values()
    ):
        if not world.sim.step():
            break
    injector.detach()
    recorder.detach()
    violations = check_world(world)
    if tracer is not None:
        tracer.finalize()
        from repro.trace import collect_component_metrics

        collect_component_metrics(
            tracer.metrics,
            msps=tuple(world.msps.values()),
            network=world.network,
        )
    return ScheduleResult(
        schedule=schedule,
        violations=violations,
        crashes_injected=injector.crashes_injected,
        sites_in_trace=len(recorder.events),
        completed_requests=result.completed_requests,
        elapsed_sim_ms=result.elapsed_ms,
        tracer=tracer,
    )


# ---------------------------------------------------------------------------
# exhaustive enumeration
# ---------------------------------------------------------------------------


def enumerate_schedules(
    params: FuzzParams,
    seed: int = 0,
    targets: Optional[Iterable[str]] = None,
    stride: int = 1,
    max_schedules: Optional[int] = None,
    kills: int = 1,
) -> tuple[list[CrashSchedule], dict[str, int]]:
    """Every ``kills``-crash schedule (1 or 2) from one discovery run.

    Per target, each strided ordinal becomes a single-kill schedule, or
    each ordered pair ``a < b`` of them a two-kill one — the second kill
    often lands *inside* the recovery the first one triggered, the
    interleaving single-crash enumeration cannot reach.  The pair space
    is quadratic (~616k pairs for the default workload's 1570 sites), so
    ``stride`` and ``max_schedules`` bound CI smoke passes; the
    truncation is evenly spaced so bounded runs still sample every phase
    of the workload rather than only its warm-up.
    """
    targets = tuple(targets or params.targets)
    check_targets(params, targets)
    recorder = discover_sites(params, seed)
    counts = {t: recorder.count_for(t) for t in targets}
    index: list[tuple[str, tuple[int, ...]]] = []
    for target, count in sorted(counts.items()):
        ordinals = range(0, count, max(1, stride))
        index.extend((target, k) for k in itertools.combinations(ordinals, kills))
    if max_schedules is not None and len(index) > max_schedules:
        step = len(index) / max_schedules
        index = [index[int(i * step)] for i in range(max_schedules)]
    schedules = [CrashSchedule(target=t, kills=k, seed=seed) for t, k in index]
    return schedules, counts


def _trim_error(error: str) -> str:
    """The last non-blank line of a worker traceback, for reports."""
    lines = [line.strip() for line in error.strip().splitlines() if line.strip()]
    return lines[-1] if lines else "unknown worker error"


def _execute_all(
    schedules: list[CrashSchedule],
    params: FuzzParams,
    jobs: Optional[int],
    progress,
) -> list[tuple[Optional[ScheduleResult], Optional[str]]]:
    """Run every schedule, in-process at ``jobs=1`` or fanned across cores.

    Returns ``(result, error)`` pairs **in schedule order** — the merge
    discipline that keeps parallel reports byte-identical to sequential
    ones.  ``error`` is set when the schedule raised or its worker died
    or hung, at every jobs value; such tasks surface as failures
    carrying their replayable schedule downstream.
    """
    outcomes = run_tasks(
        partial(run_schedule, params=params),
        schedules,
        jobs=jobs,
        progress=(
            None
            if progress is None
            else lambda done, n, outcome: progress(done, n, outcome.result)
        ),
    )
    return [(outcome.result, outcome.error) for outcome in outcomes]


def _merge_outcomes(
    report: FuzzReport,
    schedules: list[CrashSchedule],
    executed: list[tuple[Optional[ScheduleResult], Optional[str]]],
    case_seeds: Optional[list[int]] = None,
) -> FuzzReport:
    """Fold ordered per-schedule outcomes into the report."""
    for i, (schedule, (result, error)) in enumerate(zip(schedules, executed)):
        case_seed = case_seeds[i] if case_seeds is not None else None
        report.schedules_run += 1
        if error is not None:
            report.failures.append(
                FuzzFailure(
                    schedule=schedule.to_dict(),
                    violations=[f"worker-failure: {_trim_error(error)}"],
                    case_seed=case_seed,
                )
            )
            continue
        report.crashes_injected += result.crashes_injected
        if result.failed:
            report.failures.append(
                FuzzFailure(
                    schedule=schedule.to_dict(),
                    violations=result.violations,
                    case_seed=case_seed,
                )
            )
    return report


def explore_exhaustive(
    params: Optional[FuzzParams] = None,
    seed: int = 0,
    targets: Optional[Iterable[str]] = None,
    stride: int = 1,
    max_schedules: Optional[int] = None,
    progress=None,
    jobs: Optional[int] = None,
    pairs: bool = False,
) -> FuzzReport:
    """Run every enumerated single-crash (or two-crash) schedule."""
    params = params or FuzzParams()
    schedules, counts = enumerate_schedules(
        params,
        seed=seed,
        targets=targets,
        stride=stride,
        max_schedules=max_schedules,
        kills=2 if pairs else 1,
    )
    report = FuzzReport(
        mode="exhaustive-pairs" if pairs else "exhaustive", sites_discovered=counts
    )
    executed = _execute_all(schedules, params, jobs, progress)
    return _merge_outcomes(report, schedules, executed)


# ---------------------------------------------------------------------------
# seeded random multi-crash / fault fuzzing
# ---------------------------------------------------------------------------


def case_seed_for(master_seed: int, index: int) -> int:
    return master_seed * _SEED_STRIDE + index


def schedule_from_seed(case_seed: int, params: FuzzParams) -> CrashSchedule:
    """Derive the full schedule for one case, from its seed alone."""
    rng = random.Random(case_seed)
    target = rng.choice(sorted(params.targets))
    n_kills = rng.randint(1, 3)
    kills = tuple(sorted(rng.sample(range(KILL_HORIZON), n_kills)))
    faults: Optional[FaultSpec] = None
    if rng.random() < 0.5:
        faults = FaultSpec(
            loss_prob=rng.choice([0.0, 0.02, 0.05]),
            duplicate_prob=rng.choice([0.0, 0.02, 0.05]),
            reorder_prob=rng.choice([0.0, 0.1, 0.25]),
            reorder_max_delay_ms=rng.choice([2.0, 5.0]),
        )
    return CrashSchedule(target=target, kills=kills, seed=case_seed, faults=faults)


def run_random_case(
    case_seed: int, params: Optional[FuzzParams] = None, trace: bool = False
) -> ScheduleResult:
    """Execute (or replay) the case identified by ``case_seed``."""
    params = params or FuzzParams()
    return run_schedule(schedule_from_seed(case_seed, params), params, trace=trace)


def fuzz_random(
    master_seed: int = 0,
    runs: int = 50,
    params: Optional[FuzzParams] = None,
    progress=None,
    jobs: Optional[int] = None,
) -> FuzzReport:
    """``runs`` independent seeded cases; failures report their case seed."""
    params = params or FuzzParams()
    check_targets(params, params.targets)
    report = FuzzReport(mode="random")
    case_seeds = [case_seed_for(master_seed, i) for i in range(runs)]
    schedules = [schedule_from_seed(seed, params) for seed in case_seeds]
    executed = _execute_all(schedules, params, jobs, progress)
    return _merge_outcomes(report, schedules, executed, case_seeds=case_seeds)
