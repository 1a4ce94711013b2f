"""Pinned kernel step counts: a callback added, dropped or reordered fails here.

``Simulator.steps`` counts callbacks run, so it moves whenever a change
schedules one callback more or fewer; completed requests, appended log
bytes and the fleet fingerprint move when callbacks run in another
order.  The benchmark checks the same things (its fingerprints) but
takes 30 s per workload and runs on one Python; these three small
seeded runs take seconds and run on every CI Python version.

``RECORDED`` was taken at commit ``710c7fd``, before the PR 18 kernel
fast path touched ``repro.sim``; PR 21 replaced the fleet fingerprint
string only (it hashes ``asdict(MspStats)``: the inline + pump sum
field left the dataclass and ``pump_recoveries`` now counts eager
replays too — every other pinned value stood); PR 22 (one checkpoint
layout for every partition count) replaced ``log_bytes`` of
``p1_eager`` (271248 -> 271252) and of the fleet (47777 -> 47788) and
the fleet fingerprint, with all three step counts, completed counts
and ``p4_lazy_crashing`` standing; PR 23 (one undo: rollback reads no
log, so the chunk reads it charged under the variable's write lock are
gone and what waited behind them runs earlier) re-recorded
``p4_lazy_crashing`` only (steps 32400 -> 32189, ``log_bytes`` 430469
-> 430224); the fleet result's ``totals`` gained ``critical_steps``
(the per-epoch busiest shard's steps, summed), which replaced the fleet
fingerprint string only; deleting adaptive logging took
``mode_switches`` out of ``MspStats``, which replaced the fleet
fingerprint string only; reading a partitioned restart's partitions at
once and flushing an MSP checkpoint's partitions at once re-recorded
``p4_lazy_crashing`` only (steps 32189 -> 30399, ``log_bytes`` 430224
-> 424292: the restarts are shorter, so everything after them runs
at other simulated times).  ``advanced`` (the callbacks of ``steps``
that ``Simulator.advance`` took in place) was added next to ``steps``
with no other value moving: a stray timer that keeps the heap from
proving a hold's wake-up next turns the fast path off without moving
any simulated result, and fails here.  The fleet result's spec and
``msp_stats`` now carry only values that differ from their default or
from 0, which replaced the fleet fingerprint string only, so that later
an unused setting turned constant, or a counter deleted, moves none.  Regenerating it is legitimate only in
a PR that *announces* a fingerprint move (one that changes simulated
behaviour on purpose, e.g. CPU-charge coalescing, and says so in
CHANGES.md together with the benchmark's new fingerprints) — never to
make a pure wall-clock optimisation pass.  To regenerate, run
``PYTHONPATH=src python tests/sim/test_steps_pinned.py`` and paste the
printed dict.
"""

import pytest

from repro.fleet import FleetSpec, run_fleet
from repro.fleet.runner import fleet_fingerprint
from repro.workloads.paper import PaperWorkload, WorkloadParams

RECORDED = {
    "p1_eager": {
        "steps": 9995, "advanced": 3038, "completed": 120, "crashes": 0, "log_bytes": 271252,
    },
    "p4_lazy_crashing": {
        "steps": 30399, "advanced": 6511, "completed": 160, "crashes": 3, "log_bytes": 424292,
    },
    "fleet": {
        "steps": 5665,
        "advanced": 1119,
        "completed": 58,
        "log_bytes": 47788,
        "fingerprint": "666b4355aeb4a5094114fa3b395ddf5ce3ba07be50f02e8bab6f325d8b981cde",
    },
}

PAPER_PARAMS = {
    "p1_eager": WorkloadParams(
        configuration="LoOptimistic", num_clients=2, requests_per_client=60,
        atomic_sv_updates=True, seed=5,
    ),
    "p4_lazy_crashing": WorkloadParams(
        configuration="LoOptimistic", num_clients=4, requests_per_client=40,
        atomic_sv_updates=True, log_partitions=4, recovery_mode="lazy",
        batch_flush_timeout_ms=8, crash_every_n=50, seed=5,
    ),
}

FLEET_SPEC = FleetSpec(
    msps=4, domains=2, shards=2, seed=3, sessions=24, duration_ms=600.0,
    chain_depth=1, cross_domain_fraction=0.5, think_ms=2.0, epoch_ms=5.0,
    cross_latency_ms=5.0, crash_plan=((150.0, "m001"),),
)


def run_paper(params: WorkloadParams) -> dict:
    workload = PaperWorkload(params)
    msps = (workload.msp1, workload.msp2)
    # Every boot builds a new LogManager with zeroed stats, so a crashing
    # incarnation's appended bytes are saved as it dies.
    dead_bytes = []
    for msp in msps:
        def crash(msp=msp, crash=msp.crash):
            dead_bytes.append(msp.log.stats.appended_bytes)
            crash()
        msp.crash = crash
    result = workload.run()
    workload.verify_exactly_once()
    return {
        "steps": workload.sim.steps,
        "advanced": workload.sim.advanced,
        "completed": result.completed_requests,
        "crashes": result.crashes,
        "log_bytes": sum(dead_bytes) + sum(m.log.stats.appended_bytes for m in msps),
    }


def run_small_fleet() -> dict:
    sims = []  # the shards' simulators, for their ``advanced`` counts
    result = run_fleet(FLEET_SPEC, jobs=1, tracer_factory=lambda shard: sims.append(shard.sim))
    assert result["verdicts"]["clean"], result["violations"]
    assert result["recovery"], "the crash plan did not crash anything"
    return {
        "steps": result["totals"]["steps"],
        "advanced": sum(sim.advanced for sim in sims),
        "completed": result["totals"]["completed_calls"],
        "log_bytes": sum(
            log["live_bytes"] for shard in result["shards"] for log in shard["log"].values()
        ),
        "fingerprint": fleet_fingerprint(result),
    }


def measure() -> dict:
    measured = {name: run_paper(params) for name, params in PAPER_PARAMS.items()}
    measured["fleet"] = run_small_fleet()
    return measured


@pytest.mark.parametrize("name", sorted(PAPER_PARAMS))
def test_paper_workload_steps_pinned(name):
    assert run_paper(PAPER_PARAMS[name]) == RECORDED[name]


def test_fleet_steps_and_fingerprint_pinned():
    assert run_small_fleet() == RECORDED["fleet"]


if __name__ == "__main__":
    import pprint

    pprint.pprint(measure(), sort_dicts=False)
