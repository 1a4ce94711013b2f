"""Fleet runner: jobs-invariance, canonical bytes, guard rails.

The central contract (DESIGN.md §17): the shard count is part of the
spec, ``--jobs`` is pure execution parallelism, and a fleet run is
byte-identical at any jobs value — including runs with mid-flight
crashes whose recovery traffic crosses the epoch barriers.
"""

import dataclasses

import pytest

from repro.fleet import (
    FleetSpec,
    canonical_result_bytes,
    fleet_fingerprint,
    run_fleet,
)
from repro.trace.metrics import nearest_rank

#: Small but non-trivial: two domains on two shards, cross-domain chains
#: (the pessimistic flush path) and one mid-run crash + restart.
SPEC = FleetSpec(
    msps=4,
    domains=2,
    shards=2,
    seed=3,
    sessions=24,
    duration_ms=600.0,
    chain_depth=1,
    cross_domain_fraction=0.5,
    think_ms=2.0,
    epoch_ms=5.0,
    cross_latency_ms=5.0,
    crash_plan=((150.0, "m001"),),
)


def test_small_fleet_runs_clean():
    result = run_fleet(SPEC, jobs=1)
    assert result["verdicts"]["clean"], result["violations"]
    assert result["totals"]["completed_sessions"] == SPEC.sessions
    assert result["totals"]["cross_domain_calls"] > 0
    assert result["cross_shard_messages"] > 0
    assert result["domains"] == [["m000", "m002"], ["m001", "m003"]]


def test_jobs_invariance_byte_identical():
    """jobs=1 (in-process reference) and jobs=2 (spawn workers) must
    produce byte-identical canonical results — the merge order, not the
    execution interleaving, defines the run."""
    serial = run_fleet(SPEC, jobs=1)
    pooled = run_fleet(SPEC, jobs=2)
    assert canonical_result_bytes(serial) == canonical_result_bytes(pooled)
    assert fleet_fingerprint(serial) == fleet_fingerprint(pooled)
    assert serial["verdicts"]["clean"]


def test_critical_steps_sum_the_busiest_shard_of_each_epoch():
    """The scaling metric (DESIGN.md §17): each epoch adds its largest
    per-shard step delta, so one shard's critical path is its whole run
    and two shards' lies between the bigger shard's total and the sum."""
    one = run_fleet(dataclasses.replace(SPEC, shards=1), jobs=1)["totals"]
    two = run_fleet(SPEC, jobs=1)
    per_shard = [shard["steps"] for shard in two["shards"]]
    assert one["critical_steps"] == one["steps"]
    assert two["totals"]["steps"] == sum(per_shard)
    assert max(per_shard) <= two["totals"]["critical_steps"] < sum(per_shard)


def test_latency_quantiles_are_exact_over_all_shards():
    """The reported p50/p95/p99 are nearest-rank values of every shard's
    call latencies merged, the same at any jobs value, and the result
    carries the three numbers, not the samples."""
    shards = []
    serial = run_fleet(SPEC, jobs=1, tracer_factory=shards.append)
    pooled = run_fleet(SPEC, jobs=2)
    merged = sorted(ms for shard in shards for ms in shard.latencies_ms)
    assert len(shards) == 2 and len(merged) == serial["totals"]["completed_calls"]
    latency = serial["latency_ms"]
    for key, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
        assert latency[key] == round(nearest_rank(merged, q), 6)
    assert latency["p95"] == pooled["latency_ms"]["p95"]
    assert latency["p50"] <= latency["p95"] <= latency["p99"] <= latency["max"]
    assert all("samples_ms" not in shard["latency"] for shard in serial["shards"])


def test_canonical_bytes_exclude_wall_clock():
    result = run_fleet(SPEC, jobs=1)
    before = canonical_result_bytes(result)
    result["timing"] = {"wall_s": 123456.0, "jobs": 99, "workers": {}}
    assert canonical_result_bytes(result) == before


def test_jobs_capped_at_shard_count():
    spec = FleetSpec(
        msps=2, domains=2, shards=2, sessions=6, duration_ms=200.0,
        chain_depth=0, epoch_ms=5.0, cross_latency_ms=5.0,
    )
    result = run_fleet(spec, jobs=16)
    assert result["timing"]["jobs"] == 2
    assert result["verdicts"]["clean"], result["violations"]


def test_tracer_requires_sequential_execution():
    with pytest.raises(ValueError, match="jobs 1"):
        run_fleet(SPEC, jobs=2, tracer_factory=lambda shard: None)


def test_domains_isolated_under_full_cross_traffic():
    """DV-never-crosses regression at fleet level: with every hop forced
    across a domain boundary, the invariant scan must find no DV that
    leaked past a boundary (verdict ``domains_isolated``)."""
    spec = FleetSpec(
        msps=4,
        domains=2,
        shards=2,
        seed=9,
        sessions=16,
        duration_ms=400.0,
        chain_depth=2,
        cross_domain_fraction=1.0,
        think_ms=2.0,
        epoch_ms=5.0,
        cross_latency_ms=5.0,
    )
    result = run_fleet(spec, jobs=1)
    assert result["verdicts"]["domains_isolated"]
    assert result["verdicts"]["clean"], result["violations"]
