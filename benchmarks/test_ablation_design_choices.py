"""Ablations of the paper's design choices (DESIGN.md §5).

The paper argues for parallel session recovery (Fig. 12) and for
per-session dependency vectors (§3.2) qualitatively; these benchmarks
measure both trade-offs:

- parallel replay overlaps one session's log reads with another's CPU
  replay, shortening the post-crash outage;
- a single MSP-wide DV turns one remote crash into a rollback of every
  session — including purely local ones that never depended on the
  crashed MSP.
"""

from benchmarks.conftest import assert_claims, report
from repro.harness import (
    ablation_dv_granularity,
    ablation_parallel_recovery,
)


def test_ablation_parallel_recovery(benchmark, bench_scale):
    result = benchmark.pedantic(
        ablation_parallel_recovery,
        kwargs={"scale": 0.3 * bench_scale},
        rounds=1,
        iterations=1,
    )
    report(result)
    assert_claims(result)


def test_ablation_dv_granularity(benchmark, bench_scale):
    result = benchmark.pedantic(
        ablation_dv_granularity,
        kwargs={"scale": 1.0},
        rounds=1,
        iterations=1,
    )
    report(result)
    assert_claims(result)

