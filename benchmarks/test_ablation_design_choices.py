"""Ablations of the paper's design choices (DESIGN.md §5).

The paper argues for parallel session recovery (Fig. 12) and for
per-session dependency vectors (§3.2) qualitatively; these benchmarks
measure both trade-offs:

- parallel replay (one drain worker per session, ``recovery_mode:
  eager``) overlaps one session's log reads with another's CPU replay,
  shortening the post-crash outage relative to a single worker
  (``lazy`` with ``recovery_pump_concurrency=1``) — the experiment
  behind DESIGN.md §15's "the mode is a worker count" claim;
- a single MSP-wide DV turns one remote crash into a rollback of every
  session — including purely local ones that never depended on the
  crashed MSP.
"""

from benchmarks.conftest import assert_claims, report
from repro.harness import (
    ablation_dv_granularity,
    ablation_parallel_recovery,
)


def test_ablation_parallel_recovery(bench_scale):
    result = ablation_parallel_recovery(scale=0.3 * bench_scale, jobs=1)
    report(result)
    assert_claims(result)


def test_ablation_dv_granularity():
    result = ablation_dv_granularity(scale=1.0, jobs=1)
    report(result)
    assert_claims(result)

