"""Fig. 16 (chart): checkpoint threshold versus throughput under crashes.

Shape claims: past the optimum, larger thresholds hurt throughput
because crash recovery replays more logged requests; the best threshold
is an interior point, not the largest tested.
"""

from benchmarks.conftest import assert_claims, report
from repro.harness import fig16_optimal_threshold


def test_fig16_optimal_threshold(bench_scale):
    result = fig16_optimal_threshold(scale=0.15 * bench_scale)
    report(result)
    assert_claims(result)
