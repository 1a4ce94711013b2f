"""Fig. 17: multiple clients and batch flushing.

Shape claims: batch flushing raises pessimistic logging's peak
throughput substantially (paper: ~30%); with batching, LoOptimistic
still beats Pessimistic by >=30%; response time grows with clients and
batching helps response only above ~3 clients; without batching,
throughput saturates as the log disk becomes the bottleneck.
"""

from benchmarks.conftest import assert_claims, report
from repro.harness import fig17_multiclient


def test_fig17_multiclient(bench_scale):
    result = fig17_multiclient(scale=0.06 * bench_scale)
    report(result)
    assert_claims(result)
