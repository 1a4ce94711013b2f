"""Fig. 15(a): throughput versus session checkpointing threshold.

Shape claims: even a 64 KB threshold costs only a small amount of
throughput, and a 4 MB threshold is indistinguishable from disabling
checkpointing.
"""

from benchmarks.conftest import assert_claims, report
from repro.harness import fig15a_checkpoint_overhead


def test_fig15a_checkpoint_overhead(bench_scale):
    result = fig15a_checkpoint_overhead(scale=0.2 * bench_scale)
    report(result)
    assert_claims(result)
