"""Fig. 15(b): throughput versus forced crash rate.

The §5.4 crash scenario: MSP2 kills itself right after MSP1 receives its
reply, losing its buffered log records, so SE1 at MSP1 becomes an
orphan under locally optimistic logging.  Shape claims: LoOptimistic
stays above Pessimistic at every crash rate; both decline as crashes
become more frequent; LoOptimistic declines more (it pays orphan
recovery on top of MSP2's crash recovery).  Exactly-once execution is
verified after every run.
"""

from benchmarks.conftest import assert_claims, report
from repro.harness import fig15b_crash_throughput


def test_fig15b_crash_throughput(bench_scale):
    result = fig15b_crash_throughput(scale=0.08 * bench_scale)
    report(result)
    assert_claims(result)
