"""Fig. 14 (chart): response time versus calls to ServiceMethod2.

Shape claims: all configurations grow with m; the LoOptimistic-
Pessimistic gap widens (pessimistic pays two more flushes per call,
LoOptimistic still one distributed flush total); StateServer grows
faster than LoOptimistic and is close to it at m=4; the LoOptimistic-
NoLog gap increases slowly.
"""

from benchmarks.conftest import assert_claims, report
from repro.harness import fig14_calls_chart


def test_fig14_calls_chart(bench_scale):
    result = fig14_calls_chart(scale=0.04 * bench_scale)
    report(result)
    assert_claims(result)
