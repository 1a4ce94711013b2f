"""Fig. 14 (table): average response time of the five configurations.

Paper values (ms): LoOptimistic 24.746, Pessimistic 35.227, NoLog 8.697,
Psession 48.617, StateServer 16.658.  Shape claims: the full ordering
NoLog < StateServer < LoOptimistic < Pessimistic < Psession, and the
~30% response-time reduction of locally optimistic over pessimistic
logging.
"""

from benchmarks.conftest import assert_claims, report
from repro.harness import fig14_response_table


def test_fig14_response_table(bench_scale):
    result = fig14_response_table(scale=0.05 * bench_scale)
    report(result)
    assert_claims(result)
