"""Fig. 16 (table): maximum response times.

Shape claims: crashes raise the maximum response time substantially for
both logging methods; LoOptimistic's crash maximum exceeds
Pessimistic's (the extra SE1 orphan recovery at MSP1, §5.4); average
response stays low even under crashes.  The paper's absolute maxima
include Windows scheduling noise (their own NoLog maximum was 217 ms on
an 8.7 ms mean); we compare shapes, not absolutes.
"""

from benchmarks.conftest import assert_claims, report
from repro.harness import fig16_max_response_table


def test_fig16_max_response(bench_scale):
    result = fig16_max_response_table(scale=0.08 * bench_scale)
    report(result)
    assert_claims(result)
