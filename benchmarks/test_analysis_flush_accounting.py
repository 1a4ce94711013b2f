"""§5.2 analysis: flush counts and sector accounting.

Paper: pessimistic logging performs three sequential flushes per end
client request writing 2+3+2 sectors; locally optimistic performs one
distributed flush (two in parallel) writing 3 and 3 sectors — one less
sector per request, since every flush wastes half a sector on average.
"""

from benchmarks.conftest import assert_claims, report
from repro.harness import analysis_flush_accounting


def test_analysis_flush_accounting(bench_scale):
    result = analysis_flush_accounting(scale=0.25 * bench_scale)
    report(result)
    assert_claims(result)
