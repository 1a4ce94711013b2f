"""The headline results beyond the paper's figures, gated at CI scale.

Partition scaling, instant restart, log volume, log space, fleet scaling
and trace overhead: each is a ``repro run <name>`` experiment whose
claims are its gate (``src/repro/harness/headlines.py`` has the bounds);
the scales are the smallest at which every bound is meant to hold on a
CI runner, under 15 s of simulation all told.
"""

import pytest

from benchmarks.conftest import assert_claims, report
from repro.__main__ import EXPERIMENTS

CI_SCALES = {
    "partition-scaling": 0.5,
    "instant-restart": 0.02,
    "log-volume": 0.25,
    "log-space": 0.25,
    "fleet-scaling": 0.25,
    "trace-overhead": 0.5,
}


@pytest.mark.parametrize("name", CI_SCALES)
def test_headline_result(name, bench_scale):
    result = EXPERIMENTS[name](scale=CI_SCALES[name] * bench_scale, jobs=1)
    report(result)
    assert_claims(result)
