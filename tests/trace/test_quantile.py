"""The one quantile rule: exact nearest rank over the retained samples.

``nearest_rank`` is the only function in ``src/`` that maps sorted
samples to a quantile; the benchmark keeps its own copy in
``bench/child.py``, which must agree with it sample for sample.
"""

import ast
import math
import os

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace import Histogram
from repro.trace.metrics import nearest_rank

CHILD_PY = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "bench", "child.py"
)

samples_st = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1, max_size=60
)
q_st = st.floats(min_value=0.0, max_value=1.0)


def _bench_nearest_rank():
    """``bench/child.py::_nearest_rank`` without importing the script
    (its import rewrites ``sys.path`` and loads the bench harness)."""
    with open(CHILD_PY) as fh:
        tree = ast.parse(fh.read())
    (func,) = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "_nearest_rank"
    ]
    namespace = {"math": math}
    exec(compile(ast.Module([func], []), CHILD_PY, "exec"), namespace)
    return namespace["_nearest_rank"]


BENCH_NEAREST_RANK = _bench_nearest_rank()


@settings(max_examples=300, derandomize=True, deadline=None)
@given(samples_st, q_st)
def test_nearest_rank_is_the_smallest_sample_covering_the_rank(samples, q):
    ordered = sorted(samples)
    value = nearest_rank(ordered, q)
    assert value in samples
    rank = max(1, math.ceil(q * len(ordered)))
    assert sum(1 for x in ordered if x <= value) >= rank
    assert sum(1 for x in ordered if x < value) < rank


@settings(max_examples=200, derandomize=True, deadline=None)
@given(samples_st, q_st, q_st)
def test_nearest_rank_is_monotone_in_q(samples, q1, q2):
    ordered = sorted(samples)
    lo, hi = sorted((q1, q2))
    assert nearest_rank(ordered, lo) <= nearest_rank(ordered, hi)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(samples_st, q_st)
def test_nearest_rank_agrees_with_the_benchmark(samples, q):
    ordered = sorted(samples)
    assert nearest_rank(ordered, q) == BENCH_NEAREST_RANK(ordered, q)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(samples_st)
def test_histogram_quantiles_are_ordered_and_bounded(samples):
    hist = Histogram("h")
    for value in samples:
        hist.observe(value)
    data = hist.to_dict()
    assert hist.min <= data["p50"] <= data["p95"] <= data["p99"] <= hist.max
    assert data["p99"] == nearest_rank(sorted(samples), 0.99)
