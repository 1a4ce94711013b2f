"""Tests for the experiment harness: metrics, results, rendering."""

import pytest

from repro.harness import ExperimentResult, render_result
from repro.harness.experiments import fig14_response_table
from repro.trace import Histogram
from repro.trace.metrics import nearest_rank


def _response_stats(samples):
    hist = Histogram("response_ms")
    for value in samples:
        hist.observe(value)
    return hist


def test_response_stats_empty():
    stats = _response_stats([])
    assert stats.count == 0
    assert stats.mean == 0.0
    assert stats.quantile(0.5) == 0.0


def test_response_stats_basic():
    stats = _response_stats([1.0, 2.0, 3.0, 4.0])
    assert stats.count == 4
    assert stats.mean == pytest.approx(2.5)
    assert stats.quantile(0.5) == nearest_rank([1.0, 2.0, 3.0, 4.0], 0.5) == 2.0
    assert stats.max == 4.0
    assert stats.min == 1.0


def test_response_stats_percentiles():
    samples = [float(v) for v in range(1, 101)]
    assert nearest_rank(samples, 0.95) == 95.0
    assert nearest_rank(samples, 0.99) == 99.0


def test_experiment_result_claims():
    result = ExperimentResult(
        experiment="x", description="d", claims=[("good", True), ("bad", False)]
    )
    assert not result.all_claims_hold
    result2 = ExperimentResult(experiment="y", description="d", claims=[("good", True)])
    assert result2.all_claims_hold


def test_render_includes_rows_paper_and_claims():
    result = ExperimentResult(
        experiment="demo", description="demo table", paper={"ref": 42},
        rows=[{"name": "row1", "value": 3.14159}],
        claims=[("something holds", True), ("something fails", False)],
    )
    text = render_result(result)
    assert "demo table" in text
    assert "row1" in text
    assert "3.142" in text
    assert "ref: 42" in text
    assert "[PASS] something holds" in text
    assert "[FAIL] something fails" in text


def test_fig14_tiny_scale_structure():
    """The experiment functions produce well-formed results even at a
    tiny scale (claims may be noisy there, structure must hold)."""
    result = fig14_response_table(scale=0.003)
    assert len(result.rows) == 5
    assert {row["configuration"] for row in result.rows} == {
        "LoOptimistic", "Pessimistic", "NoLog", "Psession", "StateServer"
    }
    for row in result.rows:
        assert row["mean_response_ms"] > 0
        assert row["paper_ms"] > 0
    assert len(result.claims) == 2
