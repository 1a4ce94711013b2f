"""Tests for the experiment harness: metrics, results, rendering."""

import math

import pytest

from repro.harness import Claim, ExperimentResult, render_result
from repro.harness.experiments import FIG17_CLIENTS, _fig17_claims, fig14_response_table
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
    good, bad = Claim("good", 1, "==", 1), Claim("bad", 2, "<", 1)
    result = ExperimentResult(experiment="x", description="d", claims=[good, bad])
    assert not result.all_claims_hold
    result2 = ExperimentResult(experiment="y", description="d", claims=[good])
    assert result2.all_claims_hold


@pytest.mark.parametrize("op, holds_at", [
    (">=", (1.0, 2.0)), (">", (2.0,)), ("<=", (0.0, 1.0)), ("<", (0.0,)), ("==", (1.0,)),
])
def test_claim_compares_measured_against_bound(op, holds_at):
    for measured in (0.0, 1.0, 2.0):
        assert Claim("x", measured, op, 1.0).holds == (measured in holds_at)
    # NaN is not a number any comparator accepts.
    assert not Claim("x", math.nan, op, 1.0).holds


def test_claim_line_is_rendered_from_its_fields():
    claim = Claim("P=4 / P=1 append throughput", 2.4975, ">=", 1.8, paper=3.1)
    assert str(claim) == "[PASS] P=4 / P=1 append throughput: 2.50 >= 1.8 (paper 3.10)"
    assert str(Claim("out of order", 2, "==", 0)) == "[FAIL] out of order: 2 == 0"
    # A small ratio keeps three significant digits; NaN prints as nan.
    assert str(Claim("gap", 0.00236, "<", 0.25)).endswith(": 0.00236 < 0.25")
    assert str(Claim("gap", math.nan, "<", 0.25)) == "[FAIL] gap: nan < 0.25"


def _fig17_rows(unbatched_throughputs: list) -> list[dict]:
    """Fig. 17 rows whose unbatched throughput curves are the given one
    (for both configurations) and whose other curves are plausible."""
    rows = []
    for configuration in ("Pessimistic", "LoOptimistic"):
        for batch in (False, True):
            for i, clients in enumerate(FIG17_CLIENTS):
                rows.append({
                    "configuration": configuration, "batch": batch, "clients": clients,
                    "throughput_rps": (
                        unbatched_throughputs[i] if not batch else 10.0 * clients
                    ),
                    "mean_response_ms": 30.0 + clients,
                })
    return rows


@pytest.mark.parametrize("curve, saturates", [
    # Peaks at its last point, +18% over the one before (scale 0.05's
    # Pessimistic curve): still climbing.
    ([25.7, 43.2, 57.1, 70.6, 90.8, 107.5], False),
    # Flattens: the last point within 5% of the one before.
    ([25.7, 43.2, 57.1, 70.6, 90.8, 94.0], True),
    # Peaks before the last point.
    ([25.7, 43.2, 57.1, 70.6, 90.8, 88.0], True),
])
def test_fig17_saturation_claim_checks_its_text(curve, saturates):
    [claim] = [
        c for c in _fig17_claims(_fig17_rows(curve))
        if c.what.startswith("unbatched curves that peak at the most clients")
    ]
    assert claim.holds == saturates, claim
    assert claim.measured == (0 if saturates else 2)


def test_render_includes_rows_paper_and_claims():
    result = ExperimentResult(
        experiment="demo", description="demo table",
        rows=[{"name": "row1", "value": 3.14159}],
        claims=[Claim("something", 1, "==", 1, paper=42), Claim("other", 3, "<", 2)],
    )
    text = render_result(result)
    assert "demo table" in text
    assert "row1" in text
    assert "3.142" in text
    assert "[PASS] something: 1 == 1 (paper 42)" in text
    assert "[FAIL] other: 3 < 2" in text


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
    assert len(result.claims) == 3
