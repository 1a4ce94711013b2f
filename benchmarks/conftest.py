"""Shared configuration for the benchmark suite.

Every benchmark regenerates one of the paper's evaluation artifacts
(§5 tables and figures) at a reduced scale, checks the paper's *shape*
claims against the measured rows, and prints the full table.

Scale can be raised for a paper-fidelity run::

    REPRO_BENCH_SCALE=1.0 pytest benchmarks/ -s
"""

import os

import pytest


@pytest.fixture(scope="session")
def bench_scale() -> float:
    """Global multiplier on each benchmark's default scale."""
    return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def report(result) -> None:
    """Print a rendered experiment table (visible with ``-s`` or on failure)."""
    from repro.harness import render_result

    print()
    print(render_result(result))


def assert_claims(result) -> None:
    failed = [str(claim) for claim in result.claims if not claim.holds]
    assert not failed, f"{result.experiment}: shape claims failed: {failed}"
