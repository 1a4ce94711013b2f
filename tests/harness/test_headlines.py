"""The six headline experiments at their smallest sizes: documented row
shape, and every claim holding.

The two wall-clock ratios (``fleet-scaling``'s critical-path speedup,
``trace-overhead``'s traced/plain seconds) compare timings taken one
after another on a machine tier-1 shares with other work; they are
gated by the ``headlines`` CI job (``benchmarks/test_headline_results.py``)
and left out here, everything else those experiments claim is not.
"""

import pytest

from repro.harness import headlines

#: experiment -> (row count at scale 0, columns every row has, index of
#: the wall-clock claim or None).
SHAPES = {
    headlines.partition_scaling: (
        4, {"partitions", "sim_records_per_s", "flush_wait_mean_ms",
            "partitions_appended"}, None,
    ),
    headlines.instant_restart: (
        4, {"mode", "partitions", "sessions", "ttfr_ms", "full_recovery_ms",
            "inline_recoveries", "pump_recoveries", "served_before_recovery"},
        None,
    ),
    headlines.log_volume: (
        12, {"logging_mode", "partitions", "recovery_mode", "crashes",
             "log_bytes_per_request", "repair_ms", "mode_switches"}, None,
    ),
    headlines.log_space: (
        7, {"workload", "truncation", "records", "live_bytes",
            "appended_bytes", "recycled_segments"}, None,
    ),
    headlines.fleet_scaling: (
        4, {"shards", "jobs", "sessions", "calls", "busy_s", "critical_s",
            "clean", "fingerprint"}, 0,
    ),
    headlines.trace_overhead: (
        2, {"mode", "requests", "seconds", "trace_events"}, 0,
    ),
}


@pytest.mark.parametrize("experiment", SHAPES, ids=lambda fn: fn.__name__)
def test_headline_rows_and_claims(experiment):
    n_rows, columns, wall_claim = SHAPES[experiment]
    result = experiment(scale=0.0, jobs=1)
    assert len(result.rows) == n_rows
    for row in result.rows:
        assert columns <= set(row), row
    claims = [c for i, c in enumerate(result.claims) if i != wall_claim]
    assert claims and all(ok for _text, ok in claims), result.claims


def test_seed_offsets_the_cells_fixed_seeds():
    base = headlines.partition_scaling(scale=0.0, jobs=1)
    again = headlines.partition_scaling(scale=0.0, jobs=1)
    other = headlines.partition_scaling(scale=0.0, seed=1, jobs=1)
    assert again.rows == base.rows
    assert other.rows != base.rows
    assert other.all_claims_hold


def test_cells_fan_out_without_changing_a_number():
    assert (
        headlines.log_volume(scale=0.0, jobs=2).rows
        == headlines.log_volume(scale=0.0, jobs=1).rows
    )
