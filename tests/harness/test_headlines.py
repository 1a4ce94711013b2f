"""The six headline experiments at their smallest sizes: documented row
shape, and every claim holding."""

import pytest

from repro.__main__ import EXPERIMENTS

#: experiment -> (row count at scale 0, columns every row has).
SHAPES = {
    "partition-scaling": (
        4, {"partitions", "sim_records_per_s", "flush_wait_mean_ms",
            "partitions_appended"},
    ),
    "instant-restart": (
        4, {"mode", "partitions", "sessions", "ttfr_ms", "full_recovery_ms",
            "inline_recoveries", "pump_recoveries", "served_before_recovery"},
    ),
    "log-volume": (
        12, {"logging_mode", "partitions", "recovery_mode", "crashes",
             "log_bytes_per_request", "repair_ms", "mode_switches"},
    ),
    "log-space": (
        7, {"workload", "truncation", "records", "live_bytes",
            "appended_bytes", "recycled_segments"},
    ),
    "fleet-scaling": (
        4, {"shards", "jobs", "sessions", "calls", "steps", "critical_steps",
            "clean", "fingerprint"},
    ),
    "trace-overhead": (2, {"mode", "requests", "steps", "trace_events"}),
}


@pytest.mark.parametrize("name", SHAPES, ids=lambda name: name.replace("-", "_"))
def test_headline_rows_and_claims(name):
    n_rows, columns = SHAPES[name]
    result = EXPERIMENTS[name](scale=0.0, jobs=1)
    assert len(result.rows) == n_rows
    for row in result.rows:
        assert columns <= set(row), row
    assert result.claims and result.all_claims_hold, result.claims


def test_seed_offsets_the_cells_fixed_seeds():
    experiment = EXPERIMENTS["partition-scaling"]
    base = experiment(scale=0.0, jobs=1)
    again = experiment(scale=0.0, jobs=1)
    other = experiment(scale=0.0, seed=1, jobs=1)
    assert again.rows == base.rows
    assert other.rows != base.rows
    assert other.all_claims_hold


def test_cells_fan_out_without_changing_a_number():
    experiment = EXPERIMENTS["log-volume"]
    assert experiment(scale=0.0, jobs=2).rows == experiment(scale=0.0, jobs=1).rows


@pytest.mark.parametrize("name", ["fleet-scaling", "trace-overhead"])
def test_step_counts_fan_out_without_changing_a_number(name):
    # The fleet cell nests a four-worker fleet pool inside a sweep
    # worker; neither its rows (step counts, fingerprints) nor its claims
    # may notice.
    experiment = EXPERIMENTS[name]
    parallel = experiment(scale=0.0, jobs=2)
    sequential = experiment(scale=0.0, jobs=1)
    assert parallel.rows == sequential.rows
    assert parallel.claims == sequential.claims
