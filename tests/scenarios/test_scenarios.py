"""Scenario-matrix grammar, execution and report determinism."""

import pathlib

import pytest

from repro.__main__ import _build_parser
from repro.scenarios import (
    ScenarioSpec,
    build_report,
    render_html,
    render_markdown,
    run_matrix,
)

REPO = pathlib.Path(__file__).resolve().parents[2]


TINY = {
    "name": "tiny",
    "base": {"sessions": 10, "duration_ms": 1200.0},
    "seeds": [3],
    "topologies": [
        {"name": "single", "msps": 1, "domains": 1, "shards": 1,
         "chain_depth": 0},
        {"name": "fleet", "msps": 4, "domains": 2, "shards": 2,
         "chain_depth": 1},
    ],
    "faults": [
        {"name": "calm", "family": "none"},
        {"name": "crash", "family": "crash", "at_ms": 500.0, "targets": [0]},
        {"name": "rack", "family": "correlated", "at_ms": 500.0,
         "targets": [0, 2]},
        {"name": "split", "family": "partition", "start_ms": 400.0,
         "end_ms": 800.0},
        {"name": "site", "family": "disaster", "at_ms": 450.0, "domain": 0},
    ],
}


# -- grammar ---------------------------------------------------------------


def test_validation_rejects_bad_matrices():
    with pytest.raises(ValueError, match="unknown fault family"):
        ScenarioSpec.from_dict(
            {"topologies": TINY["topologies"],
             "faults": [{"name": "x", "family": "meteor"}]}
        )
    with pytest.raises(ValueError, match="at least one topology"):
        ScenarioSpec.from_dict({"faults": TINY["faults"]})
    with pytest.raises(ValueError, match="unknown FleetSpec fields"):
        ScenarioSpec.from_dict(
            {"base": {"warp_speed": 9},
             "topologies": TINY["topologies"], "faults": TINY["faults"]}
        )
    with pytest.raises(ValueError, match="unknown matrix keys"):
        ScenarioSpec.from_dict({"fault": []})


def test_expansion_covers_the_full_product():
    spec = ScenarioSpec.from_dict(TINY)
    cells = spec.expand()
    # 2 topologies x 5 faults x 1 seed, plus one cold baseline per
    # disaster cell.
    assert len(cells) == 2 * 5 + 2
    ids = [c.cell_id for c in cells]
    assert len(ids) == len(set(ids))
    baselines = [c for c in cells if c.baseline_of]
    assert {b.baseline_of for b in baselines} == {
        "single/site/s3", "fleet/site/s3"
    }
    for baseline in baselines:
        warm = next(c for c in cells if c.cell_id == baseline.baseline_of)
        assert warm.fleet.warm_standby and warm.fleet.disaster_plan
        assert not baseline.fleet.warm_standby
        # The baseline crashes exactly the MSPs the disaster destroys,
        # at the same instant.
        assert baseline.fleet.crash_plan
        assert {t for t, _m in baseline.fleet.crash_plan} == {
            warm.fleet.disaster_plan[0][0]
        }


def test_partition_sides_adapt_to_the_topology():
    spec = ScenarioSpec.from_dict(TINY)
    by_id = {c.cell_id: c for c in spec.expand()}
    single = by_id["single/split/s3"].fleet.partition_plan[0]
    assert set(single[2]) == {"m000"}
    assert set(single[3]) == {"c.m000"}
    fleet = by_id["fleet/split/s3"].fleet.partition_plan[0]
    assert set(fleet[2]) == {"m000", "m002", "c.m000", "c.m002"}
    assert set(fleet[3]) == {"m001", "m003", "c.m001", "c.m003"}


def test_correlated_targets_reduce_modulo_msp_count():
    spec = ScenarioSpec.from_dict(TINY)
    by_id = {c.cell_id: c for c in spec.expand()}
    # On the single topology both targets collapse to m000: one entry.
    assert by_id["single/rack/s3"].fleet.crash_plan == ((500.0, "m000"),)
    assert by_id["fleet/rack/s3"].fleet.crash_plan == (
        (500.0, "m000"), (500.0, "m002"),
    )


def test_default_matrix_is_valid_and_spans_the_families():
    """``repro scenarios`` without ``--matrix`` runs the committed
    ``scenarios/default.yaml``."""
    path = _build_parser().parse_args(["scenarios"]).matrix
    assert pathlib.Path(path) == REPO / "scenarios" / "default.yaml"
    spec = ScenarioSpec.load(path)
    cells = spec.expand()
    families = {c.family for c in cells if not c.family.endswith("-baseline")}
    assert families == {"none", "crash", "correlated", "partition", "disaster"}
    assert {c.topology for c in cells} == {"single", "fleet"}


def test_committed_matrices_parse_and_expand():
    for name in ("default.yaml", "smoke.yaml"):
        spec = ScenarioSpec.load(str(REPO / "scenarios" / name))
        cells = spec.expand()
        families = {
            c.family for c in cells if not c.family.endswith("-baseline")
        }
        assert len(families) >= 4, name


# -- execution -------------------------------------------------------------


def run_tiny(jobs):
    return run_matrix(ScenarioSpec.from_dict(TINY), jobs=jobs)


def test_matrix_runs_clean_and_is_jobs_invariant():
    report = run_tiny(jobs=1)
    assert report["verdicts"]["all_clean"], report["failing_cells"]
    assert report["verdicts"]["failover_beats_cold"], (
        report["failover_vs_cold"]
    )
    again = run_tiny(jobs=2)
    assert again["fingerprint"] == report["fingerprint"]
    assert render_markdown(again) == render_markdown(report)
    assert render_html(again) == render_html(report)
    # Every verdict holds on a clean matrix: `repro scenarios` exits 0.
    assert all(report["verdicts"].values()), report["verdicts"]


def test_report_aggregates_recovery_and_coverage():
    report = run_tiny(jobs=2)
    # Every cell checked every fleet invariant.
    for slot in report["invariants"].values():
        assert slot["checked"] == len(report["cells"])
    # Recovery samples exist for each faulting family.
    for family in ("crash", "correlated", "disaster", "disaster-baseline"):
        assert report["family_recovery_ms"][family]["n"] > 0, family
    # Each disaster msp has a paired, faster cold-restart sample.
    assert report["failover_vs_cold"]
    for check in report["failover_vs_cold"]:
        assert check["cold_restart_ms"] is not None
        assert check["faster"]
    markdown = render_markdown(report)
    assert "Recovery-time distribution" in markdown
    assert "failover" in markdown


def test_gate_rejects_unclean_and_slow_failover():
    spec = ScenarioSpec.from_dict(TINY)
    records = run_matrix(spec, jobs=1)["cells"]

    def verdicts(tampered):
        return build_report(spec, tampered)["verdicts"]

    assert all(verdicts(records).values())
    # One cell unclean.
    first = {**records[0], "verdicts": {**records[0]["verdicts"], "clean": False}}
    assert not verdicts([first, *records[1:]])["all_clean"]
    # One cell skipped an invariant the others checked.
    name = next(k for k in records[0]["verdicts"] if k != "clean")
    partial = {k: v for k, v in records[0]["verdicts"].items() if k != name}
    assert not verdicts([{**records[0], "verdicts": partial}, *records[1:]])[
        "every_invariant_checked"
    ]
    # Failover slower than the paired cold restart.
    slow = [
        {**r, "recovery_events": [
            {**e, "duration_ms": 0.0} for e in r["recovery_events"]
        ]}
        if r["family"] == "disaster-baseline" else r
        for r in records
    ]
    assert not verdicts(slow)["failover_beats_cold"]
    # A struck MSP without a cold-restart sample is not a win...
    unsampled = [
        {**r, "recovery_events": []} if r["family"] == "disaster-baseline" else r
        for r in records
    ]
    assert not verdicts(unsampled)["failover_beats_cold"]
    # ...and neither is a disaster cell nothing was paired with.
    unpaired = [r for r in records if r["family"] != "disaster-baseline"]
    assert not verdicts(unpaired)["failover_beats_cold"]


def test_build_report_is_a_pure_function_of_records():
    spec = ScenarioSpec.from_dict(TINY)
    report = run_matrix(spec, jobs=2)
    rebuilt = build_report(spec, report["cells"])
    assert rebuilt["fingerprint"] == report["fingerprint"]
