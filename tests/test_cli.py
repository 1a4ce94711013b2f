"""Tests for the command-line interface."""

import pytest

from repro.__main__ import EXPERIMENTS, _build_parser, main
from repro.workloads.paper import mode_overrides


def test_list_prints_experiments(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert name in out


def test_run_single_experiment(capsys):
    code = main(["run", "analysis-flush", "--scale", "0.05"])
    out = capsys.readouterr().out
    assert code == 0
    assert "flushes_per_request" in out
    assert "[PASS]" in out


def test_run_progress_stays_off_stdout(capsys):
    # stdout is the experiment's rows and claims only, so two runs diff
    # clean; the rate/ETA lines are on stderr.
    assert main(["run", "analysis-flush", "--scale", "0.05", "--jobs", "1"]) == 0
    captured = capsys.readouterr()
    assert "ETA" not in captured.out
    assert "ETA" in captured.err


def test_workload_command(capsys):
    code = main(
        ["workload", "NoLog", "--requests", "10"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "completed requests: 10" in out
    assert "throughput" in out


def test_workload_verifies_exactly_once(capsys):
    code = main(
        ["workload", "LoOptimistic", "--requests", "15", "--crash-every", "7"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "exactly-once:       verified" in out
    assert "crashes:            2" in out


def test_workload_atomic_sv_exactly_once_with_concurrent_clients(capsys):
    # With the paper's separate read+write accesses two clients lose
    # counter updates; the atomic RMW option keeps exactly-once sound.
    code = main(
        ["workload", "LoOptimistic", "--requests", "8", "--clients", "2",
         "--atomic-sv", "--crash-every", "6"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "exactly-once:       verified" in out


@pytest.mark.parametrize("recovery_mode", ["eager", "lazy"])
def test_workload_crashing_partitioned_in_each_recovery_mode(capsys, recovery_mode):
    code = main(
        ["workload", "LoOptimistic", "--requests", "120", "--clients", "2",
         "--crash-every", "40", "--partitions", "4", "--atomic-sv",
         "--recovery-mode", recovery_mode]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "exactly-once:       verified" in out


@pytest.mark.parametrize(
    "subcommand", [["workload", "LoOptimistic"], ["trace"], ["fuzz"]],
    ids=["workload", "trace", "fuzz"],
)
def test_mode_flags_are_the_same_on_every_workload_subcommand(subcommand):
    parser = _build_parser()
    # Unset means "the WorkloadParams default": nothing is overridden.
    assert mode_overrides(parser.parse_args(subcommand)) == {}
    flags = ["--partitions", "3", "--recovery-mode", "lazy",
             "--pump-concurrency", "1", "--logging-mode", "command"]
    assert mode_overrides(parser.parse_args(subcommand + flags)) == {
        "log_partitions": 3, "recovery_mode": "lazy",
        "recovery_pump_concurrency": 1, "logging_mode": "command",
    }
    with pytest.raises(SystemExit):
        parser.parse_args(subcommand + ["--recovery-mode", "sideways"])


def test_fuzz_exhaustive_smoke(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["fuzz", "--max-schedules", "5", "--quiet"])
    out = capsys.readouterr().out
    assert code == 0
    assert "fuzz exhaustive: 5 schedules" in out
    assert "0 failures" in out
    assert not (tmp_path / "fuzz-artifact.json").exists()


def test_fuzz_random_smoke(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["fuzz", "--mode", "random", "--seeds", "3", "--quiet"])
    out = capsys.readouterr().out
    assert code == 0
    assert "fuzz random: 3 schedules" in out


def test_fuzz_pairs_smoke(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["fuzz", "--pairs", "--max-schedules", "4", "--quiet"])
    out = capsys.readouterr().out
    assert code == 0
    assert "fuzz exhaustive-pairs: 4 schedules" in out
    # Two kills per pair schedule, so at least 8 crashes were injected.
    assert "8 crashes injected" in out


def test_fuzz_parallel_matches_sequential(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["fuzz", "--max-schedules", "4", "--jobs", "1", "--quiet"]) == 0
    seq = capsys.readouterr().out
    assert main(["fuzz", "--max-schedules", "4", "--jobs", "2", "--quiet"]) == 0
    par = capsys.readouterr().out
    assert seq.splitlines()[-1].rsplit(",", 1)[0] == (
        par.splitlines()[-1].rsplit(",", 1)[0]  # all but the wall time
    )


def test_run_experiment_with_jobs(capsys):
    code = main(["run", "analysis-flush", "--scale", "0.05", "--jobs", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS]" in out


def test_run_headline_experiment_exit_code(capsys, monkeypatch):
    # The claims are the gate: exit 0 while they hold...
    assert main(["run", "partition-scaling", "--scale", "0.05", "--jobs", "1"]) == 0
    assert "[FAIL]" not in capsys.readouterr().out
    # ...and exit 1, naming the claim, once one does not.
    import repro.harness.headlines as headlines

    monkeypatch.setattr(headlines, "PARTITION_MIN_SPEEDUP", 100.0)
    assert main(["run", "partition-scaling", "--scale", "0.05", "--jobs", "1"]) == 1
    assert "[FAIL] simulated append throughput at P=4" in capsys.readouterr().out


def test_fuzz_replay_case_seed(capsys):
    code = main(["fuzz", "--replay", "7"])
    out = capsys.readouterr().out
    assert code == 0
    assert "replaying case seed 7" in out
    assert "ran clean" in out


def test_fuzz_replay_file_round_trip(capsys, tmp_path):
    import json

    artifact = {
        "failures": [
            {
                "schedule": {"target": "msp2", "kills": [25], "seed": 0},
                "violations": ["synthetic"],
            }
        ]
    }
    path = tmp_path / "artifact.json"
    path.write_text(json.dumps(artifact))
    code = main(["fuzz", "--replay-file", str(path)])
    out = capsys.readouterr().out
    assert code == 0  # a healthy tree reproduces no violation
    assert "replaying recorded schedule" in out


def test_trace_command_writes_valid_artifacts(capsys, tmp_path):
    import json

    from repro.trace import validate_chrome_trace, validate_jsonl_lines

    chrome_path = tmp_path / "trace.json"
    jsonl_path = tmp_path / "trace.jsonl"
    code = main(
        ["trace", "--requests", "30", "--crash-every", "12",
         "--out", str(chrome_path), "--jsonl", str(jsonl_path)]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "completed requests: 30" in out
    assert "crashes:            2" in out
    assert "recovery-time breakdown" in out
    assert "recovery.scan" in out
    assert "network ledger" in out
    assert validate_chrome_trace(json.loads(chrome_path.read_text())) == []
    assert validate_jsonl_lines(jsonl_path.read_text().splitlines()) == []


def test_trace_command_without_crashes(capsys, tmp_path):
    code = main(
        ["trace", "--requests", "10", "--crash-every", "0",
         "--out", str(tmp_path / "t.json")]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "crashes:            0" in out


def test_scenarios_command_smoke(capsys, tmp_path):
    import json
    import pathlib

    matrix = pathlib.Path(__file__).resolve().parents[1] / "scenarios"
    md = tmp_path / "report.md"
    html = tmp_path / "report.html"
    raw = tmp_path / "report.json"
    code = main(
        ["scenarios", "--matrix", str(matrix / "smoke.yaml"), "--jobs", "2",
         "--out", str(md), "--html", str(html), "--json", str(raw)]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "all_clean=ok" in out
    assert "failover_beats_cold=ok" in out
    report = json.loads(raw.read_text())
    assert len(report["cells"]) == 12
    assert "# Scenario matrix: smoke" in md.read_text()
    assert html.read_text().startswith("<!doctype html>")


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        main(["run", "not-an-experiment"])


def test_unknown_configuration_rejected():
    with pytest.raises(SystemExit):
        main(["workload", "Bogus"])
