"""What a fuzz run does with a bad target or a schedule that raises.

An unknown kill target is a usage error caught before any schedule
runs, in every mode; a schedule whose run raises is a reported
``worker-failure:`` at every jobs value, ``--jobs 1`` included.
"""

import json

import pytest

from repro.__main__ import main
from repro.fuzz import CrashSchedule, FuzzParams, explore_exhaustive, fuzz_random
from repro.fuzz import explorer


@pytest.mark.parametrize(
    "argv, known",
    [
        (["--target", "msp3"], "msp1, msp2"),
        (["--topology", "fleet", "--target", "msp1"], "m000, m001, m002, m003"),
    ],
    ids=["paper", "fleet"],
)
def test_cli_rejects_an_unknown_target(argv, known, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["fuzz", *argv, "--quiet"]) == 2
    captured = capsys.readouterr()
    assert "schedules" not in captured.out
    assert known in captured.err


def test_replay_file_rejects_an_unknown_target(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    artifact = tmp_path / "artifact.json"
    schedule = {"target": "msp3", "kills": [1], "seed": 0}
    artifact.write_text(json.dumps({"failures": [{"schedule": schedule}]}))
    assert main(["fuzz", "--replay-file", str(artifact)]) == 2
    assert "msp1, msp2" in capsys.readouterr().err


def test_every_mode_checks_targets_before_running():
    params = FuzzParams(targets=("msp3",))
    with pytest.raises(ValueError, match="msp1, msp2"):
        explore_exhaustive(params, jobs=1)
    with pytest.raises(ValueError, match="msp1, msp2"):
        fuzz_random(runs=1, params=params, jobs=1)
    with pytest.raises(ValueError, match="msp1, msp2"):
        explorer.run_schedule(CrashSchedule("msp3", (1,), 0), FuzzParams())


def test_a_raising_schedule_is_a_worker_failure_at_jobs_1(monkeypatch):
    def raising(schedule, params, trace=False):
        raise RuntimeError(f"no world for {schedule.target}")

    monkeypatch.setattr(explorer, "run_schedule", raising)
    report = fuzz_random(master_seed=0, runs=2, jobs=1)
    assert report.schedules_run == 2
    assert [f.case_seed for f in report.failures] == [0, 1]
    for failure in report.failures:
        target = failure.schedule["target"]
        assert failure.violations == [
            f"worker-failure: RuntimeError: no world for {target}"
        ]
