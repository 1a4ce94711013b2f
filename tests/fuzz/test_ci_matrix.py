"""The CI ``fuzz-smoke`` matrix stays runnable and covers every mode pair.

Each matrix row's ``flags`` are spliced into the job's ``repro fuzz``
steps; a flag renamed or removed in the CLI would otherwise fail only
in CI.  Here every step's command line, with the row's values filled
in, must parse with the fuzz subcommand's own parser and build its
``FuzzParams``; every (recovery mode, logging mode) pair must be
fuzzed by some row with more than one log partition; every lazy row
must fuzz fewer drain workers than clients; and every ``--topology``
must run two-crash pairs in some row.
"""

import argparse
import itertools
import re
import shlex
from pathlib import Path

import yaml

from repro.core.config import LOGGING_MODES, RECOVERY_MODES
from repro.fuzz.cli import _params, add_fuzz_arguments

CI = Path(__file__).resolve().parents[2] / ".github" / "workflows" / "ci.yml"
COMMAND = "python -m repro fuzz"


def _job() -> dict:
    return yaml.safe_load(CI.read_text())["jobs"]["fuzz-smoke"]


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro fuzz")
    add_fuzz_arguments(parser)
    return parser


def _fill(command: str, row: dict) -> str:
    return re.sub(r"\$\{\{\s*matrix\.(\w+)\s*\}\}", lambda m: str(row[m.group(1)]), command)


def _rows() -> list[dict]:
    return _job()["strategy"]["matrix"]["include"]


def test_every_row_parses_in_every_step():
    commands = [
        " ".join(step["run"].split())
        for step in _job()["steps"]
        if COMMAND in step.get("run", "")
    ]
    assert len(commands) == 3
    parser = _parser()
    for row, command in itertools.product(_rows(), commands):
        argv = shlex.split(_fill(command, row))
        assert argv[: len(COMMAND.split())] == COMMAND.split()
        args = parser.parse_args(argv[len(COMMAND.split()) :])
        _params(args)


def test_every_mode_pair_runs_partitioned():
    parser = _parser()
    covered = set()
    for row in _rows():
        args = parser.parse_args(shlex.split(row["flags"]))
        params = _params(args)
        if params.log_partitions > 1:
            covered.add((params.recovery_mode, params.logging_mode))
    assert covered == set(itertools.product(RECOVERY_MODES, LOGGING_MODES))


def test_every_lazy_row_drains_with_fewer_workers_than_clients():
    # With a drain worker per session, lazy recovery replays exactly as
    # eager does (the same schedule fingerprint): the row would re-run
    # its eager twin instead of reaching a request that races a
    # not-yet-claimed session.
    parser = _parser()
    lazy = [
        params
        for params in (_params(parser.parse_args(shlex.split(row["flags"]))) for row in _rows())
        if params.recovery_mode == "lazy"
    ]
    assert lazy
    for params in lazy:
        assert params.recovery_pump_concurrency < params.num_clients, params


def test_every_topology_runs_pairs():
    parser = _parser()
    (topology,) = [a for a in parser._actions if a.dest == "topology"]
    with_pairs = {
        _params(parser.parse_args(shlex.split(row["flags"]))).topology
        for row in _rows()
        if row["pairs"] > 0
    }
    assert with_pairs == set(topology.choices)
