"""The experiment sweeps: parallel points must reproduce sequential
numbers exactly, and a failed point must abort with its key."""

import pytest

from repro.harness.experiments import paper_cell, sweep
from repro.parallel import WorkerFailure
from repro.workloads import WorkloadParams


def _point(label, verify=False, **params):
    return dict(
        labels={"point": label}, measured=("mean_response_ms",),
        params=WorkloadParams(**params), verify=verify,
    )


def _points(n=3):
    return [_point(i, requests_per_client=20, seed=i) for i in range(n)]


def test_sweep_parity_and_order():
    seq = sweep(paper_cell, _points(), jobs=1)
    par = sweep(paper_cell, _points(), jobs=2)
    assert len(seq) == 3
    assert seq == par
    assert [row["point"] for [row] in seq] == [0, 1, 2]
    # Distinct seeds give distinct runs — order actually matters here.
    assert seq[0][0]["mean_response_ms"] != seq[1][0]["mean_response_ms"]


def test_sweep_progress_reports_keys():
    seen = []
    sweep(
        paper_cell, _points(2), jobs=1,
        progress=lambda done, total, spec: seen.append(spec["labels"]["point"]),
    )
    assert seen == [0, 1]


def test_failed_point_aborts_with_key():
    # Two concurrent clients with the paper's non-atomic shared-variable
    # accesses lose counter updates across crashes, so the worker's
    # exactly-once verification raises — the sweep must abort naming the
    # failing point, not return partial rows.
    bad = [
        _point("bad", True, num_clients=2, requests_per_client=8, crash_every_n=6),
        _point("ok", requests_per_client=10),
    ]
    with pytest.raises(WorkerFailure, match=r"'point': 'bad'"):
        sweep(paper_cell, bad, jobs=2)


def _fail_on_odd(spec):
    if spec[1] % 2:
        raise RuntimeError("odd")
    return spec[1]


def test_default_key_is_the_spec_itself():
    # A point's key is its spec: progress reports and the failure
    # message name it.
    specs = [("cell", 0), ("cell", 2)]
    seen = []
    assert sweep(
        _fail_on_odd, specs, jobs=1,
        progress=lambda done, total, key: seen.append(key),
    ) == [0, 2]
    assert seen == specs
    with pytest.raises(WorkerFailure, match=r"sweep point \('cell', 1\) failed"):
        sweep(_fail_on_odd, [("cell", 0), ("cell", 1)], jobs=2)


def test_declarations_are_one_list(capsys):
    # The CLI table is the declaration list keyed by name: unique names,
    # one ``repro list`` line each, every one an Experiment.
    from repro.__main__ import EXPERIMENTS, main
    from repro.harness import EXPERIMENTS as DECLARED, Experiment

    names = [experiment.name for experiment in DECLARED]
    assert len(set(names)) == len(names) == 16
    assert all(isinstance(experiment, Experiment) for experiment in DECLARED)
    assert list(EXPERIMENTS) == names
    assert main(["list"]) == 0
    assert capsys.readouterr().out.splitlines() == names
