"""The experiment sweeps: parallel points must reproduce sequential
numbers exactly, and a failed point must abort with its key."""

import pytest

from repro.harness.experiments import _sweep, sweep
from repro.parallel import WorkerFailure
from repro.parallel.tasks import WorkloadPointSpec
from repro.workloads import WorkloadParams


def _points(n=3, **kwargs):
    return [
        WorkloadPointSpec(
            key=("test", i),
            params=WorkloadParams(requests_per_client=20, seed=i),
            **kwargs,
        )
        for i in range(n)
    ]


def test_sweep_parity_and_order():
    seq = _sweep(_points(), jobs=1)
    par = _sweep(_points(), jobs=2)
    assert len(seq) == 3
    assert [r.completed_requests for r in seq] == [
        r.completed_requests for r in par
    ]
    assert [r.mean_response_ms for r in seq] == [r.mean_response_ms for r in par]
    # Distinct seeds give distinct runs — order actually matters here.
    assert seq[0].mean_response_ms != seq[1].mean_response_ms


def test_sweep_progress_reports_keys():
    seen = []
    _sweep(_points(2), jobs=1, progress=lambda done, total, key: seen.append(key))
    assert seen == [("test", 0), ("test", 1)]


def test_failed_point_aborts_with_key():
    # Two concurrent clients with the paper's non-atomic shared-variable
    # accesses lose counter updates across crashes, so the worker's
    # exactly-once verification raises — the sweep must abort with the
    # failing point's key, not return partial rows.
    bad = [
        WorkloadPointSpec(
            key=("test", "bad"),
            params=WorkloadParams(
                num_clients=2, requests_per_client=8, crash_every_n=6
            ),
            verify_exactly_once=True,
        ),
        WorkloadPointSpec(
            key=("test", "ok"),
            params=WorkloadParams(requests_per_client=10),
        ),
    ]
    with pytest.raises(WorkerFailure, match=r"\('test', 'bad'\)"):
        _sweep(bad, jobs=2)


def _fail_on_odd(spec):
    if spec[1] % 2:
        raise RuntimeError("odd")
    return spec[1]


def test_default_key_is_the_spec_itself():
    # Ablation and headline cells are plain tuples: progress reports and
    # the failure message name the tuple.
    specs = [("cell", 0), ("cell", 2)]
    seen = []
    assert sweep(
        _fail_on_odd, specs, jobs=1,
        progress=lambda done, total, key: seen.append(key),
    ) == [0, 2]
    assert seen == specs
    with pytest.raises(WorkerFailure, match=r"sweep point \('cell', 1\) failed"):
        sweep(_fail_on_odd, [("cell", 0), ("cell", 1)], jobs=2)


def test_experiment_jobs_kwarg_is_uniform():
    # Every registered experiment accepts jobs/progress, so the CLI can
    # dispatch uniformly.
    import inspect

    from repro.__main__ import EXPERIMENTS

    for name, fn in EXPERIMENTS.items():
        parameters = inspect.signature(fn).parameters
        assert "jobs" in parameters and "progress" in parameters, name
