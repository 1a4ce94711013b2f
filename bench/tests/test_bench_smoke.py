"""Smoke test of the benchmark: all four workloads at a fiftieth of
their size, untraced and traced.  Run with

    python -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO_DIR = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import layers  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
#: Metrics of a mechanism only some workloads have.
ONLY_ON = {
    "fleet.epochs": {"fleet_open"},
    "fleet.cross_shard_msgs_per_op": {"fleet_open"},
    "fleet.barrier_share": {"fleet_open"},
    "core_recovery.lazy_inline_share": {"crashloop_lazy_p4"},
}


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), *args],
        capture_output=True, text=True, timeout=120,
    )


@pytest.fixture(scope="module")
def declared() -> dict:
    with open(os.path.join(REPO_DIR, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def ledger(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("bench") / "ledger.json"
    proc = _run("--scale", "0.02", "--repeats", "1", "--trace", "1", "--seed", "7",
                "--out", str(out))
    assert proc.returncode == 0, proc.stderr + proc.stdout
    return json.loads(out.read_text())


def test_every_declared_metric_is_emitted_with_its_unit(declared, ledger):
    assert list(ledger["entries"]) == [w["name"] for w in declared["workloads"]]
    for workload, entry in ledger["entries"].items():
        assert not entry["problems"], (workload, entry["problems"])
        assert entry["failed"] == 0 and entry["attempted"] > 0
        for group in ("end_to_end", "per_layer"):
            for metric in declared[group]:
                measured = entry[group].get(metric["name"])
                assert measured is not None, (workload, metric["name"])
                assert measured["unit"] == metric["unit"], (workload, metric["name"])
            for name in entry[group]:
                assert NAME.fullmatch(name), name


def test_metrics_of_a_missing_mechanism_are_absent_not_zero(declared, ledger):
    universal = {m["name"] for m in declared["per_layer"]}
    for name, workloads in ONLY_ON.items():
        assert name not in universal
        for workload, entry in ledger["entries"].items():
            assert (name in entry["per_layer"]) == (workload in workloads), (workload, name)


def test_layer_table_sums_to_one(ledger):
    for workload, entry in ledger["entries"].items():
        for phase in ("serve", "recover"):
            total = sum(
                entry["per_layer"][f"{phase}.{layer}.self_share"]["median"]
                for layer in layers.LAYERS
            )
            assert abs(total - 1.0) <= 0.01, (workload, phase, total)
        assert entry["per_layer"]["harness.unattributed_share"]["median"] < 0.05


def test_every_module_maps_to_exactly_one_layer():
    seen = set()
    for folder, _dirs, files in os.walk(os.path.join(layers.SRC_DIR, "repro")):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(folder, name)
            relative = os.path.relpath(path, layers.SRC_DIR).replace(os.sep, "/")
            assert len(layers.layers_matching(relative)) <= 1, relative
            layer = layers.layer_of_file(path)
            assert layer in layers.LAYERS, relative
            seen.add(layer)
    assert seen == set(layers.LAYERS)
    assert layers.layer_of_file(os.path.join(BENCH_DIR, "child.py")) == "harness"
    assert layers.layer_of_file("/usr/lib/python3/heapq.py") is None


def test_single_workload_run_ends_with_the_contract_line(declared):
    for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
        proc = _run("--workload", "restart_biglog", "--seed", "3", "--scale", "0.02",
                    "--seconds", "1", "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 < result["attempted"]
        assert set(result["metrics"]) == {m["name"] for m in declared[group]}
        for m in result["metrics"].values():
            assert isinstance(m["value"], (int, float)) and m["unit"]


def test_compare_a_ledger_with_itself_passes(ledger, tmp_path):
    path = tmp_path / "a.json"
    path.write_text(json.dumps(ledger))
    proc = _run("--compare", str(path), str(path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 regression" in proc.stdout and "fingerprint identical" in proc.stdout
