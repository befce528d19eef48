"""Smoke test of the benchmark: one op per workload in both modes.

    python3 -m pytest perfbench/test_smoke.py

Checks that every end-to-end and per-layer metric named in BENCHMARK.json
is emitted with its unit, that the output checks run, and that the
benchmark refuses to run without the degelab source tree.
"""

import json
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture()
def workdir():
    run.OUT.mkdir(exist_ok=True)
    path = run.OUT / "smoke"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir()
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _assert_metrics(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for name, metric in result["metrics"].items():
        assert metric["unit"], name
        assert isinstance(metric["value"], float), name
    json.dumps(result, allow_nan=False)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_one_op(workload, workdir, capsys):
    args = SimpleNamespace(workload=workload, seed=7, seconds=0.0, trace=0)
    result = run.end_to_end(args, workdir, max_ops=1, setup_repeats=1)
    out = capsys.readouterr().out
    _assert_metrics(result, SPEC["end_to_end"])
    assert result["attempted"] == 1
    assert "check residual <= newton_tol*(1+|T_n f|_inf): " in out
    assert "failed_ratio: " in out and "verdict digest of round 0: " in out
    if workload == "sweep":
        assert "check records.csv body identical after report: True" in out


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_per_layer_one_op(workload, workdir, capsys):
    args = SimpleNamespace(workload=workload, seed=7, seconds=0.0, trace=1)
    result = run.per_layer(args, workdir, max_ops=1, setup_repeats=1)
    out = capsys.readouterr().out
    _assert_metrics(result, SPEC["per_layer"])
    assert "counts repeat across two traced passes" in out
    assert "check residual <= newton_tol*(1+|T_n f|_inf): " in out
    assert result["metrics"]["solver.levels"]["value"] > 0


def test_refuses_without_source_tree():
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.BENCH, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "matrix", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
