"""Smoke test of the benchmark at toy sizes (about 30 s):

    python3 -m pytest -q perfbench/test_smoke.py

Every workload runs untraced and traced and must report every metric that
BENCHMARK.json declares, with its unit and a direction; a second workload
seed must run too, and without the program's sources the benchmark must
refuse to run.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(root, workload, seed, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=root, timeout=170,
    )


def _result(workload, seed, trace):
    done = _run(HERE.parent, workload, seed, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result["metrics"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_reported(workload, trace):
    metrics = _result(workload, 1, trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(metrics) == {m["name"] for m in declared}
    for m in declared:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert m["better"] in ("lower", "higher")
        assert math.isfinite(metrics[m["name"]]["value"])
    if not trace:
        assert all(metrics[m["name"]]["value"] > 0 for m in declared)
        return
    # self times account for the whole traced op
    op_ms = metrics["trace.op_ms"]["value"]
    self_ms = sum(
        v["value"] for k, v in metrics.items() if v["unit"] == "ms" and not k.startswith("trace.")
    )
    assert self_ms == pytest.approx(op_ms, rel=1e-6)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_second_seed_runs(workload):
    assert _result(workload, 2, 0)["throughput_per_s"]["value"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, WORKLOADS[0], 1, 0)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
