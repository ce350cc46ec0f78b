"""Every demo script runs to completion (the demos use the public API).

Each demo runs in a child process, where pytest's warning filter does not
reach, so the child is started with ``-W error``: a warning fails it too.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("[0-9]*.py"))
# files each demo writes, relative to its working directory
WRITES = {
    "01_dataset_tour.py": ["desk_task.csv"],
    "04_train_default_task.py": [
        "desk_run/runlog.jsonl", "desk_run/summary.json",
        "desk_run/checkpoint.bin", "desk_run/roc.svg",
    ],
    "05_ablation_sweep.py": ["ablation.csv"],
}


def test_demo_set_is_complete():
    assert len(DEMOS) == 7


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(demo)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    for name in WRITES.get(demo.name, []):
        assert (tmp_path / name).is_file(), name
