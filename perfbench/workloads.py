"""The three benchmark workloads: their inputs, their op and its checks.

Every input comes from the workload seed.  Set-up writes config files (and,
for ``eval_large``, a dataset CSV and a trained checkpoint) into a directory;
each op then runs one ``pairsim`` CLI command on those files only.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass

# the criterion-5 / demo-04 training recipe on the default task
# (16 classes x 200 rows, 32-d inputs, queue 256)
RECIPE = "loss.alpha = 0.1\nsgd.weight_decay = 0\n"
TOY_TASK = "data.num_classes = 4\ndata.samples_per_class = 40\ntrain.lr_warmup_steps = 0\n"


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # the pairsim subcommand one op runs
    method: str  # training method (of the checkpoint, for eval_large)
    epochs: int
    eval_rows_per_class: int  # eval_large only
    # quality gate on the op's report.json: eer <= max_eer, margin > min_margin
    max_eer: float
    min_margin: float


# Each gate keeps criterion 5's EER bound (0.02) and holds the margin to
# about twice the worst value seen on seeds 0-30.  Criterion 5's margin > 0
# needs 100 epochs (9-10 s per op).  Seen on seeds 0-30: EER <= 0.005 and
# margin -2.6..-1.0 (train_simple), EER <= 0.0065 and margin -63..-19
# (train_proxy_ce, whose feature norms grow), EER <= 0.006 and margin
# -4.0..-2.2 (eval_large).
WORKLOADS = {
    w.name: w
    for w in (
        Workload("train_simple", "train", "simple", 10, 0, 0.02, -4.0),
        Workload("train_proxy_ce", "train", "proxy_gip_ce", 4, 0, 0.02, -120.0),
        Workload("eval_large", "eval", "simple", 10, 400, 0.02, -8.0),
    )
}
# toy sizes for the smoke mode; the gate then only asks for better than chance
SMOKE = {"epochs": 2, "eval_rows_per_class": 100, "max_eer": 0.5, "min_margin": -math.inf}

TRAIN_FILES = {"checkpoint.bin", "manifest.json", "report.json", "runlog.jsonl", "summary.json"}
EVAL_FILES = {"manifest.json", "report.json"}


def _write(path, text):
    with open(path, "w", newline="\n") as f:
        f.write(text)


def _train_config(w: Workload, seed: int, smoke: bool) -> str:
    epochs = SMOKE["epochs"] if smoke else w.epochs
    text = f"seed = {seed}\n{RECIPE}train.method = {w.method}\ntrain.epochs = {epochs}\n"
    return text + (TOY_TASK if smoke else "")


def setup(w: Workload, seed: int, smoke: bool, dest: str, cli_main) -> None:
    """Write the op's inputs into ``dest``; ``op.cfg`` is the op's config."""
    os.makedirs(dest, exist_ok=True)
    if w.command == "train":
        _write(os.path.join(dest, "op.cfg"), _train_config(w, seed, smoke))
        return
    # eval_large: a larger dataset drawn from the same class means, and a
    # checkpoint trained on the default task, both from the workload seed
    per_class = SMOKE["eval_rows_per_class"] if smoke else w.eval_rows_per_class
    classes = "data.num_classes = 4\n" if smoke else ""
    gen = f"seed = {seed}\n{classes}data.samples_per_class = {per_class}\n"
    _write(os.path.join(dest, "gen.cfg"), gen)
    _write(os.path.join(dest, "ckpt.cfg"), _train_config(w, seed, smoke))
    for argv in (
        ["gen-data", "--config", os.path.join(dest, "gen.cfg"), "--out", os.path.join(dest, "data")],
        ["train", "--config", os.path.join(dest, "ckpt.cfg"), "--out", os.path.join(dest, "ckpt")],
    ):
        if cli_main(argv) != 0:
            raise RuntimeError(f"set-up command failed: pairsim {' '.join(argv)}")
    with open(os.path.join(dest, "ckpt", "summary.json")) as f:
        bias = json.load(f)["final_bias"]
    _write(
        os.path.join(dest, "op.cfg"),
        f"seed = {seed}\n"
        f"data.csv = {os.path.join(dest, 'data', 'dataset.csv')}\n"
        f"eval.checkpoint = {os.path.join(dest, 'ckpt', 'checkpoint.bin')}\n"
        f"eval.threshold = {-bias!r}\n",
    )


def op_argv(w: Workload, inputs: str, out: str) -> list:
    return [w.command, "--config", os.path.join(inputs, "op.cfg"), "--out", out]


def eval_rows(inputs: str) -> int:
    """Rows of the eval_large dataset CSV (header excluded)."""
    with open(os.path.join(inputs, "data", "dataset.csv"), "rb") as f:
        return sum(1 for line in f if line.strip()) - 1


def _no_constant(token):
    raise ValueError(f"non-finite value {token}")


def _load_json(path):
    with open(path) as f:
        return json.load(f, parse_constant=_no_constant)


def _checkpoint_finite(path) -> bool:
    import numpy as np

    with open(path, "rb") as f:
        f.readline()  # JSON header
        return bool(np.all(np.isfinite(np.frombuffer(f.read(), dtype="<f8"))))


def artifact_hashes(out: str) -> dict:
    hashes = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as f:
            hashes[name] = hashlib.sha256(f.read()).hexdigest()
    return hashes


def check_op(w: Workload, smoke: bool, out: str, reference: dict | None):
    """(hashes, report, problem) for one op's output directory.

    ``problem`` is None when the op passed: its artifacts are all there,
    every number in them is finite, they are byte-identical to the
    reference op's (when one is given), and report.json meets the gate.
    """
    hashes = artifact_hashes(out)
    want = TRAIN_FILES if w.command == "train" else EVAL_FILES
    if not want <= set(hashes):
        return hashes, None, f"missing artifacts {sorted(want - set(hashes))}"
    if reference is not None and hashes != reference:
        differ = sorted(k for k in set(hashes) | set(reference) if hashes.get(k) != reference.get(k))
        return hashes, None, f"artifacts differ from the first op: {differ}"
    try:
        report = _load_json(os.path.join(out, "report.json"))
        if w.command == "train":
            _load_json(os.path.join(out, "summary.json"))
            with open(os.path.join(out, "runlog.jsonl")) as f:
                for line in f:
                    json.loads(line, parse_constant=_no_constant)
            if not _checkpoint_finite(os.path.join(out, "checkpoint.bin")):
                raise ValueError("non-finite checkpoint weight")
    except ValueError as exc:
        return hashes, None, str(exc)
    max_eer = SMOKE["max_eer"] if smoke else w.max_eer
    min_margin = SMOKE["min_margin"] if smoke else w.min_margin
    eer, margin = report["eer"], report["desideratum_margin"]
    if not (eer <= max_eer and margin > min_margin):
        return hashes, report, (
            f"quality gate: eer {eer} (max {max_eer}), margin {margin} (min {min_margin})"
        )
    return hashes, report, None


def steps_per_op(out: str) -> int:
    with open(os.path.join(out, "runlog.jsonl"), "rb") as f:
        return sum(1 for _ in f)
