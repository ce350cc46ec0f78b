import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pairsim.cli import main
from pairsim.config import manifest_json, parse_config_text, resolve
from pairsim.data import load_csv, save_csv, split

SRC = str(Path(__file__).resolve().parents[1] / "src")

QUICK = """
data.num_classes = 4
data.samples_per_class = 40
data.input_dim = 8
data.noise_scale = 0.5
train.epochs = 2
train.eval_every = 1
train.batch_size = 16
train.queue_capacity = 64
train.lr_warmup_steps = 5
train.feature_dim = 8
eval.num_pos = 50
eval.num_neg = 50
"""


def run_child(args):
    """Run ``python <args>`` in a fresh process that imports pairsim from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, *filter(None, [env.get("PYTHONPATH")])])
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=300
    )


def write_quick(tmp_path, extra=""):
    path = tmp_path / "quick.cfg"
    path.write_text(QUICK + extra)
    return str(path)


def test_missing_config_flag_prints_usage(capsys):
    assert main(["train", "--out", "x"]) == 1
    err = capsys.readouterr().err
    assert "usage:" in err
    assert "--config" in err


def test_unknown_command_and_flag_rejected(tmp_path, capsys):
    cfg = write_quick(tmp_path)
    assert main(["frobnicate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "o"), "--bogus"]) == 1
    # --jobs belongs to ablate only
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "o"), "--jobs", "2"]) == 1
    assert "usage:" in capsys.readouterr().err


def test_nonexistent_config_file(tmp_path, capsys):
    assert main(["train", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "usage:" in err and "not found" in err


def test_invalid_config_key_is_validation_error(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("loss.gamma = 2\n")
    assert main(["train", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
    assert "loss.gamma" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_proxy_b_theta_out_of_range_is_validation_error(tmp_path, capsys):
    # proxy_gip_ce uses b_theta in its logits even when the similarity kind
    # ignores it; every kind holds it to [0, 1) before the run starts
    cfg = write_quick(
        tmp_path,
        "train.method = proxy_gip_ce\nsimilarity.kind = cosine\nsimilarity.b_theta = 1.5\n",
    )
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "b_theta" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_gen_data_default_row_count(tmp_path, capsys):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("")
    out = tmp_path / "gen"
    assert main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "dataset.csv").read_text().splitlines()
    assert len(lines) == 3201  # header + 16 classes x 200 rows
    assert lines[0].startswith("label,f0,")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "gen-data"
    assert manifest["config"]["data.num_classes"] == 16


def test_train_writes_artifacts(tmp_path, capsys):
    cfg = write_quick(tmp_path)
    out = tmp_path / "run"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 0
    for fname in ("runlog.jsonl", "summary.json", "checkpoint.bin",
                  "report.json", "manifest.json"):
        assert (out / fname).exists(), fname
    assert "val eer" in capsys.readouterr().out
    rep = json.loads((out / "report.json").read_text())
    assert 0.0 <= rep["eer"] <= 1.0
    # the ROC is written once, to report.json; summary.json keeps the scalars
    text = (out / "summary.json").read_text()
    assert '"roc":' not in text
    summary = json.loads(text)
    assert all("eval" in erec for erec in summary["epochs"])  # eval_every = 1
    assert len(rep.pop("roc")) >= 2
    assert summary["epochs"][-1]["eval"] == rep


def test_train_repeat_and_manifest_refeed_bit_identical(tmp_path):
    cfg = write_quick(tmp_path)
    outs = [tmp_path / name for name in ("a", "b", "c")]
    assert main(["train", "--config", cfg, "--out", str(outs[0])]) == 0
    assert main(["train", "--config", cfg, "--out", str(outs[1])]) == 0
    # the manifest is itself a valid config reproducing the identical run
    assert main(["train", "--config", str(outs[0] / "manifest.json"),
                 "--out", str(outs[2])]) == 0
    for fname in ("checkpoint.bin", "runlog.jsonl", "summary.json", "report.json"):
        blobs = [(o / fname).read_bytes() for o in outs]
        assert blobs[0] == blobs[1] == blobs[2], fname


def test_seed_flag_overrides_config(tmp_path):
    cfg = write_quick(tmp_path)
    a, b = tmp_path / "s0", tmp_path / "s1"
    assert main(["train", "--config", cfg, "--out", str(a)]) == 0
    assert main(["train", "--config", cfg, "--out", str(b), "--seed", "1"]) == 0
    assert (a / "checkpoint.bin").read_bytes() != (b / "checkpoint.bin").read_bytes()
    assert json.loads((b / "manifest.json").read_text())["config"]["seed"] == 1


def test_eval_roundtrip_and_missing_checkpoint_key(tmp_path, capsys):
    cfg = write_quick(tmp_path)
    run = tmp_path / "run"
    assert main(["train", "--config", cfg, "--out", str(run)]) == 0
    evalcfg = tmp_path / "eval.cfg"
    evalcfg.write_text(QUICK + f"eval.checkpoint = {run / 'checkpoint.bin'}\n")
    out = tmp_path / "ev"
    assert main(["eval", "--config", str(evalcfg), "--out", str(out)]) == 0
    rep = json.loads((out / "report.json").read_text())
    assert set(rep) >= {"eer", "tpr_at_far", "roc", "desideratum_margin"}
    # without the checkpoint key, eval is a validation error
    assert main(["eval", "--config", write_quick(tmp_path), "--out", str(out)]) == 1
    assert "eval.checkpoint" in capsys.readouterr().err


def test_eval_report_says_which_operating_point_each_tpr_is(tmp_path):
    # 2,000 negatives cannot reach FAR 1e-4: that entry is the strictest
    # point they do reach, and says so
    cfg = write_quick(tmp_path)
    run = tmp_path / "run"
    assert main(["train", "--config", cfg, "--out", str(run)]) == 0
    evalcfg = tmp_path / "eval.cfg"
    evalcfg.write_text(QUICK.replace("eval.num_neg = 50", "eval.num_neg = 2000")
                       + f"eval.checkpoint = {run / 'checkpoint.bin'}\n"
                       "eval.far_targets = 0.0001, 0.01\n")
    out = tmp_path / "ev"
    assert main(["eval", "--config", str(evalcfg), "--out", str(out)]) == 0
    tprs = json.loads((out / "report.json").read_text())["tpr_at_far"]
    assert set(tprs) == {"0.0001", "0.01"}
    for entry in tprs.values():
        assert set(entry) == {"tpr", "far", "threshold", "clamped"}
    strict = tprs["0.0001"]
    assert strict["clamped"] is True
    assert strict["far"] >= 1 / 2000
    assert not tprs["0.01"]["clamped"] and tprs["0.01"]["far"] <= 0.01


@pytest.mark.parametrize(
    "setting, words",
    [
        ("eval.num_pos = -5", "eval_num_pos and eval_num_neg must be >= 1"),
        ("eval.num_neg = 0", "eval_num_pos and eval_num_neg must be >= 1"),
        ("eval.threshold = nan", "threshold must be finite, got nan"),
        ("eval.threshold = -inf", "threshold must be finite, got -inf"),
        ("eval.far_targets = 0.1, 2", "far_targets must lie in [0, 1], got (0.1, 2.0)"),
    ],
)
def test_bad_eval_settings_are_validation_errors(tmp_path, capsys, setting, words):
    # knowable before the run starts: exit 1 with the rule, and nothing written
    cfg = tmp_path / "eval.cfg"
    cfg.write_text(f"eval.checkpoint = {tmp_path / 'ckpt.bin'}\n{setting}\n")
    assert main(["eval", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert words in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "setting, words",
    [
        ("eval.far_targets = 0.1, 2", "far_targets must lie in [0, 1], got (0.1, 2.0)"),
        ("train.hidden_dims = 64, 0", "each >= 1, got (1, 64, 0, 8)"),
        ("train.activation = gelu", "unknown activation 'gelu'"),
        ("train.proxy_margin = -0.5", "proxy_margin must be >= 0, got -0.5"),
        ("train.proxy_margin = nan", "proxy_margin must be >= 0, got nan"),
        ("sgd.weight_decay = nan", "weight_decay must be >= 0, got nan"),
        ("loss.b = inf", "b must be finite, got inf"),
        ("loss.r = inf", "r must be positive and finite, got inf"),
        ("sgd.lr = inf", "lr must be >= 0 and finite, got inf"),
        ("sgd.weight_decay = inf", "weight_decay must be >= 0, got inf"),
        ("train.proxy_margin = inf", "proxy_margin must be >= 0, got inf"),
        ("data.noise_scale = inf", "noise_scale must be >= 0 and finite, got inf"),
        ("data.num_classes = 0", "num_classes must be >= 1"),
        ("data.samples_per_class = 1", "samples_per_class must be >= 2, got 1"),
        # the score ignores b_theta, but every kind holds it to [0, 1)
        ("similarity.kind = cosine\nsimilarity.b_theta = 1.5",
         "b_theta must lie in [0, 1), got 1.5"),
        ("similarity.kind = angular", "unknown similarity kind 'angular'"),
        # the removed pair hinges and their margins
        ("train.method = contrastive", "unknown method 'contrastive'"),
        ("train.method = triplet", "unknown method 'triplet'"),
        ("train.contrastive_margin = 0.5", "unknown config key 'train.contrastive_margin'"),
        ("train.triplet_margin = 0.2", "unknown config key 'train.triplet_margin'"),
        # the removed loss variant and b_learnable settings
        ("loss.variant = balanced", "unknown config key 'loss.variant'"),
        ("loss.b_learnable = false", "unknown config key 'loss.b_learnable'"),
        # the removed task families: the key is gone, so even its old default fails
        ("data.family = gaussian_blobs", "unknown config key 'data.family'"),
        ("data.family = concentric_rings", "unknown config key 'data.family'"),
    ],
)
def test_bad_train_settings_are_validation_errors(tmp_path, capsys, setting, words):
    # each of these used to fail only once the run had started (exit 2), or
    # not at all; eval and ablate check the same settings before they start,
    # and gen-data checks the data.* ones
    keys = {line.split(" = ")[0] for line in setting.splitlines()}
    base = [line for line in QUICK.splitlines() if line.split(" = ")[0] not in keys]
    cfg = tmp_path / "train.cfg"
    cfg.write_text("\n".join([*base, setting, f"eval.checkpoint = {tmp_path / 'ckpt.bin'}\n"]))
    commands = ("train", "eval", "ablate")
    for command in ("gen-data", *commands) if setting.startswith("data.") else commands:
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert words in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key, value", [("train.contrastive_margin", 0.5),
                                        ("train.triplet_margin", 0.2),
                                        ("loss.variant", "simple_final"),
                                        ("loss.b_learnable", True),
                                        ("data.family", "gaussian_blobs")])
def test_manifest_with_a_removed_key_is_rejected(tmp_path, capsys, key, value):
    # a manifest written while the pair hinges, the loss variant and
    # b_learnable settings, or the task families existed holds these keys at
    # their defaults; re-fed as a config, it names the key and writes nothing
    conf = resolve(parse_config_text(QUICK))
    conf["eval.checkpoint"] = str(tmp_path / "ckpt.bin")
    doc = json.loads(manifest_json("train", conf))
    doc["config"][key] = value
    cfg = tmp_path / "old_manifest.json"
    cfg.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    for command in ("gen-data", "train", "eval", "ablate"):
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert f"unknown config key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "command, text, flags, words",
    [
        ("train", "[1, 2]\n", [], "JSON config must be an object"),
        ("train", '{"command": "train", "config": [1]}\n', [],
         "manifest 'config' member must be an object"),
        ("ablate", QUICK + "grid.r =\n", [], "grid.r is empty"),
        ("ablate", QUICK, ["--jobs", "0"], "--jobs must be >= 1"),
        ("train", QUICK, ["--seed", "-1"], "seed must be an unsigned 64-bit int, got -1"),
        ("train", QUICK, ["--seed", str(2**64)], f"unsigned 64-bit int, got {2**64}"),
        # a config's seeds are held to the range --seed is: -1 does not wrap to 2**64 - 1
        ("train", QUICK + "seed = -1\n", [], "seed must be an unsigned 64-bit int, got -1"),
        ("gen-data", QUICK + f"seed = {2**64}\n", [],
         f"seed must be an unsigned 64-bit int, got {2**64}"),
        ("gen-data", '{"seed": 1e20}\n', [],
         f"seed must be an unsigned 64-bit int, got {10**20}"),
        ("train", QUICK + "data.seed = -1\n", [],
         "data.seed must be an unsigned 64-bit int, got -1"),
        # a config that cannot be read as text: bytes that are not UTF-8, a directory
        ("train", b"seed = 1\n\xff\n", [], "run.cfg: not UTF-8 text: invalid start byte"),
        ("train", None, [], "config not found or unreadable: "),
        # every grid cell is checked before any runs, as the config's own values are
        ("ablate", QUICK + "similarity.kind = cosine\ngrid.b_theta = 0.3, 1.5\n", [],
         "b_theta must lie in [0, 1), got 1.5"),
        ("ablate", QUICK + "grid.alpha = 1.5\n", [], "alpha must lie strictly in (0, 1), got 1.5"),
        ("ablate", QUICK + "grid.r = -1\n", [], "r must be positive and finite, got -1.0"),
    ],
)
def test_bad_config_files_and_flags_are_validation_errors(
    tmp_path, capsys, command, text, flags, words
):
    cfg = tmp_path / "run.cfg"
    if text is None:
        cfg.mkdir()
    else:
        cfg.write_bytes(text if isinstance(text, bytes) else text.encode())
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o"), *flags]) == 1
    assert words in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_train_on_one_class_names_the_validation_split(tmp_path, capsys):
    # the split has no cross-class pair to evaluate on: a runtime error
    # (exit 2) once the data is drawn, and nothing but the manifest written
    cfg = tmp_path / "one.cfg"
    cfg.write_text(QUICK.replace("data.num_classes = 4", "data.num_classes = 1"))
    out = tmp_path / "o"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
    assert "validation split lacks same-class or cross-class pairs" in capsys.readouterr().err
    assert sorted(os.listdir(out)) == ["manifest.json"]


def test_gapped_labels_train_and_eval(tmp_path):
    cfg = write_quick(tmp_path)
    run = tmp_path / "run"
    assert main(["gen-data", "--config", cfg, "--out", str(run)]) == 0
    assert main(["train", "--config", cfg, "--out", str(run)]) == 0
    # drop class 1: the CSV's labels are {0, 2, 3}
    lines = (run / "dataset.csv").read_text().splitlines()
    gapped = tmp_path / "gapped.csv"
    kept = [line for line in lines[1:] if not line.startswith("1,")]
    gapped.write_text("\n".join([lines[0], *kept]) + "\n")
    train_cfg = write_quick(tmp_path, f"data.csv = {gapped}\n")
    assert main(["train", "--config", train_cfg, "--out", str(tmp_path / "t")]) == 0
    evalcfg = tmp_path / "eval.cfg"
    evalcfg.write_text(QUICK + f"data.csv = {gapped}\neval.checkpoint = {run / 'checkpoint.bin'}\n")
    assert main(["eval", "--config", str(evalcfg), "--out", str(tmp_path / "e")]) == 0


def write_sparse_twin(dense_csv, path):
    """``dense_csv`` with each class id y written as (y + 1) * 10**15."""
    lines = Path(dense_csv).read_text().splitlines()
    rows = [f"{(int(y) + 1) * 10**15},{rest}" for y, rest in (r.split(",", 1) for r in lines[1:])]
    path.write_text("\n".join([lines[0], *rows]) + "\n")
    return path


@pytest.mark.parametrize("method", ["simple", "proxy_gip_ce"])
def test_train_with_sparse_class_ids_matches_dense_ids(tmp_path, method):
    # ids (k + 1) * 10**15 in place of k: train sees only the ids' ranks, so
    # the proxy matrix has one row per class and every artifact keeps its bytes
    cfg = write_quick(tmp_path, f"train.method = {method}\n")
    data = tmp_path / "data"
    assert main(["gen-data", "--config", cfg, "--out", str(data)]) == 0
    sparse = write_sparse_twin(data / "dataset.csv", tmp_path / "sparse.csv")
    artifacts = []
    for name, csv in (("dense", data / "dataset.csv"), ("sparse", sparse)):
        run = tmp_path / name
        train_cfg = write_quick(tmp_path, f"train.method = {method}\ndata.csv = {csv}\n")
        assert main(["train", "--config", train_cfg, "--out", str(run)]) == 0
        names = sorted(set(os.listdir(run)) - {"manifest.json"})
        artifacts.append({f: (run / f).read_bytes() for f in names})
    assert sorted(artifacts[0]) == ["checkpoint.bin", "report.json", "runlog.jsonl", "summary.json"]
    assert artifacts[0] == artifacts[1]


def test_eval_with_sparse_class_ids_matches_dense_ids(tmp_path):
    # ids (k + 1) * 10**15 in place of k: eval counts the ids present instead
    # of sizing arrays by the largest one, so the report keeps every byte
    cfg = write_quick(tmp_path)
    run = tmp_path / "run"
    assert main(["gen-data", "--config", cfg, "--out", str(run)]) == 0
    assert main(["train", "--config", cfg, "--out", str(run)]) == 0
    sparse = write_sparse_twin(run / "dataset.csv", tmp_path / "sparse.csv")
    reports = []
    for name, csv in (("dense", run / "dataset.csv"), ("sparse", sparse)):
        evalcfg = tmp_path / f"{name}.cfg"
        evalcfg.write_text(QUICK + f"data.csv = {csv}\neval.checkpoint = {run / 'checkpoint.bin'}\n")
        assert main(["eval", "--config", str(evalcfg), "--out", str(tmp_path / name)]) == 0
        reports.append((tmp_path / name / "report.json").read_bytes())
    assert reports[0] == reports[1]


@pytest.mark.parametrize(
    "extra, sparse",
    [
        ("", False),
        ("train.method = proxy_gip_ce\n", False),
        ("similarity.kind = cosine\ntrain.normalize_features = true\n", False),
        ("", True),
    ],
    ids=["simple", "proxy_gip_ce", "cosine_normalized", "simple_sparse_ids"],
)
def test_eval_of_the_val_split_reproduces_the_train_report(tmp_path, extra, sparse):
    # train's report is eval's on the val part of the split of its data,
    # through the files: the checkpoint, a CSV of that part and, for simple,
    # the learned -b as eval.threshold; the val part keeps the user's ids
    cfg = write_quick(tmp_path, "seed = 5\n" + extra)
    data = tmp_path / "data"
    assert main(["gen-data", "--config", cfg, "--out", str(data)]) == 0
    csv = data / "dataset.csv"
    if sparse:
        csv = write_sparse_twin(csv, tmp_path / "sparse.csv")
    run = tmp_path / "run"
    assert main(["train", "--config", write_quick(tmp_path, f"seed = 5\n{extra}data.csv = {csv}\n"),
                 "--out", str(run)]) == 0
    val_csv = tmp_path / "val.csv"
    save_csv(split(load_csv(csv), 0.2, 5)[1], val_csv)
    summary = json.loads((run / "summary.json").read_text())
    threshold = "" if "proxy" in extra else f"eval.threshold = {-summary['final_bias']!r}\n"
    evalcfg = tmp_path / "eval.cfg"
    evalcfg.write_text(
        QUICK + f"seed = 5\n{extra}{threshold}data.csv = {val_csv}\n"
        f"eval.checkpoint = {run / 'checkpoint.bin'}\n"
    )
    assert main(["eval", "--config", str(evalcfg), "--out", str(tmp_path / "e")]) == 0
    assert (tmp_path / "e" / "report.json").read_bytes() == (run / "report.json").read_bytes()


def test_eval_label_beyond_int64_exits_2_naming_the_line(tmp_path, capsys):
    run = tmp_path / "run"
    assert main(["train", "--config", write_quick(tmp_path), "--out", str(run)]) == 0
    bad = tmp_path / "bad.csv"
    bad.write_text("label,f0\n0,1.0\n99999999999999999999,2.0\n")
    evalcfg = tmp_path / "eval.cfg"
    evalcfg.write_text(QUICK + f"data.csv = {bad}\neval.checkpoint = {run / 'checkpoint.bin'}\n")
    capsys.readouterr()
    assert main(["eval", "--config", str(evalcfg), "--out", str(tmp_path / "e")]) == 2
    assert "line 3: label 99999999999999999999 does not fit in int64" in capsys.readouterr().err


def test_eval_of_identical_features_names_the_tied_score(tmp_path, capsys):
    # all-zero inputs encode to one feature vector, so every sampled pair
    # scores the same and the EER has no finite threshold
    run = tmp_path / "run"
    assert main(["train", "--config", write_quick(tmp_path), "--out", str(run)]) == 0
    zeros = tmp_path / "zeros.csv"
    rows = [f"{i % 4}," + ",".join(["0.0"] * 8) for i in range(80)]
    zeros.write_text("\n".join(["label," + ",".join(f"f{k}" for k in range(8)), *rows]) + "\n")
    evalcfg = tmp_path / "eval.cfg"
    evalcfg.write_text(
        QUICK + f"similarity.kind = cosine\ndata.csv = {zeros}\n"
        f"eval.checkpoint = {run / 'checkpoint.bin'}\n"
    )
    capsys.readouterr()
    assert main(["eval", "--config", str(evalcfg), "--out", str(tmp_path / "e")]) == 2
    err = capsys.readouterr().err
    assert "every sampled pair has the same score" in err and "threshold must be finite" not in err


def test_eval_missing_checkpoint_file_is_runtime_error(tmp_path, capsys):
    evalcfg = tmp_path / "eval.cfg"
    evalcfg.write_text(QUICK + "eval.checkpoint = ghost.bin\n")
    assert main(["eval", "--config", str(evalcfg), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("header", [
    '{"format": "pairsim-encoder-v1", "layer_dims": [3], "activation": "tanh"}',
    '{"format": "pairsim-encoder-v1", "layer_dims": [8, 8], "activation": "gelu"}',
    '{"format": "pairsim-encoder-v1", "activation": "tanh"}',
], ids=["one-dim", "unknown-activation", "no-dims"])
def test_eval_bad_checkpoint_header_is_runtime_error(tmp_path, capsys, header):
    ckpt = tmp_path / "bad.bin"
    ckpt.write_bytes(header.encode() + b"\n" + bytes(8 * 72))
    evalcfg = tmp_path / "eval.cfg"
    evalcfg.write_text(QUICK + f"eval.checkpoint = {ckpt}\n")
    assert main(["eval", "--config", str(evalcfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"pairsim: error: {ckpt} has a bad header: "), err
    assert not (tmp_path / "o" / "report.json").exists()


def test_divergence_is_one_named_error_without_numpy_warnings(tmp_path):
    # relu features overflow within a few steps at this learning rate; the
    # run stops with one named error and numpy prints nothing on the way.
    # A child process, so stderr is what a user sees (pytest would capture
    # the warnings instead)
    cfg = write_quick(tmp_path, "train.activation = relu\nsgd.lr = 1e6\n")
    proc = run_child(["-m", "pairsim.cli", "train", "--config", cfg, "--out", str(tmp_path / "o")])
    assert proc.returncode == 2
    err = proc.stderr
    assert "RuntimeWarning" not in err and "encountered" not in err, err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("pairsim: error: step "), err
    assert "(epoch 1) of simple: " in lines[0]


def test_gen_data_train_and_eval_run_on_numpy_alone(tmp_path):
    # numpy is the only runtime dependency: train and eval cluster and score
    # the clustering without scipy, and only ablate --jobs > 1 starts a
    # process pool.  A child process, since this one has imported both already
    cfg, run = write_quick(tmp_path), tmp_path / "t"
    evalcfg = tmp_path / "eval.cfg"
    evalcfg.write_text(QUICK + f"eval.checkpoint = {run / 'checkpoint.bin'}\n")
    commands = [("gen-data", cfg, tmp_path / "g"), ("train", cfg, run),
                ("eval", evalcfg, tmp_path / "e")]
    script = "import sys\nfrom pairsim.cli import main\nloaded = []\n"
    for cmd, c, o in commands:
        script += (
            f"assert main([{cmd!r}, '--config', {str(c)!r}, '--out', {str(o)!r}]) == 0\n"
            "loaded.append([m for m in ('scipy', 'concurrent.futures.process')"
            " if m in sys.modules])\n"
        )
    proc = run_child(["-c", script + "print(loaded)\n"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[[], [], []]", proc.stdout
    assert json.loads((tmp_path / "e" / "report.json").read_text())["clustering_accuracy"] > 0


def test_ablate_serial_equals_parallel(tmp_path):
    cfg = tmp_path / "ab.cfg"
    cfg.write_text(QUICK.replace("epochs = 2", "epochs = 1")
                   + "grid.r = 1, 3\ngrid.alpha = 0.001\n")
    s, p = tmp_path / "ser", tmp_path / "par"
    assert main(["ablate", "--config", str(cfg), "--out", str(s)]) == 0
    assert main(["ablate", "--config", str(cfg), "--out", str(p), "--jobs", "2"]) == 0
    assert (s / "ablation.csv").read_bytes() == (p / "ablation.csv").read_bytes()
    lines = (s / "ablation.csv").read_text().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("r,alpha,b_theta,eer,")


def test_ablate_defaults_to_table_grid(tmp_path):
    # without grid keys the sweep covers r x alpha = 3 x 4 cells and reports
    # the table's FAR columns; the manifest records the resolved grid
    cfg = tmp_path / "ab.cfg"
    cfg.write_text(QUICK.replace("epochs = 2", "epochs = 1"))
    out = tmp_path / "ab"
    assert main(["ablate", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "ablation.csv").read_text().splitlines()
    assert len(lines) == 13
    assert "tpr_at_far_0.0001" in lines[0] and "tpr_at_far_0.01" in lines[0]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["grid.r"] == [1.0, 2.0, 3.0]
    assert manifest["config"]["eval.far_targets"] == [0.0001, 0.001, 0.01]
    # the config's own 50 negatives are kept; they reach no FAR column, so
    # every TPR cell is left empty
    assert manifest["config"]["eval.num_neg"] == 50
    for line in lines[1:]:
        assert line.split(",")[4:7] == ["", "", ""], line


def test_ablate_defaults_to_table_negatives(tmp_path):
    # without eval.num_neg the table draws 10,000 negatives, as many as the
    # split allows: 384 cross-class pairs here, so FAR 0.01 is reachable
    # and 1e-4 is clamped
    cfg = tmp_path / "ab.cfg"
    cfg.write_text(QUICK.replace("epochs = 2", "epochs = 1").replace("eval.num_neg = 50\n", "")
                   + "grid.r = 1\n")
    out = tmp_path / "ab"
    assert main(["ablate", "--config", str(cfg), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["eval.num_neg"] == 10_000
    header, row = (out / "ablation.csv").read_text().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["status"] == "ok"
    assert cells["tpr_at_far_0.0001"] == ""
    assert 0.0 <= float(cells["tpr_at_far_0.01"]) <= 1.0


def test_grad_check_prints_components(tmp_path, capsys):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("")
    out = tmp_path / "gc"
    assert main(["grad-check", "--config", str(cfg), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "composition_generalized_inner: max rel err" in stdout
    assert "PASS" in stdout
    assert (out / "gradcheck.txt").read_text().count("max rel err") == 12


def test_grad_check_holds_each_row_to_its_own_tolerance(tmp_path, capsys, monkeypatch):
    # 5e-5 is under the loosest tolerance (1e-4), so a single gate would
    # pass score_cosine; its own tolerance is 1e-6
    import pairsim.cli

    rows = [("score_inner", 8e-11, 1e-6), ("score_cosine", 5e-5, 1e-6),
            ("composition_inner", 5e-5, 1e-4), ("proxy_gip_ce", float("nan"), 1e-6)]
    monkeypatch.setattr(pairsim.cli, "component_checks", lambda seed: rows)
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("")
    out = tmp_path / "gc"
    assert main(["grad-check", "--config", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    lines = (out / "gradcheck.txt").read_text().splitlines()
    assert captured.out.splitlines() == lines
    assert lines == [
        "score_inner: max rel err 8.000e-11 (tol 1e-06)",
        "score_cosine: max rel err 5.000e-05 (tol 1e-06)",
        "composition_inner: max rel err 5.000e-05 (tol 0.0001)",
        "proxy_gip_ce: max rel err nan (tol 1e-06)",
        "FAIL: over tolerance: score_cosine, proxy_gip_ce",
    ]
    assert captured.err == "pairsim: error: gradient check failed: score_cosine, proxy_gip_ce\n"


def test_plot_roc_from_eval_reports(tmp_path, capsys):
    cfg = write_quick(tmp_path)
    run = tmp_path / "run"
    assert main(["train", "--config", cfg, "--out", str(run)]) == 0
    plotcfg = tmp_path / "plot.cfg"
    plotcfg.write_text(
        f"plot.reports = {run / 'report.json'}\nplot.names = quick-run\n"
    )
    out = tmp_path / "plot"
    assert main(["plot-roc", "--config", str(plotcfg), "--out", str(out)]) == 0
    svg = (out / "roc.svg").read_text()
    assert svg.count("<polyline") == 1
    assert "quick-run" in svg
    # byte-determinism of the rendered figure
    out2 = tmp_path / "plot2"
    assert main(["plot-roc", "--config", str(plotcfg), "--out", str(out2)]) == 0
    assert (out / "roc.svg").read_bytes() == (out2 / "roc.svg").read_bytes()
    # the run's summary.json carries no ROC: a named runtime error
    plotcfg.write_text(f"plot.reports = {run / 'summary.json'}\n")
    capsys.readouterr()
    assert main(["plot-roc", "--config", str(plotcfg), "--out", str(out2)]) == 2
    assert "summary.json holds no ROC" in capsys.readouterr().err


def test_plot_roc_names_a_file_without_roc(tmp_path, capsys):
    gen = tmp_path / "gen"
    assert main(["gen-data", "--config", write_quick(tmp_path), "--out", str(gen)]) == 0
    listed = tmp_path / "list.json"
    listed.write_text("[[0.0, 0.0], [1.0, 1.0]]\n")
    for path in (gen / "manifest.json", listed):
        plotcfg = tmp_path / "plot.cfg"
        plotcfg.write_text(f"plot.reports = {path}\n")
        capsys.readouterr()
        assert main(["plot-roc", "--config", str(plotcfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"{path} holds no ROC" in err
        assert "reads the report.json that train and eval write" in err
        assert not (tmp_path / "o" / "roc.svg").exists()


def test_plot_roc_validation_and_runtime_errors(tmp_path, capsys):
    empty = tmp_path / "empty.cfg"
    empty.write_text("")
    assert main(["plot-roc", "--config", str(empty), "--out", str(tmp_path / "o")]) == 1
    ghost = tmp_path / "ghost.cfg"
    ghost.write_text("plot.reports = nothere.json\n")
    assert main(["plot-roc", "--config", str(ghost), "--out", str(tmp_path / "o")]) == 2
    mismatched = tmp_path / "mm.cfg"
    mismatched.write_text("plot.reports = a.json, b.json\nplot.names = only-one\n")
    assert main(["plot-roc", "--config", str(mismatched), "--out", str(tmp_path / "o")]) == 1


def test_commands_write_only_inside_out_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_quick(tmp_path)
    before = set(os.listdir(tmp_path))
    out = tmp_path / "only_here"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 0
    after = set(os.listdir(tmp_path))
    assert after - before == {"only_here"}
