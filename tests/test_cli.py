import json
import os

import pytest

from pairsim.cli import main

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
    # ignores it, so [0, 1) is checked before the run starts
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


def test_label_gaps_fail_train_but_not_eval(tmp_path, capsys):
    cfg = write_quick(tmp_path)
    run = tmp_path / "run"
    assert main(["gen-data", "--config", cfg, "--out", str(run)]) == 0
    assert main(["train", "--config", cfg, "--out", str(run)]) == 0
    # drop class 1: the CSV's labels are {0, 2, 3}
    lines = (run / "dataset.csv").read_text().splitlines()
    gapped = tmp_path / "gapped.csv"
    kept = [line for line in lines[1:] if not line.startswith("1,")]
    gapped.write_text("\n".join([lines[0], *kept]) + "\n")
    capsys.readouterr()
    train_cfg = write_quick(tmp_path, f"data.csv = {gapped}\n")
    assert main(["train", "--config", train_cfg, "--out", str(tmp_path / "t")]) == 2
    err = capsys.readouterr().err
    assert "class ids [1] do not appear" in err and "without gaps" in err
    # eval never needs every class, so it keeps accepting gapped labels
    evalcfg = tmp_path / "eval.cfg"
    evalcfg.write_text(QUICK + f"data.csv = {gapped}\neval.checkpoint = {run / 'checkpoint.bin'}\n")
    assert main(["eval", "--config", str(evalcfg), "--out", str(tmp_path / "e")]) == 0


def test_eval_missing_checkpoint_file_is_runtime_error(tmp_path, capsys):
    evalcfg = tmp_path / "eval.cfg"
    evalcfg.write_text(QUICK + "eval.checkpoint = ghost.bin\n")
    assert main(["eval", "--config", str(evalcfg), "--out", str(tmp_path / "o")]) == 2


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


def test_grad_check_prints_components(tmp_path, capsys):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("")
    out = tmp_path / "gc"
    assert main(["grad-check", "--config", str(cfg), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "composition_generalized_inner: max rel err" in stdout
    assert "PASS" in stdout
    assert (out / "gradcheck.txt").read_text().count("max rel err") >= 19


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
