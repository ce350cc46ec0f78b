"""The benchmark's traced call names still exist in pairsim.

`perfbench/tracing.py` times each layer by replacing a module attribute
(``pairsim.trainer.batch_loss``, ...) with a wrapper.  A refactor that
renames or drops one of those names, or binds it where the wrapper cannot
reach, would silently zero that layer's metric; these tests make it fail
instead.  The benchmark file is read as it is, never edited.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# The traced names pairsim no longer has, in the tracer's order: `softmax_ce`
# is gone, the plain CE being `proxy_gip_ce` at b_theta 0; and the eval walk
# takes its score products inline, as plain products of the folded rows, so
# the walk's time lands in `cli.self_ms` until the benchmark gives the walk a
# span of its own.  The benchmark drops both boundaries (ROADMAP item 6b).
UNWRAPPED = ["pairsim.trainer.softmax_ce", "pairsim.evaluation.score_matrix"]


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_boundary_exists(tracing):
    missing = [
        f"{modname}.{attr}"
        for modname, attr, _, _ in tracing.BOUNDARIES
        if not callable(getattr(importlib.import_module(modname), attr, None))
    ]
    assert missing == UNWRAPPED


def test_queue_step_boundaries_are_looked_up_at_call_time(tracing, tmp_path):
    # a short `simple` run with the tracer's wrappers installed: every step
    # boundary must see its calls, so none is bound before the loop starts
    from pairsim.cli import main

    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "data.num_classes = 4\ndata.samples_per_class = 40\ndata.input_dim = 8\n"
        "train.epochs = 1\ntrain.batch_size = 16\ntrain.queue_capacity = 64\n"
        "train.feature_dim = 8\neval.num_pos = 50\neval.num_neg = 50\n"
    )
    tracer = tracing.Tracer()
    assert tracer.missing == UNWRAPPED
    tracer.install()
    try:
        rc, _ = tracer.run_op(0, lambda: main(["train", "--config", str(cfg),
                                               "--out", str(tmp_path / "run")]))
    finally:
        tracer.restore()
    assert rc == 0
    steps = 128 // 16  # the 80% train split of 160 rows, in batches of 16
    for name in ("encoder.forward", "pair_queue.form_pairs", "similarity.score_matrix",
                 "losses.batch_loss", "similarity.grad_left", "encoder.backward",
                 "encoder.sgd_step", "encoder.ema_update", "pair_queue.enqueue"):
        assert tracer.calls[name] >= steps, name
    assert tracer.counts["pair_queue.pairs"] == steps * 16 * 64
    # each step scores its pairs once, inside form_pairs, and backprops them
    # once; the in-training eval's score_matrix calls get no span of their own
    names = [span[0] for span in tracer.spans]
    scores = [span for span in tracer.spans if span[0] == "similarity.score_matrix"]
    assert len(scores) == names.count("pair_queue.form_pairs") == steps
    assert all(names[span[3]] == "pair_queue.form_pairs" for span in scores)
    assert names.count("similarity.grad_left") == tracer.calls["similarity.grad_left"] == steps


def test_eval_boundaries_see_each_layer(tracing, tmp_path):
    # `pairsim eval` on a CSV with the tracer's wrappers installed: load,
    # encode and pair sampling each see their call; the pair walk's
    # products are not a boundary (see UNWRAPPED), so no score_matrix span
    # opens during eval
    from pairsim.cli import main

    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "data.num_classes = 4\ndata.samples_per_class = 70\ndata.input_dim = 8\n"
        "train.epochs = 1\ntrain.batch_size = 16\ntrain.queue_capacity = 64\n"
        "train.feature_dim = 8\neval.num_pos = 50\neval.num_neg = 50\n"
    )
    for cmd, out in (("gen-data", "data"), ("train", "run")):
        assert main([cmd, "--config", str(cfg), "--out", str(tmp_path / out)]) == 0
    csv = tmp_path / "data" / "dataset.csv"
    evalcfg = tmp_path / "eval.cfg"
    evalcfg.write_text(
        cfg.read_text()
        + f"data.csv = {csv}\neval.checkpoint = {tmp_path / 'run' / 'checkpoint.bin'}\n"
    )
    tracer = tracing.Tracer()
    tracer.install()
    try:
        rc, _ = tracer.run_op(0, lambda: main(["eval", "--config", str(evalcfg),
                                               "--out", str(tmp_path / "ev")]))
    finally:
        tracer.restore()
    assert rc == 0
    assert tracer.calls["similarity.score_matrix"] == 0
    for name in ("data.load_csv", "encoder.encode", "evaluation.sample_pairs"):
        assert tracer.calls[name] == 1, name
