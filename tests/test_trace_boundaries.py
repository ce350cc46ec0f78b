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
    assert missing == []


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
    assert tracer.missing == []
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
