import functools
import json
import re

import numpy as np
import pytest

from pairsim.data import Dataset, GenSpec, generate, split
from pairsim.baselines import init_proxy_bank, norm_blowup_probe
from pairsim.encoder import SgdConfig, init_encoder, load_encoder
from pairsim.errors import ConfigError
from pairsim.evaluation import evaluate
from pairsim.gradcheck import max_rel_err, numerical_grad
from pairsim.losses import LossConfig
from pairsim.numkit import Rng
from pairsim.pair_queue import FeatureQueue, enqueue_batch
from pairsim import trainer as trainer_module
from pairsim.similarity import SimilarityKind
from pairsim.trainer import (
    METHODS,
    TrainConfig,
    _step_grads,
    ablate,
    ablate_csv,
    encode,
    final_report,
    lr_at,
    save_runlog,
    train,
)


@functools.lru_cache(maxsize=None)
def small_ds():
    return generate(GenSpec(num_classes=4, samples_per_class=40, input_dim=8,
                            noise_scale=0.5, seed=3))


def quick_cfg(**kw):
    base = dict(epochs=2, eval_every=1, batch_size=16, queue_capacity=64,
                eval_num_pos=50, eval_num_neg=50, lr_warmup_steps=5,
                feature_dim=8, seed=0)
    base.update(kw)
    return TrainConfig(**base)


def nets_equal(a, b):
    return np.array_equal(a.theta, b.theta)


def test_step_and_epoch_bookkeeping():
    log = train(quick_cfg(), small_ds())
    # 160 rows -> 128 train rows -> 8 steps of 16 per epoch, 2 epochs
    assert len(log.steps) == 16
    assert [rec["step"] for rec in log.steps] == list(range(16))
    assert {rec["epoch"] for rec in log.steps} == {1, 2}
    assert len(log.epochs) == 2
    for erec in log.epochs:
        assert set(erec) >= {"epoch", "train_loss", "mean_feature_norm", "eval"}
        assert np.isfinite(erec["train_loss"])
        assert erec["mean_feature_norm"] > 0.0
    assert log.encoder is not None and log.ema is not None


def test_eval_cadence_and_forced_final():
    log = train(quick_cfg(epochs=3, eval_every=5), small_ds())
    # 3 % 5 != 0 but the final epoch always evaluates
    tagged = [erec["epoch"] for erec in log.epochs if "eval" in erec]
    assert tagged == [3]
    one = train(quick_cfg(epochs=1, eval_every=1), small_ds())
    assert ["eval" in erec for erec in one.epochs] == [True]
    assert final_report(one) == one.epochs[-1]["eval"]


def test_report_fields_present():
    rep = final_report(train(quick_cfg(), small_ds()))
    assert set(rep) == {"eer", "eer_threshold", "tpr_at_far", "roc",
                        "desideratum_margin", "clustering_accuracy", "cut_errors"}
    assert 0.0 <= rep["eer"] <= 1.0
    assert set(rep["tpr_at_far"]) == {"0.1", "0.01"}


@pytest.mark.parametrize("method, normalize", [
    pytest.param("simple", False, id="simple"),
    pytest.param("simple", True, id="simple-normalize_features"),
    pytest.param("proxy_gip_ce", True, id="proxy_gip_ce-normalize_features"),
])
def test_train_report_equals_evaluate_on_val_split(method, normalize):
    # the in-training report is `evaluate` on the val split, cut at -b for
    # simple and at the EER threshold for the baselines
    cfg = quick_cfg(method=method, normalize_features=normalize)
    log = train(cfg, small_ds())
    _, val = split(small_ds(), cfg.val_fraction, seed=cfg.seed)
    sim = SimilarityKind(b_theta=log.b_theta)
    rep = evaluate(encode(log.encoder, val.inputs, normalize), val.labels, sim,
                   cfg.eval_num_pos, cfg.eval_num_neg, cfg.seed, cfg.far_targets,
                   threshold=-log.bias if method == "simple" else None)
    assert final_report(log) == rep


def _step_fixture(method, normalize):
    """A step on a 4 -> 5 -> 3 tanh net and a 3-row batch: against a full
    6-entry queue that gives every row a positive and a negative, or a
    3-class proxy matrix (with a proxy margin of 0.2 for proxy_gip_ce)."""
    y = np.array([0, 1, 2])
    cfg = TrainConfig(method=method, normalize_features=normalize,
                      proxy_margin=0.2 if method == "proxy_gip_ce" else 0.0)
    rng = Rng(7).stream((method, normalize, 0))
    enc = init_encoder([4, 5, 3], rng.stream("init"), "tanh")
    x = rng.normal(size=(3, 4))
    if method != "simple":
        return cfg, enc, x, y, None, init_proxy_bank(rng.stream("bank"), 3, 3)
    queue = FeatureQueue(6, 3)
    enqueue_batch(queue, encode(enc, rng.normal(size=(6, 4)), normalize), np.tile(y, 2))
    return cfg, enc, x, y, queue, None


@pytest.mark.parametrize("normalize", [False, True], ids=["raw", "normalize_features"])
@pytest.mark.parametrize("method", METHODS)
def test_step_gradients_match_finite_differences(method, normalize):
    # the step `train` runs, end to end: the encoder gradient through the
    # loss, the scores and (with normalize_features) the unit rows, plus b,
    # b_theta (the similarity's, which the proxy CE reads too) and the
    # proxies
    cfg, enc, x, y, queue, proxies = _step_fixture(method, normalize)

    def step(b=0.1, b_theta=0.3):
        loss = LossConfig(alpha=0.1, b=b, similarity=SimilarityKind(b_theta=b_theta))
        rec = {}
        out = _step_grads(cfg, loss, enc, x, y, rec, queue, proxies)
        assert ("pos_ratio" in rec) == (queue is not None)
        return out

    _, d_theta, d_b, d_bt, d_proxies, _, _ = step()
    checks = [
        (d_theta, lambda _theta: step()[0], enc.theta),
        (d_b, lambda b: step(b=b)[0], 0.1),
        (d_bt, lambda t: step(b_theta=t)[0], 0.3),
    ]
    if proxies is None:
        assert d_proxies is None
    else:
        checks.append((d_proxies, lambda _w: step()[0], proxies))
    for analytic, f, at in checks:
        assert max_rel_err(analytic, numerical_grad(f, at), floor=1e-3) < 1e-4


def _zero_lr():
    from pairsim.encoder import SgdConfig

    return SgdConfig(lr=0.0, momentum=0.9, weight_decay=5e-4)


def test_lr_zero_freezes_everything():
    # with lr = 0 nothing moves: one epoch and three epochs land on the same
    # parameters, b and b_theta stay at their configured values
    a = train(quick_cfg(epochs=1, sgd=_zero_lr()), small_ds())
    b = train(quick_cfg(epochs=3, sgd=_zero_lr()), small_ds())
    assert nets_equal(a.encoder, b.encoder)
    # the EMA recurrence eta*p + (1-eta)*p re-rounds p each step, so the
    # frozen run matches its EMA to rounding, not bit-for-bit
    assert np.allclose(a.encoder.theta, a.ema.theta, rtol=1e-12, atol=0.0)
    assert a.bias == 0.0 and b.bias == 0.0
    assert a.b_theta == 0.3 and b.b_theta == 0.3


def test_ema_updates_only_through_decay():
    # eta = 1 freezes the momentum encoder at its initial copy, which equals
    # what an lr = 0 run leaves behind; the online encoder still trains
    frozen = train(quick_cfg(eta=1.0), small_ds())
    init_like = train(quick_cfg(sgd=_zero_lr()), small_ds())
    assert nets_equal(frozen.ema, init_like.encoder)
    assert not nets_equal(frozen.encoder, frozen.ema)


def test_deterministic_rerun_bit_identical(tmp_path):
    paths = []
    for name in ("a", "b"):
        log = train(quick_cfg(), small_ds())
        out = tmp_path / name
        save_runlog(log, out)
        paths.append(out)
    for fname in ("runlog.jsonl", "summary.json", "checkpoint.bin"):
        assert (paths[0] / fname).read_bytes() == (paths[1] / fname).read_bytes()


def test_seed_changes_the_run(tmp_path):
    a = train(quick_cfg(seed=0), small_ds())
    b = train(quick_cfg(seed=1), small_ds())
    assert not nets_equal(a.encoder, b.encoder)


def test_runlog_files_round_trip(tmp_path):
    log = train(quick_cfg(), small_ds())
    save_runlog(log, tmp_path)
    lines = (tmp_path / "runlog.jsonl").read_text().splitlines()
    assert len(lines) == len(log.steps)
    assert json.loads(lines[0])["step"] == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["checkpoint"] == "checkpoint.bin"
    assert len(summary["epochs"]) == 2
    restored = load_encoder(tmp_path / "checkpoint.bin")
    assert nets_equal(restored, log.encoder)


def test_pair_stats_logged_per_method():
    pair_log = train(quick_cfg(method="simple"), small_ds())
    assert all(0.0 < rec["pos_ratio"] < 1.0 for rec in pair_log.steps)
    ce_log = train(quick_cfg(method="softmax_ce"), small_ds())
    assert all("pos_ratio" not in rec for rec in ce_log.steps)


def test_proxy_methods_learn_class_accuracy():
    for method in ("softmax_ce", "proxy_gip_ce"):
        log = train(quick_cfg(method=method, epochs=4), small_ds())
        accs = [erec["train_accuracy"] for erec in log.epochs]
        assert all(0.0 <= a <= 1.0 for a in accs)
        assert accs[-1] > accs[0]
        assert log.ema is None


def test_learnable_b_theta_stays_in_range():
    # momentum can carry b_theta past 1; the update projects it back into
    # [0, 1), where SimilarityKind accepts it
    loss = LossConfig(similarity=SimilarityKind(b_theta_learnable=True))
    for method in ("simple", "proxy_gip_ce"):
        log = train(quick_cfg(method=method, loss=loss), small_ds())
        assert 0.0 <= log.b_theta < 1.0, method
        assert log.b_theta != 0.3, method


def test_proxy_ce_reads_the_b_theta_of_the_last_update(monkeypatch):
    # the trainer holds one copy of b_theta: with it learnable, the proxy CE
    # of step s sees it as the update of step s - 1 left it
    seen = []
    real = trainer_module.proxy_gip_ce

    def spy(proxies, features, labels, b_theta, *args):
        out = real(proxies, features, labels, b_theta, *args)
        seen.append((b_theta, out[1].d_btheta))
        return out

    monkeypatch.setattr(trainer_module, "proxy_gip_ce", spy)
    loss = LossConfig(similarity=SimilarityKind(b_theta_learnable=True))
    cfg = quick_cfg(method="proxy_gip_ce", loss=loss)
    log = train(cfg, small_ds())
    assert len(seen) == len(log.steps)
    # replay the projected momentum update from the gradients the CE returned
    b_theta, v = 0.3, 0.0
    for (got, d_bt), rec in zip(seen, log.steps):
        assert got == b_theta, rec["step"]
        v = cfg.sgd.momentum * v + d_bt
        b_theta = min(max(b_theta - rec["lr"] * v, 0.0), np.nextafter(1.0, 0.0))
    assert log.b_theta == b_theta
    assert len({got for got, _ in seen}) == len(seen)  # it moved every step


def assert_b_theta_learnable_changes_no_byte(tmp_path, kind="generalized_inner", **kw):
    # the score gives b_theta a zero gradient, so making it learnable changes
    # no byte and leaves it at the configured 0.3
    for learnable in (False, True):
        loss = LossConfig(similarity=SimilarityKind(kind=kind, b_theta_learnable=learnable))
        log = train(quick_cfg(loss=loss, **kw), small_ds())
        assert log.b_theta == 0.3
        save_runlog(log, tmp_path / str(learnable))
    for fname in ("runlog.jsonl", "summary.json", "checkpoint.bin"):
        assert (tmp_path / "False" / fname).read_bytes() == (tmp_path / "True" / fname).read_bytes()


@pytest.mark.parametrize("normalize", [False, True], ids=["raw", "normalize_proxies"])
def test_softmax_ce_run_ignores_b_theta_learnable(tmp_path, normalize):
    # softmax_ce has no b_theta
    assert_b_theta_learnable_changes_no_byte(
        tmp_path, method="softmax_ce", normalize_proxies=normalize
    )


@pytest.mark.parametrize("kind", ["inner", "cosine"])
@pytest.mark.parametrize("method", ["simple"])
def test_queue_run_ignores_b_theta_learnable_where_the_score_does(tmp_path, method, kind):
    # only generalized_inner reads b_theta; the others hold it to [0, 1)
    assert_b_theta_learnable_changes_no_byte(tmp_path, kind, method=method)


def test_divergence_names_step_epoch_and_method():
    # relu features overflow within a few steps at this learning rate
    cfg = quick_cfg(activation="relu", sgd=SgdConfig(lr=1e6))
    with pytest.raises(FloatingPointError) as err:
        train(cfg, small_ds())
    msg = str(err.value)
    want = r"step \d+ \(epoch 1\) of simple: encoder features contains NaN or Inf"
    assert re.fullmatch(want, msg), msg
    assert isinstance(err.value.__cause__, FloatingPointError)
    assert str(err.value.__cause__) == "encoder features contains NaN or Inf"
    # the sweep keeps the named message in the cell's status
    row = ablate({}, cfg, small_ds())[0]
    assert row["status"] == f"FloatingPointError: {msg}"


def test_divergence_in_evaluation_names_the_step_before(monkeypatch):
    def diverged(*args):
        raise FloatingPointError("encoder features contains NaN or Inf")

    monkeypatch.setattr(trainer_module, "_eval_on_pairs", diverged)
    with pytest.raises(FloatingPointError, match=r"^evaluation after step 7 \(epoch 1\) of "
                       r"softmax_ce: encoder features contains NaN or Inf$"):
        train(quick_cfg(method="softmax_ce"), small_ds())  # 8 steps per epoch


def test_norm_probe_reads_runlog():
    log = train(quick_cfg(), small_ds())
    series = norm_blowup_probe(log)
    assert series.shape == (2,)
    assert np.all(series > 0.0) and np.all(np.isfinite(series))


def test_eer_improves_on_separable_task():
    ds = generate(GenSpec(num_classes=8, samples_per_class=50, input_dim=16,
                          noise_scale=0.5, seed=1))
    cfg = TrainConfig(epochs=10, eval_every=2, batch_size=32, queue_capacity=128,
                      eval_num_pos=400, eval_num_neg=400, lr_warmup_steps=20,
                      feature_dim=8, seed=0)
    log = train(cfg, ds)
    eers = [erec["eval"]["eer"] for erec in log.epochs if "eval" in erec]
    assert eers[-1] < eers[0]


@pytest.mark.parametrize("method", METHODS)
def test_batch_over_queue_capacity_is_rejected_only_where_there_is_a_queue(method):
    if method in ("softmax_ce", "proxy_gip_ce"):  # no queue to exceed
        assert TrainConfig(method=method, batch_size=512, queue_capacity=256).batch_size == 512
    else:
        with pytest.raises(ConfigError, match="batch_size 512 exceeds queue_capacity 256"):
            TrainConfig(method=method, batch_size=512, queue_capacity=256)


def test_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=128, queue_capacity=64)
    with pytest.raises(ConfigError):
        TrainConfig(epochs=0)
    with pytest.raises(ConfigError):
        TrainConfig(method="metric_learning")
    with pytest.raises(ConfigError):
        TrainConfig(eval_every=0)
    with pytest.raises(ConfigError):
        TrainConfig(val_fraction=1.0)
    with pytest.raises(ConfigError):
        TrainConfig(lr_decay_at=(0.6, 1.5))
    with pytest.raises(ConfigError, match="seed must be an unsigned 64-bit int, got -1"):
        TrainConfig(seed=-1)
    with pytest.raises(ConfigError, match=r"seed must be an unsigned 64-bit int, got 2\.5"):
        TrainConfig(seed=2.5)
    TrainConfig(seed=np.uint64(2))
    with pytest.raises(ConfigError):
        train(quick_cfg(batch_size=140, queue_capacity=256), small_ds())


def test_train_names_thin_classes_by_id_and_an_empty_dataset():
    # ids {0, 10**15} with one row of 10**15: split's error names the id
    big = 10**15
    thin = Dataset(inputs=np.arange(10.0).reshape(5, 2), labels=[0, 0, 0, 0, big])
    with pytest.raises(ConfigError, match=rf"classes \[{big}\] have fewer rows"):
        train(quick_cfg(), thin)
    empty = Dataset(inputs=np.ones((0, 2)), labels=[])
    with pytest.raises(ConfigError, match="training split has 0 rows"):
        train(quick_cfg(), empty)


def test_lr_schedule_shape():
    cfg = quick_cfg(lr_warmup_steps=10)
    lrs = [lr_at(cfg, s, 100) for s in range(100)]
    assert lrs[0] == pytest.approx(cfg.sgd.lr * 0.1)
    assert lrs[9] == pytest.approx(cfg.sgd.lr)
    assert lrs[30] == pytest.approx(cfg.sgd.lr)
    assert lrs[65] == pytest.approx(cfg.sgd.lr * 0.1)
    assert lrs[85] == pytest.approx(cfg.sgd.lr * 0.01)


def test_ablate_orders_cells_and_reports():
    cfg = quick_cfg(epochs=1, eval_num_pos=30, eval_num_neg=30)
    rows = ablate({"r": [3.0, 1.0], "alpha": [0.01, 0.001]}, cfg, small_ds())
    assert [(row["r"], row["alpha"]) for row in rows] == [
        (1.0, 0.001), (1.0, 0.01), (3.0, 0.001), (3.0, 0.01),
    ]
    assert all(row["status"] == "ok" for row in rows)
    assert all(0.0 <= row["eer"] <= 1.0 for row in rows)
    text = ablate_csv(rows)
    lines = text.splitlines()
    assert lines[0] == "r,alpha,b_theta,eer,tpr_at_far_0.01,tpr_at_far_0.1,status"
    assert len(lines) == 5


def test_ablate_csv_leaves_clamped_cells_empty():
    def op(tpr, far, clamped):
        return {"tpr": tpr, "far": far, "threshold": 0.5, "clamped": clamped}

    rows = [{
        "r": 1.0, "alpha": 0.001, "b_theta": 0.0, "eer": 0.25, "status": "ok",
        "tpr_at_far": {"0.0001": op(0.3475, 0.0005, True), "0.01": op(0.75, 0.01, False)},
    }]
    assert ablate_csv(rows).splitlines() == [
        "r,alpha,b_theta,eer,tpr_at_far_0.0001,tpr_at_far_0.01,status",
        "1,0.001,0,0.25,,0.75,ok",
    ]


def test_ablate_tolerates_failed_cells(monkeypatch):
    cfg = quick_cfg(epochs=1, eval_num_pos=30, eval_num_neg=30)
    # r = 1e308 is a valid setting whose loss overflows at the first step:
    # only the run can find that
    rows = ablate({"r": [1.0, 1e308]}, cfg, small_ds())
    by_r = {row["r"]: row for row in rows}
    assert by_r[1.0]["status"] == "ok"
    assert by_r[1e308]["status"] == (
        "FloatingPointError: step 0 (epoch 1) of simple: loss contains NaN or Inf"
    )
    assert by_r[1e308]["eer"] is None
    # the failed row renders as empty metric cells, not a crash
    assert ablate_csv(rows).count("\n") == 3
    # worker processes return the same rows, failed cell included
    assert ablate({"r": [1.0, 1e308]}, cfg, small_ds(), jobs=2) == rows
    # a value a cell's config rejects fails the sweep before any cell trains
    trained = []
    monkeypatch.setattr(trainer_module, "train", lambda *args: trained.append(args))
    for grid, words in [
        ({"r": [1.0, -1.0]}, "r must be positive and finite, got -1.0"),
        ({"b_theta": [0.3, 1.5]}, r"b_theta must lie in \[0, 1\), got 1.5"),
        ({"alpha": [0.1, 1.5]}, r"alpha must lie strictly in \(0, 1\), got 1.5"),
        ({"r": []}, "grid.r is empty"),
        ({"gamma": [1.0]}, "unknown grid axes"),
    ]:
        with pytest.raises(ConfigError, match=words):
            ablate(grid, cfg, small_ds())
    with pytest.raises(ConfigError, match="jobs must be >= 1"):
        ablate({"r": [1.0]}, cfg, small_ds(), jobs=0)
    assert trained == []


def test_ablate_starts_no_more_workers_than_cells(monkeypatch):
    # ProcessPoolExecutor forks all of max_workers at its first submit, so
    # jobs=1000 on two cells must ask for two; the fake runs them in-process
    class FakePool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    pools = []
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", FakePool)
    cfg = quick_cfg(epochs=1, eval_num_pos=30, eval_num_neg=30)
    rows = ablate({"r": [1.0, 2.0]}, cfg, small_ds(), jobs=1000)
    assert pools == [2]
    assert rows == ablate({"r": [1.0, 2.0]}, cfg, small_ds())
    # a single cell runs in this process, whatever jobs asks for
    ablate({"r": [1.0]}, cfg, small_ds(), jobs=1000)
    assert pools == [2]
