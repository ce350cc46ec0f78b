"""Training loop: momentum encoder, feature queue, and the pairwise losses.

One optimization step runs the fixed eight-stage cycle: sample a mini-batch,
encode it with the online encoder, pair it against the queue, compute the
loss, backprop through the batch-side scores only, apply SGD (including the
scalar bias b and, when learnable, b_theta), EMA-update the momentum encoder,
then re-encode the batch with the momentum encoder and enqueue it.  The queue
is filled from EMA features before the first update so every step sees a full
complement of pairs.  `_step_grads` holds the gradient half of a step, from
encode to the encoder backprop, for every method; `train` applies the
updates.  The gradient audit (`gradcheck.component_checks`) runs the same
`_step_grads`.

`method` selects what happens between encode and backprop.  The queue
method scores the batch against the queue, takes a loss on those pair scores
and backprops it through the batch side of the score matrix:

* simple       -- weighted softplus pair loss (`losses.batch_loss`)

The proxy methods take one batched cross entropy against a learned (K, d)
proxy matrix, one row per class, trained by the same SGD rule as the encoder
(no queue, no EMA):

* softmax_ce   -- over raw inner products
* proxy_gip_ce -- over generalized-inner logits

Everything downstream of the seed is deterministic: two runs with the same
config and dataset produce byte-identical logs and checkpoints.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .baselines import init_proxy_bank, proxy_gip_ce, softmax_ce
from .data import Dataset, split
from .encoder import (
    EncoderNet,
    SgdConfig,
    _architecture,
    backward,
    ema_update,
    forward,
    init_encoder,
    save_encoder,
    sgd_step,
)
from .errors import ConfigError, DegenerateInputError
from .evaluation import _pair_totals, evaluate
from .losses import LossConfig, batch_loss
from .numkit import Rng, as_matrix, check_finite, check_seed, row_norms, unit_rows, unit_rows_grad
from .pair_queue import FeatureQueue, enqueue_batch, form_pairs, pos_neg_ratio
from .similarity import score_matrix_grad_left

METHODS = ("simple", "softmax_ce", "proxy_gip_ce")
_BT_MAX = float(np.nextafter(1.0, 0.0))  # b_theta must stay below 1


@dataclass
class TrainConfig:
    loss: LossConfig = field(default_factory=LossConfig)
    sgd: SgdConfig = field(default_factory=SgdConfig)
    method: str = "simple"
    batch_size: int = 32
    queue_capacity: int = 256
    eta: float = 0.99
    epochs: int = 100
    eval_every: int = 10
    seed: int = 0
    # network; tanh keeps initial cross-class feature cosines near zero
    # (below a b_theta of 0.3), which a relu net's positive-orthant
    # geometry violates badly enough to stall pairwise training
    feature_dim: int = 32
    hidden_dims: tuple = (64, 64)
    activation: str = "tanh"
    normalize_features: bool = False
    # learning-rate schedule: linear warmup, then step decay at fractions of
    # the total step budget
    lr_warmup_steps: int = 100
    lr_decay_at: tuple = (0.6, 0.8)
    lr_decay_factor: float = 0.1
    # validation protocol (the val split is carved out of the dataset here)
    val_fraction: float = 0.2
    eval_num_pos: int = 2000
    eval_num_neg: int = 2000
    far_targets: tuple = (0.1, 0.01)
    # baseline knobs
    proxy_margin: float = 0.0
    normalize_proxies: bool = False

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.queue_capacity < 1:
            raise ConfigError(f"queue_capacity must be >= 1, got {self.queue_capacity}")
        if self.method == "simple" and self.batch_size > self.queue_capacity:
            raise ConfigError(
                f"batch_size {self.batch_size} exceeds queue_capacity {self.queue_capacity}"
            )
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.eval_every < 1:
            raise ConfigError(f"eval_every must be >= 1, got {self.eval_every}")
        if not 0.0 <= self.eta <= 1.0:
            raise ConfigError(f"eta must lie in [0, 1], got {self.eta}")
        # the input dim comes from the data; 1 stands in for it here
        _architecture((1, *self.hidden_dims, self.feature_dim), self.activation)
        if not 0.0 < self.val_fraction < 1.0:
            raise ConfigError(f"val_fraction must lie in (0, 1), got {self.val_fraction}")
        if self.eval_num_pos < 1 or self.eval_num_neg < 1:
            raise ConfigError("eval_num_pos and eval_num_neg must be >= 1")
        if not all(0.0 <= t <= 1.0 for t in self.far_targets):
            raise ConfigError(f"far_targets must lie in [0, 1], got {self.far_targets}")
        if self.lr_warmup_steps < 0:
            raise ConfigError(f"lr_warmup_steps must be >= 0, got {self.lr_warmup_steps}")
        if not all(0.0 < f < 1.0 for f in self.lr_decay_at):
            raise ConfigError(f"lr_decay_at fractions must lie in (0, 1), got {self.lr_decay_at}")
        if not 0.0 < self.lr_decay_factor <= 1.0:
            raise ConfigError(f"lr_decay_factor must lie in (0, 1], got {self.lr_decay_factor}")
        if not 0 <= self.proxy_margin < np.inf:
            raise ConfigError(f"proxy_margin must be >= 0, got {self.proxy_margin}")
        check_seed(self.seed)


@dataclass
class RunLog:
    """Everything a run produces: per-step records, per-epoch records, and
    the trained parameters.

    Each step record carries at least {step, epoch, lr, loss}; each epoch
    record carries {epoch, train_loss, mean_feature_norm} plus an "eval" dict
    on evaluation epochs (always the last) and "train_accuracy" for the proxy
    methods.  The parameter handles (encoder, ema, bias, b_theta) stay in
    memory; save_runlog writes the records without the evals' ROCs.
    """

    steps: list = field(default_factory=list)
    epochs: list = field(default_factory=list)
    encoder: EncoderNet | None = None
    ema: EncoderNet | None = None
    bias: float = 0.0
    b_theta: float = 0.0


def lr_at(cfg: TrainConfig, step: int, total_steps: int) -> float:
    """Learning rate for the 0-based update index `step`."""
    lr = cfg.sgd.lr
    if cfg.lr_warmup_steps > 0:
        lr *= min(1.0, (step + 1) / cfg.lr_warmup_steps)
    done = (step + 1) / total_steps
    for frontier in cfg.lr_decay_at:
        if done > frontier:
            lr *= cfg.lr_decay_factor
    return lr


def encode(net: EncoderNet, inputs, normalize: bool = False) -> np.ndarray:
    """Features for a batch of inputs; `forward` keeps no backprop cache."""
    feats, _ = forward(net, as_matrix(inputs), cache=False)
    if normalize:
        feats, _ = unit_rows(feats, "feature vector")
    return feats


def _eval_on_pairs(cfg, enc, val_ds, sim, bias) -> dict:
    # simple learns its own decision boundary (-b); the baselines have no
    # such parameter, so evaluate clusters them at the EER operating point
    return evaluate(
        encode(enc, val_ds.inputs, cfg.normalize_features),
        val_ds.labels,
        sim,
        cfg.eval_num_pos,
        cfg.eval_num_neg,
        cfg.seed,
        cfg.far_targets,
        threshold=-bias if cfg.method == "simple" else None,
    )


def _step_grads(cfg, loss_cfg, enc, x, y, rec, queue=None, proxies=None):
    """The gradient half of a step on batch (x, y): encode, normalize, the
    method's loss (pairs against ``queue`` at ``loss_cfg``'s b and
    similarity, or the CE against the ``proxies`` matrix at ``loss_cfg``'s
    b_theta and ``cfg``'s proxy margin and normalization) and backprop to the
    encoder; no update.  Returns (loss, d_theta, d_b, d_btheta, d_proxies,
    mean raw feature norm, correct predictions), d_b 0.0 and d_proxies None
    where the method has none; writes the queue's pos_ratio into the step
    record ``rec``.
    """
    feats, cache = forward(enc, x)
    # the scored rows' norms serve both score passes (the queue's are stored
    # at enqueue); raw_norms are the encoder output's
    raw_norms = f_norms = row_norms(feats)
    if cfg.normalize_features:
        feats = unit_rows(feats, "feature vector")[0]
        f_norms = row_norms(feats)
    m = feats.shape[0]
    d_b, d_w, correct = 0.0, None, 0
    sim = loss_cfg.similarity
    if queue is not None:
        pairs = form_pairs(queue, feats, y, sim, batch_norms=f_norms)
        loss, d_scores, d_b = batch_loss(loss_cfg, pairs)
        # backprop onto the batch side only, against the queue's [f, |f|] rows
        d_feats, d_bt = score_matrix_grad_left(
            sim, feats, queue._feat, d_scores.reshape(m, queue.size), na=f_norms, qn=queue._rows
        )
        rec["pos_ratio"] = pos_neg_ratio(pairs)
    else:
        if cfg.method == "softmax_ce":
            out = softmax_ce(proxies, feats, y, cfg.normalize_proxies)
        else:
            out = proxy_gip_ce(proxies, feats, y, sim.b_theta, cfg.proxy_margin,
                               cfg.normalize_proxies)
        loss, (d_feats, d_w, d_bt), predicted = out
        correct = int(np.count_nonzero(predicted == y))
    check_finite(loss, "loss")
    if cfg.normalize_features:
        d_feats = unit_rows_grad(feats, raw_norms, d_feats)
    d_theta = backward(enc, cache, d_feats)
    # np.add.reduce(..) / m gives np.mean's bits
    return loss, d_theta, d_b, d_bt, d_w, float(np.add.reduce(raw_norms) / m), correct


# a diverging run stops at the first non-finite loss or features, with one
# named error (see the FloatingPointError handler) and no numpy warnings
@np.errstate(over="ignore", invalid="ignore")
def train(cfg: TrainConfig, ds: Dataset) -> RunLog:
    """Run the full training loop on `ds` and return its RunLog.

    The dataset is split (1 - val_fraction, val_fraction) with the run seed;
    validation pairs are drawn with the run seed, so every evaluation epoch
    scores the same pairs with the current encoder and the metric series is
    comparable across epochs.  Class ids may be gapped or sparse: training
    sees each id's rank among the ids of `ds`, so the run depends on them
    only through their order and the proxy matrix has one row per class.
    Mini-batches are drawn without replacement within each epoch and partial
    trailing batches are dropped.
    """
    train_ds, val_ds = split(ds, cfg.val_fraction, seed=cfg.seed)
    classes = np.unique(ds.labels)
    train_ds.labels = np.searchsorted(classes, train_ds.labels)
    m = cfg.batch_size
    n_train = int(train_ds.labels.size)
    if n_train < m:
        raise ConfigError(f"training split has {n_train} rows, need at least batch_size={m}")
    steps_per_epoch = n_train // m
    total_steps = steps_per_epoch * cfg.epochs

    rng = Rng(cfg.seed)
    dims = [int(ds.inputs.shape[1]), *map(int, cfg.hidden_dims), cfg.feature_dim]
    enc = init_encoder(dims, rng.stream("init"), cfg.activation)
    # fold the train-set RMS input norm into the first layer so raw scores
    # start O(1) regardless of the data's units; keeps checkpoints self-contained
    rms = float(np.sqrt(np.mean(np.sum(train_ds.inputs**2, axis=1))))
    if rms > 0.0:
        enc.weights[0] /= rms
    v_enc = np.zeros_like(enc.theta)
    # the run's own copies of the configs: the schedule's lr and the learned
    # b and b_theta are written into them as they change, so the step loop
    # neither rebuilds nor re-validates them
    sim_now = replace(cfg.loss.similarity, b_theta=float(cfg.loss.similarity.b_theta))
    loss_now = replace(cfg.loss, b=float(cfg.loss.b), similarity=sim_now)
    sgd_now = replace(cfg.sgd)
    v_b = v_bt = 0.0

    intra, inter = _pair_totals(val_ds.labels)
    if intra == 0 or inter == 0:
        raise DegenerateInputError("validation split lacks same-class or cross-class pairs")

    queue = ema = proxies = v_proxies = None
    if cfg.method == "simple":
        queue = FeatureQueue(cfg.queue_capacity, cfg.feature_dim)
        ema = enc.copy()

        def enqueue_ema(x, y):
            enqueue_batch(queue, encode(ema, x, cfg.normalize_features), y)

        # warmup: fill the queue from the momentum encoder, no updates yet
        need = -(-cfg.queue_capacity // m) * m
        warm_rows = np.resize(rng.stream("warmup").permutation(n_train), need)
        for i in range(0, need, m):
            rows = warm_rows[i : i + m]
            enqueue_ema(train_ds.inputs[rows], train_ds.labels[rows])
    else:
        proxies = init_proxy_bank(rng.stream("proxies"), classes.size, cfg.feature_dim)
        v_proxies = np.zeros_like(proxies)

    steps, epochs = [], []
    gstep = 0
    try:
        for epoch in range(1, cfg.epochs + 1):
            order = rng.stream(("epoch", epoch)).permutation(n_train)
            losses, norms, correct = [], [], 0
            for s in range(steps_per_epoch):
                rows = order[s * m : (s + 1) * m]
                # the step's one gather: the online step and the EMA enqueue share it
                x, y = train_ds.inputs[rows], train_ds.labels[rows]
                lr_now = sgd_now.lr = lr_at(cfg, gstep, total_steps)
                rec = {"step": gstep, "epoch": epoch, "lr": lr_now}
                loss, d_theta, d_b, d_bt, d_w, norm, hits = _step_grads(
                    cfg, loss_now, enc, x, y, rec, queue, proxies)
                sgd_step(enc.theta, d_theta, sgd_now, v_enc)
                if proxies is not None:
                    # proxies follow the same momentum/decay rule as the encoder
                    sgd_step(proxies, d_w, sgd_now, v_proxies)
                v_b = cfg.sgd.momentum * v_b + d_b
                loss_now.b -= lr_now * v_b
                if sim_now.b_theta_learnable:
                    v_bt = cfg.sgd.momentum * v_bt + d_bt
                    # project back onto [0, 1); a zero d_bt leaves b_theta's bits as they are
                    sim_now.b_theta = min(max(sim_now.b_theta - lr_now * v_bt, 0.0), _BT_MAX)
                if queue is not None:
                    ema_update(ema, enc, cfg.eta)
                    enqueue_ema(x, y)

                rec["loss"] = loss
                steps.append(rec)
                losses.append(loss)
                norms.append(norm)
                correct += hits
                gstep += 1

            erec = {
                "epoch": epoch,
                "train_loss": float(np.mean(losses)),
                "mean_feature_norm": float(np.mean(norms)),
            }
            if proxies is not None:
                erec["train_accuracy"] = correct / (m * steps_per_epoch)
            if epoch % cfg.eval_every == 0 or epoch == cfg.epochs:
                erec["eval"] = _eval_on_pairs(cfg, enc, val_ds, sim_now, loss_now.b)
            epochs.append(erec)
    except FloatingPointError as exc:
        # name where the run diverged: a step, or the evaluation that follows
        # the epoch's last step (gstep counts only the steps that finished)
        evaluating = gstep == epoch * steps_per_epoch
        where = f"evaluation after step {gstep - 1}" if evaluating else f"step {gstep}"
        raise FloatingPointError(f"{where} (epoch {epoch}) of {cfg.method}: {exc}") from exc

    return RunLog(steps, epochs, enc, ema, loss_now.b, sim_now.b_theta)


def final_report(log: RunLog) -> dict:
    """The last epoch's eval dict; `train` always evaluates its last epoch."""
    return log.epochs[-1]["eval"]


def save_runlog(log: RunLog, out_dir) -> None:
    """Write runlog.jsonl (one step per line), summary.json, checkpoint.bin.

    summary.json keeps each eval's scalars; the last eval's ROC goes only to
    report.json (`final_report`).  Output is byte-deterministic: keys are
    sorted and floats use repr, so two identical runs serialize identically.
    """
    os.makedirs(out_dir, exist_ok=True)
    checkpoint = None if log.encoder is None else "checkpoint.bin"
    if checkpoint is not None:
        save_encoder(log.encoder, os.path.join(out_dir, checkpoint))
    encoder = json.JSONEncoder(sort_keys=True)  # json.dumps would build one per line
    with open(os.path.join(out_dir, "runlog.jsonl"), "w", newline="\n") as f:
        for rec in log.steps:
            f.write(encoder.encode(rec) + "\n")
    epochs = [dict(erec) for erec in log.epochs]
    for erec in epochs:
        if "eval" in erec:
            erec["eval"] = {k: v for k, v in erec["eval"].items() if k != "roc"}
    summary = {
        "epochs": epochs,
        "checkpoint": checkpoint,
        "final_bias": log.bias,
        "final_b_theta": log.b_theta,
    }
    with open(os.path.join(out_dir, "summary.json"), "w", newline="\n") as f:
        json.dump(summary, f, sort_keys=True, indent=2)
        f.write("\n")


GRID_AXES = ("r", "alpha", "b_theta")


def _grid_point(cfg: TrainConfig) -> tuple:
    return cfg.loss.r, cfg.loss.alpha, cfg.loss.similarity.b_theta  # in GRID_AXES order


def ablation_cells(grid: dict, base_cfg: TrainConfig) -> list:
    """``base_cfg`` at each (r, alpha, b_theta) of ``grid``, sorted by (b_theta, r,
    alpha); an axis the grid leaves out keeps the base value.  Building checks each
    cell: an unknown or empty axis, or a value a cell rejects, raises ConfigError."""
    unknown = set(grid) - set(GRID_AXES)
    if unknown:
        raise ConfigError(f"unknown grid axes {sorted(unknown)}; expected {GRID_AXES}")
    axes = [sorted({float(v) for v in grid.get(name, [base])})
            for name, base in zip(GRID_AXES, _grid_point(base_cfg))]
    if [] in axes:
        raise ConfigError(f"grid.{GRID_AXES[axes.index([])]} is empty")
    rs, alphas, b_thetas = axes
    loss, sim = base_cfg.loss, base_cfg.loss.similarity
    return [
        replace(base_cfg, loss=replace(loss, r=r, alpha=a, similarity=replace(sim, b_theta=bt)))
        for bt, r, a in itertools.product(b_thetas, rs, alphas)
    ]


def _ablate_cell(cfg: TrainConfig, ds: Dataset) -> dict:
    """Train one sweep cell: its (r, alpha, b_theta) row, with the EER/TPR or the error."""
    row = dict(zip(GRID_AXES, _grid_point(cfg)))
    try:
        rep = final_report(train(cfg, ds))
        row["eer"] = rep["eer"]
        row["tpr_at_far"] = dict(rep["tpr_at_far"])
        row["status"] = "ok"
    except Exception as exc:  # a cell whose run fails must not kill the sweep
        row["eer"] = None
        row["tpr_at_far"] = {}
        row["status"] = f"{type(exc).__name__}: {exc}"
    return row


def ablate(grid: dict, base_cfg: TrainConfig, ds: Dataset, jobs: int = 1) -> list:
    """Train the `ablation_cells` on ``ds``, in up to ``jobs`` worker processes
    (one per cell); rows sorted by (b_theta, r, alpha), whatever ``jobs``.  All
    cells are built, and so checked, before any trains; a cell whose run
    fails, say by diverging, records its error in "status"."""
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    cfgs = ablation_cells(grid, base_cfg)
    workers = min(jobs, len(cfgs))
    if workers == 1:
        return [_ablate_cell(cfg, ds) for cfg in cfgs]
    from concurrent.futures import ProcessPoolExecutor  # only a fan-out needs multiprocessing
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_ablate_cell, cfgs, itertools.repeat(ds)))


def ablate_csv(rows) -> str:
    """Render sweep rows as CSV: r, alpha, b_theta, eer, tpr columns, status.

    A TPR cell is empty when its cell failed or its FAR target was clamped,
    so no column shows a TPR taken at a looser FAR than its heading.
    """
    targets = sorted({float(k) for row in rows for k in row.get("tpr_at_far", {})})
    cols = [*GRID_AXES, "eer", *(f"tpr_at_far_{t:g}" for t in targets), "status"]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(cols)
    for row in rows:
        vals = ["%.17g" % row[k] for k in GRID_AXES]
        vals.append("" if row["eer"] is None else "%.17g" % row["eer"])
        for t in targets:
            op = row["tpr_at_far"].get(str(t))
            vals.append("" if op is None or op["clamped"] else "%.17g" % op["tpr"])
        vals.append(row["status"])
        writer.writerow(vals)
    return buf.getvalue()
