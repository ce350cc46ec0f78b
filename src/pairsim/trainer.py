"""Training loop: momentum encoder, feature queue, and the pairwise losses.

One optimization step runs the fixed eight-stage cycle: sample a mini-batch,
encode it with the online encoder, pair it against the queue, compute the
loss, backprop through the batch-side scores only, apply SGD (including the
scalar bias b and, when learnable, b_theta), EMA-update the momentum encoder,
then re-encode the batch with the momentum encoder and enqueue it.  The queue
is filled from EMA features before the first update so every step sees a full
complement of pairs.

`method` selects what happens between encode and backprop.  The queue
methods score the batch against the queue, take a loss on those pair scores
and backprop it through the batch side of the score matrix:

* simple       -- weighted softplus pair loss
* contrastive  -- two-sided score hinge
* triplet      -- per-anchor (pos, neg) draws from the queue, score hinge

The proxy methods take one batched cross entropy against a learned proxy
bank (no queue, no EMA):

* softmax_ce   -- over raw inner products
* proxy_gip_ce -- over generalized-inner logits

Everything downstream of the seed is deterministic: two runs with the same
config and dataset produce byte-identical logs and checkpoints.
"""

from __future__ import annotations

import csv
import io
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .baselines import (
    contrastive_loss,
    init_proxy_bank,
    proxy_gip_ce,
    softmax_ce,
    triplet_loss,
)
from .data import Dataset, split
from .encoder import (
    EmaEncoder,
    EncoderNet,
    SgdConfig,
    SgdState,
    backward,
    ema_update,
    forward,
    init_encoder,
    save_encoder,
    sgd_step,
)
from .errors import ConfigError, DegenerateInputError
from .evaluation import _pair_totals, evaluate, report_to_dict
from .losses import LossConfig, batch_loss
from .numkit import Rng, as_matrix, unit_rows, unit_rows_grad
from .pair_queue import FeatureQueue, enqueue_batch, form_pairs, pos_neg_ratio
from .similarity import SimilarityKind, score_matrix, score_matrix_grad_left

METHODS = ("simple", "contrastive", "triplet", "softmax_ce", "proxy_gip_ce")
_QUEUE_METHODS = ("simple", "contrastive", "triplet")
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
    # divide the first layer by the train-set RMS input norm after init so
    # raw similarity scores start O(1) instead of O(|x|^2)
    input_scale_init: bool = True
    # validation protocol (the val split is carved out of the dataset here)
    val_fraction: float = 0.2
    eval_num_pos: int = 2000
    eval_num_neg: int = 2000
    far_targets: tuple = (0.1, 0.01)
    # baseline knobs
    contrastive_margin: float = 0.5
    triplet_margin: float = 0.2
    proxy_margin: float = 0.0
    normalize_proxies: bool = False

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.queue_capacity < 1:
            raise ConfigError(f"queue_capacity must be >= 1, got {self.queue_capacity}")
        if self.batch_size > self.queue_capacity:
            raise ConfigError(
                f"batch_size {self.batch_size} exceeds queue_capacity {self.queue_capacity}"
            )
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.eval_every < 1:
            raise ConfigError(f"eval_every must be >= 1, got {self.eval_every}")
        if not 0.0 <= self.eta <= 1.0:
            raise ConfigError(f"eta must lie in [0, 1], got {self.eta}")
        if self.feature_dim < 1:
            raise ConfigError(f"feature_dim must be >= 1, got {self.feature_dim}")
        if not 0.0 < self.val_fraction < 1.0:
            raise ConfigError(f"val_fraction must lie in (0, 1), got {self.val_fraction}")
        if self.eval_num_pos < 1 or self.eval_num_neg < 1:
            raise ConfigError("eval_num_pos and eval_num_neg must be >= 1")
        if self.lr_warmup_steps < 0:
            raise ConfigError(f"lr_warmup_steps must be >= 0, got {self.lr_warmup_steps}")
        if not all(0.0 < f < 1.0 for f in self.lr_decay_at):
            raise ConfigError(f"lr_decay_at fractions must lie in (0, 1), got {self.lr_decay_at}")
        if not 0.0 < self.lr_decay_factor <= 1.0:
            raise ConfigError(f"lr_decay_factor must lie in (0, 1], got {self.lr_decay_factor}")
        # the proxy bank's logits use b_theta whatever similarity.kind says
        b_theta = self.loss.similarity.b_theta
        if self.method == "proxy_gip_ce" and not 0.0 <= b_theta < 1.0:
            raise ConfigError(f"proxy_gip_ce needs b_theta in [0, 1), got {b_theta}")


@dataclass
class RunLog:
    """Everything a run produces: per-step records, per-epoch records, and
    the trained parameters.

    Each step record carries at least {step, epoch, lr, loss}; each epoch
    record carries {epoch, train_loss, mean_feature_norm} plus an "eval" dict
    on evaluation epochs and "train_accuracy" for the proxy methods.  The
    parameter handles (encoder, ema, bias, b_theta) stay in memory; only the
    records and the checkpoint go to disk.
    """

    steps: list = field(default_factory=list)
    epochs: list = field(default_factory=list)
    checkpoint: str | None = None
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
    """Features for a batch of inputs (no gradient bookkeeping)."""
    feats, _ = forward(net, as_matrix(inputs))
    if normalize:
        feats, _ = unit_rows(feats, "feature vector")
    return feats


def _eval_on_pairs(cfg, enc, val_ds, sim, bias) -> dict:
    # simple learns its own decision boundary (-b); the baselines have no
    # such parameter, so evaluate clusters them at the EER operating point
    return report_to_dict(
        evaluate(
            encode(enc, val_ds.inputs, cfg.normalize_features),
            val_ds.labels,
            sim,
            cfg.eval_num_pos,
            cfg.eval_num_neg,
            cfg.seed,
            cfg.far_targets,
            threshold=-bias if cfg.method == "simple" else None,
        )
    )


def train(cfg: TrainConfig, ds: Dataset) -> RunLog:
    """Run the full training loop on `ds` and return its RunLog.

    The dataset is split (1 - val_fraction, val_fraction) with the run seed;
    validation pairs are drawn with the run seed, so every evaluation epoch
    scores the same pairs with the current encoder and the metric series is
    comparable across epochs.  Mini-batches are drawn without replacement
    within each epoch and partial trailing batches are dropped.
    """
    ds.require_pairable()
    train_ds, val_ds, _ = split(ds, (1.0 - cfg.val_fraction, cfg.val_fraction, 0.0), seed=cfg.seed)
    m = cfg.batch_size
    n_train = int(train_ds.labels.size)
    if n_train < m:
        raise ConfigError(f"training split has {n_train} rows, need at least batch_size={m}")
    steps_per_epoch = n_train // m
    total_steps = steps_per_epoch * cfg.epochs

    rng = Rng(cfg.seed)
    dims = [int(ds.inputs.shape[1]), *map(int, cfg.hidden_dims), cfg.feature_dim]
    enc = init_encoder(dims, rng.stream("init"), cfg.activation)
    if cfg.input_scale_init:
        # fold the input scale into the first layer so raw scores start O(1)
        # regardless of the data's units; keeps checkpoints self-contained
        rms = float(np.sqrt(np.mean(np.sum(train_ds.inputs**2, axis=1))))
        if rms > 0.0:
            enc.weights[0] = enc.weights[0] / rms
    state = SgdState(enc)
    b_now = float(cfg.loss.b)
    bt_now = float(cfg.loss.similarity.b_theta)
    # the run's own copies of the configs: the schedule's lr and the learned
    # b and b_theta are written into them as they change, so the step loop
    # neither rebuilds nor re-validates them
    sim_now = replace(cfg.loss.similarity, b_theta=bt_now)
    loss_now = replace(cfg.loss, b=b_now, similarity=sim_now)
    sgd_now = replace(cfg.sgd)
    v_b = 0.0
    v_bt = 0.0

    intra, inter = _pair_totals(val_ds.labels)
    if intra == 0 or inter == 0:
        raise DegenerateInputError("validation split lacks same-class or cross-class pairs")

    queue = ema = bank = None
    v_proxies = None
    if cfg.method in _QUEUE_METHODS:
        queue = FeatureQueue(cfg.queue_capacity, cfg.feature_dim)
        ema = EmaEncoder(enc.copy(), cfg.eta)
        # warmup: fill the queue from the momentum encoder, no updates yet
        warm_rows = rng.stream("warmup").permutation(n_train)
        need = -(-cfg.queue_capacity // m) * m
        warm_rows = np.resize(warm_rows, need)
        for i in range(0, need, m):
            rows = warm_rows[i : i + m]
            enqueue_batch(
                queue,
                encode(ema.params, train_ds.inputs[rows], cfg.normalize_features),
                train_ds.labels[rows],
            )
    else:
        bank = init_proxy_bank(
            rng.stream("proxies"),
            ds.num_classes,
            cfg.feature_dim,
            normalize_proxies=cfg.normalize_proxies,
            b_theta=bt_now if cfg.method == "proxy_gip_ce" else 0.0,
            margin=cfg.proxy_margin if cfg.method == "proxy_gip_ce" else 0.0,
        )
        v_proxies = np.zeros_like(bank.proxies)

    log = RunLog()
    gstep = 0
    try:
        for epoch in range(1, cfg.epochs + 1):
            order = rng.stream(("epoch", epoch)).permutation(n_train)
            losses = []
            norms = []
            correct = 0
            seen = 0
            for s in range(steps_per_epoch):
                rows = order[s * m : (s + 1) * m]
                x = train_ds.inputs[rows]
                y = train_ds.labels[rows]
                feats_raw, cache = forward(enc, x)
                if cfg.normalize_features:
                    feats, raw_norms = unit_rows(feats_raw, "feature vector")
                else:
                    feats, raw_norms = feats_raw, np.linalg.norm(feats_raw, axis=1)
                lr_now = sgd_now.lr = lr_at(cfg, gstep, total_steps)
                rec = {"step": gstep, "epoch": epoch, "lr": lr_now}
                d_b = 0.0

                if queue is not None:
                    # pair the batch with the queue, take a score-space loss,
                    # and backprop it through the batch side of the scores;
                    # each side's row norms are computed once (the queue's
                    # at enqueue) and serve both score passes
                    if cfg.normalize_features:
                        f_norms = np.linalg.norm(feats, axis=1)
                    else:
                        f_norms = raw_norms
                    pairs = form_pairs(queue, feats, y, sim_now, batch_norms=f_norms)
                    if cfg.method == "simple":
                        loss, d_scores, d_b = batch_loss(loss_now, pairs)
                    elif cfg.method == "contrastive":
                        loss, d_scores = contrastive_loss(pairs, cfg.contrastive_margin)
                    else:
                        trng = rng.stream(("triplet", gstep))
                        loss, d_scores, rec["triplets"] = triplet_loss(
                            pairs, m, cfg.triplet_margin, trng
                        )
                    d_feats, d_bt = score_matrix_grad_left(
                        sim_now, feats, queue._feat, d_scores.reshape(m, queue.size),
                        na=f_norms, nq=queue._norm,
                    )
                    rec["pos_ratio"] = pos_neg_ratio(pairs)
                else:
                    ce = softmax_ce if cfg.method == "softmax_ce" else proxy_gip_ce
                    loss, (d_feats, d_w, d_bt) = ce(bank, feats, y)
                    correct += int(np.sum(_proxy_predict(bank, feats) == y))
                    seen += m

                if cfg.normalize_features:
                    d_raw = unit_rows_grad(feats, raw_norms, d_feats)
                else:
                    d_raw = d_feats
                grads = backward(enc, cache, d_raw)
                sgd_step(enc, grads, sgd_now, state)
                if bank is not None:
                    # proxies follow the same momentum/decay rule as the encoder
                    v_proxies *= cfg.sgd.momentum
                    v_proxies += d_w + cfg.sgd.weight_decay * bank.proxies
                    bank.proxies -= lr_now * v_proxies
                if cfg.method == "simple" and cfg.loss.b_learnable:
                    v_b = cfg.sgd.momentum * v_b + d_b
                    b_now -= lr_now * v_b
                    loss_now.b = b_now
                if sim_now.b_theta_learnable and cfg.method != "softmax_ce":
                    v_bt = cfg.sgd.momentum * v_bt + d_bt
                    # project back onto the range SimilarityKind accepts
                    bt_now = min(max(bt_now - lr_now * v_bt, 0.0), _BT_MAX)
                    sim_now.b_theta = bt_now
                    if bank is not None:
                        bank.b_theta = bt_now
                if queue is not None:
                    ema_update(ema, enc)
                    enqueue_batch(
                        queue, encode(ema.params, x, cfg.normalize_features), y
                    )

                norms.append(float(np.mean(raw_norms)))
                rec["loss"] = loss
                log.steps.append(rec)
                losses.append(loss)
                gstep += 1

            erec = {
                "epoch": epoch,
                "train_loss": float(np.mean(losses)),
                "mean_feature_norm": float(np.mean(norms)),
            }
            if seen:
                erec["train_accuracy"] = correct / seen
            if epoch % cfg.eval_every == 0 or epoch == cfg.epochs:
                erec["eval"] = _eval_on_pairs(cfg, enc, val_ds, sim_now, b_now)
            log.epochs.append(erec)
    except FloatingPointError as exc:
        # name where the run diverged: a step, or the evaluation that follows
        # the epoch's last step (gstep counts only the steps that finished)
        evaluating = gstep == epoch * steps_per_epoch
        where = f"evaluation after step {gstep - 1}" if evaluating else f"step {gstep}"
        raise FloatingPointError(f"{where} (epoch {epoch}) of {cfg.method}: {exc}") from exc

    log.encoder = enc
    log.ema = ema.params if ema is not None else None
    log.bias = b_now
    log.b_theta = bt_now
    return log


def _proxy_predict(bank, feats: np.ndarray) -> np.ndarray:
    """Class predictions under the bank's margin-free generalized-inner logits
    (softmax_ce keeps b_theta = 0, so its logits are the raw inner product)."""
    w = unit_rows(bank.proxies, "proxy")[0] if bank.normalize_proxies else bank.proxies
    return np.argmax(score_matrix(SimilarityKind(b_theta=bank.b_theta), feats, w), axis=1)


def final_report(log: RunLog) -> dict | None:
    """The last per-epoch eval dict, or None if the run never evaluated."""
    for erec in reversed(log.epochs):
        if "eval" in erec:
            return erec["eval"]
    return None


def save_runlog(log: RunLog, out_dir) -> None:
    """Write runlog.jsonl (one step per line), summary.json, checkpoint.bin.

    Output is byte-deterministic: keys are sorted and floats use repr, so two
    identical runs serialize identically.
    """
    os.makedirs(out_dir, exist_ok=True)
    if log.encoder is not None:
        save_encoder(log.encoder, os.path.join(out_dir, "checkpoint.bin"))
        log.checkpoint = "checkpoint.bin"
    with open(os.path.join(out_dir, "runlog.jsonl"), "w", newline="\n") as f:
        for rec in log.steps:
            f.write(json.dumps(rec, sort_keys=True) + "\n")
    summary = {
        "epochs": log.epochs,
        "checkpoint": log.checkpoint,
        "final_bias": log.bias,
        "final_b_theta": log.b_theta,
    }
    with open(os.path.join(out_dir, "summary.json"), "w", newline="\n") as f:
        json.dump(summary, f, sort_keys=True, indent=2)
        f.write("\n")


_GRID_AXES = ("r", "alpha", "b_theta")


def _ablate_cell(cell) -> dict:
    """One sweep cell: train the base config at the row's (r, alpha, b_theta)
    and add its EER/TPR, or its error, to the row."""
    row, base_cfg, ds = cell
    try:
        sim = replace(base_cfg.loss.similarity, b_theta=row["b_theta"])
        loss = replace(base_cfg.loss, r=row["r"], alpha=row["alpha"], similarity=sim)
        rep = final_report(train(replace(base_cfg, loss=loss), ds))
        if rep is None:
            raise DegenerateInputError("run produced no evaluation")
        row["eer"] = rep["eer"]
        row["tpr_at_far"] = dict(rep["tpr_at_far"])
        row["status"] = "ok"
    except Exception as exc:  # a failed cell must not kill the sweep
        row["eer"] = None
        row["tpr_at_far"] = {}
        row["status"] = f"{type(exc).__name__}: {exc}"
    return row


def ablate(grid: dict, base_cfg: TrainConfig, ds: Dataset, jobs: int = 1) -> list:
    """Sweep (r, alpha, b_theta) cells; one seeded run each.

    Rows come back sorted by (b_theta, r, alpha), whatever ``jobs`` (the
    number of worker processes).  A failing cell records its error in
    "status" and the sweep continues; missing axes fall back to the base
    config's value.
    """
    unknown = set(grid) - set(_GRID_AXES)
    if unknown:
        raise ConfigError(f"unknown grid axes {sorted(unknown)}; expected {_GRID_AXES}")
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    axes = {}
    base_vals = {
        "r": base_cfg.loss.r,
        "alpha": base_cfg.loss.alpha,
        "b_theta": base_cfg.loss.similarity.b_theta,
    }
    for name in _GRID_AXES:
        vals = [float(v) for v in grid.get(name, [base_vals[name]])]
        if not vals:
            raise ConfigError(f"grid axis {name!r} is empty")
        axes[name] = sorted(set(vals))
    cells = [
        ({"r": r, "alpha": alpha, "b_theta": bt}, base_cfg, ds)
        for bt in axes["b_theta"]
        for r in axes["r"]
        for alpha in axes["alpha"]
    ]
    if jobs == 1:
        return [_ablate_cell(cell) for cell in cells]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_ablate_cell, cells))


def ablate_csv(rows) -> str:
    """Render sweep rows as CSV: r, alpha, b_theta, eer, tpr columns, status."""
    targets = sorted({float(k) for row in rows for k in row.get("tpr_at_far", {})})
    cols = ["r", "alpha", "b_theta", "eer"]
    cols += [f"tpr_at_far_{t:g}" for t in targets]
    cols += ["status"]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(cols)
    for row in rows:
        vals = ["%.17g" % row[k] for k in ("r", "alpha", "b_theta")]
        vals.append("" if row["eer"] is None else "%.17g" % row["eer"])
        for t in targets:
            v = row["tpr_at_far"].get(str(t))
            vals.append("" if v is None else "%.17g" % v)
        vals.append(row["status"])
        writer.writerow(vals)
    return buf.getvalue()
