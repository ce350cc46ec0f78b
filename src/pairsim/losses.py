"""Pair-classification losses over similarity scores.

One weighted binary cross-entropy on t = s + b, with reverse-direction
mining of strength r:

    y * alpha * softplus(-t/r) + (1-y) * (1-alpha) * softplus(r*t)

The positive branch sees t/r and the negative branch r*t, so growing r
emphasizes easy positives and hard negatives at the same time.  The paper's
earlier steps are values of this formula: at r = 1 it is the class-balanced
pair loss, alpha*softplus(-t) and (1-alpha)*softplus(t); at r = 1 and
alpha = 0.5 it is half the plain pair logistic loss softplus(-t) and
softplus(t).  All exponentials go through the stable softplus/sigmoid forms;
raw exp(r*(s+b)) never appears.

`batch_loss` is the kernel of the queue step. Each pair gets its own branch
argument u (r*t on the negatives, which are most pairs, then -t/r patched in
at the positives), one e = exp(-|u|) serves both softplus(u) and sigmoid(u),
and the branch weights go on the same way: the negative weight over the
whole batch, the positive one patched in by index. The hard pairs, u >= 0,
are patched the same way: u is flipped to -|u| in place at them, and only
they take the max(u, 0) of softplus and the 1 of sigmoid's numerator. Every
value is the one `softplus`, `sigmoid` and the two-branch formulas give,
bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError
from .numkit import sigmoid, softplus
from .similarity import SimilarityKind


@dataclass
class LossConfig:
    r: float = 3.0
    alpha: float = 0.001
    b: float = 0.0
    similarity: SimilarityKind = field(default_factory=SimilarityKind)

    def __post_init__(self):
        if not 0 < self.r < np.inf:
            raise ConfigError(f"r must be positive and finite, got {self.r}")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must lie strictly in (0, 1), got {self.alpha}")
        if not np.isfinite(self.b):
            raise ConfigError(f"b must be finite, got {self.b}")


@dataclass
class PairBatch:
    """Scores and labels of a batch of pairs, both flat; a label is True on a
    same-class pair.

    Boolean labels are kept as given (a view when already flat); any other
    labels must all be 0 or 1.
    """

    scores: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64).ravel()
        labels = np.asarray(self.labels).ravel()
        if labels.dtype != np.bool_:
            bad = labels[(labels != 0) & (labels != 1)]
            if bad.size:
                raise ShapeError(f"pair labels must be 0 or 1, got {bad[0].item()!r}")
            labels = labels.astype(np.bool_)
        self.labels = labels
        if self.scores.shape != self.labels.shape:
            raise ShapeError(
                f"scores and labels differ in length: {self.scores.size} vs {self.labels.size}"
            )

    def __len__(self):
        return self.scores.size


def pair_loss(cfg: LossConfig, s: float, y_p: int) -> float:
    """Loss of a single pair with score ``s`` and label ``y_p`` in {0, 1}."""
    t = s + cfg.b
    if y_p:
        return cfg.alpha * softplus(-t / cfg.r)
    return (1.0 - cfg.alpha) * softplus(cfg.r * t)


def pair_loss_grad(cfg: LossConfig, s: float, y_p: int):
    """(d_loss/d_s, d_loss/d_b) for a single pair; the two are equal."""
    r = cfg.r
    t = s + cfg.b
    if y_p:
        d = -(cfg.alpha / r) * sigmoid(-t / r)
    else:
        d = (1.0 - cfg.alpha) * r * sigmoid(r * t)
    return d, d


def batch_loss(cfg: LossConfig, pairs: PairBatch):
    """Pooled mean loss over all pairs, with gradients.

    Positive and negative pairs share one mean (alpha carries all the
    rebalancing). Returns (loss, d_scores, d_b) where ``d_scores`` is the
    gradient w.r.t. each pair score and ``d_b`` w.r.t. the constant bias.
    """
    n = len(pairs)
    if n == 0:
        raise ShapeError("batch_loss over an empty PairBatch")
    w_pos, w_neg, r = cfg.alpha, 1.0 - cfg.alpha, cfg.r
    t = pairs.scores + cfg.b
    pos = np.flatnonzero(pairs.labels)
    # each step gives the bits of the two-branch formulas (see the module
    # docstring); u is r*t over the batch, then -t/r at the positives
    t_pos = t[pos]
    u = np.multiply(t, r, out=t)
    u[pos] = -t_pos / r
    # the hard pairs (u >= 0: hard negatives, violating positives) are few;
    # flip them so u holds -|u|, and patch their terms in by index below
    hard = np.flatnonzero(u >= 0.0)
    u_hard = u[hard]
    u[hard] = -u_hard
    e = np.exp(u, out=u)  # exp(-|u|), shared by softplus and sigmoid
    # softplus(u) = max(u, 0) + log1p(e), times the branch weight
    losses = np.log1p(e)
    losses[hard] += u_hard
    losses_pos = losses[pos]
    losses *= w_neg
    losses[pos] = w_pos * losses_pos
    # sigmoid(u) = (1 if u >= 0 else e) / (1 + e), times the branch slope
    denom = e + 1.0
    e[hard] = 1.0
    d = np.divide(e, denom, out=e)
    d_pos = d[pos]
    d *= w_neg * r
    d[pos] = -(w_pos / r) * d_pos
    d /= n
    # add.reduce sums as np.mean and np.sum do
    return float(np.add.reduce(losses) / n), d, float(np.add.reduce(d))


def mining_curves(r: float, t: float):
    """The two mining curves Q1(t) = softplus(-t/r) and Q2(t) = softplus(r*t).

    Q1 is the positive-branch kernel, Q2 the negative-branch kernel; their
    slopes move in opposite directions as r grows, which is what makes the
    mining emphasis reversed rather than self-cancelling.
    """
    if not 0 < r < np.inf:
        raise ConfigError(f"r must be positive and finite, got {r}")
    return softplus(-t / r), softplus(r * t)
