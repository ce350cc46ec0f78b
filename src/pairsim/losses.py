"""Pair-classification losses over similarity scores.

Three variants of the same binary cross-entropy kernel on s + b:

* ``naive``        -- y*softplus(-(s+b)) + (1-y)*softplus(s+b)
* ``balanced``     -- alpha and (1-alpha) weights on the two branches
* ``simple_final`` -- balanced plus reverse-direction mining: the positive
  branch sees (s+b)/r, the negative branch r*(s+b), so growing r emphasizes
  easy positives and hard negatives at the same time.

The reductions are definitional: simple_final at r=1 is balanced, and
balanced at alpha=0.5 is naive halved. All exponentials go through the
stable softplus/sigmoid forms; raw exp(r*(s+b)) never appears.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError
from .numkit import sigmoid, softplus
from .similarity import SimilarityKind

VARIANTS = ("naive", "balanced", "simple_final")


@dataclass
class LossConfig:
    variant: str = "simple_final"
    r: float = 3.0
    alpha: float = 0.001
    b: float = 0.0
    b_learnable: bool = True
    similarity: SimilarityKind = field(default_factory=SimilarityKind)

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown loss variant {self.variant!r}")
        if not self.r > 0:
            raise ConfigError(f"r must be positive, got {self.r}")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must lie strictly in (0, 1), got {self.alpha}")

    def _resolved(self):
        """(w_pos, w_neg, r) actually applied by this variant."""
        if self.variant == "simple_final":
            return self.alpha, 1.0 - self.alpha, self.r
        if self.variant == "balanced":
            return self.alpha, 1.0 - self.alpha, 1.0
        return 1.0, 1.0, 1.0  # naive


@dataclass
class PairBatch:
    """Scores and binary labels for a batch of pairs."""

    scores: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64).ravel()
        self.labels = np.asarray(self.labels).ravel().astype(np.int64)
        if self.scores.shape != self.labels.shape:
            raise ShapeError(
                f"scores and labels differ in length: {self.scores.size} vs {self.labels.size}"
            )

    def __len__(self):
        return self.scores.size


def pair_loss(cfg: LossConfig, s: float, y_p: int) -> float:
    """Loss of a single pair with score ``s`` and label ``y_p`` in {0, 1}."""
    w_pos, w_neg, r = cfg._resolved()
    t = s + cfg.b
    if y_p:
        return w_pos * softplus(-t / r)
    return w_neg * softplus(r * t)


def pair_loss_grad(cfg: LossConfig, s: float, y_p: int):
    """(d_loss/d_s, d_loss/d_b) for a single pair; the two are equal."""
    w_pos, w_neg, r = cfg._resolved()
    t = s + cfg.b
    if y_p:
        d = -(w_pos / r) * sigmoid(-t / r)
    else:
        d = w_neg * r * sigmoid(r * t)
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
    w_pos, w_neg, r = cfg._resolved()
    t = pairs.scores + cfg.b
    pos = pairs.labels == 1
    # each pair's own branch argument, so softplus and sigmoid run once per
    # pair; every element gets exactly the value its branch formula gives
    u = np.where(pos, -t / r, r * t)
    losses = np.where(pos, w_pos, w_neg) * softplus(u)
    d = np.where(pos, -(w_pos / r), w_neg * r) * sigmoid(u)
    d_scores = d / n
    return float(np.mean(losses)), d_scores, float(np.sum(d_scores))


def mining_curves(r: float, t: float):
    """The two mining curves Q1(t) = softplus(-t/r) and Q2(t) = softplus(r*t).

    Q1 is the positive-branch kernel, Q2 the negative-branch kernel; their
    slopes move in opposite directions as r grows, which is what makes the
    mining emphasis reversed rather than self-cancelling.
    """
    if not r > 0:
        raise ConfigError(f"r must be positive, got {r}")
    return softplus(-t / r), softplus(r * t)
