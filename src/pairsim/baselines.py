"""Comparator losses: proxy softmax CE, its generalized-inner variants,
and proxy-free contrastive / triplet hinges.

The CE family is the log(1 + sum_{i != y} exp(z_i - z_y)) form.  Plain
``softmax_ce`` uses raw inner-product logits z_i = w_i . x, which on
separable data can be driven to zero by inflating ||x|| alone; that
degenerate route is what `norm_blowup_probe` measures.  ``proxy_gip_ce``
swaps in z_i = ||w_i|| ||x|| (cos - b_theta), minus a margin inside the
non-target cosine when margin > 0.  The proxies w_i are the rows of a plain
(K, d) matrix; b_theta, the margin and the normalization are arguments.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DegenerateInputError, ShapeError
from .losses import PairBatch
from .numkit import check_finite, class_ids, unit_rows, unit_rows_grad


def init_proxy_bank(rng, num_classes: int, d_feat: int) -> np.ndarray:
    """The (num_classes, d_feat) proxy matrix, Gaussian at scale 1/sqrt(d_feat)."""
    return rng.normal(size=(num_classes, d_feat)) / np.sqrt(d_feat)


class CeGrads(NamedTuple):
    d_feature: np.ndarray
    d_proxies: np.ndarray
    d_btheta: float


def _check_batch(proxies, features, labels):
    w = np.asarray(proxies, dtype=np.float64)
    if w.ndim != 2:
        raise ShapeError(f"proxies must be a 2-D matrix, got ndim={w.ndim}")
    if w.shape[0] < 2:
        raise ConfigError(f"need at least 2 classes, got {w.shape[0]} proxy rows")
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    check_finite(x, "features")
    if x.ndim != 2 or x.shape[1] != w.shape[1]:
        raise ShapeError(f"features of shape {x.shape} do not match proxy dim {w.shape[1]}")
    y = np.atleast_1d(np.asarray(labels))
    if y.shape != (x.shape[0],):
        raise ShapeError(f"{x.shape[0]} feature rows but labels of shape {y.shape}")
    y = class_ids(y)
    if np.any((y < 0) | (y >= w.shape[0])):
        raise ConfigError(f"labels {y.tolist()} out of range [0, {w.shape[0]})")
    return w, x, y


def softmax_ce(proxies, features, labels, normalize_proxies: bool = False):
    """Mean CE over raw inner-product logits against the (K, d) proxy matrix
    (unit rows under ``normalize_proxies``); (loss, CeGrads, predicted
    classes), with d_btheta 0, as no b_theta or margin applies."""
    w, x, y = _check_batch(proxies, features, labels)
    loss, g, predicted = _gip_ce(w, normalize_proxies, x, y, 0.0, 0.0)
    return loss, g._replace(d_btheta=0.0), predicted


# a NaN or Inf proxy ends in the named error below, with no numpy warnings
@np.errstate(over="ignore", invalid="ignore")
def _gip_ce(proxies, normalize_proxies: bool, x, y, b_theta: float, margin: float):
    """Mean CE of a batch over logits ||w|| ||x|| (cos - b_theta [- margin off target]).

    ``proxies`` is (K, d), ``x`` (m, d) and ``y`` (m,); each row's loss is
    log(1 + sum_{c != y} exp(z_c - z_y)), and the gradients are those of the
    mean over the rows.  Returns (loss, CeGrads, predicted), ``predicted``
    being each row's argmax over the margin-free logits
    ||w|| ||x|| (cos - b_theta).
    """
    m = x.shape[0]
    rows = np.arange(m)
    if normalize_proxies:
        w_eff, raw_norms = unit_rows(proxies, "proxy")
        w_norm = np.ones(len(proxies))
    else:
        w_eff = proxies
        w_norm = np.linalg.norm(w_eff, axis=1)
    x_norm = np.linalg.norm(x, axis=1)
    if (b_theta != 0.0 or margin != 0.0) and np.any(x_norm == 0.0):
        raise DegenerateInputError(
            "zero feature has no direction for the b_theta/margin term"
        )
    bias = np.full((m, len(proxies)), b_theta + margin)
    bias[rows, y] = b_theta
    dots = x @ w_eff.T
    scale = np.outer(x_norm, w_norm)
    logits = dots - bias * scale
    predicted = np.argmax(logits if margin == 0.0 else dots - b_theta * scale, axis=1)
    diffs = logits - logits[rows, y][:, None]
    # the target's own diff is 0, so the shift keeps every exponent <= 0
    top = diffs.max(axis=1)
    terms = np.exp(diffs - top[:, None])
    total = terms.sum(axis=1)
    loss = float(np.mean(top + np.log(total)))

    coef = terms / (m * total[:, None])  # d(mean loss) / d logit
    # the target's coefficient is minus the others' sum, not p_y - 1, which
    # would round to 0 once p_y is within an ulp of 1
    coef[rows, y] = 0.0
    coef[rows, y] = -coef.sum(axis=1)
    # d logit_ic / dx_i = w_c - bias_ic ||w_c|| x_i/||x_i||
    inv_x = np.divide(1.0, x_norm, out=np.zeros(m), where=x_norm > 0.0)
    d_x = coef @ w_eff - ((coef * bias) @ w_norm * inv_x)[:, None] * x
    # d logit_ic / dw_c = x_i - bias_ic ||x_i|| w_c/||w_c||
    d_weff = coef.T @ x
    if normalize_proxies:
        # normalized logits do not depend on ||w_c||; the cos term backprops
        # through u = w/||w||
        d_w = unit_rows_grad(w_eff, raw_norms, d_weff)
    else:
        inv_w = np.divide(1.0, w_norm, out=np.zeros_like(w_norm), where=w_norm > 0.0)
        d_w = d_weff - ((coef * bias).T @ x_norm * inv_w)[:, None] * w_eff
    d_btheta = -float(x_norm @ coef @ w_norm)
    # with the features finite, a NaN or Inf proxy makes the loss NaN or, by
    # its raw norm, d_btheta non-finite, so no scan of the matrix is needed
    check_finite(loss, "loss")
    check_finite(d_btheta, "proxy norm term")
    return loss, CeGrads(d_x, d_w, d_btheta), predicted


def proxy_gip_ce(proxies, features, labels, b_theta: float, margin: float = 0.0,
                 normalize_proxies: bool = False):
    """Mean CE over generalized-inner logits against the (K, d) proxy matrix.

    ``features`` is (m, d) (one vector counts as a batch of one) and
    ``labels`` (m,).  ``margin`` (>= 0 and finite) is subtracted inside each
    non-target cosine, as in CosFace; ``normalize_proxies`` takes unit proxy
    rows.  margin = 0 gives the plain generalized-inner CE; b_theta = 0 and
    margin = 0 reduce to `softmax_ce` exactly.  Returns (loss, CeGrads,
    predicted classes), as `_gip_ce` does.
    """
    if not 0 <= margin < np.inf:  # NaN fails this too
        raise ConfigError(f"margin must be >= 0 and finite, got {margin}")
    w, x, y = _check_batch(proxies, features, labels)
    return _gip_ce(w, normalize_proxies, x, y, float(b_theta), float(margin))


def contrastive_loss(pairs: PairBatch, margin: float):
    """Two-sided hinge in score space, mean-pooled; (loss, d_scores).

    Positives pay (margin - s)+ and negatives (s + margin)+, i.e. the
    pull/push targets sit at +margin and -margin. Exactly at the hinge the
    loss is 0 with subgradient 0.
    """
    if not 0 < margin < np.inf:
        raise ConfigError(f"margin must be positive and finite, got {margin}")
    if len(pairs) == 0:
        raise DegenerateInputError("empty pair batch")
    s = pairs.scores
    y = pairs.labels
    gap = np.where(y, margin - s, s + margin)
    active = gap > 0.0
    loss = float(np.where(active, gap, 0.0).mean())
    d_scores = np.where(active, np.where(y, -1.0, 1.0), 0.0) / len(pairs)
    return loss, d_scores


def triplet_loss(pairs: PairBatch, anchors: int, margin: float, rng):
    """Per-anchor triplet hinge in score space; (loss, d_scores, used).

    ``pairs`` holds ``anchors`` batch rows times the queue in row-major
    order.  Each anchor whose row has both a positive and a negative slot
    draws one of each from ``rng`` (positive first) and pays
    (margin + s_an - s_ap)+; the loss is the mean over the ``used`` anchors.
    Exactly at the hinge the loss is 0 with subgradient 0.
    """
    if not 0 < margin < np.inf:
        raise ConfigError(f"margin must be positive and finite, got {margin}")
    s = pairs.scores.reshape(anchors, -1)
    pos = pairs.labels.reshape(anchors, -1)
    d_scores = np.zeros_like(s)
    loss_sum = 0.0
    used = 0
    for i in range(anchors):
        same = np.flatnonzero(pos[i])
        diff = np.flatnonzero(~pos[i])
        if same.size == 0 or diff.size == 0:
            continue
        p = same[int(rng.integers(0, same.size))]
        n = diff[int(rng.integers(0, diff.size))]
        gap = margin + float(s[i, n]) - float(s[i, p])
        used += 1
        if gap > 0.0:
            loss_sum += gap
            d_scores[i, n] = 1.0
            d_scores[i, p] = -1.0
    if used == 0:
        raise DegenerateInputError("queue offers no (positive, negative) draws")
    return loss_sum / used, d_scores.ravel() / used, used


def norm_blowup_probe(run) -> np.ndarray:
    """Per-epoch mean feature norm series from a training run log."""
    series = [rec["mean_feature_norm"] for rec in run.epochs]
    if not series:
        raise DegenerateInputError("run log holds no epochs")
    return np.asarray(series, dtype=np.float64)
