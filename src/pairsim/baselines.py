"""Comparator loss: the proxy cross entropy over generalized-inner logits.

The CE is the log(1 + sum_{i != y} exp(z_i - z_y)) form, over logits
z_i = ||w_i|| ||x|| (cos - b_theta), minus a margin inside the non-target
cosine when margin > 0 (without one, every logit's bias is the scalar
b_theta).  At b_theta = 0 and margin 0 this is the plain softmax CE over raw
inner products z_i = w_i . x, which on separable data can be driven to zero
by inflating ||x|| alone; that degenerate route is what `norm_blowup_probe`
measures.  The proxies w_i are the rows of a plain (K, d) matrix; b_theta,
the margin and the normalization are arguments of `proxy_gip_ce`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DegenerateInputError, ShapeError
from .numkit import check_finite, class_ids, row_norms, unit_rows, unit_rows_grad


def init_proxy_bank(rng, num_classes: int, d_feat: int) -> np.ndarray:
    """The (num_classes, d_feat) proxy matrix, Gaussian at scale 1/sqrt(d_feat)."""
    return rng.normal(size=(num_classes, d_feat)) / np.sqrt(d_feat)


class CeGrads(NamedTuple):
    d_feature: np.ndarray
    d_proxies: np.ndarray


# a NaN or Inf proxy ends in the named error below, with no numpy warnings
@np.errstate(over="ignore", invalid="ignore")
def proxy_gip_ce(proxies, features, labels, b_theta: float, margin: float = 0.0,
                 normalize_proxies: bool = False):
    """Mean CE of a batch over logits ||w|| ||x|| (cos - b_theta [- margin off target]).

    ``proxies`` is the (K, d) proxy matrix, ``features`` (m, d) (one vector
    counts as a batch of one) and ``labels`` (m,); each row's loss is
    log(1 + sum_{c != y} exp(z_c - z_y)), and the gradients are those of the
    mean over the rows.  ``margin`` (>= 0 and finite) is subtracted inside
    each non-target cosine, as in CosFace; ``normalize_proxies`` takes unit
    proxy rows.  b_theta = 0 and margin = 0 give the plain softmax CE over
    raw inner products w_c . x.  Returns (loss, CeGrads, predicted),
    ``predicted`` being each row's argmax over the margin-free logits
    ||w|| ||x|| (cos - b_theta).  Without a margin, bias_ic is b_theta for
    every logit: one scalar, not an (m, K) matrix.
    """
    if not 0 <= margin < np.inf:  # NaN fails this too
        raise ConfigError(f"margin must be >= 0 and finite, got {margin}")
    proxies = np.asarray(proxies, dtype=np.float64)
    if proxies.ndim != 2:
        raise ShapeError(f"proxies must be a 2-D matrix, got ndim={proxies.ndim}")
    if proxies.shape[0] < 2:
        raise ConfigError(f"need at least 2 classes, got {proxies.shape[0]} proxy rows")
    x = check_finite(np.atleast_2d(np.asarray(features, dtype=np.float64)), "features")
    if x.ndim != 2 or x.shape[1] != proxies.shape[1]:
        raise ShapeError(f"features of shape {x.shape} do not match proxy dim {proxies.shape[1]}")
    y = np.atleast_1d(np.asarray(labels))
    if y.shape != (x.shape[0],):
        raise ShapeError(f"{x.shape[0]} feature rows but labels of shape {y.shape}")
    if not y.size:
        raise DegenerateInputError("empty batch: the mean CE of no rows is undefined")
    y = class_ids(y)
    if y.min() < 0 or y.max() >= len(proxies):
        row = int(np.argmax((y < 0) | (y >= len(proxies))))
        raise ConfigError(f"label {y[row]} of row {row} out of range [0, {len(proxies)})")
    b_theta, margin = float(b_theta), float(margin)

    m = x.shape[0]
    rows = np.arange(m)
    if normalize_proxies:
        w_eff, raw_norms = unit_rows(proxies, "proxy")
        w_norm = np.ones(len(proxies))
    else:
        w_eff = proxies
        w_norm = raw_norms = row_norms(w_eff)
    # with the features finite, a NaN or Inf proxy has a non-finite norm,
    # which names it even where the loss stays finite
    check_finite(raw_norms, "proxy norm")
    x_norm = row_norms(x)
    if (b_theta != 0.0 or margin != 0.0) and not x_norm.all():
        raise DegenerateInputError("zero feature has no direction for the b_theta/margin term")
    bias = b_theta
    if margin != 0.0:
        bias = np.full((m, len(proxies)), b_theta + margin)
        bias[rows, y] = b_theta
    dots = x @ w_eff.T
    scale = x_norm[:, None] * w_norm
    logits = dots - bias * scale
    predicted = np.argmax(logits if margin == 0.0 else dots - b_theta * scale, axis=1)
    diffs = logits - logits[rows, y][:, None]
    # the target's own diff is 0, so the shift keeps every exponent <= 0
    top = np.maximum.reduce(diffs, axis=1)
    terms = np.exp(diffs - top[:, None])
    total = np.add.reduce(terms, axis=1)
    loss = float(np.add.reduce(top + np.log(total)) / m)  # np.mean's bits

    coef = terms / (m * total[:, None])  # d(mean loss) / d logit
    # the target's coefficient is minus the others' sum, not p_y - 1, which
    # would round to 0 once p_y is within an ulp of 1
    coef[rows, y] = 0.0
    coef[rows, y] = -np.add.reduce(coef, axis=1)
    coef_bias = coef * bias
    # d logit_ic / dx_i = w_c - bias_ic ||w_c|| x_i/||x_i||
    inv_x = np.divide(1.0, x_norm, out=np.zeros(m), where=x_norm > 0.0)
    d_x = coef @ w_eff - (coef_bias @ w_norm * inv_x)[:, None] * x
    # d logit_ic / dw_c = x_i - bias_ic ||x_i|| w_c/||w_c||
    d_weff = coef.T @ x
    if normalize_proxies:
        # normalized logits do not depend on ||w_c||; the cos term backprops
        # through u = w/||w||
        d_w = unit_rows_grad(w_eff, raw_norms, d_weff)
    else:
        inv_w = np.divide(1.0, w_norm, out=np.zeros_like(w_norm), where=w_norm > 0.0)
        d_w = d_weff - (coef_bias.T @ x_norm * inv_w)[:, None] * w_eff
    check_finite(loss, "loss")
    return loss, CeGrads(d_x, d_w), predicted


def norm_blowup_probe(run) -> np.ndarray:
    """Per-epoch mean feature norm series from a training run log."""
    series = [rec["mean_feature_norm"] for rec in run.epochs]
    if not series:
        raise DegenerateInputError("run log holds no epochs")
    return np.asarray(series, dtype=np.float64)
