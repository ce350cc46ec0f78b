"""Pairwise similarity scores and their gradients.

Four interchangeable score functions over feature vectors:

* ``generalized_inner`` -- ||x1||*||x2||*(cos - b_theta), evaluated through the
  algebraically identical dot-product form ``<x1,x2> - b_theta*||x1||*||x2||``
  so no arccos/cos round trip (and none of its endpoint singularities) enters
  the gradient path.
* ``inner``   -- plain dot product.
* ``cosine``  -- dot product of the normalized vectors.
* ``angular`` -- 1 - arccos(cosine)/pi, mapped to [0, 1].

Scalar entry points (`score`, `score_grad`, `decision_boundary`) implement the
per-pair contract; `score_matrix`, `score_rows` and `score_matrix_grad_left`
are the batched forms used in training and evaluation (the two forward forms
share one kind dispatch), and the tests pin them to the scalar versions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DegenerateInputError, ShapeError

KINDS = ("generalized_inner", "inner", "cosine", "angular")


@dataclass
class SimilarityKind:
    """Which score function to use, with its angular-bias setting.

    ``b_theta`` shifts the cosine term inside the generalized inner product
    and must stay in [0, 1) so positive similarities remain reachable; it is
    ignored by the other kinds. When ``b_theta_learnable`` the trainer treats
    it as a parameter (updated from pair gradients, frozen at eval time).
    """

    kind: str = "generalized_inner"
    b_theta: float = 0.3
    b_theta_learnable: bool = False

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown similarity kind {self.kind!r}")
        if self.kind == "generalized_inner" and not (0.0 <= self.b_theta < 1.0):
            raise ConfigError(f"b_theta must lie in [0, 1), got {self.b_theta}")


def _check_pair(x1, x2):
    x1 = np.asarray(x1, dtype=np.float64)
    x2 = np.asarray(x2, dtype=np.float64)
    if x1.shape != x2.shape or x1.ndim != 1:
        raise ShapeError(f"score expects equal-length vectors, got {x1.shape} and {x2.shape}")
    return x1, x2


def score(sim: SimilarityKind, x1, x2) -> float:
    """Similarity score of one pair; symmetric in its arguments."""
    x1, x2 = _check_pair(x1, x2)
    dot = float(x1 @ x2)
    if sim.kind == "inner":
        return dot
    n1 = float(np.linalg.norm(x1))
    n2 = float(np.linalg.norm(x2))
    if sim.kind == "generalized_inner":
        return dot - sim.b_theta * (n1 * n2)
    if n1 == 0.0 or n2 == 0.0:
        raise DegenerateInputError(f"{sim.kind} similarity of a zero vector")
    cos = dot / (n1 * n2)
    if sim.kind == "cosine":
        return cos
    # Rounding can push |cos| past 1; clamp before arccos.
    return 1.0 - float(np.arccos(np.clip(cos, -1.0, 1.0))) / np.pi


def score_grad(sim: SimilarityKind, x1, x2):
    """Gradients (d_x1, d_x2, d_btheta) of `score`.

    For the generalized inner product at a zero-norm argument the bias term is
    non-differentiable; its contribution is dropped there (d_x1 = x2).
    """
    x1, x2 = _check_pair(x1, x2)
    if sim.kind == "inner":
        return x2.copy(), x1.copy(), 0.0
    n1 = float(np.linalg.norm(x1))
    n2 = float(np.linalg.norm(x2))
    if sim.kind == "generalized_inner":
        d1 = x2 - sim.b_theta * (n2 / n1) * x1 if n1 > 0.0 else x2.copy()
        d2 = x1 - sim.b_theta * (n1 / n2) * x2 if n2 > 0.0 else x1.copy()
        return d1, d2, -n1 * n2
    if n1 == 0.0 or n2 == 0.0:
        raise DegenerateInputError(f"{sim.kind} similarity of a zero vector")
    cos = float(x1 @ x2) / (n1 * n2)
    d1_cos = x2 / (n1 * n2) - cos * x1 / n1**2
    d2_cos = x1 / (n1 * n2) - cos * x2 / n2**2
    if sim.kind == "cosine":
        return d1_cos, d2_cos, 0.0
    # angular: dS/dcos = 1/(pi*sqrt(1-cos^2)); flat (0) once the clamp engages.
    c = min(1.0, max(-1.0, cos))
    if abs(c) >= 1.0:
        scale = 0.0
    else:
        scale = 1.0 / (np.pi * np.sqrt(1.0 - c * c))
    return scale * d1_cos, scale * d2_cos, 0.0


def decision_boundary(sim: SimilarityKind, b: float, x1, x2) -> float:
    """score(x1, x2) + b; positive sign predicts a same-class pair."""
    return score(sim, x1, x2) + b


def _from_dots(sim: SimilarityKind, dots, n1, n2) -> np.ndarray:
    """Scores from inner products and norms that broadcast against ``dots``.

    Works in place on ``dots``; each step matches the out-of-place formula
    bit for bit.
    """
    if sim.kind == "inner":
        return dots
    scale = n1 * n2
    if sim.kind == "generalized_inner":
        scale *= sim.b_theta
        dots -= scale
        return dots
    if np.any(n1 == 0.0) or np.any(n2 == 0.0):
        raise DegenerateInputError(f"{sim.kind} similarity of a zero vector")
    dots /= scale  # cosine
    if sim.kind == "cosine":
        return dots
    np.clip(dots, -1.0, 1.0, out=dots)
    np.arccos(dots, out=dots)
    dots /= np.pi
    return np.subtract(1.0, dots, out=dots)


def score_matrix(sim: SimilarityKind, a, q, na=None, nq=None) -> np.ndarray:
    """All pairwise scores between rows of ``a`` (m x d) and ``q`` (n x d).

    ``na`` and ``nq`` are the rows' Euclidean norms, if the caller has them
    (as ``np.linalg.norm(.., axis=1)`` gives them); otherwise they are
    computed here, when the kind needs them.
    """
    a = np.asarray(a, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if a.ndim != 2 or q.ndim != 2 or a.shape[1] != q.shape[1]:
        raise ShapeError(f"score_matrix expects (m,d) and (n,d), got {a.shape} and {q.shape}")
    if sim.kind == "inner":
        return a @ q.T
    na, nq = _row_norms(a, na), _row_norms(q, nq)
    return _from_dots(sim, a @ q.T, na[:, None], nq[None, :])


def _row_norms(a, norms):
    return np.linalg.norm(a, axis=1) if norms is None else norms


def score_rows(sim: SimilarityKind, a, b) -> np.ndarray:
    """Score corresponding rows of two (n x d) matrices; returns length n."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or a.shape != b.shape:
        raise ShapeError(f"score_rows expects equal (n,d) shapes, got {a.shape} and {b.shape}")
    dots = np.einsum("ij,ij->i", a, b)
    return _from_dots(sim, dots, np.linalg.norm(a, axis=1), np.linalg.norm(b, axis=1))


def score_matrix_grad_left(sim: SimilarityKind, a, q, d_scores, na=None, nq=None):
    """Backprop pairwise-score gradients onto the left argument only.

    Given d(loss)/d(scores) of shape (m, n), returns (d_a, d_btheta) where
    ``d_a`` has the shape of ``a``. The right side (queue features) is treated
    as constant; use `score_grad` when both sides need gradients.  ``na`` and
    ``nq`` are optional precomputed row norms, as in `score_matrix`.
    """
    a = np.asarray(a, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    d_scores = np.asarray(d_scores, dtype=np.float64)
    if d_scores.shape != (a.shape[0], q.shape[0]):
        raise ShapeError(
            f"d_scores shape {d_scores.shape} does not match ({a.shape[0]}, {q.shape[0]})"
        )
    if sim.kind == "inner":
        return d_scores @ q, 0.0
    na, nq = _row_norms(a, na), _row_norms(q, nq)
    if sim.kind == "generalized_inner":
        d_a = d_scores @ q
        # Bias-term gradient -b_theta * (sum_j dS_ij ||q_j||) * a_i/||a_i||,
        # dropped at zero-norm rows to match score_grad.
        coef = d_scores @ nq
        safe = na > 0.0
        if np.any(safe):
            d_a[safe] -= sim.b_theta * (coef[safe] / na[safe])[:, None] * a[safe]
        d_btheta = -float(na @ d_scores @ nq)
        return d_a, d_btheta
    if np.any(na == 0.0) or np.any(nq == 0.0):
        raise DegenerateInputError(f"{sim.kind} similarity of a zero vector")
    inv_outer = 1.0 / np.outer(na, nq)
    cos = (a @ q.T) * inv_outer
    if sim.kind == "angular":
        c = np.clip(cos, -1.0, 1.0)
        scale = np.zeros_like(c)
        interior = np.abs(c) < 1.0
        scale[interior] = 1.0 / (np.pi * np.sqrt(1.0 - c[interior] ** 2))
        d_scores = d_scores * scale
    # d cos_ij / d a_i = q_j/(||a_i|| ||q_j||) - cos_ij * a_i/||a_i||^2
    d_a = (d_scores / nq[None, :]) @ q / na[:, None]
    d_a -= ((d_scores * cos).sum(axis=1) / na**2)[:, None] * a
    return d_a, 0.0
