"""Pairwise similarity scores and their gradients.

Three interchangeable score functions over feature vectors:

* ``generalized_inner`` -- ||x1||*||x2||*(cos - b_theta), evaluated as
  ``<x1,x2> - b_theta*||x1||*||x2||`` so no arccos/cos round trip (and none
  of its endpoint singularities) enters the gradient path.
* ``inner``   -- plain dot product.
* ``cosine``  -- dot product of the normalized vectors.

Scalar entry points (`score`, `score_grad`, `decision_boundary`) implement the
per-pair contract and are the reference the tests pin the batched forms to.
`score_matrix` and `score_rows` fold each kind into rows whose plain inner
products are its scores, so a batch of scores is one matmul (one row-wise
product for `score_rows`): ``generalized_inner`` appends a norm column,
``[a, -b_theta*||a||] . [q, ||q||]``, and ``cosine`` normalizes the rows
first.  The minus sign and b_theta sit on the left, so the right side
``[q, ||q||]`` is the rows with their norms, which a caller that keeps its
rows that way (the feature queue) hands over as it stands.
`score_matrix_grad_left` backprops the batched scores through the same
fold: one product with ``[q, ||q||]`` for ``generalized_inner``; for
``cosine`` one with the right unit rows, which `numkit.unit_rows_grad`
carries back through the left rows' normalization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateInputError, ShapeError
from .numkit import row_norms, unit_rows_grad

KINDS = ("generalized_inner", "inner", "cosine")


@dataclass
class SimilarityKind:
    """Which score function to use, with its bias setting ``b_theta``.

    ``b_theta`` shifts the cosine term inside the generalized inner product
    and must stay in [0, 1) so positive similarities remain reachable; the
    other kinds ignore it but hold it to the same range. When
    ``b_theta_learnable`` the trainer treats it as a parameter (updated from
    pair gradients, frozen at eval time).
    """

    kind: str = "generalized_inner"
    b_theta: float = 0.3
    b_theta_learnable: bool = False

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown similarity kind {self.kind!r}")
        if not 0.0 <= self.b_theta < 1.0:  # NaN fails this too
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
    return dot / (n1 * n2)


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
    d1 = x2 / (n1 * n2) - cos * x1 / n1**2
    d2 = x1 / (n1 * n2) - cos * x2 / n2**2
    return d1, d2, 0.0


def decision_boundary(sim: SimilarityKind, b: float, x1, x2) -> float:
    """score(x1, x2) + b; positive sign predicts a same-class pair."""
    return score(sim, x1, x2) + b


def _check_given(name, given, shape):
    """Raise ShapeError unless the caller-supplied ``given`` (if any) has ``shape``."""
    if given is not None and np.shape(given) != shape:
        raise ShapeError(f"{name} has shape {np.shape(given)}, expected {shape}")


def _fold_left(sim: SimilarityKind, a, na=None):
    """Rows whose plain products with `_fold_right`'s are the kind's scores;
    a block folds to its rows of the whole fold."""
    if sim.kind == "inner":
        return a
    na = row_norms(a) if na is None else na
    if sim.kind == "generalized_inner":
        # <a,q> - b_theta |a||q| = [a, -b_theta |a|] . [q, |q|]; b_theta and
        # the sign sit on the left, so the right side is [q, |q|] as it stands;
        # filled in place, with np.column_stack's bits and no temporary column
        out = np.empty((a.shape[0], a.shape[1] + 1))
        out[:, :-1] = a
        np.multiply(na, -sim.b_theta, out=out[:, -1])
        return out
    if np.any(na == 0.0):
        raise DegenerateInputError(f"{sim.kind} similarity of a zero vector")
    return a / na[:, None]


def _fold_right(sim: SimilarityKind, q, qn=None):
    """``[q, |q|]`` (``qn``, if the caller holds it), or the kind's left fold."""
    if sim.kind == "generalized_inner":
        return np.column_stack((q, row_norms(q))) if qn is None else qn
    return _fold_left(sim, q, None if qn is None else qn[:, -1])


def score_matrix(sim: SimilarityKind, a, q, na=None, qn=None) -> np.ndarray:
    """All pairwise scores between rows of ``a`` (m x d) and ``q`` (n x d).

    One matmul over the folded rows (see the module docstring).  ``na`` are
    the rows' Euclidean norms (as `numkit.row_norms` gives them)
    and ``qn`` is ``[q, |q|]``, each row of ``q`` followed by its norm, if the
    caller has them; otherwise they are computed here, when the kind needs
    them.  A given ``na`` or ``qn`` of another shape raises ShapeError.
    """
    a = np.asarray(a, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if a.ndim != 2 or q.ndim != 2 or a.shape[1] != q.shape[1]:
        raise ShapeError(f"score_matrix expects (m,d) and (n,d), got {a.shape} and {q.shape}")
    _check_given("na", na, a.shape[:1])
    _check_given("qn", qn, (q.shape[0], q.shape[1] + 1))
    return _fold_left(sim, a, na) @ _fold_right(sim, q, qn).T


def score_rows(sim: SimilarityKind, a, b) -> np.ndarray:
    """Score corresponding rows of two (n x d) matrices; returns length n.

    One row-wise product over the same folded rows as `score_matrix`.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or a.shape != b.shape:
        raise ShapeError(f"score_rows expects equal (n,d) shapes, got {a.shape} and {b.shape}")
    return np.einsum("ij,ij->i", _fold_left(sim, a), _fold_right(sim, b))


def score_matrix_grad_left(sim: SimilarityKind, a, q, d_scores, na=None, qn=None):
    """Backprop pairwise-score gradients onto the left argument only.

    Given d(loss)/d(scores) of shape (m, n), returns (d_a, d_btheta) where
    ``d_a`` has the shape of ``a``. The right side (queue features) is treated
    as constant; use `score_grad` when both sides need gradients.  ``na`` and
    ``qn`` are optional, as in `score_matrix`.
    """
    a = np.asarray(a, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    d_scores = np.asarray(d_scores, dtype=np.float64)
    if d_scores.shape != (a.shape[0], q.shape[0]):
        raise ShapeError(
            f"d_scores shape {d_scores.shape} does not match ({a.shape[0]}, {q.shape[0]})"
        )
    _check_given("na", na, a.shape[:1])
    _check_given("qn", qn, (q.shape[0], q.shape[1] + 1))
    if sim.kind == "inner":
        return d_scores @ q, 0.0
    na = row_norms(a) if na is None else na
    if sim.kind == "generalized_inner":
        # one product gives d_scores @ q and, as its last column, each row's
        # sum_j dS_ij ||q_j||: the bias term's gradient is -b_theta times that
        # sum times a_i/||a_i||, dropped at zero-norm rows to match
        # score_grad; with no such row, every row takes it without a gather
        g = d_scores @ _fold_right(sim, q, qn)
        d_a, coef = g[:, :-1], g[:, -1]
        safe = na > 0.0
        rows = slice(None) if safe.all() else safe
        d_a[rows] -= sim.b_theta * (coef[rows] / na[rows])[:, None] * a[rows]
        return d_a, -float(na @ coef)
    # cosine scores the unit rows: backprop onto the left unit rows, then
    # through their normalization
    left = _fold_left(sim, a, na)
    return unit_rows_grad(left, na, d_scores @ _fold_right(sim, q, qn)), 0.0
