"""The pairwise similarity score and its gradients.

One score over feature vectors, the generalized inner product
``||x1||*||x2||*(cos - b_theta)``, evaluated as
``<x1,x2> - b_theta*||x1||*||x2||`` so no arccos/cos round trip (and none of
its endpoint singularities) enters the gradient path.  ``b_theta`` is a fixed
hyperparameter in [0, 1).  At ``b_theta`` 0 it is the plain dot product, and
over unit rows (``train.normalize_features``) it is the cosine, shifted by
``-b_theta``.

Scalar entry points (`score`, `score_grad`, `decision_boundary`) implement the
per-pair contract and are the reference the tests pin the batched forms to.
`score_matrix` and `score_rows` fold the norm term into rows whose plain
inner products are the scores, so a batch of scores is one matmul (one
row-wise product for `score_rows`): ``[a, -b_theta*||a||] . [q, ||q||]``.
The minus sign and b_theta sit on the left, so the right side
``[q, ||q||]`` is the rows with their norms, which a caller that keeps its
rows that way (the feature queue) hands over as it stands.
`score_matrix_grad_left` backprops the batched scores through the same
fold: one product with ``[q, ||q||]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .numkit import row_norms


@dataclass
class SimilarityKind:
    """The score's bias setting ``b_theta``.

    ``b_theta`` shifts the cosine term inside the generalized inner product
    and must stay in [0, 1) so positive similarities remain reachable.
    """

    b_theta: float = 0.3

    def __post_init__(self):
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
    n1 = float(np.linalg.norm(x1))
    n2 = float(np.linalg.norm(x2))
    return float(x1 @ x2) - sim.b_theta * (n1 * n2)


def score_grad(sim: SimilarityKind, x1, x2):
    """Gradients (d_x1, d_x2) of `score`.

    At a zero-norm argument the bias term is non-differentiable; its
    contribution is dropped there (d_x1 = x2).
    """
    x1, x2 = _check_pair(x1, x2)
    n1 = float(np.linalg.norm(x1))
    n2 = float(np.linalg.norm(x2))
    d1 = x2 - sim.b_theta * (n2 / n1) * x1 if n1 > 0.0 else x2.copy()
    d2 = x1 - sim.b_theta * (n1 / n2) * x2 if n2 > 0.0 else x1.copy()
    return d1, d2


def decision_boundary(sim: SimilarityKind, b: float, x1, x2) -> float:
    """score(x1, x2) + b; positive sign predicts a same-class pair."""
    return score(sim, x1, x2) + b


def _check_given(name, given, shape):
    """Raise ShapeError unless the caller-supplied ``given`` (if any) has ``shape``."""
    if given is not None and np.shape(given) != shape:
        raise ShapeError(f"{name} has shape {np.shape(given)}, expected {shape}")


def _fold_left(sim: SimilarityKind, a, na=None):
    """``[a, -b_theta |a|]``, whose plain products with `_fold_right`'s rows
    are the scores; a block folds to its rows of the whole fold."""
    na = row_norms(a) if na is None else na
    # <a,q> - b_theta |a||q| = [a, -b_theta |a|] . [q, |q|]; b_theta and
    # the sign sit on the left, so the right side is [q, |q|] as it stands;
    # filled in place, with np.column_stack's bits and no temporary column
    out = np.empty((a.shape[0], a.shape[1] + 1))
    out[:, :-1] = a
    np.multiply(na, -sim.b_theta, out=out[:, -1])
    return out


def _fold_right(q, qn=None):
    """``[q, |q|]``, or ``qn`` if the caller holds it."""
    return np.column_stack((q, row_norms(q))) if qn is None else qn


def score_matrix(sim: SimilarityKind, a, q, na=None, qn=None) -> np.ndarray:
    """All pairwise scores between rows of ``a`` (m x d) and ``q`` (n x d).

    One matmul over the folded rows (see the module docstring).  ``na`` are
    the rows' Euclidean norms (as `numkit.row_norms` gives them) and ``qn``
    is ``[q, |q|]``, each row of ``q`` followed by its norm, if the caller
    has them; otherwise they are computed here.  A given ``na`` or ``qn`` of
    another shape raises ShapeError.
    """
    a = np.asarray(a, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if a.ndim != 2 or q.ndim != 2 or a.shape[1] != q.shape[1]:
        raise ShapeError(f"score_matrix expects (m,d) and (n,d), got {a.shape} and {q.shape}")
    _check_given("na", na, a.shape[:1])
    _check_given("qn", qn, (q.shape[0], q.shape[1] + 1))
    return _fold_left(sim, a, na) @ _fold_right(q, qn).T


def score_rows(sim: SimilarityKind, a, b) -> np.ndarray:
    """Score corresponding rows of two (n x d) matrices; returns length n.

    One row-wise product over the same folded rows as `score_matrix`.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or a.shape != b.shape:
        raise ShapeError(f"score_rows expects equal (n,d) shapes, got {a.shape} and {b.shape}")
    return np.einsum("ij,ij->i", _fold_left(sim, a), _fold_right(b))


def score_matrix_grad_left(sim: SimilarityKind, a, q, d_scores, na=None, qn=None):
    """Backprop pairwise-score gradients onto the left argument only.

    Given d(loss)/d(scores) of shape (m, n), returns d_a, of the shape of
    ``a``.  The right side (queue features) is treated as constant; use
    `score_grad` when both sides need gradients.  ``na`` and ``qn`` are
    optional, as in `score_matrix`.
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
    na = row_norms(a) if na is None else na
    # one product gives d_scores @ q and, as its last column, each row's
    # sum_j dS_ij ||q_j||: the bias term's gradient is -b_theta times that
    # sum times a_i/||a_i||, dropped at zero-norm rows to match score_grad;
    # with no such row, every row takes it without a gather
    g = d_scores @ _fold_right(q, qn)
    d_a, coef = g[:, :-1], g[:, -1]
    safe = na > 0.0
    rows = slice(None) if safe.all() else safe
    d_a[rows] -= sim.b_theta * (coef[rows] / na[rows])[:, None] * a[rows]
    return d_a
