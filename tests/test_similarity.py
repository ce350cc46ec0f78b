import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pairsim.errors import ConfigError
from pairsim.gradcheck import max_rel_err, numerical_grad
from pairsim.numkit import row_norms
from pairsim.similarity import (
    SimilarityKind,
    _fold_left,
    decision_boundary,
    score,
    score_grad,
    score_matrix,
    score_matrix_grad_left,
    score_rows,
)

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])


def random_nonzero(rng, n=5):
    v = rng.standard_normal(n)
    return v if np.linalg.norm(v) > 0.1 else v + 1.0


# --- score -----------------------------------------------------------------


def test_generalized_inner_unit_examples():
    assert score(SimilarityKind(), E1, E1) == pytest.approx(0.7, abs=1e-15)
    assert score(SimilarityKind(), E1, E2) == pytest.approx(-0.3, abs=1e-15)


def test_generalized_inner_matches_arccos_path():
    # Oracle: evaluate ||x1||*||x2||*(cos(theta) - b_theta) literally, going
    # through arccos and back through cos.
    rng = np.random.default_rng(0)
    sim = SimilarityKind()
    for _ in range(50):
        x1, x2 = random_nonzero(rng), random_nonzero(rng)
        n1, n2 = np.linalg.norm(x1), np.linalg.norm(x2)
        theta = math.acos(np.clip(x1 @ x2 / (n1 * n2), -1.0, 1.0))
        expected = n1 * n2 * (math.cos(theta) - 0.3)
        assert score(sim, x1, x2) == pytest.approx(expected, abs=1e-10)


def test_score_symmetry():
    rng = np.random.default_rng(1)
    for b_theta in (0.0, 0.3, 0.999):
        sim = SimilarityKind(b_theta)
        for _ in range(20):
            x1, x2 = random_nonzero(rng), random_nonzero(rng)
            assert score(sim, x1, x2) == score(sim, x2, x1)


def test_scale_behavior():
    rng = np.random.default_rng(2)
    x1, x2 = random_nonzero(rng), random_nonzero(rng)
    gi = SimilarityKind()
    for c in (0.5, 2.0, 7.3):
        assert score(gi, c * x1, x2) == pytest.approx(c * score(gi, x1, x2), rel=1e-12)


def test_angular_bias_redundant_on_unit_vectors():
    # With unit norms the bias term collapses to a constant shift of cosine.
    rng = np.random.default_rng(3)
    gi = SimilarityKind()
    for _ in range(30):
        u = random_nonzero(rng)
        v = random_nonzero(rng)
        u, v = u / np.linalg.norm(u), v / np.linalg.norm(v)
        cos = float(u @ v) / (np.linalg.norm(u) * np.linalg.norm(v))
        assert abs(score(gi, u, v) - (cos - 0.3)) < 1e-12


def test_zero_vector_scores_zero():
    # the norm term vanishes with either norm, so a zero vector needs no guard
    z = np.zeros(3)
    assert score(SimilarityKind(), z, E1) == 0.0
    s = score_matrix(SimilarityKind(), np.stack([E1, z]), np.stack([E2, z]))
    assert s[0, 0] == pytest.approx(-0.3, abs=1e-15)
    assert np.array_equal(s[[0, 1, 1], [1, 0, 1]], np.zeros(3))


def test_b_theta_range_enforced():
    for bad in (1.0, -0.1, 1.5, float("nan")):
        with pytest.raises(ConfigError, match=r"b_theta must lie in \[0, 1\)"):
            SimilarityKind(b_theta=bad)


# --- score_grad ------------------------------------------------------------


def test_grad_reduces_to_inner_product_grad():
    rng = np.random.default_rng(5)
    x1, x2 = random_nonzero(rng), random_nonzero(rng)
    d1, d2 = score_grad(SimilarityKind(b_theta=0.0), x1, x2)
    assert_allclose(d1, x2)
    assert_allclose(d2, x1)


def test_grad_closed_form_identical_unit_inputs():
    u = np.array([0.6, 0.8, 0.0])
    d1, _ = score_grad(SimilarityKind(), u, u)
    assert_allclose(d1, 0.7 * u, atol=1e-15)


def test_grad_at_zero_norm_is_other_vector():
    z = np.zeros(3)
    d1, d2 = score_grad(SimilarityKind(), z, E1)
    assert_allclose(d1, E1)
    assert_allclose(d2, 0.7 * z)


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(6)
    sim = SimilarityKind()
    for _ in range(10):
        x1, x2 = random_nonzero(rng), random_nonzero(rng)
        d1, d2 = score_grad(sim, x1, x2)
        n1 = numerical_grad(lambda v: score(sim, v, x2), x1.copy())
        n2 = numerical_grad(lambda v: score(sim, x1, v), x2.copy())
        assert max_rel_err(d1, n1, floor=1e-3) < 1e-6
        assert max_rel_err(d2, n2, floor=1e-3) < 1e-6


# --- decision_boundary -----------------------------------------------------


def test_decision_boundary_examples():
    gi = SimilarityKind()
    s = score(gi, E1, E2)
    assert decision_boundary(gi, -s, E1, E2) == pytest.approx(0.0, abs=1e-15)
    assert decision_boundary(gi, -0.5, E1, E1) == pytest.approx(0.2, abs=1e-15)
    assert decision_boundary(gi, 0.0, E1, E2) == pytest.approx(-0.3, abs=1e-15)


# --- batched forms ---------------------------------------------------------


def test_score_matrix_matches_scalar():
    # row norms span 1e-3 to 1e3 on each side.  The batched forms fold the
    # bias term into one product, whose rounding is on the scale of
    # |a||q| whatever the score, so that is the tolerance's scale
    # (b_theta near 1 cancels most of the inner product)
    rng = np.random.default_rng(7)
    a = (rng.standard_normal((4, 5)) + 0.1) * np.logspace(-3, 3, 4)[:, None]
    q = (rng.standard_normal((6, 5)) + 0.1) * np.logspace(3, -3, 6)[:, None]
    scale = np.outer(np.linalg.norm(a, axis=1), np.linalg.norm(q, axis=1))
    for b_theta in (0.0, 0.3, 0.999):
        sim = SimilarityKind(b_theta)
        s = score_matrix(sim, a, q)
        for i in range(4):
            for j in range(6):
                assert abs(s[i, j] - score(sim, a[i], q[j])) <= 1e-14 * scale[i, j]
        rows = score_rows(sim, a, q[:4])
        assert rows.shape == (4,)
        for i in range(4):
            assert abs(rows[i] - score(sim, a[i], q[i])) <= 1e-14 * scale[i, i]


def scalar_grad_left(sim, a, q, ds):
    """d_a summed pair by pair from score_grad."""
    d_a = np.zeros_like(a)
    for i in range(a.shape[0]):
        for j in range(q.shape[0]):
            d_a[i] += ds[i, j] * score_grad(sim, a[i], q[j])[0]
    return d_a


def test_score_matrix_grad_left_matches_scalar():
    rng = np.random.default_rng(8)
    sim = SimilarityKind()
    a = rng.standard_normal((4, 5)) + 0.1
    q = rng.standard_normal((6, 5)) + 0.1
    ds = rng.standard_normal((4, 6))
    d_a = score_matrix_grad_left(sim, a, q, ds)
    assert_allclose(d_a, scalar_grad_left(sim, a, q, ds), rtol=1e-10, atol=1e-12)


def test_score_matrix_grad_left_zero_row_drops_its_bias_term():
    # one all-zero row of a among nonzero rows: that row's bias term is
    # dropped, as score_grad drops it for a zero vector
    rng = np.random.default_rng(9)
    sim = SimilarityKind()
    a = rng.standard_normal((4, 5)) + 0.1
    a[2] = 0.0
    q = rng.standard_normal((6, 5)) + 0.1
    ds = rng.standard_normal((4, 6))
    d_a = score_matrix_grad_left(sim, a, q, ds)
    assert_allclose(d_a, scalar_grad_left(sim, a, q, ds), rtol=1e-10, atol=1e-12)
    assert_allclose(d_a[2], ds[2] @ q, rtol=1e-12)  # the plain inner-product part


@pytest.mark.parametrize("b_theta", [0.0, 0.3])
@pytest.mark.parametrize("m, zero_row", [(7, None), (4, 1), (1, None), (0, None)])
def test_fold_left_bits_match_column_stack(b_theta, m, zero_row):
    # the fold fills [a, -b_theta |a|] in place; its bits
    # are np.column_stack's, including the -0.0 column at b_theta 0 and the
    # zero row's -0.0 norm term
    a = np.random.default_rng(10).standard_normal((m, 5))
    if zero_row is not None:
        a[zero_row] = 0.0
    sim = SimilarityKind(b_theta)
    na = row_norms(a)
    want = np.column_stack((a, -sim.b_theta * na))
    for got in (_fold_left(sim, a), _fold_left(sim, a, na)):
        assert got.shape == want.shape == (a.shape[0], 6)
        assert got.tobytes() == want.tobytes()
    if b_theta == 0.0:
        assert np.signbit(want[:, -1]).all()  # the -0.0 column
