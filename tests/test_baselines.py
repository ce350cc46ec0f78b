"""Baseline losses: CE family oracles, bit pins, gradient checks."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

from pairsim import Rng, SimilarityKind, score
from pairsim.baselines import init_proxy_bank, proxy_gip_ce
from pairsim.errors import ConfigError, DegenerateInputError, ShapeError
from pairsim.gradcheck import max_rel_err, numerical_grad
from pairsim.numkit import unit_rows_grad


# ----- direct-summation oracles -----------------------------------------


def ce_oracle(W, x, y):
    z = [float(np.dot(w, x)) for w in W]
    return math.log(1.0 + sum(math.exp(z[i] - z[y]) for i in range(len(W)) if i != y))


def gip_logit(w, x, b, extra=0.0):
    nw, nx = np.linalg.norm(w), np.linalg.norm(x)
    cos = float(np.dot(w, x)) / (nw * nx)
    return nw * nx * (cos - b - extra)


def gip_ce_oracle(W, x, y, b, m):
    z = [gip_logit(W[i], x, b, m if i != y else 0.0) for i in range(len(W))]
    return math.log(1.0 + sum(math.exp(z[i] - z[y]) for i in range(len(W)) if i != y))


FIX_W = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
FIX_X = np.array([0.5, -0.25])


# ----- the plain CE: proxy_gip_ce at b_theta 0, no margin ---------------


def test_ce_uniform_logits_give_log_k():
    for k in (2, 3, 7):
        loss, _, _ = proxy_gip_ce(np.tile([0.4, -0.2, 0.1], (k, 1)), [5.0, 1.0, -2.0], 0, 0.0)
        assert_allclose(loss, math.log(k), rtol=1e-15)


def test_ce_two_class_tie_gives_log_two():
    loss, _, _ = proxy_gip_ce(np.eye(2), [1.0, 1.0], 1, 0.0)
    assert_allclose(loss, math.log(2.0), rtol=1e-15)


def test_ce_three_class_fixture_matches_oracle():
    loss, _, _ = proxy_gip_ce(FIX_W, FIX_X, 0, 0.0)
    assert_allclose(loss, 0.81144889759451366, rtol=1e-15)
    assert_allclose(loss, ce_oracle(FIX_W, FIX_X, 0), rtol=1e-15)


def test_ce_stable_for_huge_logits():
    x = np.array([0.0, 1e4])
    loss, grads, _ = proxy_gip_ce(np.eye(2), x, 0, 0.0)
    assert np.isfinite(loss)
    assert_allclose(loss, 1e4, rtol=1e-12)  # dominated by the one huge diff
    assert np.isfinite(grads.d_feature).all()
    assert np.isfinite(grads.d_proxies).all()


def test_ce_gradients_match_finite_differences():
    rng = np.random.default_rng(0)
    for _ in range(5):
        W = rng.normal(size=(4, 3))
        x = rng.normal(size=3)
        y = int(rng.integers(0, 4))
        _, grads, _ = proxy_gip_ce(W, x, y, 0.0)
        num_x = numerical_grad(lambda v: proxy_gip_ce(W, v, y, 0.0)[0], x.copy())
        assert max_rel_err(grads.d_feature, num_x) < 1e-5
        num_w = numerical_grad(lambda M: proxy_gip_ce(M, x, y, 0.0)[0], W.copy())
        assert max_rel_err(grads.d_proxies, num_w) < 1e-5


def test_ce_validates_label_and_shape():
    W = np.eye(3)
    with pytest.raises(ConfigError):
        proxy_gip_ce(W, np.ones(3), 3, 0.0)
    with pytest.raises(ValueError):
        proxy_gip_ce(W, np.ones(2), 0, 0.0)
    with pytest.raises(ConfigError, match=r"got 1.5"):
        proxy_gip_ce(W, np.ones((2, 3)), [0, 1.5], 0.0)
    with pytest.raises(ConfigError, match=r"got 0.5"):
        proxy_gip_ce(W, np.ones((2, 3)), [0.5, 1], 0.3)


@pytest.mark.parametrize("ce", [
    lambda W, x, y: proxy_gip_ce(W, x, y, 0.0),
    lambda W, x, y: proxy_gip_ce(W, x, y, 0.3, 0.2),
], ids=["plain", "proxy_gip_ce"])
@pytest.mark.parametrize("labels, label, row", [
    ([0, 1, 3, 2, 7], 3, 2),
    ([0, -1, 5], -1, 1),
    ([1] * 999 + [10**15], 10**15, 999),
], ids=["above", "negative", "last_of_1000"])
def test_ce_names_the_first_out_of_range_label_and_its_row(ce, labels, label, row):
    x = np.ones((len(labels), 3))
    with pytest.raises(ConfigError) as err:
        ce(np.eye(3), x, labels)
    assert str(err.value) == f"label {label} of row {row} out of range [0, 3)"


@pytest.mark.parametrize("ce", [
    lambda W, x, y: proxy_gip_ce(W, x, y, 0.0),
    lambda W, x, y: proxy_gip_ce(W, x, y, 0.3, 0.2),
], ids=["plain", "proxy_gip_ce"])
@pytest.mark.parametrize("proxies, error, message", [
    (np.ones((1, 2)), ConfigError, r"need at least 2 classes, got 1 proxy rows"),
    (np.ones((0, 2)), ConfigError, r"need at least 2 classes, got 0 proxy rows"),
    (np.ones(2), ShapeError, r"proxies must be a 2-D matrix, got ndim=1"),
    (np.ones((2, 2, 2)), ShapeError, r"proxies must be a 2-D matrix, got ndim=3"),
], ids=["one_row", "no_rows", "vector", "3d"])
def test_ce_rejects_bad_proxy_matrix(ce, proxies, error, message):
    with pytest.raises(error, match=message):
        ce(proxies, np.ones((1, 2)), [0])


@pytest.mark.parametrize("ce", [
    lambda W, x, y: proxy_gip_ce(W, x, y, 0.0),
    lambda W, x, y: proxy_gip_ce(W, x, y, 0.3, 0.2),
], ids=["plain", "proxy_gip_ce"])
def test_ce_rejects_an_empty_batch(ce):
    # the mean over no rows is 0/0: named up front, not as a NaN loss after it
    with pytest.raises(DegenerateInputError, match=r"^empty batch"):
        ce(np.eye(3), np.ones((0, 3)), [])


@pytest.mark.parametrize("margin", [-0.1, float("nan"), float("inf")])
def test_proxy_gip_ce_rejects_bad_margin(margin):
    # a NaN margin would turn the first batch's proxy CE loss into nan, and
    # an infinite one its proxy gradient
    with pytest.raises(ConfigError, match=r"margin must be >= 0 and finite"):
        proxy_gip_ce(init_proxy_bank(Rng(0), 4, 8), np.ones((2, 8)), [0, 1], 0.3, margin)


@pytest.mark.parametrize("normalize", [False, True], ids=["raw", "normalize_proxies"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("ce", [
    lambda W, x, y, n: proxy_gip_ce(W, x, y, 0.0, 0.0, n),
    lambda W, x, y, n: proxy_gip_ce(W, x, y, 0.3, 0.2, n),
], ids=["plain", "proxy_gip_ce"])
def test_ce_rejects_a_non_finite_proxy(ce, bad, normalize):
    # the proxies are not scanned: a NaN or Inf entry in any row, a target's
    # or not, shows in the loss or in that row's norm
    x = np.array([[1.0, 1.0, 0.5], [0.5, -1.0, 1.0]])
    for row in range(3):
        W = np.eye(3)
        W[row, 0] = bad
        with pytest.raises(FloatingPointError, match=r"contains NaN or Inf"):
            ce(W, x, [0, 2], normalize)


# ----- proxy_gip_ce ------------------------------------------------------


def test_gip_ce_fixture_matches_oracle():
    loss, _, _ = proxy_gip_ce(FIX_W, FIX_X, 0, 0.3)
    assert_allclose(loss, 0.78795889791502016, rtol=1e-15)
    assert_allclose(loss, gip_ce_oracle(FIX_W, FIX_X, 0, 0.3, 0.0), rtol=1e-15)


def test_gip_ce_margin_fixture_matches_oracle():
    loss, _, _ = proxy_gip_ce(FIX_W, FIX_X, 0, 0.3, 0.2)
    assert_allclose(loss, 0.71426391628952579, rtol=1e-15)
    assert_allclose(loss, gip_ce_oracle(FIX_W, FIX_X, 0, 0.3, 0.2), rtol=1e-15)


def test_gip_ce_margin_zero_equals_plain_gip():
    rng = np.random.default_rng(2)
    W = rng.normal(size=(4, 3))
    x = rng.normal(size=3)
    a, _, _ = proxy_gip_ce(W, x, 1, 0.2, 0.0)
    b, _, _ = proxy_gip_ce(W, x, 1, 0.2)
    assert a == b


def test_gip_ce_gradients_match_finite_differences():
    rng = np.random.default_rng(3)
    for margin in (0.0, 0.15):
        for normalize in (False, True):
            W = rng.normal(size=(4, 3))
            x = rng.normal(size=3) + 0.1
            y = 2
            _, grads, _ = proxy_gip_ce(W, x, y, 0.3, margin, normalize)

            def loss_of_x(v):
                return proxy_gip_ce(W, v, y, 0.3, margin, normalize)[0]

            def loss_of_w(M):
                return proxy_gip_ce(M, x, y, 0.3, margin, normalize)[0]

            assert max_rel_err(grads.d_feature, numerical_grad(loss_of_x, x.copy())) < 1e-5
            assert max_rel_err(grads.d_proxies, numerical_grad(loss_of_w, W.copy())) < 1e-5


def test_gip_ce_normalized_is_scale_invariant_in_proxies():
    rng = np.random.default_rng(4)
    W = rng.normal(size=(3, 4))
    x = rng.normal(size=4)
    a, _, _ = proxy_gip_ce(W, x, 0, 0.2, normalize_proxies=True)
    W2 = W * np.array([[7.0], [0.5], [3.0]])
    b, _, _ = proxy_gip_ce(W2, x, 0, 0.2, normalize_proxies=True)
    assert_allclose(a, b, rtol=1e-12)


def test_gip_ce_zero_feature_needs_zero_bias():
    with pytest.raises(DegenerateInputError):
        proxy_gip_ce(np.eye(2), [0.0, 0.0], 0, 0.3)


def test_ce_batch_equals_mean_of_one_row_calls():
    rng = np.random.default_rng(7)
    m = 5
    for b_theta in (0.0, 0.3):
        for normalize in (False, True):
            for margin in (0.0, 0.2):
                W = rng.normal(size=(4, 3))

                def ce(x, y):
                    return proxy_gip_ce(W, x, y, b_theta, margin, normalize)

                x = rng.normal(size=(m, 3))
                y = rng.integers(0, 4, size=m)
                loss, g, _ = ce(x, y)
                rows = [ce(x[i : i + 1], y[i : i + 1]) for i in range(m)]
                assert_allclose(loss, np.mean([r[0] for r in rows]), rtol=1e-12)
                assert_allclose(g.d_feature, np.vstack([r[1].d_feature for r in rows]) / m,
                                rtol=1e-12, atol=1e-15)
                assert_allclose(g.d_proxies, np.mean([r[1].d_proxies for r in rows], axis=0),
                                rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("normalize", [False, True])
def test_ce_predictions_are_the_margin_free_argmax(normalize):
    # the predicted class is the argmax of the margin-free logits, here the
    # scalar generalized-inner `score` against each (unit, if normalized)
    # proxy; every label is a non-argmax class, so the margin, which spares
    # only the target's logit, would pull a margin-inclusive argmax onto it
    rng = np.random.default_rng(11)
    W = rng.normal(size=(5, 4))
    x = rng.normal(size=(40, 4))
    w_eff = W / np.linalg.norm(W, axis=1, keepdims=True) if normalize else W
    for b_theta, margin in ((0.0, 0.0), (0.3, 0.9)):
        sim = SimilarityKind(b_theta=b_theta)
        want = np.array([np.argmax([score(sim, xi, w) for w in w_eff]) for xi in x])
        y = (want + 1) % W.shape[0]
        _, _, predicted = proxy_gip_ce(W, x, y, b_theta, margin, normalize)
        assert np.array_equal(predicted, want)


def matrix_bias_ce(W, x, y, b_theta, margin, normalize):
    """The CE step as first written, kept as the bit-for-bit reference: an
    (m, K) bias matrix even without a margin, np.linalg.norm row norms,
    np.outer, np.mean, and ``coef * bias`` formed once per use."""
    m = x.shape[0]
    rows = np.arange(m)
    if normalize:
        raw_norms = np.linalg.norm(W, axis=1)
        w_eff = W / raw_norms[:, None]
        w_norm = np.ones(len(W))
    else:
        w_eff = W
        w_norm = np.linalg.norm(w_eff, axis=1)
    x_norm = np.linalg.norm(x, axis=1)
    bias = np.full((m, len(W)), b_theta + margin)
    bias[rows, y] = b_theta
    dots = x @ w_eff.T
    scale = np.outer(x_norm, w_norm)
    logits = dots - bias * scale
    predicted = np.argmax(logits if margin == 0.0 else dots - b_theta * scale, axis=1)
    diffs = logits - logits[rows, y][:, None]
    top = diffs.max(axis=1)
    terms = np.exp(diffs - top[:, None])
    total = terms.sum(axis=1)
    loss = float(np.mean(top + np.log(total)))
    coef = terms / (m * total[:, None])
    coef[rows, y] = 0.0
    coef[rows, y] = -coef.sum(axis=1)
    inv_x = np.divide(1.0, x_norm, out=np.zeros(m), where=x_norm > 0.0)
    d_x = coef @ w_eff - ((coef * bias) @ w_norm * inv_x)[:, None] * x
    d_weff = coef.T @ x
    if normalize:
        d_w = unit_rows_grad(w_eff, raw_norms, d_weff)
    else:
        inv_w = np.divide(1.0, w_norm, out=np.zeros_like(w_norm), where=w_norm > 0.0)
        d_w = d_weff - ((coef * bias).T @ x_norm * inv_w)[:, None] * w_eff
    return loss, d_x, d_w, predicted


def ce_bits(loss, d_x, d_w, predicted):
    return [np.float64(loss).tobytes()] + [
        np.asarray(a).tobytes() for a in (d_x, d_w, predicted)
    ]


@settings(max_examples=300, deadline=None)
@given(
    k=st.integers(2, 12),
    m=st.integers(1, 24),
    d=st.integers(1, 12),
    b_theta=st.one_of(st.sampled_from([0.0, -0.0, 0.3]), st.floats(0.0, 0.999)),
    margin=st.one_of(st.sampled_from([0.0, -0.0, 0.2]), st.floats(0.0, 2.0)),
    normalize=st.booleans(),
    zero_rows=st.integers(0, 3),
    zero_cols=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
)
@example(k=3, m=4, d=1, b_theta=-0.0, margin=0.0, normalize=False, zero_rows=2,
         zero_cols=0, seed=0)
@example(k=2, m=1, d=1, b_theta=0.0, margin=0.0, normalize=True, zero_rows=1,
         zero_cols=0, seed=1)
def test_ce_keeps_the_bits_of_the_bias_matrix_form(
    k, m, d, b_theta, margin, normalize, zero_rows, zero_cols, seed
):
    rng = np.random.default_rng(seed)
    W = rng.normal(size=(k, d)) * 10.0 ** rng.integers(-3, 4)
    x = rng.normal(size=(m, d)) * 10.0 ** rng.integers(-3, 4)
    x[rng.integers(0, m, size=zero_rows)] = 0.0
    x[:, rng.integers(0, d, size=zero_cols)] = 0.0
    W[:, rng.integers(0, d, size=zero_cols)] = 0.0
    y = rng.integers(0, k, size=m)
    if normalize and not np.linalg.norm(W, axis=1).all():
        W[:, 0] += 1.0
    if (b_theta != 0.0 or margin != 0.0) and not np.linalg.norm(x, axis=1).all():
        with pytest.raises(DegenerateInputError, match="zero feature has no direction"):
            proxy_gip_ce(W, x, y, b_theta, margin, normalize)
    else:
        loss, g, predicted = proxy_gip_ce(W, x, y, b_theta, margin, normalize)
        want = matrix_bias_ce(W, x, y, b_theta, margin, normalize)
        assert ce_bits(loss, *g, predicted) == ce_bits(*want)
    loss, g, predicted = proxy_gip_ce(W, x, y, 0.0, 0.0, normalize)
    want = matrix_bias_ce(W, x, y, 0.0, 0.0, normalize)
    assert ce_bits(loss, *g, predicted) == ce_bits(*want)


def test_init_proxy_bank_shapes():
    proxies = init_proxy_bank(Rng(0), 5, 8)
    assert proxies.shape == (5, 8) and proxies.dtype == np.float64
    assert np.array_equal(proxies, Rng(0).normal(size=(5, 8)) / np.sqrt(8))
