"""Baseline losses: CE family oracles, hinge mechanics, gradient checks."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pairsim import (
    FeatureQueue,
    PairBatch,
    Rng,
    SimilarityKind,
    enqueue_batch,
    form_pairs,
    score,
    score_grad,
    score_matrix,
    score_matrix_grad_left,
)
from pairsim.baselines import (
    contrastive_loss,
    init_proxy_bank,
    proxy_gip_ce,
    softmax_ce,
    triplet_loss,
)
from pairsim.errors import ConfigError, DegenerateInputError, ShapeError
from pairsim.gradcheck import max_rel_err, numerical_grad


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


# ----- softmax_ce --------------------------------------------------------


def test_ce_uniform_logits_give_log_k():
    for k in (2, 3, 7):
        loss, _, _ = softmax_ce(np.tile([0.4, -0.2, 0.1], (k, 1)), [5.0, 1.0, -2.0], 0)
        assert_allclose(loss, math.log(k), rtol=1e-15)


def test_ce_two_class_tie_gives_log_two():
    loss, _, _ = softmax_ce(np.eye(2), [1.0, 1.0], 1)
    assert_allclose(loss, math.log(2.0), rtol=1e-15)


def test_ce_three_class_fixture_matches_oracle():
    loss, _, _ = softmax_ce(FIX_W, FIX_X, 0)
    assert_allclose(loss, 0.81144889759451366, rtol=1e-15)
    assert_allclose(loss, ce_oracle(FIX_W, FIX_X, 0), rtol=1e-15)


def test_ce_stable_for_huge_logits():
    x = np.array([0.0, 1e4])
    loss, grads, _ = softmax_ce(np.eye(2), x, 0)
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
        _, grads, _ = softmax_ce(W, x, y)
        num_x = numerical_grad(lambda v: softmax_ce(W, v, y)[0], x.copy())
        assert max_rel_err(grads.d_feature, num_x) < 1e-5
        num_w = numerical_grad(lambda M: softmax_ce(M, x, y)[0], W.copy())
        assert max_rel_err(grads.d_proxies, num_w) < 1e-5


def test_ce_validates_label_and_shape():
    W = np.eye(3)
    with pytest.raises(ConfigError):
        softmax_ce(W, np.ones(3), 3)
    with pytest.raises(ValueError):
        softmax_ce(W, np.ones(2), 0)
    with pytest.raises(ConfigError, match=r"got 1.5"):
        softmax_ce(W, np.ones((2, 3)), [0, 1.5])
    with pytest.raises(ConfigError, match=r"got 0.5"):
        proxy_gip_ce(W, np.ones((2, 3)), [0.5, 1], 0.3)


@pytest.mark.parametrize("ce", [
    lambda W, x, y: softmax_ce(W, x, y),
    lambda W, x, y: proxy_gip_ce(W, x, y, 0.3, 0.2),
], ids=["softmax_ce", "proxy_gip_ce"])
@pytest.mark.parametrize("proxies, error, message", [
    (np.ones((1, 2)), ConfigError, r"need at least 2 classes, got 1 proxy rows"),
    (np.ones((0, 2)), ConfigError, r"need at least 2 classes, got 0 proxy rows"),
    (np.ones(2), ShapeError, r"proxies must be a 2-D matrix, got ndim=1"),
    (np.ones((2, 2, 2)), ShapeError, r"proxies must be a 2-D matrix, got ndim=3"),
], ids=["one_row", "no_rows", "vector", "3d"])
def test_ce_rejects_bad_proxy_matrix(ce, proxies, error, message):
    with pytest.raises(error, match=message):
        ce(proxies, np.ones((1, 2)), [0])


@pytest.mark.parametrize("margin", [-0.1, float("nan"), float("inf")])
def test_proxy_gip_ce_rejects_bad_margin(margin):
    # a NaN margin would turn the first batch's proxy CE loss into nan, and
    # an infinite one its proxy gradient
    with pytest.raises(ConfigError, match=r"margin must be >= 0 and finite"):
        proxy_gip_ce(init_proxy_bank(Rng(0), 4, 8), np.ones((2, 8)), [0, 1], 0.3, margin)


@pytest.mark.parametrize("normalize", [False, True], ids=["raw", "normalize_proxies"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("ce", [
    lambda W, x, y, n: softmax_ce(W, x, y, n),
    lambda W, x, y, n: proxy_gip_ce(W, x, y, 0.3, 0.2, n),
], ids=["softmax_ce", "proxy_gip_ce"])
def test_ce_rejects_a_non_finite_proxy(ce, bad, normalize):
    # the proxies are not scanned: a NaN or Inf entry in any row, a target's
    # or not, shows in the loss or, through that row's norm, in d_btheta
    x = np.array([[1.0, 1.0, 0.5], [0.5, -1.0, 1.0]])
    for row in range(3):
        W = np.eye(3)
        W[row, 0] = bad
        with pytest.raises(FloatingPointError, match=r"contains NaN or Inf"):
            ce(W, x, [0, 2], normalize)


@pytest.mark.parametrize("margin", [0.0, -0.1, float("nan"), float("inf")])
@pytest.mark.parametrize(
    "loss",
    [
        lambda pairs, margin: contrastive_loss(pairs, margin),
        lambda pairs, margin: triplet_loss(pairs, 2, margin, Rng(0)),
    ],
    ids=["contrastive", "triplet"],
)
def test_pair_baselines_reject_bad_margin(loss, margin):
    # an infinite margin would make both hinge losses inf
    pairs = PairBatch([0.2, -0.1, 0.3, 0.0], [1, 0, 1, 0])
    with pytest.raises(ConfigError, match=r"margin must be positive and finite"):
        loss(pairs, margin)


# ----- proxy_gip_ce ------------------------------------------------------


def test_gip_ce_reduces_to_softmax_ce():
    rng = np.random.default_rng(1)
    for _ in range(10):
        W = rng.normal(size=(5, 4))
        x = rng.normal(size=4)
        y = int(rng.integers(0, 5))
        plain, pg, _ = softmax_ce(W, x, y)
        gip, gg, _ = proxy_gip_ce(W, x, y, 0.0, 0.0)
        assert_allclose(gip, plain, rtol=1e-12)
        assert_allclose(gg.d_feature, pg.d_feature, rtol=1e-12, atol=1e-12)
        assert_allclose(gg.d_proxies, pg.d_proxies, rtol=1e-12, atol=1e-12)


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

            def loss_of_b(t):
                return proxy_gip_ce(W, x, y, t, margin, normalize)[0]

            assert max_rel_err(grads.d_feature, numerical_grad(loss_of_x, x.copy())) < 1e-5
            assert max_rel_err(grads.d_proxies, numerical_grad(loss_of_w, W.copy())) < 1e-5
            num_b = numerical_grad(loss_of_b, 0.3)
            assert max_rel_err([grads.d_btheta], [num_b]) < 1e-5


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
    for gip in (False, True):
        for normalize in (False, True):
            for margin in (0.0, 0.2):
                W = rng.normal(size=(4, 3))

                def ce(x, y):
                    if gip:
                        return proxy_gip_ce(W, x, y, 0.3, margin, normalize)
                    return softmax_ce(W, x, y, normalize)

                x = rng.normal(size=(m, 3))
                y = rng.integers(0, 4, size=m)
                loss, g, _ = ce(x, y)
                rows = [ce(x[i : i + 1], y[i : i + 1]) for i in range(m)]
                assert_allclose(loss, np.mean([r[0] for r in rows]), rtol=1e-12)
                assert_allclose(g.d_feature, np.vstack([r[1].d_feature for r in rows]) / m,
                                rtol=1e-12, atol=1e-15)
                assert_allclose(g.d_proxies, np.mean([r[1].d_proxies for r in rows], axis=0),
                                rtol=1e-12, atol=1e-15)
                assert_allclose(g.d_btheta, np.mean([r[1].d_btheta for r in rows]),
                                rtol=1e-12, atol=1e-15)
                if not gip:
                    assert g.d_btheta == 0.0


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
    for ce, b_theta in ((softmax_ce, 0.0), (proxy_gip_ce, 0.3)):
        sim = SimilarityKind(b_theta=b_theta)
        want = np.array([np.argmax([score(sim, xi, w) for w in w_eff]) for xi in x])
        y = (want + 1) % W.shape[0]
        if ce is softmax_ce:
            _, _, predicted = softmax_ce(W, x, y, normalize)
        else:
            _, _, predicted = proxy_gip_ce(W, x, y, 0.3, 0.9, normalize)
        assert np.array_equal(predicted, want)


def test_init_proxy_bank_shapes():
    proxies = init_proxy_bank(Rng(0), 5, 8)
    assert proxies.shape == (5, 8) and proxies.dtype == np.float64
    assert np.array_equal(proxies, Rng(0).normal(size=(5, 8)) / np.sqrt(8))


# ----- contrastive -------------------------------------------------------


def test_contrastive_satisfied_hinges_are_free():
    pairs = PairBatch([5.0, -5.0], [1, 0])
    loss, d = contrastive_loss(pairs, margin=0.3)
    assert loss == 0.0
    assert np.array_equal(d, [0.0, 0.0])


def test_contrastive_boundary_has_zero_subgradient():
    pairs = PairBatch([0.3, -0.3], [1, 0])
    loss, d = contrastive_loss(pairs, margin=0.3)
    assert loss == 0.0
    assert np.array_equal(d, [0.0, 0.0])


def test_contrastive_active_hinges_hand_example():
    pairs = PairBatch([0.1, -0.5], [1, 0])
    loss, d = contrastive_loss(pairs, margin=0.3)
    assert_allclose(loss, 0.1)  # (0.3 - 0.1)/2, negative side inactive
    assert_allclose(d, [-0.5, 0.0])


def test_contrastive_gradient_matches_fd_away_from_kinks():
    rng = np.random.default_rng(5)
    scores = rng.normal(size=12)
    labels = rng.integers(0, 2, size=12)
    margin = 0.25
    # keep every score at least 1e-3 from its hinge
    hinge = np.where(labels == 1, margin, -margin)
    scores = np.where(np.abs(scores - hinge) < 1e-3, scores + 0.01, scores)
    _, d = contrastive_loss(PairBatch(scores, labels), margin)
    num = numerical_grad(
        lambda s: contrastive_loss(PairBatch(s, labels), margin)[0], scores.copy()
    )
    assert max_rel_err(d, num, floor=1e-3) < 1e-5


def test_contrastive_validates():
    with pytest.raises(ConfigError):
        contrastive_loss(PairBatch([0.1], [1]), margin=0.0)
    with pytest.raises(DegenerateInputError):
        contrastive_loss(PairBatch(np.zeros(0), np.zeros(0, dtype=int)), margin=0.1)


# ----- triplet -----------------------------------------------------------


def trip_pairs(sim, anchors, qfeat, qlabels, alabels):
    q = FeatureQueue(capacity=len(qlabels), d_feat=qfeat.shape[1])
    enqueue_batch(q, qfeat, qlabels)
    return form_pairs(q, anchors, alabels, sim)


def test_triplet_satisfied_is_zero_with_zero_grads():
    pairs = PairBatch([[5.0, -5.0, 4.0], [-5.0, 3.0, -6.0]], [[1, 0, 1], [0, 1, 0]])
    loss, d, used = triplet_loss(pairs, 2, 0.2, Rng(0))
    assert loss == 0.0
    assert used == 2
    assert np.array_equal(d, np.zeros(6))


def test_triplet_anchor_equals_positive_plugin():
    sim = SimilarityKind("cosine")
    a = np.array([1.0, 0.0])
    n = np.array([1.0, 1.0]) / math.sqrt(2.0)
    # one positive (a itself) and one negative slot, so the draws are forced
    pairs = trip_pairs(sim, a[None, :], np.vstack([a, n]), [0, 1], [0])
    loss, _, used = triplet_loss(pairs, 1, 0.5, Rng(0))
    # S(a,a) = 1 under cosine, so loss = margin - 1 + S(a,n)
    assert used == 1
    assert_allclose(loss, 0.20710678118654757, rtol=1e-15)
    assert_allclose(loss, 0.5 - 1.0 + score(sim, a, n), rtol=1e-15)


def test_triplet_gradients_match_fd_away_from_kink():
    # fixed draws: every call re-derives the same stream; no gap of these
    # fixtures lies within a finite-difference step of its hinge
    rng = np.random.default_rng(6)
    qlabels = np.array([0, 1, 0, 2, 1, 2])
    alabels = np.array([0, 1, 2])
    y = (alabels[:, None] == qlabels[None, :]).astype(int)
    for name in ("generalized_inner", "cosine", "inner"):
        sim = SimilarityKind(name)
        for trial in range(4):
            anchors = rng.normal(size=(3, 4))
            qfeat = rng.normal(size=(6, 4))

            def loss_of_scores(s):
                return triplet_loss(PairBatch(s, y), 3, 1.0, Rng(trial))

            _, d_scores, _ = loss_of_scores(score_matrix(sim, anchors, qfeat))
            num_s = numerical_grad(
                lambda s: loss_of_scores(s)[0], score_matrix(sim, anchors, qfeat)
            )
            assert max_rel_err(d_scores, num_s, floor=1e-2) < 1e-6
            d_a, _ = score_matrix_grad_left(sim, anchors, qfeat, d_scores.reshape(3, 6))
            num_a = numerical_grad(
                lambda v: loss_of_scores(score_matrix(sim, v, qfeat))[0], anchors.copy()
            )
            assert max_rel_err(d_a, num_a, floor=1e-2) < 1e-6


def test_triplet_step_matches_per_anchor_score_grad_oracle():
    # the trainer's triplet step (form_pairs, triplet_loss, one
    # score_matrix_grad_left) against a per-anchor loop over score/score_grad
    rng = np.random.default_rng(8)
    sim = SimilarityKind("generalized_inner", b_theta=0.3)
    qfeat = rng.normal(size=(12, 5))
    qlabels = rng.integers(0, 3, size=12)
    anchors = rng.normal(size=(6, 5))
    alabels = np.array([0, 1, 2, 0, 1, 7])  # the last anchor has no positive
    margin = 2.0
    pairs = trip_pairs(sim, anchors, qfeat, qlabels, alabels)
    loss, d_scores, used = triplet_loss(pairs, 6, margin, Rng(3).stream(("triplet", 0)))
    d_feats, _ = score_matrix_grad_left(sim, anchors, qfeat, d_scores.reshape(6, 12))

    draws = Rng(3).stream(("triplet", 0))
    oracle = np.zeros_like(anchors)
    loss_sum = 0.0
    n_used = 0
    for i in range(6):
        same = np.flatnonzero(qlabels == alabels[i])
        diff = np.flatnonzero(qlabels != alabels[i])
        if same.size == 0 or diff.size == 0:
            continue
        p = same[int(draws.integers(0, same.size))]
        n = diff[int(draws.integers(0, diff.size))]
        gap = margin + score(sim, anchors[i], qfeat[n]) - score(sim, anchors[i], qfeat[p])
        n_used += 1
        if gap > 0.0:
            loss_sum += gap
            oracle[i] = score_grad(sim, anchors[i], qfeat[n])[0] - score_grad(
                sim, anchors[i], qfeat[p]
            )[0]
    assert used == n_used == 5
    assert_allclose(loss, loss_sum / n_used, rtol=1e-10)
    assert np.count_nonzero(oracle.any(axis=1)) >= 2  # some hinges are active
    assert_allclose(d_feats, oracle / n_used, rtol=1e-10, atol=1e-12)


def test_triplet_validates():
    pairs = PairBatch([0.1, -0.2], [1, 0])
    with pytest.raises(ConfigError):
        triplet_loss(pairs, 1, 0.0, Rng(0))
    with pytest.raises(DegenerateInputError):
        triplet_loss(PairBatch([0.1, 0.2], [1, 1]), 1, 0.1, Rng(0))
