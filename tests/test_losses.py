import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pairsim.errors import ConfigError, ShapeError
from pairsim.gradcheck import numerical_grad_scalar
from pairsim.losses import LossConfig, PairBatch, batch_loss, mining_curves, pair_loss, pair_loss_grad
from pairsim.numkit import sigmoid, softplus


def cfg(variant="simple_final", r=3.0, alpha=0.001, b=0.0):
    return LossConfig(variant=variant, r=r, alpha=alpha, b=b)


# --- pair_loss -------------------------------------------------------------


def test_loss_at_boundary():
    # s + b = 0 lands both branches on softplus(0) = log 2.
    for r in (1.0, 2.0, 7.5):
        c = cfg(r=r, alpha=0.25, b=0.4)
        assert pair_loss(c, -0.4, 1) == pytest.approx(0.25 * math.log(2), rel=1e-15)
        assert pair_loss(c, -0.4, 0) == pytest.approx(0.75 * math.log(2), rel=1e-15)


def test_loss_high_precision_oracle():
    # y=1, (s+b)/r = 1: alpha * log(1 + e^-1), evaluated independently.
    expected = 0.001 * math.log1p(math.exp(-1.0))
    assert expected == pytest.approx(3.13262e-4, rel=1e-5)
    assert pair_loss(cfg(r=2.0, alpha=0.001), 2.0, 1) == pytest.approx(expected, rel=1e-12)


@given(st.floats(-50.0, 50.0), st.integers(0, 1))
def test_r_equal_one_reduces_to_balanced(s, y):
    a = pair_loss(cfg("simple_final", r=1.0, alpha=0.3, b=0.2), s, y)
    b = pair_loss(cfg("balanced", r=5.0, alpha=0.3, b=0.2), s, y)
    assert abs(a - b) <= 1e-15 * max(1.0, abs(a))


@given(st.floats(-50.0, 50.0), st.integers(0, 1))
def test_balanced_half_alpha_is_half_naive(s, y):
    bal = pair_loss(cfg("balanced", alpha=0.5, b=-0.7), s, y)
    nai = pair_loss(cfg("naive", alpha=0.5, b=-0.7), s, y)
    assert abs(bal - 0.5 * nai) <= 1e-15 * max(1.0, abs(bal))


def test_monotonicity_in_score():
    c = cfg(r=3.0, alpha=0.1)
    grid = np.linspace(-8.0, 8.0, 81)
    pos = [pair_loss(c, s, 1) for s in grid]
    neg = [pair_loss(c, s, 0) for s in grid]
    assert all(a > b for a, b in zip(pos, pos[1:]))  # strictly decreasing
    assert all(a < b for a, b in zip(neg, neg[1:]))  # strictly increasing


def test_config_validation():
    with pytest.raises(ConfigError):
        cfg(r=0.0)
    with pytest.raises(ConfigError):
        cfg(alpha=0.0)
    with pytest.raises(ConfigError):
        cfg(alpha=1.0)
    with pytest.raises(ConfigError):
        cfg(variant="softmax")
    cfg(r=1.0)  # r = 1 must be accepted


# --- pair_loss_grad ----------------------------------------------------------


def test_grad_known_values():
    d_s, d_b = pair_loss_grad(cfg(r=1.0, alpha=0.5), 0.0, 1)
    assert d_s == pytest.approx(-0.25, rel=1e-15)
    assert d_b == d_s
    d_s, _ = pair_loss_grad(cfg(r=3.0, alpha=0.5), 0.0, 0)
    assert d_s == pytest.approx(0.75, rel=1e-15)


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(0)
    for _ in range(50):
        s = float(rng.uniform(-5, 5))
        r = float(rng.uniform(0.5, 6.0))
        alpha = float(rng.uniform(0.01, 0.99))
        b = float(rng.uniform(-1, 1))
        y = int(rng.integers(0, 2))
        c = cfg(r=r, alpha=alpha, b=b)
        d_s, d_b = pair_loss_grad(c, s, y)
        fd_s = numerical_grad_scalar(lambda v: pair_loss(c, v, y), s)
        fd_b = numerical_grad_scalar(
            lambda v: pair_loss(LossConfig("simple_final", r, alpha, v), s, y), b
        )
        assert d_s == pytest.approx(fd_s, rel=1e-8)
        assert d_b == pytest.approx(fd_b, rel=1e-8)


def test_reverse_mining_directions():
    rs = np.linspace(1.0, 5.0, 9)
    # positives at the hard score s+b = -1: gradient magnitude shrinks with r
    pos = [abs(pair_loss_grad(cfg(r=r, alpha=0.3), -1.0, 1)[0]) for r in rs]
    assert all(a > b for a, b in zip(pos, pos[1:]))
    # negatives at the hard score s+b = +1: gradient magnitude grows with r
    neg = [abs(pair_loss_grad(cfg(r=r, alpha=0.3), 1.0, 0)[0]) for r in rs]
    assert all(a < b for a, b in zip(neg, neg[1:]))


# --- batch_loss --------------------------------------------------------------


def test_single_pair_equals_pair_loss():
    c = cfg()
    pb = PairBatch(scores=[0.37], labels=[1])
    loss, d_scores, d_b = batch_loss(c, pb)
    assert loss == pair_loss(c, 0.37, 1)
    assert d_scores[0] == pair_loss_grad(c, 0.37, 1)[0]
    assert d_b == d_scores[0]


def test_duplicated_pair_mean_invariance():
    c = cfg()
    one = batch_loss(c, PairBatch(scores=[0.8], labels=[0]))[0]
    two = batch_loss(c, PairBatch(scores=[0.8, 0.8], labels=[0, 0]))[0]
    assert two == pytest.approx(one, rel=1e-15)


def test_batch_loss_hand_summed():
    # 2 positives + 2 negatives, summed term by term with math.*.
    r, alpha, b = 3.0, 0.001, 0.1
    c = cfg(r=r, alpha=alpha, b=b)
    scores = [0.5, -1.2, 0.3, -2.0]
    labels = [1, 1, 0, 0]
    terms = [
        alpha * math.log1p(math.exp(-(0.5 + b) / r)),
        alpha * math.log1p(math.exp(-(-1.2 + b) / r)),
        (1 - alpha) * math.log1p(math.exp(r * (0.3 + b))),
        (1 - alpha) * math.log1p(math.exp(r * (-2.0 + b))),
    ]
    expected = math.fsum(terms) / 4.0
    loss, d_scores, d_b = batch_loss(c, PairBatch(scores=scores, labels=labels))
    assert loss == pytest.approx(expected, rel=1e-12)
    assert d_b == pytest.approx(sum(d_scores), rel=1e-12)


def two_branch_batch_loss(c, pairs):
    """The two-branch form: both softplus and both sigmoid branches on every
    pair, then a select.  Oracle for the single-branch kernel."""
    w_pos, w_neg, r = c._resolved()
    t = pairs.scores + c.b
    pos = pairs.labels == 1
    losses = np.where(pos, w_pos * softplus(-t / r), w_neg * softplus(r * t))
    d = np.where(pos, -(w_pos / r) * sigmoid(-t / r), w_neg * r * sigmoid(r * t))
    d_scores = d / len(pairs)
    return float(np.mean(losses)), d_scores, float(np.sum(d_scores))


@given(
    st.sampled_from(["naive", "balanced", "simple_final"]),
    st.floats(0.05, 20.0),
    st.floats(0.001, 0.999),
    st.floats(-5.0, 5.0),
    st.lists(
        st.tuples(st.floats(-400.0, 400.0, allow_subnormal=True), st.integers(0, 1)),
        min_size=1,
        max_size=64,
    ),
)
def test_batch_loss_bit_identical_to_two_branch_form(variant, r, alpha, b, pairs):
    # scores up to 400 with r up to 20 put |u| well past softplus' +-30 cut
    c = cfg(variant, r=r, alpha=alpha, b=b)
    pb = PairBatch(scores=[p[0] for p in pairs], labels=[p[1] for p in pairs])
    loss, d_scores, d_b = batch_loss(c, pb)
    want_loss, want_d, want_db = two_branch_batch_loss(c, pb)
    assert loss == want_loss and d_b == want_db
    assert d_scores.tobytes() == want_d.tobytes()


def test_batch_loss_bit_identical_past_the_softplus_cut():
    # fixed grid straddling u = +-30 on both branches, every variant
    scores = np.concatenate([np.linspace(-150.0, 150.0, 601), [-30.0, 30.0, -10.0, 10.0]])
    labels = np.arange(scores.size) % 2
    pb = PairBatch(scores=scores, labels=labels)
    for variant in ("naive", "balanced", "simple_final"):
        c = cfg(variant, r=3.0, alpha=0.2, b=0.1)
        loss, d_scores, d_b = batch_loss(c, pb)
        want_loss, want_d, want_db = two_branch_batch_loss(c, pb)
        assert loss == want_loss and d_b == want_db
        assert d_scores.tobytes() == want_d.tobytes()


def test_empty_batch_rejected():
    with pytest.raises(ShapeError):
        batch_loss(cfg(), PairBatch(scores=[], labels=[]))
    with pytest.raises(ShapeError):
        PairBatch(scores=[1.0, 2.0], labels=[1])


def test_nonzero_loss_sensitivity_to_r():
    # With reverse mining the r-dependence of the two branches must not cancel
    # on a balanced score mix.
    scores = np.array([1.5, 0.5, -0.5, -1.5, 1.0, -1.0])
    labels = np.array([1, 1, 1, 0, 0, 0])
    pb = PairBatch(scores=scores, labels=labels)

    def total(r):
        return batch_loss(cfg(r=r, alpha=0.5), pb)[0]

    dr = numerical_grad_scalar(total, 3.0)
    assert abs(dr) > 1e-4


# --- mining_curves -----------------------------------------------------------


def test_mining_curves_at_zero():
    for r in (1.0, 2.0, 3.0):
        q1, q2 = mining_curves(r, 0.0)
        assert q1 == pytest.approx(math.log(2), rel=1e-15)
        assert q2 == pytest.approx(math.log(2), rel=1e-15)


def test_mining_curves_symmetry_at_r1():
    for t in np.linspace(-4, 4, 17):
        assert mining_curves(1.0, t)[0] == pytest.approx(mining_curves(1.0, -t)[1], rel=1e-15)


def test_q2_slope_increases_with_r():
    # |dQ2/dt| at t=1 equals r*sigmoid(r): 0.731, 1.762, 2.858 for r=1,2,3.
    slopes = []
    for r in (1.0, 2.0, 3.0):
        fd = numerical_grad_scalar(lambda t: mining_curves(r, t)[1], 1.0)
        assert fd == pytest.approx(r / (1 + math.exp(-r)), rel=1e-8)
        slopes.append(abs(fd))
    assert slopes[0] < slopes[1] < slopes[2]


def test_mining_curves_requires_positive_r():
    with pytest.raises(ConfigError):
        mining_curves(0.0, 1.0)
