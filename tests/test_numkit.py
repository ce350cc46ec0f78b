import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from pairsim.numkit import Rng, sigmoid, softplus


def test_softplus_at_zero():
    assert softplus(0.0) == pytest.approx(math.log(2.0), rel=1e-15)


def test_softplus_large_argument():
    assert softplus(100.0) == pytest.approx(100.0, rel=1e-12)
    assert softplus(-100.0) == pytest.approx(math.exp(-100.0), rel=1e-12)


def test_softplus_array_matches_scalar():
    t = np.array([-50.0, -30.5, -1.0, 0.0, 2.5, 31.0, 700.0])
    assert_allclose(softplus(t), [softplus(float(x)) for x in t], rtol=1e-15)


@given(st.floats(-30.0, 30.0))
def test_softplus_shift_identity(t):
    # softplus(t) - softplus(-t) == t
    assert abs(softplus(t) - softplus(-t) - t) < 1e-12


@given(st.floats(-25.0, 25.0))
def test_softplus_derivative_is_sigmoid(t):
    h = 1e-6
    fd = (softplus(t + h) - softplus(t - h)) / (2 * h)
    assert fd == pytest.approx(sigmoid(t), rel=1e-6, abs=1e-9)


def test_sigmoid_symmetry_point():
    assert sigmoid(0.0) == 0.5


def test_sigmoid_saturation():
    assert 1.0 - 1e-15 < sigmoid(40.0) <= 1.0
    assert sigmoid(1e3) == 1.0
    assert sigmoid(-1e3) == pytest.approx(0.0, abs=1e-300)


@given(st.floats(-100.0, 100.0))
def test_sigmoid_complement(t):
    assert sigmoid(t) + sigmoid(-t) == pytest.approx(1.0, abs=1e-15)


def two_exp_sigmoid(t):
    """Each branch on its own clamped exp; oracle for the one-exp sigmoid."""
    t = np.asarray(t, dtype=np.float64)
    pos = t >= 0
    ep = np.exp(-np.where(pos, t, 0.0))
    en = np.exp(np.where(pos, 0.0, t))
    return np.where(pos, 1.0 / (1.0 + ep), en / (1.0 + en))


SIGMOID_EDGES = [0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, 1.0, -1.0, 36.7, -36.7,
                 709.0, -709.0, 709.8, -709.8, 745.0, -745.0, 746.0, -746.0,
                 1e308, -1e308, np.finfo(float).max, -np.finfo(float).max,
                 np.inf, -np.inf]


@pytest.mark.filterwarnings("error")
def test_sigmoid_bit_identical_to_two_exp_form_on_edges():
    t = np.array(SIGMOID_EDGES)
    got = sigmoid(t)
    assert got.tobytes() == two_exp_sigmoid(t).tobytes()
    # the scalar path gives the same bits, signed zeros included
    for x, want in zip(t, got):
        assert np.float64(sigmoid(float(x))).tobytes() == want.tobytes()
    sweep = np.concatenate([np.linspace(-800.0, 800.0, 16001), np.logspace(-320, 308, 500)])
    sweep = np.concatenate([sweep, -sweep])
    assert sigmoid(sweep).tobytes() == two_exp_sigmoid(sweep).tobytes()


@pytest.mark.filterwarnings("error")
@given(st.floats(allow_nan=False, allow_subnormal=True))
def test_sigmoid_bit_identical_to_two_exp_form(t):
    assert np.float64(sigmoid(t)).tobytes() == two_exp_sigmoid(t).tobytes()



def test_rng_determinism():
    a = Rng(123).normal(size=10_000)
    b = Rng(123).normal(size=10_000)
    assert_array_equal(a, b)
    c = Rng(124).normal(size=10_000)
    assert not np.array_equal(a, c)


def test_rng_streams_independent_of_draw_order():
    r1 = Rng(7)
    _ = r1.normal(size=100)  # consuming the parent must not move child streams
    child_after = r1.stream("init").normal(size=5)
    child_fresh = Rng(7).stream("init").normal(size=5)
    assert_array_equal(child_after, child_fresh)


def test_rng_streams_distinct():
    base = Rng(7)
    a = base.stream(0).normal(size=100)
    b = base.stream(1).normal(size=100)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, Rng(7).normal(size=100))
