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
