import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from pairsim.errors import ConfigError
from pairsim.numkit import Rng, class_ids, row_norms, sigmoid, softplus


def test_softplus_at_zero():
    assert softplus(0.0) == pytest.approx(math.log(2.0), rel=1e-15)


def test_softplus_large_argument():
    # relative, with no absolute floor: far below zero softplus(t) is exp(t)
    # (3.7e-44 at -100), which an absolute tolerance would not see
    for t in (-100.0, -40.0, 40.0, 100.0):
        want = math.log1p(math.exp(t))
        assert softplus(t) == pytest.approx(want, rel=1e-15, abs=0.0), t


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



@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(0, 40),
    d=st.integers(1, 40),
    exponent=st.integers(-300, 300),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=0, d=3, exponent=0, seed=0)
@example(n=5, d=1, exponent=300, seed=0)
@example(n=5, d=1, exponent=-300, seed=0)
def test_row_norms_have_the_bits_of_linalg_norm(n, d, exponent, seed):
    rng = np.random.default_rng(seed)
    # magnitudes spread over up to 40 decades around 10**exponent, so rows
    # whose squares overflow to inf or underflow to zero come up as well
    scale = 10.0 ** np.clip(exponent + rng.integers(-20, 21, size=(n, d)), -300, 300)
    a = rng.normal(size=(n, d)) * scale
    with np.errstate(over="ignore", under="ignore"):
        want = np.linalg.norm(a, axis=1)
        got = row_norms(a)
    assert got.shape == (n,) and got.tobytes() == want.tobytes()


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


def test_rng_seed_is_an_unsigned_64_bit_int():
    # no wrapping: -1 is not 2**64 - 1, and 2**64 is not 0
    for seed in (-1, 2**64):
        with pytest.raises(ConfigError, match=f"seed must be an unsigned 64-bit int, got {seed}"):
            Rng(seed)
    assert Rng(2**64 - 1).bytes(16).hex() == "663df27596219b97f3372f7e61b408f1"
    assert Rng(2**64 - 1).stream("x").bytes(8).hex() == "0c9731d1a8215285"


def test_rng_seed_is_an_integer_never_a_truncated_float():
    # 1.9 is not seed 1, and 2.0 is not seed 2; numpy integers are integers
    for seed in (1.9, 2.0, np.float64(3.0), "4", None):
        with pytest.raises(ConfigError, match=f"seed must be an unsigned 64-bit int, got {seed}"):
            Rng(seed)
    for seed in (np.int64(7), np.uint64(7), np.uint8(7)):
        assert type(Rng(seed).seed) is int
        assert Rng(seed).bytes(16) == Rng(7).bytes(16)


def test_rng_pickles_as_itself_at_its_draw_position():
    r = Rng(7).stream("init")
    r.normal(size=3)
    copy = pickle.loads(pickle.dumps(r))
    assert type(copy) is Rng
    assert_array_equal(copy.normal(size=5), r.normal(size=5))
    assert_array_equal(copy.stream(2).integers(0, 99, size=5), r.stream(2).integers(0, 99, size=5))


def test_class_ids_keep_integers_and_whole_floats():
    ids = np.array([[3, 1], [2, 0]], dtype=np.int64)
    assert np.shares_memory(class_ids(ids), ids)  # int64 input is not copied
    assert class_ids(np.array([2, 7], dtype=np.uint8)).dtype == np.int64
    assert class_ids([True, False]).tolist() == [1, 0]
    assert class_ids([0.0, -2.0, 1e15]).tolist() == [0, -2, 10**15]
    assert class_ids([]).dtype == np.int64


@pytest.mark.parametrize("bad", [0.5, -1.7, float("nan"), float("inf"), 2.0**63, -(2.0**64)])
def test_class_ids_name_the_first_non_integer(bad):
    with pytest.raises(ConfigError, match=re.escape(f"must be int64 integers, got {bad!r}")):
        class_ids([1.0, bad, 0.25])
