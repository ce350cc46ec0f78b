"""Queue mechanics and batch-times-queue pair construction."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import pairsim.evaluation as ev

from pairsim import (
    ConfigError,
    DegenerateInputError,
    FeatureQueue,
    PairBatch,
    SimilarityKind,
    enqueue_batch,
    form_pairs,
    pos_neg_ratio,
    score,
)
from pairsim.evaluation import _upper_walk
from pairsim.similarity import (
    KINDS, _fold_left, _fold_right, score_matrix, score_matrix_grad_left, score_rows,
)


def feats(rng, m, d=4):
    return rng.normal(size=(m, d))


def test_enqueue_grows_until_capacity():
    q = FeatureQueue(capacity=8, d_feat=4)
    rng = np.random.default_rng(0)
    enqueue_batch(q, feats(rng, 2), [0, 1])
    assert q.size == 2
    enqueue_batch(q, feats(rng, 3), [2, 3, 4])
    assert q.size == 5


def test_fifo_eviction_drops_oldest():
    q = FeatureQueue(capacity=4, d_feat=2)
    first = np.arange(8.0).reshape(4, 2)
    enqueue_batch(q, first, [0, 1, 2, 3])
    second = 100.0 + np.arange(4.0).reshape(2, 2)
    enqueue_batch(q, second, [4, 5])
    assert q.size == 4
    # rows 0,1 of the first batch are gone; order is oldest first
    expect = np.vstack([first[2:], second])
    assert np.array_equal(q.features(), expect)
    assert np.array_equal(q.labels(), [2, 3, 4, 5])


def test_insertion_order_preserved():
    q = FeatureQueue(capacity=16, d_feat=1)
    enqueue_batch(q, [[1.0], [2.0]], [0, 0])
    enqueue_batch(q, [[3.0]], [0])
    assert np.array_equal(q.features().ravel(), [1.0, 2.0, 3.0])


def test_steps_strictly_increasing_after_random_enqueues():
    q = FeatureQueue(capacity=7, d_feat=3)
    rng = np.random.default_rng(3)
    for _ in range(40):
        m = int(rng.integers(1, 8))
        enqueue_batch(q, feats(rng, m, 3), rng.integers(0, 5, size=m))
        steps = q.steps_enqueued()
        assert np.all(np.diff(steps) > 0)
        assert q.size <= q.capacity


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 12),
    st.sampled_from([1, 3, 8, 33]),
    st.lists(st.integers(1, 12), min_size=1, max_size=30),
    st.integers(0, 2**32 - 1),
)
def test_queue_matches_list_fifo_model(capacity, d, batch_sizes, seed):
    # partial fills, batches of every size up to the capacity, and enough
    # enqueues to move the block inside its storage several times
    q = FeatureQueue(capacity=capacity, d_feat=d)
    rng = np.random.default_rng(seed)
    model = []  # (feature row, label, step), oldest first
    step = 0
    for m in batch_sizes:
        m = min(m, capacity)
        rows = rng.normal(size=(m, d)) * rng.uniform(0.1, 10.0, size=(m, 1))
        labels = rng.integers(0, 5, size=m)
        enqueue_batch(q, rows, labels)
        model += [(rows[i], int(labels[i]), step + i) for i in range(m)]
        model = model[-capacity:]
        step += m
        assert q.size == len(q) == len(model)
        assert np.array_equal(q.features(), np.array([e[0] for e in model]))
        assert np.array_equal(q.labels(), [e[1] for e in model])
        assert np.array_equal(q.steps_enqueued(), [e[2] for e in model])
        # norms cached at enqueue equal the norms of the whole block, bit for bit
        assert q._rows[:, -1].tobytes() == np.linalg.norm(q.features(), axis=1).tobytes()


def old_fold(sim, a, q):
    """The fold with its minus sign on the right, ``[a, b_theta|a|] .
    [q, -|q|]``, as it was before the queue kept ``[q, |q|]`` rows; the
    other kinds' folds did not change."""
    if sim.kind != "generalized_inner":
        return _fold_left(sim, a), _fold_right(sim, q)
    na, nq = np.linalg.norm(a, axis=1), np.linalg.norm(q, axis=1)
    return np.column_stack((a, sim.b_theta * na)), np.column_stack((q, -nq))


def old_grad_left(sim, a, q, ds):
    """`score_matrix_grad_left` as it was before the queue kept ``[q, |q|]``
    rows (for generalized_inner, one product for ds @ q and a second for the
    bias term's ds @ |q|; no zero-norm rows here), and per row of ``a`` the
    sum of the magnitudes of the terms its entries add up."""
    na, nq = np.linalg.norm(a, axis=1), np.linalg.norm(q, axis=1)
    if sim.kind in ("inner", "generalized_inner"):
        scale = np.abs(ds) @ nq
        if sim.kind == "inner":
            return ds @ q, 0.0, scale
        d_a = ds @ q
        d_a -= sim.b_theta * ((ds @ nq) / na)[:, None] * a
        return d_a, -float(na @ ds @ nq), scale
    cos = (a @ q.T) * (1.0 / np.outer(na, nq))
    d_a = (ds / nq[None, :]) @ q / na[:, None]
    d_a -= ((ds * cos).sum(axis=1) / na**2)[:, None] * a
    return d_a, 0.0, 2.0 * np.abs(ds).sum(axis=1) / na


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 12),
    st.sampled_from([1, 3, 8, 33]),
    st.lists(st.integers(1, 12), min_size=1, max_size=20),
    st.integers(1, 6),
    st.floats(0.0, 0.99),
    st.integers(0, 2**32 - 1),
)
def test_stored_rows_are_the_folded_right_side(capacity, d, batch_sizes, mb, b_theta, seed):
    # after every enqueue (partial fills, then moves of the live block back
    # to the start of its storage): the stored [f, |f|] rows hold the
    # features and their norms bit for bit, form_pairs scores against them
    # as score_matrix scores the plain features, the step's gradient call
    # on them (score_matrix_grad_left against the stored rows) matches the
    # two-product form it replaced, and moving the fold's minus sign to the
    # left leaves score_rows and the eval walk as they were, bit for bit
    q = FeatureQueue(capacity=capacity, d_feat=d)
    rng = np.random.default_rng(seed)
    for m in batch_sizes:
        m = min(m, capacity)
        rows = rng.normal(size=(m, d)) * rng.uniform(0.1, 10.0, size=(m, 1))
        enqueue_batch(q, rows, rng.integers(0, 3, size=m))
        stored = q.features()
        assert q._rows[:, :-1].tobytes() == stored.tobytes()
        assert q._rows[:, -1].tobytes() == np.linalg.norm(stored, axis=1).tobytes()
        a = rng.normal(size=(mb, d)) * rng.uniform(0.1, 10.0, size=(mb, 1))
        na = np.linalg.norm(a, axis=1)
        ds = rng.normal(size=(mb, q.size))
        for name in KINDS:
            sim = SimilarityKind(name, b_theta=b_theta)
            pairs = form_pairs(q, a, rng.integers(0, 3, size=mb), sim, batch_norms=na)
            assert pairs.scores.tobytes() == score_matrix(sim, a, stored).ravel().tobytes()
            d_a, d_bt = score_matrix_grad_left(sim, a, q._feat, ds, na=na, qn=q._rows)
            want, want_bt, scale = old_grad_left(sim, a, stored, ds)
            assert np.all(np.abs(d_a - want) <= 1e-14 * scale[:, None])
            assert abs(d_bt - want_bt) <= 1e-14 * float(na @ scale)
        sim = SimilarityKind("generalized_inner", b_theta=b_theta)
        k = min(mb, q.size)
        left, right = old_fold(sim, a[:k], stored[:k])
        assert (
            score_rows(sim, a[:k], stored[:k]).tobytes()
            == np.einsum("ij,ij->i", left, right).tobytes()
        )
        labels = q.labels()
        t = float(np.median(score_matrix(sim, stored, stored)))
        with mock.patch.multiple(
            ev,
            _fold_left=lambda sim, a: old_fold(sim, a, a)[0],
            _fold_right=lambda sim, q: old_fold(sim, q, q)[1],
        ):
            want = _upper_walk(stored, sim, labels=labels, threshold=t)
        got = _upper_walk(stored, sim, labels=labels, threshold=t)
        assert repr(got[0]) == repr(want[0])
        assert np.array_equal(got[1], want[1]) and got[2] == want[2]


def test_batch_larger_than_capacity_rejected():
    q = FeatureQueue(capacity=2, d_feat=2)
    with pytest.raises(ConfigError):
        enqueue_batch(q, np.zeros((3, 2)), [0, 1, 2])


def test_label_length_mismatch_rejected():
    q = FeatureQueue(capacity=4, d_feat=2)
    with pytest.raises(ValueError):
        enqueue_batch(q, np.zeros((2, 2)), [0])


def test_non_integer_class_ids_rejected():
    # 0.5 and 1.7 would otherwise be stored (or paired) as classes 0 and 1
    q = FeatureQueue(capacity=4, d_feat=2)
    with pytest.raises(ConfigError, match=r"got 0.5"):
        enqueue_batch(q, np.zeros((2, 2)), [0.5, 1.7])
    assert q.size == 0
    enqueue_batch(q, np.ones((2, 2)), [0, 1])
    with pytest.raises(ConfigError, match=r"got 0.2"):
        form_pairs(q, np.ones((2, 2)), [0.2, 1.9], SimilarityKind())


def test_stored_features_are_a_snapshot():
    q = FeatureQueue(capacity=4, d_feat=2)
    block = np.ones((2, 2))
    enqueue_batch(q, block, [0, 1])
    before = q.features()
    block[:] = -7.0  # caller mutates its own array afterwards
    assert np.array_equal(q.features(), before)


def test_form_pairs_count_and_index_layout():
    q = FeatureQueue(capacity=8, d_feat=3)
    rng = np.random.default_rng(1)
    qf = feats(rng, 4, 3)
    enqueue_batch(q, qf, [0, 1, 2, 3])
    bf = feats(rng, 2, 3)
    pairs = form_pairs(q, bf, [1, 9], SimilarityKind("inner"))
    assert len(pairs) == 8
    # row-major: pair p is (batch row, queue slot) = divmod(p, queue size)
    for p in range(8):
        i, j = divmod(p, 4)
        assert pairs.scores[p] == pytest.approx(bf[i] @ qf[j], rel=1e-12)
    assert np.array_equal(pairs.labels, [0, 1, 0, 0, 0, 0, 0, 0])


def test_form_pairs_scores_match_scalar_scores():
    rng = np.random.default_rng(5)
    for name in KINDS:
        sim = SimilarityKind(name)
        q = FeatureQueue(capacity=8, d_feat=5)
        qf = rng.normal(size=(6, 5))
        enqueue_batch(q, qf, rng.integers(0, 3, size=6))
        bf = rng.normal(size=(3, 5))
        pairs = form_pairs(q, bf, [0, 1, 2], sim)
        for p in range(len(pairs)):
            i, j = divmod(p, q.size)
            assert_allclose(pairs.scores[p], score(sim, bf[i], qf[j]), rtol=1e-12)


def test_form_pairs_label_agreement():
    sim = SimilarityKind("inner")
    rng = np.random.default_rng(2)
    q = FeatureQueue(capacity=4, d_feat=2)
    enqueue_batch(q, feats(rng, 4, 2), [7, 7, 7, 7])
    same = form_pairs(q, feats(rng, 2, 2), [7, 7], sim)
    assert np.all(same.labels == 1)
    disjoint = form_pairs(q, feats(rng, 2, 2), [1, 2], sim)
    assert np.all(disjoint.labels == 0)
    mixed = form_pairs(q, feats(rng, 2, 2), [7, 0], sim)
    assert np.array_equal(mixed.labels, [1, 1, 1, 1, 0, 0, 0, 0])


def test_form_pairs_empty_queue_rejected():
    q = FeatureQueue(capacity=4, d_feat=2)
    with pytest.raises(DegenerateInputError):
        form_pairs(q, np.ones((1, 2)), [0], SimilarityKind("inner"))


def test_form_pairs_does_not_mutate_queue():
    rng = np.random.default_rng(4)
    q = FeatureQueue(capacity=4, d_feat=2)
    enqueue_batch(q, feats(rng, 3, 2), [0, 1, 2])
    before_f, before_l = q.features(), q.labels()
    form_pairs(q, feats(rng, 2, 2), [0, 1], SimilarityKind("cosine"))
    assert np.array_equal(q.features(), before_f)
    assert np.array_equal(q.labels(), before_l)


def test_pos_neg_ratio_values():
    assert pos_neg_ratio(PairBatch(np.zeros(3), [1, 1, 1])) == 1.0
    assert pos_neg_ratio(PairBatch(np.zeros(3), [0, 0, 0])) == 0.0
    assert pos_neg_ratio(PairBatch(np.zeros(8), [1, 0, 0, 1, 0, 0, 0, 0])) == 0.25


def test_pos_neg_ratio_empty_rejected():
    with pytest.raises(DegenerateInputError):
        pos_neg_ratio(PairBatch(np.zeros(0), np.zeros(0, dtype=int)))
