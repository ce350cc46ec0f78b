"""Verification metrics against brute-force oracles, clustering guarantees.

The oracles below re-derive every metric with plain Python loops and are
deliberately independent of the library implementations.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from numpy.testing import assert_allclose
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from pairsim import (
    ConfigError,
    DegenerateInputError,
    ShapeError,
    SimilarityKind,
    cluster_by_threshold,
    clustering_accuracy,
    compute_eer,
    desideratum_audit,
    evaluate,
    report_to_json,
    roc_points,
    sample_pair_indices,
    score,
    score_pairs,
    tpr_at_far,
)
import pairsim.evaluation as ev
from pairsim.encoder import init_encoder
from pairsim.evaluation import _BLOCK, _TILE, _upper_walk
from pairsim.numkit import Rng, unit_rows
from pairsim.similarity import _fold_left, score_matrix
from pairsim.trainer import encode

# three forms of the one score: the generalized inner product, the plain
# inner product (b_theta 0) and the cosine (b_theta 0 over unit rows, as
# under train.normalize_features)
FORMS = ("generalized_inner", "inner", "cosine")


def in_form(form, feats, b_theta=0.3):
    """(rows, sim) that score ``feats`` in ``form``, one of `FORMS`."""
    if form == "cosine":
        feats = unit_rows(np.asarray(feats, dtype=np.float64))[0]
    return feats, SimilarityKind(b_theta if form == "generalized_inner" else 0.0)


# ----- oracles ---------------------------------------------------------


def eer_oracle(pos, neg):
    """Exhaustive candidate sweep: midpoints of sorted unique scores plus
    +-inf, FRR = frac(pos < t), FAR = frac(neg >= t), linear interpolation
    at the sign change of FAR - FRR."""
    uniq = sorted(set(pos) | set(neg))
    cands = [-math.inf]
    cands += [(a + b) / 2.0 for a, b in zip(uniq[:-1], uniq[1:])]
    cands += [math.inf]
    frr = [sum(p < t for p in pos) / len(pos) for t in cands]
    far = [sum(s >= t for s in neg) / len(neg) for t in cands]
    diff = [a - b for a, b in zip(far, frr)]
    k = max(i for i, d in enumerate(diff) if d >= 0)
    lam = diff[k] / (diff[k] - diff[k + 1])
    return (1.0 - lam) * far[k] + lam * far[k + 1]


def tpr_oracle(pos, neg, target):
    """Every distinct score at or below the top negative, in order; the
    smallest with FAR <= target wins, and TPR = 1 - frac(pos < t).  Returns
    (tpr, clamped)."""
    cands = sorted(s for s in set(pos) | set(neg) if s <= max(neg))
    for t in cands:
        far = sum(s >= t for s in neg) / len(neg)
        if far <= target:
            return 1.0 - sum(p < t for p in pos) / len(pos), False
    t = cands[-1]
    return 1.0 - sum(p < t for p in pos) / len(pos), True


def margin_oracle(features, labels, sim):
    mn, mx = math.inf, -math.inf
    n = len(labels)
    for i in range(n):
        for j in range(i + 1, n):
            s = score(sim, features[i], features[j])
            if labels[i] == labels[j]:
                mn = min(mn, s)
            else:
                mx = max(mx, s)
    return mn - mx


def dense_upper(features, sim):
    """The full score matrix and the (i, j) indices of its i < j pairs
    (``score_matrix`` is pinned to the scalar ``score`` in test_similarity)."""
    full = score_matrix(sim, features, features)
    ii, jj = np.triu_indices(len(features), 1)
    return full, ii, jj


# b_theta for exact scores: a power of two, like the rows' norms below
EXACT_B_THETA = 0.25


def exact_features(rng, n):
    """Nonzero small-integer rows in 8 dimensions whose norms are 1, 2 or 4:
    +-1, +-2 or +-4 on one axis, or +-1 or +-2 on four of the axes.

    The scores fold the bias term and the norms into one matmul, whose
    rounding depends on how BLAS tiles the rows.  Here every step is exact
    (the dot products, the norms, the unit rows of the cosine form, and
    the bias term under `EXACT_B_THETA`), so a pair's score does not
    depend on its block or on which of its rows comes first."""
    signs = rng.choice([-1.0, 1.0], size=(n, 8))
    four = np.argsort(rng.random((n, 8)), axis=1) < 4
    spread = np.where(four, rng.choice([1.0, 2.0], size=(n, 1)), 0.0)
    axis = np.eye(8)[rng.integers(0, 8, size=n)] * rng.choice([1.0, 2.0, 4.0], size=(n, 1))
    return signs * np.where(rng.random((n, 1)) < 0.5, spread, axis)


# ----- EER -------------------------------------------------------------


def test_eer_perfect_separation():
    eer, t = compute_eer([0.9, 0.8], [0.1, 0.2])
    assert eer == 0.0
    assert 0.2 < t < 0.8


def test_eer_identical_sets_is_chance():
    eer, _ = compute_eer([0.3, 0.7], [0.3, 0.7])
    assert eer == 0.5


def test_eer_interleaved_example():
    eer, t = compute_eer([0.8, 0.2], [0.7, 0.1])
    assert eer == 0.5
    assert 0.2 < t <= 0.7


def test_eer_matches_oracle_on_random_inputs():
    rng = np.random.default_rng(0)
    for trial in range(60):
        npos = int(rng.integers(1, 40))
        nneg = int(rng.integers(1, 40))
        pos = rng.normal(loc=0.3, size=npos)
        neg = rng.normal(size=nneg)
        if trial % 3 == 0:  # inject ties across and within sides
            pos = np.round(pos, 1)
            neg = np.round(neg, 1)
        got, _ = compute_eer(pos, neg)
        assert got == eer_oracle(pos.tolist(), neg.tolist())


def test_eer_affine_invariance():
    rng = np.random.default_rng(4)
    pos = rng.uniform(size=50)
    neg = rng.uniform(-1, 0.5, size=70)
    base, _ = compute_eer(pos, neg)
    for a, c in ((2.0, 0.0), (0.5, -3.0), (10.0, 7.0)):
        got, _ = compute_eer(a * pos + c, a * neg + c)
        assert got == base


def test_eer_threshold_is_an_operating_point():
    # at the returned threshold the two error rates agree to within one
    # sample's worth of probability on each side
    rng = np.random.default_rng(9)
    pos = rng.normal(1.0, 1.0, size=200)
    neg = rng.normal(-1.0, 1.0, size=300)
    eer, t = compute_eer(pos, neg)
    frr = np.mean(pos < t)
    far = np.mean(neg >= t)
    assert abs(frr - eer) <= 1.0 / 200 + 1e-12
    assert abs(far - eer) <= 1.0 / 300 + 1e-12


def test_eer_rejects_empty_side():
    # the EER, TPR@FAR and ROC share one check of their two score arrays
    for metric in (compute_eer, roc_points, lambda pos, neg: tpr_at_far(pos, neg, [0.1])):
        with pytest.raises(DegenerateInputError):
            metric([], [0.1])
        with pytest.raises(DegenerateInputError):
            metric([0.1], [])


# ----- TPR@FAR ---------------------------------------------------------


def test_tpr_worked_example():
    # cutting at the positive 0.3 accepts the same one negative as cutting
    # at the top negative 0.6, and every positive
    res = tpr_at_far([0.9, 0.8, 0.7, 0.3], [0.6, 0.2, 0.1, 0.05], [0.25])
    assert res == {"0.25": {"tpr": 1.0, "far": 0.25, "threshold": 0.3, "clamped": False}}


def test_tpr_perfect_separation_all_targets():
    for target in (1.0, 0.5, 1.0 / 3.0):
        r = tpr_at_far([2.0, 3.0, 4.0], [0.0, 0.5, 1.0], [target])[str(target)]
        assert r["tpr"] == 1.0
        assert not r["clamped"]
        assert r["far"] <= target


def test_tpr_target_zero_is_clamped():
    r = tpr_at_far([2.0, 3.0], [0.0, 1.0], [0.0])["0.0"]
    assert r["clamped"]
    assert r["threshold"] == 1.0  # strictest achievable operating point
    assert r["far"] == 0.5
    assert r["tpr"] == 1.0


def test_tpr_matches_oracle_on_random_inputs():
    rng = np.random.default_rng(1)
    for _ in range(50):
        pos = rng.normal(0.5, 1.0, size=int(rng.integers(2, 60)))
        neg = rng.normal(size=int(rng.integers(2, 60)))
        target = float(rng.uniform())
        got = tpr_at_far(pos, neg, [target])[str(target)]
        want_tpr, want_clamped = tpr_oracle(pos.tolist(), neg.tolist(), target)
        assert got["tpr"] == want_tpr
        assert got["clamped"] == want_clamped
        assert got["far"] == np.mean(neg >= got["threshold"])
        assert got["clamped"] or got["far"] <= target


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(0, 12), min_size=1, max_size=30),
    st.lists(st.integers(0, 12), min_size=1, max_size=30),
    st.sampled_from([0.0, 0.01, 0.1, 0.25, 1 / 3, 0.5, 1.0]),
)
@example([9, 8, 7, 3], [6, 2, 1, 0], 0.25)
def test_tpr_at_far_is_the_rocs_best_point(pos, neg, target):
    # every unclamped entry is the highest-TPR ROC point with 0 < FAR <= target
    # (integer scores, so ties inside and across the sides are common)
    pos, neg = np.asarray(pos) / 4.0, np.asarray(neg) / 4.0
    got = tpr_at_far(pos, neg, [target])[str(target)]
    roc = roc_points(pos, neg)
    inside = [tpr for far, tpr in roc if 0.0 < far <= target]
    assert got["clamped"] == (not inside)
    if inside:
        assert got["tpr"] == max(inside)
        assert (got["far"], got["tpr"]) in roc


def test_tpr_rejects_bad_target():
    with pytest.raises(ConfigError):
        tpr_at_far([1.0], [0.0], [1.5])


# ----- ROC -------------------------------------------------------------


def test_roc_endpoints_and_monotonicity():
    rng = np.random.default_rng(2)
    pts = roc_points(rng.normal(1, 1, 80), rng.normal(0, 1, 90))
    assert pts[0] == (0.0, 0.0)
    assert pts[-1] == (1.0, 1.0)
    fars = [p[0] for p in pts]
    tprs = [p[1] for p in pts]
    assert fars == sorted(fars)
    assert tprs == sorted(tprs)


def test_roc_perfect_separation_hits_corner():
    assert (0.0, 1.0) in roc_points([1.0, 2.0], [-1.0, -2.0])


def roc_reference(pos, neg):
    """Sweep every distinct score from the strictest down, count pos < t and
    neg >= t directly, and keep each (far, tpr) that differs from the last
    point kept."""
    pos, neg = np.asarray(pos, dtype=np.float64), np.asarray(neg, dtype=np.float64)
    pts = [(0.0, 0.0)]
    for t in np.unique(np.concatenate([pos, neg]))[::-1]:
        f = np.count_nonzero(neg >= t) / neg.size
        tp = 1.0 - np.count_nonzero(pos < t) / pos.size
        if (f, tp) != pts[-1]:
            pts.append((float(f), float(tp)))
    return pts


def test_roc_points_match_reference_loop():
    rng = np.random.default_rng(3)
    for case in range(400):
        n_pos, n_neg = (int(k) for k in rng.integers(1, 40, size=2))
        kind = case % 4
        if kind == 0:
            # a single score per side, tied across the sides a third of the time
            pos, neg = rng.integers(0, 3, size=1), rng.integers(0, 3, size=1)
        elif kind == 1:
            # perfect separation
            pos, neg = rng.normal(5, 1, n_pos), rng.normal(-5, 1, n_neg)
        elif kind == 2:
            # few distinct values: ties inside each side and across the sides
            pos, neg = rng.integers(0, 4, n_pos), rng.integers(0, 4, n_neg)
        else:
            # overlapping continuous scores with a run of ties inside one side
            pos, neg = rng.normal(1, 1, n_pos), rng.normal(0, 1, n_neg)
            neg[: n_neg // 2] = neg[0]
        got = roc_points(pos, neg)
        assert got == roc_reference(pos, neg)
        assert all(type(p) is tuple and len(p) == 2 for p in got)
        assert all(type(x) is float for p in got for x in p)
        if kind == 1:
            assert (0.0, 1.0) in got


# ----- pair sampling ---------------------------------------------------


def test_sample_and_score_pairs_minimal_case():
    feats = np.array([[1.0, 0.0], [1.0, 0.1], [0.0, 1.0], [0.1, 1.0]])
    labels = [0, 0, 1, 1]
    pos, neg = sample_pair_indices(labels, 1, 1, seed=3)
    assert pos.shape == (1, 2) and neg.shape == (1, 2)
    la = np.asarray(labels)
    assert la[pos[0, 0]] == la[pos[0, 1]]
    assert la[neg[0, 0]] != la[neg[0, 1]]
    unit, sim = in_form("cosine", feats)
    pos_scores, neg_scores = score_pairs(sim, unit, pos, neg)
    assert pos_scores.shape == (1,) and neg_scores.shape == (1,)
    assert pos_scores[0] > neg_scores[0]


def test_sample_pair_indices_exhausts_population():
    labels = [0, 0, 0, 1, 1, 1]  # 6 intra, 9 inter
    pos, neg = sample_pair_indices(labels, 6, 9, seed=0)
    as_sets = {tuple(p) for p in pos.tolist()}
    assert len(as_sets) == 6
    la = np.asarray(labels)
    assert all(la[i] == la[j] for i, j in pos.tolist())
    assert all(la[i] != la[j] for i, j in neg.tolist())
    assert len({tuple(p) for p in neg.tolist()}) == 9


def test_sample_pair_indices_overrequest_rejected():
    labels = [0, 0, 1, 1]
    with pytest.raises(ConfigError):
        sample_pair_indices(labels, 3, 1, seed=0)
    with pytest.raises(ConfigError):
        sample_pair_indices(labels, 1, 5, seed=0)
    # a request of zero is met with empty sides, with or without any
    # same-class pair to draw from
    for labels in ([0, 0, 1, 1], [0, 1, 2, 3]):
        for side in sample_pair_indices(labels, 0, 0, seed=0):
            assert side.shape == (0, 2) and side.dtype == np.int64


@pytest.mark.parametrize("num_pos, num_neg", [(-5, 1), (1, -1)])
def test_sample_pair_indices_negative_request_rejected(num_pos, num_neg):
    with pytest.raises(ConfigError, match=r"pair requests must be >= 0"):
        sample_pair_indices([0, 0, 1, 1], num_pos, num_neg, seed=0)


def test_sample_pair_indices_deterministic():
    labels = np.repeat(np.arange(5), 8)
    a = sample_pair_indices(labels, 30, 60, seed=9)
    b = sample_pair_indices(labels, 30, 60, seed=9)
    c = sample_pair_indices(labels, 30, 60, seed=10)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    assert not (np.array_equal(a[0], c[0]) and np.array_equal(a[1], c[1]))


def test_sample_pair_indices_no_duplicates_and_uniformish():
    labels = np.repeat(np.arange(4), 10)
    pos, neg = sample_pair_indices(labels, 70, 400, seed=5)
    assert len({tuple(p) for p in pos.tolist()}) == 70
    assert len({tuple(p) for p in neg.tolist()}) == 400
    # every pair is unordered and canonical
    assert np.all(pos[:, 0] < pos[:, 1])
    assert np.all(neg[:, 0] < neg[:, 1])


def pair_sides(labels):
    """Every same-class and every cross-class pair i < j, by double loop."""
    pos, neg = set(), set()
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            (pos if labels[i] == labels[j] else neg).add((i, j))
    return pos, neg


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.sampled_from([0, 1, 3, 7, 10**15, 2 * 10**15]), max_size=40),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.integers(0, 2**32 - 1),
)
@example(labels=[], pos_frac=1.0, neg_frac=1.0, seed=0)
def test_sample_pair_indices_matches_brute_force_sides(labels, pos_frac, neg_frac, seed):
    # unsorted, gapped and sparse ids: a full request returns exactly every
    # pair of its side, a partial one distinct canonical pairs of that side
    want_pos, want_neg = pair_sides(labels)
    for pos_frac, neg_frac in ((1.0, 1.0), (pos_frac, neg_frac)):
        num_pos, num_neg = round(len(want_pos) * pos_frac), round(len(want_neg) * neg_frac)
        pos, neg = sample_pair_indices(labels, num_pos, num_neg, seed)
        for side, num, want in ((pos, num_pos, want_pos), (neg, num_neg, want_neg)):
            assert side.dtype == np.int64 and side.shape == (num, 2)
            got = {tuple(p) for p in side.tolist()}
            assert len(got) == num and got <= want
            assert np.all(side[:, 0] < side[:, 1])


@pytest.mark.parametrize(
    "labels",
    [
        [0, 0, 0, 1, 1, 1],
        [3, 1, 3, 3, 0, 1, 1],  # unsorted, with a gap in the class ids
        [0, 1, 2],  # no same-class pair
        [5],
        np.random.default_rng(6).integers(0, 7, size=300),
    ],
)
def test_same_class_pairs_match_triangle_enumeration(labels):
    # a full request returns exactly the pairs the i < j triangle lists on
    # each side, as canonical int64 rows; the order they come in is the
    # seed's draw
    labels = np.asarray(labels, dtype=np.int64)
    ii, jj = np.triu_indices(labels.size, k=1)
    same = labels[ii] == labels[jj]
    pos, neg = sample_pair_indices(labels, int(same.sum()), int((~same).sum()), seed=0)
    for side, keep in ((pos, same), (neg, ~same)):
        assert side.dtype == np.int64
        assert sorted(map(tuple, side.tolist())) == list(zip(ii[keep].tolist(), jj[keep].tolist()))


def test_sample_pair_indices_is_uniform():
    # 12 rows in 3 classes have 48 cross-class pairs; 10 drawn per seed over
    # 4,000 seeds put each one about 833 times (binomial sd ~3%), and every
    # pair lands within 12% of that
    labels = np.repeat([0, 1, 2], 4)
    counts = {}
    for seed in range(4000):
        for pair in map(tuple, sample_pair_indices(labels, 0, 10, seed)[1].tolist()):
            counts[pair] = counts.get(pair, 0) + 1
    assert len(counts) == 48
    ratio = np.array(list(counts.values())) / (4000 * 10 / 48)
    assert 0.88 <= ratio.min() and ratio.max() <= 1.12, (ratio.min(), ratio.max())


def test_sample_pair_indices_sides_are_independent():
    # each side draws from its own stream: one side's request never moves
    # the other side's pairs
    labels = np.random.default_rng(4).integers(0, 5, size=60)
    pos, neg = sample_pair_indices(labels, 40, 100, seed=7)
    assert np.array_equal(sample_pair_indices(labels, 40, 900, seed=7)[0], pos)
    assert np.array_equal(sample_pair_indices(labels, 200, 100, seed=7)[1], neg)


def test_sample_pair_indices_memory_is_independent_of_the_population():
    # 6,400 rows in 16 classes have 19.2M cross-class and 1.28M same-class
    # pairs; 20,000 of each cost O(n + request) memory, about 2 MB, where
    # listing the cross-class side alone would take 300 MB
    labels = np.repeat(np.arange(16), 400)
    tracemalloc.start()
    try:
        pos, neg = sample_pair_indices(labels, 20_000, 20_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pos.shape == neg.shape == (20_000, 2)
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_score_pairs_reuses_fixed_indices():
    rng = np.random.default_rng(7)
    feats = rng.normal(size=(12, 4))
    labels = np.repeat([0, 1, 2], 4)
    sim = SimilarityKind()
    pos, neg = sample_pair_indices(labels, 5, 5, seed=1)
    pos_scores, neg_scores = score_pairs(sim, feats, pos, neg)
    for k in range(5):
        i, j = pos[k]
        assert_allclose(pos_scores[k], score(sim, feats[i], feats[j]), rtol=1e-12)
        i, j = neg[k]
        assert_allclose(neg_scores[k], score(sim, feats[i], feats[j]), rtol=1e-12)


# ----- separation margin ----------------------------------------------


def test_margin_positive_for_separated_point_clusters():
    a, b = np.array([3.0, 0.0]), np.array([0.0, 3.0])
    feats = np.vstack([a, a, a, b, b, b])
    labels = [0, 0, 0, 1, 1, 1]
    for name in ("generalized_inner", "cosine"):
        rows, sim = in_form(name, feats)
        assert desideratum_audit(rows, labels, sim) > 0


def test_margin_zero_when_all_features_identical():
    feats, sim = in_form("cosine", np.tile([1.0, 2.0], (6, 1)))
    labels = [0, 0, 0, 1, 1, 1]
    assert desideratum_audit(feats, labels, sim) == 0.0


def test_margin_ignores_self_pairs():
    # under the plain inner product row 0 scores 1 with itself, below its
    # same-class pair score 2; only i < j pairs enter the margin
    feats = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
    assert desideratum_audit(feats, [0, 0, 1], SimilarityKind(0.0)) == 2.0


def test_margin_matches_exhaustive_oracle():
    rng = np.random.default_rng(3)
    for trial in range(8):
        n = int(rng.integers(6, 20))
        feats = rng.normal(size=(n, 3))
        labels = rng.integers(0, 3, size=n)
        if len(np.unique(labels)) < 2 or np.bincount(labels).max() < 2:
            continue
        for name in FORMS:
            rows, sim = in_form(name, feats)
            got = desideratum_audit(rows, labels, sim)
            assert_allclose(got, margin_oracle(rows, labels, sim), rtol=1e-12)


def test_margin_negative_for_shuffled_labels_on_clusters():
    rng = np.random.default_rng(8)
    feats = np.vstack([
        rng.normal(loc=(6.0, 0.0), scale=0.1, size=(10, 2)),
        rng.normal(loc=(0.0, 6.0), scale=0.1, size=(10, 2)),
    ])
    labels = rng.permutation(np.repeat([0, 1], 10))
    feats, sim = in_form("cosine", feats)
    got = desideratum_audit(feats, labels, sim)
    assert got < 0
    assert_allclose(got, margin_oracle(feats, labels, sim), rtol=1e-12)


def test_margin_requires_both_pair_kinds():
    feats = np.eye(3)
    with pytest.raises(DegenerateInputError):
        desideratum_audit(feats, [0, 0, 0], SimilarityKind())
    with pytest.raises(DegenerateInputError):
        desideratum_audit(feats, [0, 1, 2], SimilarityKind())


def test_margin_blocking_matches_single_block():
    # several row blocks plus a ragged last one, against one dense matrix
    rng = np.random.default_rng(11)
    feats = rng.normal(size=(600, 3))
    labels = rng.integers(0, 4, size=600)
    assert 600 > 4 * _BLOCK and 600 % _BLOCK
    for name in FORMS:
        rows, sim = in_form(name, feats)
        full, ii, jj = dense_upper(rows, sim)
        same = labels[ii] == labels[jj]
        want = full[ii, jj][same].min() - full[ii, jj][~same].max()
        assert_allclose(desideratum_audit(rows, labels, sim), want, rtol=1e-12)


def walk_case(kind, n, classes, seed, cut, layout):
    """Exact rows, labels in the given layout, the dense scores and a cut.

    A threshold equal to an observed score pins the strict inequality;
    cut < 0 and cut > 1 put it below and above every score."""
    rng = np.random.default_rng(seed)
    feats, sim = in_form(kind, exact_features(rng, n), EXACT_B_THETA)
    labels = rng.integers(0, classes, size=n)
    if layout != "shuffled":
        labels = np.sort(labels)[:: -1 if layout == "descending" else 1]
    full, ii, jj = dense_upper(feats, sim)
    upper = full[ii, jj]
    t = float(np.quantile(upper, min(max(cut, 0.0), 1.0), method="lower")) if upper.size else 0.0
    t += -1.0 if cut < 0 else 1.0 if cut > 1 else 0.0
    return feats, labels, sim, full, t


def hot_columns(labels, full, t):
    """(hot, outside): over the walk's blocks in class order, the columns
    right of each block's class band, and those whose max clears ``t``."""
    order = np.argsort(labels, kind="stable")
    labels, full = labels[order], full[np.ix_(order, order)]
    hot = outside = 0
    for lo in range(0, labels.size, _BLOCK):
        hi = min(lo + _BLOCK, labels.size)
        end = int(np.searchsorted(labels, labels[hi - 1], side="right"))
        outside += labels.size - end
        hot += int(np.count_nonzero((full[lo:hi, end:] > t).any(axis=0)))
    return hot, outside


# cross-class pairs clear the cut right of the class bands (hot columns,
# several roots), no column clears it, and every column clears it
HOT_CASES = {
    "some": dict(kind="generalized_inner", n=3 * _BLOCK + 9, classes=6, seed=11, cut=0.99,
                 layout="sorted"),
    "none": dict(kind="cosine", n=3 * _BLOCK + 9, classes=6, seed=12, cut=1.0,
                 layout="shuffled"),
    "all": dict(kind="cosine", n=2 * _BLOCK + 40, classes=5, seed=13, cut=-1.0,
                layout="descending"),
}
# labels in reverse class order: the walk takes its rows in a permuted order
DESCENDING = dict(kind="cosine", n=2 * _BLOCK + 7, classes=5, seed=5, cut=0.6,
                  layout="descending")


def test_hot_column_cases_take_their_paths():
    feats, labels, sim, full, t = walk_case(**HOT_CASES["some"])
    hot, outside = hot_columns(labels, full, t)
    assert 0 < hot < outside
    # labels sorted, so the walk order is the input order: the first
    # block's rows fall in several clusters, so they have several roots
    comp = cluster_by_threshold(feats, sim, t)
    assert 1 < np.unique(comp[:_BLOCK]).size < _BLOCK
    _, labels, _, full, t = walk_case(**HOT_CASES["none"])
    hot, outside = hot_columns(labels, full, t)
    assert hot == 0 < outside
    _, labels, _, full, t = walk_case(**HOT_CASES["all"])
    hot, outside = hot_columns(labels, full, t)
    assert 0 < hot == outside
    labels = walk_case(**DESCENDING)[1]
    assert np.any(labels[1:] < labels[:-1])  # the walk's test for a permutation


@pytest.mark.parametrize("case", ["some", "all"])
def test_hot_columns_compared_in_slices_match_the_dense_oracle(monkeypatch, case):
    # the walk scores a block's cross-class rest `_TILE` columns at a time
    # and takes each tile's hot columns from it; these blocks are narrower
    # than one tile, so a 7-column tile makes several per block, the last
    # one short
    feats, labels, sim, full, t = walk_case(**HOT_CASES[case])
    assert hot_columns(labels, full, t)[0] > 7
    n = labels.size
    ii, jj = np.triu_indices(n, 1)
    upper, same = full[ii, jj], labels[ii] == labels[jj]
    adj = full > t
    np.fill_diagonal(adj, False)
    _, want_comp = connected_components(csr_matrix(adj), directed=False)
    monkeypatch.setattr(ev, "_TILE", 7)
    _, comp, (rejects, accepts) = _upper_walk(feats, sim, labels=labels, threshold=t)
    assert np.array_equal(comp, want_comp)
    assert rejects == np.count_nonzero(upper[same] <= t)
    assert accepts == np.count_nonzero(upper[~same] > t)


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(FORMS),
    n=st.integers(1, 3 * _BLOCK + 17),
    classes=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    cut=st.floats(0.0, 1.0),
    layout=st.sampled_from(("shuffled", "sorted", "descending")),
)
@example(kind="generalized_inner", n=_BLOCK, classes=3, seed=0, cut=0.5, layout="shuffled")
@example(kind="cosine", n=3 * _BLOCK, classes=4, seed=1, cut=0.9, layout="shuffled")
@example(kind="cosine", n=2 * _BLOCK + 1, classes=2, seed=2, cut=0.99, layout="shuffled")
# many small classes: a block spans dozens of class runs and several roots
@example(kind="generalized_inner", n=3 * _BLOCK + 5, classes=90, seed=3, cut=0.8, layout="sorted")
@example(kind="cosine", n=2 * _BLOCK + 3, classes=60, seed=4, cut=0.7, layout="shuffled")
# the permutation path on labels walked in reverse class order
@example(**DESCENDING)
@example(kind="inner", n=3 * _BLOCK, classes=40, seed=6, cut=0.9, layout="descending")
# cuts below every score (one component) and above every score (singletons)
@example(kind="cosine", n=2 * _BLOCK + 11, classes=3, seed=7, cut=-1.0, layout="shuffled")
@example(kind="generalized_inner", n=2 * _BLOCK + 11, classes=3, seed=8, cut=2.0, layout="sorted")
# right of the class bands: some, no and every column clear the cut
@example(**HOT_CASES["some"])
@example(**HOT_CASES["none"])
@example(**HOT_CASES["all"])
def test_block_walk_matches_dense_oracle(kind, n, classes, seed, cut, layout):
    # the walk scores each i < j pair once in row blocks; the oracle scores
    # the whole dense matrix, takes the audit over its upper triangle and
    # the components of its symmetric above-threshold adjacency
    feats, labels, sim, full, t = walk_case(kind, n, classes, seed, cut, layout)
    ii, jj = np.triu_indices(n, 1)
    upper = full[ii, jj]
    adj = full > t
    np.fill_diagonal(adj, False)
    _, want_comp = connected_components(csr_matrix(adj), directed=False)
    assert np.array_equal(cluster_by_threshold(feats, sim, t), want_comp)
    same = labels[ii] == labels[jj]
    if not (same.any() and (~same).any()):
        with pytest.raises(DegenerateInputError):
            desideratum_audit(feats, labels, sim)
        return
    want_margin = float(upper[same].min() - upper[~same].max())
    assert desideratum_audit(feats, labels, sim) == want_margin
    # evaluate's single walk yields both at once, and the error counts at
    # the cut under the clustering's strict rule
    margin, comp, (rejects, accepts) = _upper_walk(feats, sim, labels=labels, threshold=t)
    assert margin == want_margin
    assert np.array_equal(comp, want_comp)
    assert rejects == np.count_nonzero(upper[same] <= t)
    assert accepts == np.count_nonzero(upper[~same] > t)


@pytest.mark.parametrize("kind", FORMS)
def test_walk_gives_the_same_margin_and_partition_in_any_row_order(kind):
    # float rows in class order, then a shuffled copy: the shuffled walk
    # sorts its rows back into class order, so every score keeps its bits;
    # the clusters are the same sets, numbered by their smallest input row
    rng = np.random.default_rng(9)
    n = 3 * _BLOCK + 21
    feats = rng.normal(size=(n, 5)) + 2.0 * rng.normal(size=(7, 5))[np.arange(n) % 7]
    labels = np.sort(np.arange(n) % 7)
    feats, sim = in_form(kind, feats)
    t = float(np.quantile(score_matrix(sim, feats[::9], feats[::9]), 0.95))
    margin, comp, counts = _upper_walk(feats, sim, labels=labels, threshold=t)
    assert 1 < np.unique(comp).size < n
    perm = rng.permutation(n)
    got_margin, got, got_counts = _upper_walk(feats[perm], sim, labels=labels[perm], threshold=t)
    assert repr(got_margin) == repr(margin)
    assert got_counts == counts
    # same partition: the pairs (comp[perm][i], got[i]) match one to one
    pairs = np.unique(np.stack([comp[perm], got]), axis=1)
    assert pairs.shape[1] == np.unique(comp).size == np.unique(got).size
    # numbered 0, 1, ... in order of each cluster's smallest row
    ids, firsts = np.unique(got, return_index=True)
    assert np.array_equal(ids, np.arange(ids.size)) and np.all(np.diff(firsts) > 0)
    assert np.array_equal(got, cluster_by_threshold(feats[perm], sim, t))


class _RecordedLeft(np.ndarray):
    """A block's left fold that records each product the walk takes with it."""

    products = None  # the list a test collects them in

    def __matmul__(self, other):
        out = self.view(np.ndarray) @ other
        self.products.append(out)
        return out


@pytest.mark.parametrize("kind", FORMS)
def test_walk_block_scores_equal_score_matrix_of_the_unfolded_rows(monkeypatch, kind):
    # the walk folds its rows once and takes each product, a block's class
    # band [lo, end) and then its cross-class tiles, with slices of the
    # folded rows; the products' columns run through [lo, n) in walk order,
    # and each keeps the bits score_matrix gives for the block's own rows
    # against the unfolded rows of its columns.  (Not those of one product
    # over all of [lo, n): BLAS may round a column differently in a product
    # of another width, e.g. OpenBLAS in a tail of a few columns.)
    rng = np.random.default_rng(5)
    feats = rng.normal(size=(3 * _BLOCK + 9, 7)) * rng.uniform(0.1, 10, size=(1, 7))
    feats, sim = in_form(kind, feats)
    labels = rng.integers(0, 6, size=feats.shape[0])
    walked = feats[np.argsort(labels, kind="stable")]
    ends = np.searchsorted(np.sort(labels), np.sort(labels), side="right")
    products = []
    monkeypatch.setattr(_RecordedLeft, "products", products)
    monkeypatch.setattr(ev, "_fold_left", lambda *a: _fold_left(*a).view(_RecordedLeft))
    monkeypatch.setattr(ev, "_TILE", 40)  # several tiles a block, the last one short
    _upper_walk(feats, sim, labels=labels, threshold=0.5)
    n, spans = walked.shape[0], []
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        end = ends[hi - 1]
        spans += [(lo, hi, lo, end)] + [(lo, hi, s, min(s + 40, n)) for s in range(end, n, 40)]
    assert [p.shape for p in products] == [(hi - lo, stop - start) for lo, hi, start, stop in spans]
    assert [lo for lo, _, start, _ in spans if start > lo].count(_BLOCK) > 1  # a full block's tiles
    for (lo, hi, start, stop), got in zip(spans, products):
        want = score_matrix(sim, walked[lo:hi], walked[start:stop])
        assert got.tobytes() == want.tobytes()


def traced_peak(run):
    """(run's result, the peak MiB tracemalloc saw while it ran)."""
    tracemalloc.start()
    try:
        return run(), tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_audit_and_clustering_memory_stays_blockwise():
    # One dense float64 score matrix for 4,000 rows is 128 MB.  The walk
    # holds one (block x n) block of scores at a time, 4 MB, and its edge
    # mask; its union-find forest is O(n) and a block adds at most one edge
    # per later row and root.  The peak is about 6 MB here, where the
    # threshold makes every pair an edge.  48 MB leaves room for allocator
    # and library differences while staying far below one dense matrix.
    rng = np.random.default_rng(12)
    feats = rng.normal(size=(4000, 8))
    labels = rng.integers(0, 4, size=4000)
    sim = SimilarityKind()

    def walks():
        comp = cluster_by_threshold(feats, sim, -1e9)
        desideratum_audit(feats, labels, sim)
        return comp

    comp, peak = traced_peak(walks)
    assert np.all(comp == 0)
    assert peak < 48, f"peak {peak:.1f} MB"


def test_eval_holds_one_score_tile_and_two_activations():
    # `pairsim eval` encodes its rows, then walks their pairs.  On 6,400
    # shuffled rows in 16 classes of 400, a block's class band is at most
    # 527 columns and a cross-class tile `_TILE` columns: each product is
    # about 0.5 MiB of float64.  The walk may hold one band, one tile,
    # the right fold of all rows (n x 33 floats, 1.6 MiB) and 1 MiB of slack
    # (a block's left fold, edge mask, label masks and column maxima, the
    # forest and the final numbering take it), but never a (128 x n) score
    # block, and no class-order copy of the rows once they are folded.  The
    # default encoder holds one layer's input and output, two (n x 64)
    # activations of 3.1 MiB, plus 256 KiB of slack, but no backprop cache.
    rng = np.random.default_rng(4)
    n, d = 6400, 32
    labels = np.repeat(np.arange(16), n // 16)
    feats = 3.0 * rng.normal(size=(16, d))[labels] + rng.normal(size=(n, d))
    perm = rng.permutation(n)
    feats, labels = feats[perm], labels[perm]
    sim = SimilarityKind()
    sub = score_matrix(sim, feats[::8], feats[::8])
    cross = labels[::8, None] != labels[None, ::8]
    cut = float(np.quantile(sub[cross], 0.9999))  # few cross-class pairs clear it
    net = init_encoder([d, 64, 64, d], Rng(0), "tanh")
    walk, walk_peak = traced_peak(lambda: _upper_walk(feats, sim, labels=labels, threshold=cut))
    enc, enc_peak = traced_peak(lambda: encode(net, feats))
    band = _BLOCK - 1 + 400  # at widest, the block's last row starts a class
    walk_bound = (_BLOCK * (band + _TILE) + n * (d + 1)) * 8 / 2**20 + 1.0
    enc_bound = 2 * n * 64 * 8 / 2**20 + 0.25
    assert walk_peak < walk_bound, f"walk peak {walk_peak:.2f} MiB, bound {walk_bound:.2f}"
    assert enc_peak < enc_bound, f"encode peak {enc_peak:.2f} MiB, bound {enc_bound:.2f}"
    assert 1 < walk[1].max() + 1 < n and enc.shape == (n, d)


@pytest.mark.parametrize("kind", FORMS)
def test_block_left_fold_keeps_the_bits_of_the_whole_fold(kind):
    # the walk folds each block's left rows when it reaches them; every
    # block must fold to the bits of its rows in the whole array's fold,
    # which the dense oracle, scoring exact features, cannot see
    rng = np.random.default_rng(8)
    for d in (1, 7, 8, 33):
        feats = rng.normal(size=(2 * _BLOCK + 9, d)) * rng.uniform(0.01, 100.0, size=(1, d))
        feats, sim = in_form(kind, feats, 0.37)
        whole = _fold_left(sim, feats)
        for lo in range(0, feats.shape[0], _BLOCK):
            block = _fold_left(sim, feats[lo : lo + _BLOCK])
            assert block.tobytes() == whole[lo : lo + _BLOCK].tobytes()


# ----- threshold clustering --------------------------------------------


def cluster_fixture():
    rng = np.random.default_rng(5)
    centers = np.array([[5.0, 0.0], [0.0, 5.0], [-5.0, -5.0]])
    feats = np.vstack([
        c + rng.normal(scale=0.05, size=(7, 2)) for c in centers
    ])
    labels = np.repeat([0, 1, 2], 7)
    return feats, labels


def test_cluster_threshold_extremes():
    feats, sim = in_form("cosine", cluster_fixture()[0])
    scores = [
        score(sim, feats[i], feats[j])
        for i in range(len(feats))
        for j in range(i + 1, len(feats))
    ]
    low = cluster_by_threshold(feats, sim, min(scores) - 1.0)
    assert len(np.unique(low)) == 1
    high = cluster_by_threshold(feats, sim, max(scores) + 1.0)
    assert len(np.unique(high)) == len(feats)


def test_positive_margin_gives_perfect_clustering():
    raw, labels = cluster_fixture()
    for name in ("generalized_inner", "cosine"):
        feats, sim = in_form(name, raw)
        margin = desideratum_audit(feats, labels, sim)
        assert margin > 0
        # any threshold strictly inside the margin interval works; compute
        # the interval endpoints from the audit definition
        n = len(labels)
        intra = [
            score(sim, feats[i], feats[j])
            for i in range(n)
            for j in range(i + 1, n)
            if labels[i] == labels[j]
        ]
        inter = [
            score(sim, feats[i], feats[j])
            for i in range(n)
            for j in range(i + 1, n)
            if labels[i] != labels[j]
        ]
        for t in (max(inter) + 1e-9, (max(inter) + min(intra)) / 2, min(intra) - 1e-9):
            pred = cluster_by_threshold(feats, sim, t)
            assert clustering_accuracy(pred, labels) == 1.0


def test_cluster_threshold_must_be_finite():
    feats, _ = cluster_fixture()
    with pytest.raises(ConfigError):
        cluster_by_threshold(feats, SimilarityKind(), np.inf)


def test_clustering_accuracy_is_permutation_invariant():
    truth = np.repeat([0, 1, 2], 5)
    pred = np.repeat([2, 0, 1], 5)  # same partition, renamed clusters
    assert clustering_accuracy(pred, truth) == 1.0
    assert clustering_accuracy(truth, truth) == 1.0


def test_clustering_accuracy_partial_credit():
    truth = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    pred = np.array([0, 0, 0, 1, 1, 1, 1, 1])
    assert clustering_accuracy(pred, truth) == 7 / 8


def test_clustering_accuracy_more_clusters_than_classes():
    truth = np.array([0, 0, 0, 1, 1, 1])
    pred = np.array([0, 0, 1, 2, 2, 2])
    assert clustering_accuracy(pred, truth) == 5 / 6


# small entries, so tied rows, columns and matchings are common
@settings(max_examples=400, deadline=None)
@given(arrays(np.int64, array_shapes(min_dims=2, max_dims=2, max_side=12),
              elements=st.integers(0, 3)))
@example(np.array([[0, 2, 1, 2]]))
@example(np.array([[0], [2], [1], [2]]))
@example(np.zeros((3, 5), dtype=np.int64))
def test_matched_total_is_scipys_optimal_assignment_total(table):
    rows, cols = linear_sum_assignment(table, maximize=True)
    assert ev._matched_total(table) == table[rows, cols].sum()


# ----- report ----------------------------------------------------------


def test_evaluate_report_round_trip():
    feats, labels = cluster_fixture()
    feats, sim = in_form("cosine", feats)
    rep = evaluate(feats, labels, sim,
                   num_pos=40, num_neg=80, seed=2, far_targets=(0.1, 0.01))
    doc = json.loads(report_to_json(rep))
    assert set(doc) == {
        "eer", "eer_threshold", "tpr_at_far", "roc",
        "desideratum_margin", "clustering_accuracy", "cut_errors",
    }
    # the report is its own JSON document
    assert doc == rep
    # tight clusters separate perfectly, and the EER threshold recovers them
    assert rep["eer"] == 0.0
    # 80 negatives reach FAR 0.1 but not 0.01, whose entry says so
    loose, strict = rep["tpr_at_far"]["0.1"], rep["tpr_at_far"]["0.01"]
    assert (loose["tpr"], loose["far"], loose["clamped"]) == (1.0, 0.1, False)
    assert strict["clamped"] and strict["far"] >= 1 / 80
    assert rep["desideratum_margin"] > 0
    assert rep["clustering_accuracy"] == 1.0
    # 3 classes of 7 rows: 3 * 21 same-class and 210 - 63 cross-class pairs
    assert doc["cut_errors"] == {
        "threshold": rep["eer_threshold"], "false_rejects": 0, "same_class_pairs": 63,
        "false_reject_rate": 0.0, "false_accepts": 0, "cross_class_pairs": 147,
        "false_accept_rate": 0.0,
    }
    # classes 0 and 1 sit 90 degrees apart and class 2 135 degrees from each,
    # so a cosine cut at -0.5 accepts the 49 pairs of classes 0 and 1
    cut = evaluate(feats, labels, sim, num_pos=40, num_neg=80,
                   seed=2, threshold=-0.5)["cut_errors"]
    assert (cut["false_accepts"], cut["false_accept_rate"]) == (49, 49 / 147)
    assert (cut["false_rejects"], cut["false_reject_rate"]) == (0, 0.0)


# floats whose json text is easy to get wrong: the ends, a short exponent,
# the smallest subnormal, and a sum that needs all 17 digits
AWKWARD = (0.0, 1.0, 1e-05, 5e-324, 0.1 + 0.2)


def test_report_to_json_writes_what_json_dumps_writes():
    # the ROC rows go in as one pre-formatted block; the text must stay the
    # bytes of json.dumps(doc, sort_keys=True, indent=2)
    rng = np.random.default_rng(17)
    for case in range(400):
        size = (1, 0, int(rng.integers(2, 50)))[case % 3]  # one point, none, many
        pool = np.r_[AWKWARD, rng.random(6), rng.random(3) * 1e-300]

        def pick(k=None):
            return rng.choice(pool, size=k).tolist()

        doc = {
            "eer": pick(),
            "eer_threshold": float(rng.choice(np.r_[pool, -pool, rng.normal(size=3) * 10])),
            "tpr_at_far": {
                str(t): {"tpr": pick(), "far": pick(), "threshold": pick(), "clamped": bool(c)}
                for t, c in ((0.1, 0), (0.01, rng.integers(2)))
            },
            "roc": [list(p) for p in zip(sorted(pick(size)), sorted(pick(size)))],
            "desideratum_margin": float(rng.normal() * 10),
            "clustering_accuracy": pick(),
            "cut_errors": {"threshold": pick(), "false_rejects": int(rng.integers(0, 9))},
        }
        want = json.dumps(doc, sort_keys=True, indent=2)
        assert report_to_json(doc) == want
        assert json.loads(want) == doc


def test_evaluate_clamps_pair_request():
    feats = np.vstack([np.eye(2) + 0.01 * k for k in range(2)])  # 4 rows
    labels = [0, 1, 0, 1]
    rep = evaluate(feats, labels, SimilarityKind(), num_pos=10**6, num_neg=10**6)
    assert 0.0 <= rep["eer"] <= 1.0


@pytest.mark.parametrize(
    "rows, labels, error",
    [
        (5, [0, 1] * 5, ShapeError),  # fewer rows than labels
        (12, [0, 1] * 5, ShapeError),  # more rows than labels
        (4, [0, 0, 0, 0], DegenerateInputError),  # no cross-class pair
        (4, [0, 1, 2, 3], DegenerateInputError),  # no same-class pair
    ],
)
def test_evaluate_checks_its_inputs_before_sampling(monkeypatch, rows, labels, error):
    def sample(*args):
        pytest.fail("pairs were sampled before the inputs were checked")

    monkeypatch.setattr(ev, "sample_pair_indices", sample)
    feats = np.random.default_rng(0).normal(size=(rows, 3))
    with pytest.raises(error):
        evaluate(feats, labels, SimilarityKind(), num_pos=3, num_neg=3)


def test_evaluate_ranks_sparse_class_ids():
    # gapped ids far apart (as eval reads them from a CSV) give the report
    # of ids 0..K-1; nothing is sized by the largest id
    feats, labels = cluster_fixture()
    labels = np.asarray(labels)
    sparse = (labels + 1) * 10**15 + labels * 2**61  # same order, gaps ~2**61
    for feats, sim in (in_form("cosine", feats), in_form("generalized_inner", feats)):
        dense_rep = evaluate(feats, labels, sim, num_pos=40, num_neg=80, seed=2)
        sparse_rep = evaluate(feats, sparse, sim, num_pos=40, num_neg=80, seed=2)
        assert report_to_json(sparse_rep) == report_to_json(dense_rep)


@pytest.mark.parametrize("entry", ["audit", "accuracy_pred", "accuracy_truth", "sample", "evaluate"])
def test_eval_entry_points_name_a_non_integer_class_id(entry):
    # [0.1, 0.9, 1.2, 1.8] would otherwise be audited as classes [0, 0, 1, 1]
    feats = np.array([[1.0, 0.0], [1.0, 0.1], [0.0, 1.0], [0.1, 1.0]])
    ids = [0.1, 0.9, 1.2, 1.8]
    calls = {
        "audit": lambda: desideratum_audit(feats, ids, SimilarityKind()),
        "accuracy_pred": lambda: clustering_accuracy(ids, [0, 0, 1, 1]),
        "accuracy_truth": lambda: clustering_accuracy([0, 0, 1, 1], ids),
        "sample": lambda: sample_pair_indices(ids, 1, 1, 0),
        "evaluate": lambda: evaluate(feats, ids, SimilarityKind(), num_pos=1, num_neg=1),
    }
    with pytest.raises(ConfigError, match=r"class ids must be int64 integers, got 0.1"):
        calls[entry]()


def test_public_eval_functions_accept_sparse_class_ids():
    # ids {0, 10**15, 2 * 10**15} give the results of ids {0, 1, 2}: counts
    # and the accuracy table come from the ids present, not the largest one
    feats, dense = cluster_fixture()
    sparse = dense * 10**15
    feats, sim = in_form("cosine", feats)
    assert desideratum_audit(feats, sparse, sim) == desideratum_audit(feats, dense, sim)
    pred = cluster_by_threshold(feats, sim, 0.5)
    assert clustering_accuracy(pred, sparse) == clustering_accuracy(pred, dense)
    assert clustering_accuracy(sparse, dense) == 1.0
    intra = sum(c * (c - 1) // 2 for c in np.bincount(dense))
    for num_pos, num_neg in ((5, 7), (intra, 7)):  # a partial and a full side
        for got, want in zip(sample_pair_indices(sparse, num_pos, num_neg, 3),
                             sample_pair_indices(dense, num_pos, num_neg, 3)):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", ["evaluate", "audit", "cluster", "eer_pos", "eer_neg",
                                   "tpr_at_far", "roc_points"])
def test_public_eval_functions_reject_non_finite_input(entry, bad):
    # one NaN feature used to give eer 0.5, a NaN margin (written as a bare
    # NaN, not JSON) and a clustering; a NaN score used to sort as the top one
    rng = np.random.default_rng(0)
    feats = rng.normal(size=(40, 3))
    feats[7, 1] = bad
    labels = np.arange(40) % 4
    scores = [0.1, bad, 0.3]
    sim = SimilarityKind()
    calls = {
        "evaluate": lambda: evaluate(feats, labels, sim, num_pos=20, num_neg=20),
        "audit": lambda: desideratum_audit(feats, labels, sim),
        "cluster": lambda: cluster_by_threshold(feats, sim, 0.5),
        "eer_pos": lambda: compute_eer(scores, [0.0]),
        "eer_neg": lambda: compute_eer([0.5], scores),
        "tpr_at_far": lambda: tpr_at_far(scores, [0.0, 0.2], (0.5,)),
        "roc_points": lambda: roc_points([0.5], scores),
    }
    what = "features" if entry in ("evaluate", "audit", "cluster") else "(positive|negative) scores"
    with pytest.raises(FloatingPointError, match=rf"^{what} contains NaN or Inf$"):
        calls[entry]()
