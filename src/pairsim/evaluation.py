"""Verification metrics, the separation audit, and threshold clustering.

Conventions, fixed here because published EER/TPR numbers rarely state
them:

* EER, TPR@FAR and ROC read one sweep of the distinct scores t, with
  FRR(t) = frac(pos < t), FAR(t) = frac(neg >= t) and TPR = 1 - FRR; the
  EER interpolates linearly where FAR - FRR changes sign.
* TPR@FAR is the ROC's highest-TPR point with 0 < FAR <= target; a target
  below the top negative's FAR (so below 1/|neg|) is clamped to that score
  and flagged.  Each target's entry in the report's ``tpr_at_far``
  (report.json, summary.json) is its operating point: ``tpr``, the achieved
  ``far``, ``threshold`` and that ``clamped`` flag; ablation.csv leaves a
  clamped cell empty.
* Clustering is a single-linkage threshold cut: connect every pair that
  scores strictly above the threshold, components become clusters, and
  accuracy is scored under the optimal one-to-one cluster/class matching.
  The cut is exact only up to rounding: a folded `generalized_inner`
  score's last bits depend on which row is on the left, and any score's on
  the product it is computed in (BLAS may sum a column of a narrow or
  ragged product in another order), so a pair scoring within rounding of
  the cut can land on either side under another row order.
* The error counts at that cut follow the same strict rule over all pairs:
  a same-class pair scoring at or below it is a false reject, a cross-class
  pair scoring above it a false accept; ``cut_errors`` gives each count
  with its rate over all pairs of its side.  The EER's sweep instead accepts
  a score equal to its threshold (``>=``), so at an exact tie the two differ.
  A pair within rounding of the cut may count on either side under another
  row order, as it may join either side of the clustering.

A positive separation margin (min same-class score minus max cross-class
score) certifies that any threshold inside the margin reproduces the
classes exactly; `cluster_by_threshold` realizes that guarantee.

Both run on one walk over the upper triangle (i < j) in row blocks of
`_BLOCK` rows: each unordered pair is scored once, one band or tile of
scores at a time, so memory stays O(block * n) however many pairs clear the
threshold.  With labels the rows are walked in class order, so a block's
same-class pairs lie in one narrow column band, scored as one product, and
the block's class runs split the band into its same-class and cross-class
pairs.  Right of the band every pair is cross-class; it is scored in tiles
of `_TILE` columns, each reduced while it is in cache to its max score and
the few columns with a pair above the cut.  The clusters grow in a
union-find forest, one block at a time.
`evaluate` takes the margin, the clusters and the error counts at the cut
from a single walk, and returns the report as the report.json document: a
dict of floats, ints, lists and str-keyed dicts that `report_to_json` writes
and that train keeps per eval epoch.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import ConfigError, DegenerateInputError, ShapeError
from .numkit import Rng, check_finite, class_ids
from .similarity import SimilarityKind, _fold_left, _fold_right, score_matrix, score_rows


def _pair_totals(labels):
    """(same-class, cross-class) unordered pair counts; ids may be sparse."""
    counts = np.unique(labels, return_counts=True)[1]
    n = int(counts.sum())
    intra = int((counts * (counts - 1) // 2).sum())
    inter = n * (n - 1) // 2 - intra
    return intra, inter


def _draw_side(rng: Rng, order: np.ndarray, start, stop, want: int):
    """``want`` distinct pairs of one side, uniform, as canonical (i, j) rows.

    Position p of the class order pairs with positions [start[p], stop[p]);
    laid end to end, these runs rank the side's pairs once each, and one
    searchsorted maps each drawn rank back to its run and place.
    """
    runs = stop - start
    cum = np.cumsum(runs)
    ranks = rng.choice(int(runs.sum()), want, replace=False)
    p = np.searchsorted(cum, ranks, side="right")
    i, j = order[p], order[start[p] + ranks - (cum[p] - runs[p])]
    return np.stack([np.minimum(i, j), np.maximum(i, j)], axis=1)


def sample_pair_indices(labels, num_pos: int, num_neg: int, seed: int):
    """(pos_pairs, neg_pairs) as (k, 2) index arrays, deterministic under seed.

    Each side is a uniform draw without replacement from its pairs, by rank:
    with the rows sorted by class (stably), the same-class partners that
    follow a position are the rest of its class, and the cross-class ones
    every position past its class.  Memory is O(rows + pairs drawn), except
    that numpy's ``choice`` shuffles a side's whole rank range (8 bytes a
    pair) once more than 1/50 of a side of over 10,000 pairs is asked for.
    """
    labels = class_ids(labels)
    intra, inter = _pair_totals(labels)
    if num_pos < 0 or num_neg < 0:
        raise ConfigError(f"pair requests must be >= 0, got {num_pos} and {num_neg}")
    if num_pos > intra:
        raise ConfigError(f"{num_pos} same-class pairs requested, only {intra} exist")
    if num_neg > inter:
        raise ConfigError(f"{num_neg} cross-class pairs requested, only {inter} exist")
    order = np.argsort(labels, kind="stable")
    ranked = labels[order]
    ends = np.searchsorted(ranked, ranked, side="right")  # end of each position's class
    rng = Rng(seed).stream("eval_pairs")
    pos = _draw_side(rng.stream("pos"), order, np.arange(1, labels.size + 1), ends, int(num_pos))
    neg = _draw_side(rng.stream("neg"), order, ends, labels.size, int(num_neg))
    return pos, neg


def score_pairs(sim: SimilarityKind, features, pos_pairs, neg_pairs):
    """(pos_scores, neg_scores) of fixed pair indices against (possibly
    re-encoded) features."""
    features = np.asarray(features, dtype=np.float64)
    pos, neg = (np.asarray(p, dtype=np.int64).reshape(-1, 2) for p in (pos_pairs, neg_pairs))
    return (
        score_rows(sim, features[pos[:, 0]], features[pos[:, 1]]),
        score_rows(sim, features[neg[:, 0]], features[neg[:, 1]]),
    )


def _sweep(pos, neg):
    """(t, frr, far): each distinct score t of either side, ascending, with
    FRR(t) = frac(pos < t) and FAR(t) = frac(neg >= t); each side non-empty, finite."""
    pos = np.sort(check_finite(np.asarray(pos, dtype=np.float64).ravel(), "positive scores"))
    neg = np.sort(check_finite(np.asarray(neg, dtype=np.float64).ravel(), "negative scores"))
    if pos.size == 0 or neg.size == 0:
        raise DegenerateInputError("need at least one positive and one negative score")
    t = np.unique(np.concatenate([pos, neg]))
    frr = np.searchsorted(pos, t, side="left") / pos.size
    far = (neg.size - np.searchsorted(neg, t, side="left")) / neg.size
    return t, frr, far


def compute_eer(pos, neg):
    """(eer, threshold) by threshold sweep with linear interpolation.

    FAR - FRR is monotone nonincreasing over the sweep, from +1 at its
    lowest score to -1 at +inf; the EER sits where it crosses zero.  A cut
    between two scores accepts what the upper one does, so the threshold
    interpolates between the midpoints (+-inf at the ends).
    """
    uniq, frr, far = _sweep(pos, neg)
    frr, far = np.r_[frr, 1.0], np.r_[far, 0.0]
    t = np.concatenate([[-np.inf], (uniq[:-1] + uniq[1:]) / 2.0, [np.inf]])
    diff = far - frr
    k = int(np.flatnonzero(diff >= 0)[-1])
    lam = diff[k] / (diff[k] - diff[k + 1])
    eer = (1.0 - lam) * far[k] + lam * far[k + 1]
    if lam == 0.0 or not np.isfinite(t[k + 1]):
        threshold = t[k]
    elif lam == 1.0 or not np.isfinite(t[k]):
        threshold = t[k + 1]
    else:
        threshold = (1.0 - lam) * t[k] + lam * t[k + 1]
    return float(eer), float(threshold)


def tpr_at_far(pos, neg, far_targets) -> dict:
    """The operating point of each FAR target, keyed by the target's ``str``.

    Each is a dict of its ``tpr``, achieved ``far``, ``threshold`` and
    ``clamped`` flag: the smallest swept score with 0 < FAR(t) <= target
    (the ROC's highest-TPR point there), or, for a target below the top
    negative's FAR, that negative's score, with ``clamped`` true.
    """
    t, frr, far = _sweep(pos, neg)
    top = np.count_nonzero(far) - 1  # the top negative score's row
    out = {}
    for target in map(float, far_targets):
        if not 0.0 <= target <= 1.0:
            raise ConfigError(f"FAR target must lie in [0,1], got {target}")
        hit = np.flatnonzero(far[: top + 1] <= target)
        i = int(hit[0]) if hit.size else top
        out[str(target)] = {
            "tpr": float(1.0 - frr[i]), "far": float(far[i]), "threshold": float(t[i]),
            "clamped": hit.size == 0,
        }
    return out


def roc_points(pos, neg) -> list:
    """(far, tpr) staircase from strictest to loosest threshold."""
    _, frr, far = _sweep(pos, neg)
    far, tpr = np.r_[0.0, far[::-1]], np.r_[0.0, 1.0 - frr[::-1]]
    keep = np.r_[True, (far[1:] != far[:-1]) | (tpr[1:] != tpr[:-1])]  # drop repeats
    return list(zip(far[keep].tolist(), tpr[keep].tolist()))


# Rows per block of the upper-triangle walk, and columns per cross-class
# tile.  Median ms of the walk that yields the margin, the clusters and the
# error counts, on 6,400 rows x 32 features in 16 classes cut at a trained
# model's learned -b, for two trained models (15 interleaved runs, one BLAS
# thread, 2-core x86-64 VM with 2 MiB of L2 a core):
#
#   block \ tile    256          512          1,024
#   64              58.3, 57.8   57.7, 56.8   57.5, 55.1
#   128             49.6, 49.1   49.3, 48.0   49.5, 49.1
#   256             48.3, 49.7   50.1, 49.7   53.4, 52.7
#
# A (128 x 512) float64 tile is 512 KiB, so it is still in cache when it is
# reduced.
_BLOCK = 128
_TILE = 512


def _audit_inputs(features, labels):
    """(features, class ids, (same-class, cross-class) pair totals), checked."""
    features = check_finite(np.asarray(features, dtype=np.float64), "features")
    labels = class_ids(labels)
    n = labels.size
    if features.ndim != 2 or features.shape[0] != n:
        raise ShapeError(f"features {features.shape} do not match {n} labels")
    totals = _pair_totals(labels)
    if 0 in totals:
        raise DegenerateInputError("need at least one same-class and one cross-class pair")
    return features, labels, totals


def _check_threshold(threshold) -> float:
    if not np.isfinite(threshold):
        raise ConfigError(f"threshold must be finite, got {threshold}")
    return float(threshold)


def _roots(parent, rows):
    """The root of each of ``rows`` in the forest ``parent``."""
    r = parent[rows]
    while True:
        up = parent[r]
        if np.array_equal(up, r):
            return r
        r = up


def _union(parent, u, v):
    """Join the trees of rows u[k] and v[k] for every k.

    Every root is the smallest row of its tree.  Each round hooks the larger
    root of every still-split pair under the smallest root it meets, so
    pointers only ever go down and no cycle forms.
    """
    while u.size:
        u, v = _roots(parent, u), _roots(parent, v)
        split = u != v
        u, v = np.minimum(u[split], v[split]), np.maximum(u[split], v[split])
        np.minimum.at(parent, v, u)


def _merge_block(parent, edges, cols):
    """Union a block's rows with their above-threshold columns.

    ``parent`` is flat (every row points at its root) on entry and on exit;
    ``edges`` is the block's (b, k) above-threshold mask over the walk
    positions ``cols``, the first b of which are the block's own rows.  The
    leading square goes in first: each row hooks to its smallest neighbour
    there, which joins a dense square in one shallow union, and then the
    square's pairs still split between two trees go in.  After that, rows
    sharing a root share their edges to later rows, so the rest of the mask
    is OR-reduced over the rows of each root (rows with no such edge left
    out), and each root adds at most one edge per column.
    """
    b = edges.shape[0]
    block = cols[:b]
    roots = parent[block]
    split = np.any(roots != roots[0])  # the block's rows span several trees
    if split:
        square = edges[:, :b]
        near = square | square.T
        np.fill_diagonal(near, True)
        _union(parent, block, block[near.argmax(axis=1)])  # each row's first True
        roots = _roots(parent, block)
        r, c = np.divmod(np.flatnonzero(square & (roots[:, None] != roots[None, :])), b)
        _union(parent, block[r], block[c])
        roots = _roots(parent, block)
    rest, cols = edges[:, b:], cols[b:]
    if np.all(roots == roots[0]):
        heads, reach = roots[:1], rest.any(axis=0, keepdims=True)
    else:
        live = rest.any(axis=1)
        heads = np.unique(roots[live])
        reach = np.empty((heads.size, rest.shape[1]), dtype=bool)
        for k, h in enumerate(heads):
            rest[live & (roots == h)].any(axis=0, out=reach[k])
    reach &= parent[cols] != heads[:, None]  # columns already in the tree
    g, c = np.divmod(np.flatnonzero(reach), reach.shape[1])
    if split or g.size:
        _union(parent, heads[g], cols[c])
        parent[:] = _roots(parent, parent)


def _upper_walk(features, sim: SimilarityKind, labels=None, threshold=None):
    """Score every unordered pair (i < j) once, in row blocks.

    With ``labels`` the rows are walked in stable class order (the input
    order when it already is one), so the same-class partners of a block's
    rows all lie in one column band: from the block's first row to the end
    of its last row's class (without labels the band is the leading square).
    The right-hand rows are folded once (`similarity._fold_right`), a
    block's left rows as the walk reaches them (`_fold_left`), both from the
    input rows, so no class-order copy of them is kept.  Block [lo, hi)
    scores its band [lo, end) as one `score_matrix` product of the folds of
    walk positions [lo, hi) and [lo, end), the diagonal and lower part of
    its leading square left out, and the cross-class rest [end, n) as a run
    of products of at most `_TILE` columns.  Each tile is reduced while it
    is in cache: its max is a cross-class score, and only a tile whose max
    clears ``threshold`` takes a column max, whose "hot" columns give the
    tile's edges.

    In class order a block's rows form runs, one class each.  A run's
    same-class partners are the rest of its run, in the upper triangle of
    its square, and, for the block's last run, the whole band right of the
    leading square; every other pair of the band is cross-class.  So with
    ``labels`` the block's labels split its leading square, the last run's
    first row splits the rest of the band, and those parts give the min
    same-class score and the max cross-class score.  With ``threshold`` the
    edges of the band and of the hot columns go to `_merge_block`, which
    joins them in a union-find forest whose roots are the smallest rows of
    their trees.  With both, the walk counts the edges and the same-class
    edges among them: the false rejects are the same-class pairs less the
    latter, the false accepts the edges less the latter.

    Returns (margin or None, component labels or None, (false rejects,
    false accepts) or None), the components numbered in order of their
    smallest input row.  A band or a tile is freed before the next product,
    so one band or tile, the right fold, a block's left fold and its edge
    mask are live: O(block * n) whatever the number of edges.
    """
    n = features.shape[0]
    order = None
    if labels is not None and np.any(labels[1:] < labels[:-1]):
        order = np.argsort(labels, kind="stable")
        labels = labels[order]
    right = _fold_right(sim, features if order is None else features[order])
    plain = SimilarityKind("inner")
    upper = ~np.tri(_BLOCK, dtype=bool)  # j > i inside a leading square
    min_intra, max_inter = np.inf, -np.inf
    edge_count = same_edges = 0
    parent = np.arange(n)  # union-find forest over walk positions
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        b = hi - lo
        left = _fold_left(sim, features[lo:hi] if order is None else features[order[lo:hi]])
        end = hi if labels is None else int(np.searchsorted(labels, labels[hi - 1], side="right"))
        band = score_matrix(plain, left, right[lo:end])
        square, rest = band[:, :b], band[:, b:]
        if labels is not None:
            run = labels[lo:hi]
            last = int(np.searchsorted(run, run[-1]))  # where the block's last run starts
            cross = run[None, :] > run[:, None]  # j > i and another class
            same = upper[:b, :b] & ~cross
            min_intra = min(min_intra, square.min(where=same, initial=np.inf),
                            rest[last:].min(initial=np.inf))
            max_inter = max(max_inter, square.max(where=cross, initial=-np.inf),
                            rest[:last].max(initial=-np.inf))
        if threshold is not None:
            edges, cols = [band > threshold], [np.arange(lo, end)]
            edges[0][:, :b] &= upper[:b, :b]
            if labels is not None:
                same_edges += np.count_nonzero(edges[0][:, :b] & same)
                same_edges += np.count_nonzero(edges[0][last:, b:])
        band = square = rest = None  # free the band before the first tile
        for start in range(end, n, _TILE):
            tile = score_matrix(plain, left, right[start : start + _TILE])
            top = tile.max()  # every pair here is cross-class
            max_inter = max(max_inter, top)
            if threshold is not None and top > threshold:
                hot = np.flatnonzero(tile.max(axis=0) > threshold)
                edges.append(tile[:, hot] > threshold)
                cols.append(start + hot)
            tile = None  # free it before the next product
        if threshold is not None:
            edges = np.concatenate(edges, axis=1)
            edge_count += np.count_nonzero(edges)
            _merge_block(parent, edges, np.concatenate(cols))
            edges = None
    margin = None if labels is None else float(min_intra - max_inter)
    if threshold is None:
        return margin, None, None
    if order is not None:
        parent[order] = parent.copy()  # back to input order
    # number the components by their smallest input row
    _, first, comp = np.unique(parent, return_index=True, return_inverse=True)
    rank = np.empty(first.size, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(first.size)
    counts = None
    if labels is not None:
        intra = _pair_totals(labels)[0]
        counts = (int(intra - same_edges), int(edge_count - same_edges))
    return margin, rank[comp], counts


def desideratum_audit(features, labels, sim: SimilarityKind) -> float:
    """min same-class score minus max cross-class score, all pairs.

    Positive iff every same-class pair outscores every cross-class pair,
    i.e. one global threshold separates them.
    """
    features, labels, _ = _audit_inputs(features, labels)
    return _upper_walk(features, sim, labels=labels)[0]


def cluster_by_threshold(features, sim: SimilarityKind, threshold: float) -> np.ndarray:
    """Connected components of the strictly-above-threshold score graph."""
    threshold = _check_threshold(threshold)
    features = check_finite(np.asarray(features, dtype=np.float64), "features")
    if features.ndim != 2:
        raise ShapeError(f"features must be an (n, d) matrix, got shape {features.shape}")
    return _upper_walk(features, sim, threshold=threshold)[1]


def _matched_total(table) -> int:
    """The largest total of a one-to-one row/column matching of an int64 table.

    Shortest augmenting paths on the cost -table (Crouse, IEEE TAES 2016,
    the method behind scipy's ``linear_sum_assignment``): one Dijkstra
    search per row of the smaller side, each step one vectorized scan of
    the larger side.  The optimal total is unique even where the matching
    is not.  Every distance and dual is a signed sum of table entries, each
    at most n, so int64 holds them exactly.

    Median ms, this against scipy's (2-core x86-64 VM, one BLAS thread):
    1x16 0.02 vs 0.001; 892x16 0.40 vs 0.09; 6,394x16 1.2 vs 0.7;
    1,000x1,000 29 vs 14 (clustered labels) and 31 vs 16 (random entries).
    Importing scipy.optimize alone takes ~0.5 s and ~40 MB.
    """
    cost = -np.ascontiguousarray(table.T if table.shape[0] > table.shape[1] else table)
    rows, cols = cost.shape
    far = np.iinfo(np.int64).max
    u, v = np.zeros(rows, np.int64), np.zeros(cols, np.int64)  # the duals
    col_of, row_of = np.full(rows, -1), np.full(cols, -1)
    for start in range(rows):
        dist, via = np.full(cols, far), np.empty(cols, np.int64)
        done = np.zeros(cols, dtype=bool)
        reached, i, low = [], start, 0
        while True:  # grow the search tree until it reaches a free column
            reached.append(i)
            step = low + cost[i] - u[i] - v
            closer = ~done & (step < dist)
            dist[closer], via[closer] = step[closer], i
            open_ = np.where(done, far, dist)
            low = open_.min()
            ties = np.flatnonzero(open_ == low)
            free = ties[row_of[ties] < 0]
            j = free[0] if free.size else ties[0]
            done[j] = True
            if row_of[j] < 0:
                break
            i = row_of[j]
        tree = np.array(reached[1:], dtype=np.int64)
        u[start] += low
        u[tree] += low - dist[col_of[tree]]
        v[done] -= low - dist[done]
        while True:  # flip the matching along the path back to start
            i = via[j]
            row_of[j], col_of[i], j = i, j, col_of[i]
            if i == start:
                break
    return int(-cost[np.arange(rows), col_of].sum())


def clustering_accuracy(predicted, truth) -> float:
    """Accuracy under the optimal one-to-one cluster/class assignment.

    The matching, `_matched_total`, takes about a millisecond for thousands
    of clusters of 16 classes.
    """
    predicted, truth = class_ids(predicted), class_ids(truth)
    if predicted.shape != truth.shape:
        raise ShapeError("predicted and truth label lengths differ")
    if predicted.size == 0:
        raise DegenerateInputError("no labels to score")
    # rank both sides so the table is sized by the ids present, not the largest
    predicted = np.unique(predicted, return_inverse=True)[1]
    truth = np.unique(truth, return_inverse=True)[1]
    table = np.zeros((predicted.max() + 1, truth.max() + 1), dtype=np.int64)
    np.add.at(table, (predicted, truth), 1)
    return _matched_total(table) / predicted.size


def evaluate(
    features,
    labels,
    sim: SimilarityKind,
    num_pos: int = 1000,
    num_neg: int = 1000,
    seed: int = 0,
    far_targets=(0.1, 0.01),
    threshold: float | None = None,
) -> dict:
    """The report.json document; pair requests are clamped to what the labels allow.

    ``threshold`` sets the clustering cut; default is the sampled pairs' EER
    threshold, so ``clustering_accuracy`` and ``cut_errors`` then depend on
    the draw.  `train` cuts there for the proxy methods, which learn no ``b``.
    Class ids may be gapped or sparse: nothing below sizes an array by them.
    The FAR targets are keyed by their ``str``, as JSON keys must be.
    """
    features, labels, (intra, inter) = _audit_inputs(features, labels)
    pairs = sample_pair_indices(labels, min(num_pos, intra), min(num_neg, inter), seed)
    pos, neg = score_pairs(sim, features, *pairs)
    eer, t_eer = compute_eer(pos, neg)
    tied = float(pos[0])
    if np.all(pos == tied) and np.all(neg == tied):
        # the EER threshold is then -inf
        raise DegenerateInputError(
            f"every sampled pair has the same score, {tied!r}: no threshold tells them apart"
        )
    tprs = tpr_at_far(pos, neg, far_targets)
    cut = _check_threshold(t_eer if threshold is None else threshold)
    # one walk over all pairs yields the margin, the clusters and the counts
    margin, comp, (rejects, accepts) = _upper_walk(
        features, sim, labels=labels, threshold=cut
    )
    return {
        "eer": eer,
        "eer_threshold": t_eer,
        "tpr_at_far": tprs,
        "roc": [[f, t] for f, t in roc_points(pos, neg)],
        "desideratum_margin": margin,
        "clustering_accuracy": clustering_accuracy(comp, labels),
        "cut_errors": {
            "threshold": cut,
            "false_rejects": rejects,
            "same_class_pairs": intra,
            "false_reject_rate": rejects / intra,
            "false_accepts": accepts,
            "cross_class_pairs": inter,
            "false_accept_rate": accepts / inter,
        },
    }


def report_to_json(doc: dict) -> str:
    """An `evaluate` report as report.json text."""
    # json's indent encoder is pure Python and slow on a long ROC, so the
    # ROC goes in as one block, written as json.dumps(doc, ...) writes it
    text = json.dumps({**doc, "roc": 0}, sort_keys=True, indent=2)
    rows = ",".join(f"\n    [\n      {f!r},\n      {t!r}\n    ]" for f, t in doc["roc"])
    roc = f"[{rows}\n  ]" if rows else "[]"
    return text.replace('\n  "roc": 0', f'\n  "roc": {roc}', 1)
