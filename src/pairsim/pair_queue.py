"""FIFO feature queue and batch-times-queue pair construction.

The queue holds features produced by the momentum encoder, one entry per
sample, evicting oldest-first once capacity is reached.  Each training
step scores every current-batch feature against every queued feature,
giving m*q pairs per step.  Gradients flow only into the batch side; the
queue side is a constant snapshot of an encoder that is not trained by
backprop.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DegenerateInputError, ShapeError
from .losses import PairBatch
from .numkit import as_matrix
from .similarity import SimilarityKind, score_matrix


class FeatureQueue:
    """FIFO of (feature, label, step_enqueued, norm) entries, oldest first.

    Entries are evicted strictly FIFO.  ``step_enqueued`` is a global
    per-entry counter, so buffer order always carries strictly increasing
    step values: the live entries hold the last ``size`` of them.  Each
    entry's Euclidean norm is computed once, when it is enqueued; a row's
    norm does not depend on the rows stored with it.

    The entries sit as one contiguous oldest-first block inside storage for
    twice the capacity.  An enqueue writes the new rows just past the block;
    only when the storage runs out are the surviving entries moved back to
    its start, once every capacity/m enqueues of m rows.  The block never
    wraps around, because its order fixes the order in which the pair terms
    of a step are summed.
    """

    def __init__(self, capacity: int, d_feat: int):
        capacity = int(capacity)
        d_feat = int(d_feat)
        if capacity < 1:
            raise ConfigError(f"queue capacity must be >= 1, got {capacity}")
        if d_feat < 1:
            raise ConfigError(f"feature dimension must be >= 1, got {d_feat}")
        self.capacity = capacity
        self.d_feat = d_feat
        # (features, labels, norms) storage, and the live views of it
        self._store = (
            np.empty((2 * capacity, d_feat), dtype=np.float64),
            np.empty(2 * capacity, dtype=np.int64),
            np.empty(2 * capacity, dtype=np.float64),
        )
        self._feat, self._label, self._norm = (a[:0] for a in self._store)
        self._end = 0  # storage index one past the newest entry
        self._next_step = 0

    @property
    def size(self) -> int:
        return self._feat.shape[0]

    def __len__(self):
        return self.size

    def features(self) -> np.ndarray:
        """Copy of stored features in buffer order (oldest first)."""
        return self._feat.copy()

    def labels(self) -> np.ndarray:
        return self._label.copy()

    def steps_enqueued(self) -> np.ndarray:
        return np.arange(self._next_step - self.size, self._next_step, dtype=np.int64)


def enqueue_batch(queue: FeatureQueue, features, labels) -> None:
    """Append a batch, evicting the oldest entries past capacity."""
    features = as_matrix(features)
    labels = np.asarray(labels).ravel().astype(np.int64, copy=False)
    m = features.shape[0]
    if m != labels.size:
        raise ShapeError(f"{m} feature rows but {labels.size} labels")
    if features.shape[1] != queue.d_feat:
        raise ShapeError(
            f"queue holds {queue.d_feat}-dim features, got {features.shape[1]}-dim"
        )
    if m > queue.capacity:
        raise ConfigError(
            f"batch of {m} exceeds queue capacity {queue.capacity}"
        )
    keep = min(queue.size, queue.capacity - m)  # entries that stay
    end = queue._end
    if end + m > 2 * queue.capacity:
        # storage used up: move the entries that stay to its start
        for store in queue._store:
            store[:keep] = store[end - keep : end]
        end = keep
    feat, label, norm = queue._store
    new = slice(end, end + m)
    feat[new] = features
    label[new] = labels
    # the rows' norms, as np.linalg.norm(features, axis=1) computes them
    np.add.reduce(features * features, axis=1, out=norm[new])
    np.sqrt(norm[new], out=norm[new])
    queue._next_step += m
    queue._end = end = end + m
    live = slice(end - keep - m, end)
    queue._feat, queue._label, queue._norm = feat[live], label[live], norm[live]


def form_pairs(
    queue: FeatureQueue,
    batch_features,
    batch_labels,
    sim: SimilarityKind,
    batch_norms=None,
) -> PairBatch:
    """Score every batch row against every queue entry.

    Returns a PairBatch of exactly m * queue.size pairs in row-major
    order (batch row varies slowest).  y_p = 1 iff the class ids match.
    The queue side uses the norms stored at enqueue; ``batch_norms``, when
    given, are the batch rows' norms (as ``np.linalg.norm(.., axis=1)``
    gives them).  Does not mutate the queue.
    """
    if queue.size == 0:
        raise DegenerateInputError("cannot form pairs against an empty queue")
    batch_features = as_matrix(batch_features)
    batch_labels = np.asarray(batch_labels).ravel().astype(np.int64)
    m = batch_features.shape[0]
    if m != batch_labels.size:
        raise ShapeError(f"{m} feature rows but {batch_labels.size} labels")
    scores = score_matrix(sim, batch_features, queue._feat, na=batch_norms, nq=queue._norm)
    return PairBatch(scores=scores, labels=batch_labels[:, None] == queue._label[None, :])


def pos_neg_ratio(pairs: PairBatch) -> float:
    """Fraction of pairs that are positive; logs the imbalance alpha offsets."""
    if len(pairs) == 0:
        raise DegenerateInputError("empty pair batch has no positive fraction")
    return float(np.count_nonzero(pairs.labels)) / len(pairs)
