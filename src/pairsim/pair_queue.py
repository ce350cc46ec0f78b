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
    """Ring of (feature, label, step_enqueued) entries, oldest first.

    Entries are evicted strictly FIFO.  ``step_enqueued`` is a global
    per-entry counter, so buffer order always carries strictly increasing
    step values.
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
        self._feat = np.empty((0, d_feat), dtype=np.float64)
        self._label = np.empty(0, dtype=np.int64)
        self._step = np.empty(0, dtype=np.int64)
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
        return self._step.copy()


def enqueue_batch(queue: FeatureQueue, features, labels) -> None:
    """Append a batch, evicting the oldest entries past capacity."""
    features = as_matrix(features)
    labels = np.asarray(labels).ravel().astype(np.int64)
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
    steps = queue._next_step + np.arange(m, dtype=np.int64)
    queue._next_step += m
    feat = np.concatenate([queue._feat, features.copy()])
    label = np.concatenate([queue._label, labels])
    step = np.concatenate([queue._step, steps])
    if feat.shape[0] > queue.capacity:
        keep = feat.shape[0] - queue.capacity
        feat, label, step = feat[keep:], label[keep:], step[keep:]
    queue._feat, queue._label, queue._step = feat, label, step


def form_pairs(
    queue: FeatureQueue,
    batch_features,
    batch_labels,
    sim: SimilarityKind,
) -> PairBatch:
    """Score every batch row against every queue entry.

    Returns a PairBatch of exactly m * queue.size pairs in row-major
    order (batch row varies slowest).  y_p = 1 iff the class ids match.
    Does not mutate the queue.
    """
    if queue.size == 0:
        raise DegenerateInputError("cannot form pairs against an empty queue")
    batch_features = as_matrix(batch_features)
    batch_labels = np.asarray(batch_labels).ravel().astype(np.int64)
    m = batch_features.shape[0]
    if m != batch_labels.size:
        raise ShapeError(f"{m} feature rows but {batch_labels.size} labels")
    scores = score_matrix(sim, batch_features, queue._feat)
    return PairBatch(scores=scores, labels=batch_labels[:, None] == queue._label[None, :])


def pos_neg_ratio(pairs: PairBatch) -> float:
    """Fraction of pairs that are positive; logs the imbalance alpha offsets."""
    if len(pairs) == 0:
        raise DegenerateInputError("empty pair batch has no positive fraction")
    return float(np.count_nonzero(pairs.labels)) / len(pairs)
