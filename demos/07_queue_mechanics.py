"""
Inside the pair factory: momentum encoder and feature queue
===========================================================

Each training step scores the current batch against a FIFO queue of
features produced by a slowly trailing copy of the encoder.  This demo
runs that machinery by hand to show where the pairs come from and why
the loss needs a class-balance weight at all.
"""

import numpy as np

from pairsim import (
    FeatureQueue,
    LossConfig,
    Rng,
    SgdConfig,
    SimilarityKind,
    backward,
    batch_loss,
    ema_update,
    encode,
    enqueue_batch,
    form_pairs,
    forward,
    init_encoder,
    pos_neg_ratio,
    score_matrix_grad_left,
    sgd_step,
)

rng = Rng(7)
num_classes, d_in, d_feat, m = 16, 8, 4, 32

# a queue of 256 and batches of 32: every step yields 32 * 256 pairs
queue = FeatureQueue(capacity=256, d_feat=d_feat)
enc = init_encoder((d_in, 32, d_feat), rng.stream("init"), activation="tanh")
ema, eta = enc.copy(), 0.99

def fresh_batch(k):
    labels = rng.stream(("labels", k)).integers(0, num_classes, size=m)
    inputs = rng.stream(("inputs", k)).normal(size=(m, d_in)) + labels[:, None]
    return inputs, labels

# warmup: fill the queue from the momentum encoder before any updates,
# so early pairs are not scored against an empty or tiny buffer
k = 0
while queue.size < queue.capacity:
    inputs, labels = fresh_batch(k)
    enqueue_batch(queue, encode(ema, inputs), labels)
    k += 1
print(f"queue full after {k} warmup batches ({queue.size} entries)")

# one real step: encode with the live encoder, pair against the queue
sim = SimilarityKind(kind="generalized_inner", b_theta=0.3)
inputs, labels = fresh_batch(k)
feats, cache = forward(enc, inputs)
pairs = form_pairs(queue, feats, labels, sim)
print(f"formed {len(pairs)} pairs, positive fraction {pos_neg_ratio(pairs):.4f}")
print("that imbalance is what the loss weight alpha compensates for")

# backprop through the batch side only; queue features are constants
cfg = LossConfig(r=3.0, alpha=0.001, similarity=sim)
loss, d_scores, d_b = batch_loss(cfg, pairs)
print(f"batch loss {loss:.4f}, d_loss/d_b {d_b:+.4f}")

# route d_scores through the similarity's own gradient, as the trainer
# does: the generalized inner product's bias term adds to the plain
# d_scores @ queue (pairs are row-major: batch row i x queue slot j)
d_scores = d_scores.reshape(m, queue.size)
d_feats, _ = score_matrix_grad_left(sim, feats, queue.features(), d_scores)
grads = backward(enc, cache, d_feats)  # one vector, laid out like enc.theta
velocity = np.zeros_like(enc.theta)
sgd_step(enc.theta, grads, SgdConfig(lr=0.05), velocity)

# the momentum encoder trails by a factor eta per step; then it re-encodes
# the batch, those features join the queue and the oldest 32 fall off
oldest_before = int(queue.steps_enqueued()[0])
ema_update(ema, enc, eta)
enqueue_batch(queue, encode(ema, inputs), labels)
print(f"queue advanced: oldest entry step {oldest_before} -> {queue.steps_enqueued()[0]}")
w_gap = np.abs(ema.theta - enc.theta).max()
print(f"after the update the momentum copy still lags the live encoder "
      f"(max parameter gap {w_gap:.3f}); it closes 1% of that gap per step, "
      f"keeping queue features consistent across many steps")
