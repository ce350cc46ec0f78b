"""
Similarity scores, the pair losses, and reverse mining
======================================================

Score feature pairs with the generalized inner product, walk through the
one pair loss at r = 1 and at r = 3, and show the gradient reweighting
that mining strength r produces.
"""

import numpy as np

from pairsim import (
    LossConfig,
    SimilarityKind,
    decision_boundary,
    mining_curves,
    pair_loss,
    pair_loss_grad,
    score,
    softplus,
)

# the generalized inner product: dot(x1, x2) - b_theta * |x1| * |x2|.
# At b_theta = 0 it is the plain dot product; raising b_theta charges a
# norm-scaled rent that only well-aligned pairs can pay off.
x1 = np.array([1.0, 2.0, 0.5])
x2 = np.array([0.5, 1.5, -1.0])
for bt in (0.0, 0.3, 0.9):
    sim = SimilarityKind(kind="generalized_inner", b_theta=bt)
    print(f"b_theta={bt:>3}: score {score(sim, x1, x2):+.4f}")
print(f" cosine   : score {score(SimilarityKind(kind='cosine'), x1, x2):+.4f}")

# the decision rule is sign(score + b): a trained bias doubles as the
# universal verification threshold at -b
cfg = LossConfig(r=3.0, alpha=0.01, b=-0.8)
gi = SimilarityKind(kind="generalized_inner", b_theta=0.3)
d = decision_boundary(gi, cfg.b, x1, x2)
print(f"decision value at b={cfg.b}: {d:+.4f} -> "
      f"{'same class' if d > 0 else 'different class'}")

# one formula, three points: at r = 1 and alpha = 0.5 it is the plain
# pair logistic loss at half scale, at r = 1 it adds the alpha /
# (1 - alpha) class weights, and SimPLE adds mining strength r on top
s_pos, s_neg = 0.4, 1.1
for name, r, alpha in (("plain (r=1, alpha=0.5, half scale)", 1.0, 0.5),
                       ("balanced (r=1)", 1.0, 0.01),
                       ("SimPLE (r=3)", 3.0, 0.01)):
    c = LossConfig(r=r, alpha=alpha, b=-0.8)
    lp, ln = pair_loss(c, s_pos, 1), pair_loss(c, s_neg, 0)
    print(f"{name:>34}: positive {lp:.4f}  negative {ln:.4f}")

# at r = 1 the loss is the balanced closed form exactly
c1 = LossConfig(r=1.0, alpha=0.01, b=-0.8)
print(f"r=1 == (1 - alpha) * softplus(s + b): "
      f"{pair_loss(c1, 0.7, 0) == (1 - c1.alpha) * softplus(0.7 + c1.b)}")

# mining direction: the negative-branch gradient grows with the score
# (hard negatives weigh more) and r sharpens that emphasis, while the
# positive branch flattens as r grows.  The two branches move in
# opposite directions; that is the "reverse" in reverse mining.
print("\n  t      Q2'(t) r=1   Q2'(t) r=3")
for t in (-1.0, 0.0, 1.0):
    grads = []
    for r in (1.0, 3.0):
        c = LossConfig(r=r, alpha=0.5, b=0.0)
        d_s, _ = pair_loss_grad(c, t, 0)
        grads.append(d_s / (1 - c.alpha))
    print(f"{t:+.1f}   {grads[0]:10.4f}   {grads[1]:10.4f}")

# the kernels behind those branches
q1, q2 = mining_curves(3.0, 0.5)
print(f"\nmining kernels at t=0.5, r=3: Q1 {q1:.4f}, Q2 {q2:.4f}")
