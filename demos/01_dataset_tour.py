"""
A tour of the synthetic verification task
=========================================

Build the default desk-scale dataset, look at its geometry, and measure
how hard raw-input verification is before any training.
"""

import numpy as np

from pairsim import (
    GenSpec,
    compute_eer,
    generate,
    sample_pair_indices,
    save_csv,
    split,
)

# the default task: 16 classes, 200 rows each, 32 input dims.  Class means
# sit on a sphere; noise is split so the inputs look messy while the
# classes stay strictly separable inside the span of the means.
spec = GenSpec()
ds = generate(spec)
print(f"rows {len(ds)}, input_dim {ds.input_dim}, classes {ds.num_classes}")

# class means and their pairwise gaps
means = np.stack([ds.inputs[ds.labels == k].mean(axis=0) for k in range(ds.num_classes)])
gaps = np.linalg.norm(means[:, None] - means[None, :], axis=2)
iu = np.triu_indices(ds.num_classes, 1)
print(f"mean norms ~ {np.linalg.norm(means, axis=1).mean():.2f}, "
      f"closest pair of means {gaps[iu].min():.2f}")

# raw-input verification: score sampled pairs with plain cosine
tr, va = split(ds, 0.2, seed=0)
pos, neg = sample_pair_indices(va.labels, 1000, 1000, seed=0)

def cosines(pairs):
    a, b = va.inputs[pairs[:, 0]], va.inputs[pairs[:, 1]]
    return (a * b).sum(1) / (np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1))

eer, thr = compute_eer(cosines(pos), cosines(neg))
print(f"raw cosine EER on validation-row pairs: {eer:.3f} (threshold {thr:.3f})")
print("raw inputs are far from verification-ready; that gap is what training closes")

# datasets round-trip through a plain CSV (written to the working directory)
save_csv(ds, "desk_task.csv")
print("wrote desk_task.csv")
