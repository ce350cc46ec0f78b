"""
Sweeping mining strength and the class-balance weight
=====================================================

Grid-sweep the two loss knobs that matter most, r and alpha, on a small
task, and render the result as a CSV table.  The point to notice: at
small alpha, r = 3 keeps training while r = 1 stalls.
"""

from dataclasses import replace

from pairsim import GenSpec, TrainConfig, ablate, ablate_csv, generate

# a quarter-size task keeps the 8-cell sweep under a minute
ds = generate(GenSpec(num_classes=8, samples_per_class=100, seed=0))
base = TrainConfig(epochs=50, eval_every=50, seed=0)
base = replace(base, sgd=replace(base.sgd, weight_decay=0.0))

rows = ablate({"r": [1.0, 3.0], "alpha": [5e-4, 1e-3, 2e-3, 1e-1]}, base, ds)

print("    r    alpha     eer")
for row in rows:
    print(f"  {row['r']:.0f}   {row['alpha']:6.4f}   {row['eer']:.4f}")

# the r = 3 rows stay low across the alpha range; the r = 1 rows fall
# apart once alpha starves the positive branch of gradient
by_r = {r: [row["eer"] for row in rows if row["r"] == r] for r in (1.0, 3.0)}
print(f"\nmean EER  r=1: {sum(by_r[1.0]) / 4:.4f}   r=3: {sum(by_r[3.0]) / 4:.4f}")

csv_text = ablate_csv(rows)
with open("ablation.csv", "w") as f:
    f.write(csv_text)
print("wrote ablation.csv:")
print(csv_text.splitlines()[0])
print(csv_text.splitlines()[1])
