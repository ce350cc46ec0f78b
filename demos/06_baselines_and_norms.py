"""
Baselines, and why bounded pair losses keep norms sane
======================================================

Train the same encoder under softmax cross-entropy and under the pair
loss, then compare the feature-norm trajectories.  The plain softmax CE is
the proxy CE (`proxy_gip_ce`) at `b_theta` 0 with no margin: its logits are
raw inner products with the class proxies, and it is scored at that
`b_theta`.  Cross-entropy can always shave a little more loss by inflating
feature norms; the pair loss saturates once pairs are ordered correctly,
so norms level off.
"""

from dataclasses import replace

from pairsim import GenSpec, TrainConfig, final_report, generate, norm_blowup_probe, train

# a small, fully separable task that both methods solve; weight decay is
# off so nothing masks the norm dynamics we want to observe
ds = generate(GenSpec(samples_per_class=50, seed=0))
base = TrainConfig(eval_every=100, seed=0)
base = replace(base, sgd=replace(base.sgd, weight_decay=0.0))

plain_ce = replace(base.loss, similarity=replace(base.loss.similarity, b_theta=0.0))
runs = {
    "plain CE": train(replace(base, method="proxy_gip_ce", loss=plain_ce), ds),
    "simple": train(replace(base, loss=replace(base.loss, alpha=0.1)), ds),
}

print("epoch   plain CE norm   simple norm")
for ep in (1, 25, 50, 75, 100):
    ce = norm_blowup_probe(runs["plain CE"])[ep - 1]
    si = norm_blowup_probe(runs["simple"])[ep - 1]
    print(f"{ep:>5}   {ce:13.2f}   {si:11.2f}")

for method, log in runs.items():
    series = norm_blowup_probe(log)
    rep = final_report(log)
    extra = ""
    if "train_accuracy" in log.epochs[-1]:
        extra = f", train accuracy {log.epochs[-1]['train_accuracy']:.2f}"
    print(f"{method:>10}: norm grew {series.max() / series[0]:.2f}x, "
          f"final EER {rep['eer']:.4f}{extra}")

# cross-entropy classifies perfectly, yet its feature geometry never
# stops moving; the pair loss converges to a stable scale.  That
# stability is what lets one bias double as a deployment threshold.
