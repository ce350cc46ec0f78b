"""Sign-off battery: one test per release gate, each printing a verdict line.

The verdict lines are collected in ``VERDICTS`` and echoed at the end of
the pytest run (see conftest), so a full run doubles as the acceptance
report.  Budgets are wall-clock seconds on a single core.
"""

import time
from dataclasses import replace

import numpy as np

from pairsim import (
    GenSpec,
    LossConfig,
    SgdConfig,
    TrainConfig,
    ablate,
    cluster_by_threshold,
    clustering_accuracy,
    component_checks,
    compute_eer,
    desideratum_audit,
    generate,
    pair_loss,
    softplus,
    tpr_at_far,
    train,
)
from pairsim.cli import main
from pairsim.similarity import SimilarityKind, score_matrix
from pairsim.trainer import ablation_cells

VERDICTS = []


def _verdict(num, ok, detail, elapsed, budget):
    line = (
        f"[criterion {num}] {'PASS' if ok else 'FAIL'} {detail} "
        f"({elapsed:.1f}s, budget {budget:.0f}s)"
    )
    VERDICTS.append(line)
    print(line)
    assert ok, line
    assert elapsed < budget, line


def _desk_cfg(**over):
    """Training setup used across the end-to-end gates.

    r=3, alpha tuned over the standard sweep grid, b_theta=0.3; optimizer
    and queue settings are the package defaults unless overridden.
    """
    loss_over = over.pop("loss", {})
    sgd_over = over.pop("sgd", {})
    loss = LossConfig(
        r=3.0,
        alpha=0.001,
        b=0.0,
        similarity=SimilarityKind(b_theta=0.3),
    )
    sgd = SgdConfig(lr=0.05, momentum=0.9, weight_decay=5e-4)
    return TrainConfig(
        loss=replace(loss, **loss_over),
        sgd=replace(sgd, **sgd_over),
        **over,
    )


def _final_eval(log):
    return [e["eval"] for e in log.epochs if "eval" in e][-1]


# final val EER by (repr(cfg), data seed): criterion 6 fills it from its
# sweep rows, and criterion 7's generalized-inner runs are its (r = 3,
# alpha = 1e-3) cell, so a battery run trains them once; each test run alone
# still trains what it needs
_FINAL_EERS = {}


def _final_eer(cfg, seed):
    """Final val EER of ``cfg`` trained on the default task generated with ``seed``."""
    key = (repr(cfg), seed)
    if key not in _FINAL_EERS:
        _FINAL_EERS[key] = _final_eval(train(cfg, generate(GenSpec(seed=seed))))["eer"]
    return _FINAL_EERS[key]


# ---------------------------------------------------------------- 1


def test_gradient_integrity_battery():
    t0 = time.time()
    worst = 0.0
    worst_name = ""
    count = 0
    ok = True
    for seed in range(20):
        for name, err, tol in component_checks(seed):
            count += 1
            if err >= tol:
                ok = False
            if err > worst:
                worst, worst_name = err, name
    _verdict(
        1,
        ok,
        f"gradient integrity: 20 seeds, {count} checks, "
        f"worst rel err {worst:.2e} ({worst_name})",
        time.time() - t0,
        30.0,
    )


# ---------------------------------------------------------------- 2


def test_loss_reduction_identities():
    t0 = time.time()
    rng = np.random.default_rng(20240801)
    worst_r1 = 0.0
    worst_half = 0.0
    for _ in range(10_000):
        s = float(rng.normal(scale=3.0))
        alpha = float(rng.uniform(0.01, 0.99))
        b = float(rng.normal())
        y = int(rng.integers(0, 2))
        # the closed forms at r = 1: alpha * softplus(-t) on positives,
        # (1 - alpha) * softplus(t) on negatives; at alpha = 1/2 half the
        # plain pair logistic loss
        t = s + b
        full = pair_loss(LossConfig(r=1.0, alpha=alpha, b=b), s, y)
        bal = alpha * softplus(-t) if y else (1 - alpha) * softplus(t)
        worst_r1 = max(worst_r1, abs(full - bal))
        half = pair_loss(LossConfig(r=1.0, alpha=0.5, b=b), s, y)
        naive = softplus(-t) if y else softplus(t)
        worst_half = max(worst_half, abs(half - 0.5 * naive))
    ok = worst_r1 <= 1e-15 and worst_half <= 1e-15
    _verdict(
        2,
        ok,
        f"reduction identities on 1e4 triples: r=1 gap {worst_r1:.1e}, "
        f"alpha=1/2 gap {worst_half:.1e}",
        time.time() - t0,
        1.0,
    )


# ---------------------------------------------------------------- 3


def _brute_eer(pos, neg):
    """Threshold sweep by direct counting (same documented crossing rule)."""
    uniq = np.unique(np.concatenate([pos, neg]))
    t = np.concatenate([[-np.inf], (uniq[:-1] + uniq[1:]) / 2.0, [np.inf]])
    frr = (pos[:, None] < t[None, :]).sum(axis=0) / pos.size
    far = (neg[:, None] >= t[None, :]).sum(axis=0) / neg.size
    diff = far - frr
    k = int(np.flatnonzero(diff >= 0)[-1])
    lam = diff[k] / (diff[k] - diff[k + 1])
    eer = (1.0 - lam) * far[k] + lam * far[k + 1]
    if lam == 0.0 or not np.isfinite(t[k + 1]):
        thr = t[k]
    elif lam == 1.0 or not np.isfinite(t[k]):
        thr = t[k + 1]
    else:
        thr = (1.0 - lam) * t[k] + lam * t[k + 1]
    return float(eer), float(thr)


def _brute_tpr(pos, neg, targets):
    # every distinct score at or below the top negative is a candidate
    out = {}
    cand = np.unique(np.concatenate([pos, neg]))
    cand = cand[cand <= neg.max()]
    far = (neg[:, None] >= cand[None, :]).sum(axis=0) / neg.size
    for target in targets:
        hit = np.flatnonzero(far <= target)
        if hit.size:
            i, clamped = int(hit[0]), False
        else:
            i, clamped = cand.size - 1, True
        tpr = float(1.0 - (pos < cand[i]).sum() / pos.size)
        out[str(target)] = {
            "tpr": tpr, "far": float(far[i]), "threshold": float(cand[i]), "clamped": clamped
        }
    return out


def test_metric_threshold_sweep_oracle():
    t0 = time.time()
    rng = np.random.default_rng(7)
    ok = True
    for case in range(100):
        p = int(rng.integers(1, 401))
        n = int(rng.integers(1, 401))
        pos = rng.normal(loc=0.5, size=p)
        neg = rng.normal(loc=-0.5, size=n)
        if case % 2:  # force ties within and across the two sides
            pos = np.round(pos * 2) / 2
            neg = np.round(neg * 2) / 2
        if compute_eer(pos, neg) != _brute_eer(np.sort(pos), np.sort(neg)):
            ok = False
        got = tpr_at_far(pos, neg, (0.25, 0.01, 0.0))
        want = _brute_tpr(np.sort(pos), np.sort(neg), (0.25, 0.01, 0.0))
        if got != want:
            ok = False

    # worked fixtures: identical score multisets pin EER at 1/2; the
    # staircase fixture pins TPR 0.75 at FAR 0.25
    eer, _ = compute_eer([1.0, 2.0], [1.0, 2.0])
    ok = ok and eer == 0.5
    fixture = tpr_at_far([3.0, 4.0, 5.0, 6.0], [1.0, 2.0, 3.0, 4.0], (0.25,))["0.25"]
    ok = ok and fixture["tpr"] == 0.75 and not fixture["clamped"] and fixture["far"] == 0.25
    _verdict(
        3,
        ok,
        "metric oracle: 100 sweeps (with ties) + EER=0.5 and TPR@FAR fixtures exact",
        time.time() - t0,
        10.0,
    )


# ---------------------------------------------------------------- 4


def test_positive_margin_implies_perfect_midpoint_clustering():
    t0 = time.time()
    sim = SimilarityKind(b_theta=0.3)
    ok = True
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        k = 2 + seed % 4
        basis, _ = np.linalg.qr(rng.normal(size=(8, 8)))
        labels = np.repeat(np.arange(k), 3 + seed % 4)
        feats = 2.0 * basis[labels] + 0.05 * rng.normal(size=(labels.size, 8))
        margin = desideratum_audit(feats, labels, sim)
        if margin <= 0:
            ok = False
            continue
        scores = score_matrix(sim, feats, feats)
        same = labels[:, None] == labels[None, :]
        upper = np.triu(np.ones_like(same, dtype=bool), 1)
        midpoint = (scores[same & upper].min() + scores[~same & upper].max()) / 2.0
        pred = cluster_by_threshold(feats, sim, midpoint)
        if clustering_accuracy(pred, labels) != 1.0:
            ok = False
    _verdict(
        4,
        ok,
        "positive margin: 50 sets cluster exactly at the margin midpoint",
        time.time() - t0,
        10.0,
    )


# ---------------------------------------------------------------- 5


def test_default_task_trains_to_low_eer_with_positive_margin():
    t0 = time.time()
    ds = generate(GenSpec(seed=0))
    # alpha=0.1 is the desk-scale optimum of the standard sweep grid
    # {5e-4, 1e-3, 2e-3, 1e-2, 1e-1}; weight decay is lifted because its
    # late norm shrink would otherwise erode the separation margin
    cfg = _desk_cfg(
        loss={"alpha": 0.1},
        sgd={"weight_decay": 0.0},
        epochs=100,
        eval_every=1,
        seed=0,
    )
    log = train(cfg, ds)
    evals = [e["eval"] for e in log.epochs if "eval" in e]
    first, last = evals[0], evals[-1]
    ok = (
        last["eer"] <= 0.02
        and last["desideratum_margin"] > 0.0
        and last["eer"] < first["eer"]
    )
    _verdict(
        5,
        ok,
        f"default task: EER {first['eer']:.4f} -> {last['eer']:.4f} (<= 0.02), "
        f"validation-row margin {last['desideratum_margin']:+.3f} (> 0)",
        time.time() - t0,
        300.0,
    )


# ---------------------------------------------------------------- 6


def test_reverse_mining_direction_over_seeds():
    t0 = time.time()
    grid = {"r": (1.0, 3.0), "alpha": (2e-4, 5e-4, 1e-3, 2e-3)}
    eers = {}  # (r, alpha) -> final val EER per seed, in seed order
    for seed in (0, 1, 2):
        base = _desk_cfg(epochs=100, eval_every=100, seed=seed)
        rows = ablate(grid, base, generate(GenSpec(seed=seed)), jobs=2)
        # a failed cell would drop out of its mean
        assert all(row["status"] == "ok" for row in rows), rows
        for cell, row in zip(ablation_cells(grid, base), rows):
            _FINAL_EERS[(repr(cell), seed)] = row["eer"]
            eers.setdefault((row["r"], row["alpha"]), []).append(row["eer"])
    means = {
        r: min(float(np.mean(eers[r, alpha])) for alpha in grid["alpha"]) for r in grid["r"]
    }
    ok = means[3.0] < means[1.0]
    _verdict(
        6,
        ok,
        f"reverse mining: mean EER r=3 {means[3.0]:.4f} < r=1 {means[1.0]:.4f} "
        f"(best alpha each, 3 seeds)",
        time.time() - t0,
        1800.0,
    )


# ---------------------------------------------------------------- 7


def test_generalized_inner_vs_cosine_over_seeds():
    # the cosine is the generalized inner product at b_theta 0 over unit
    # features
    t0 = time.time()
    means = {}
    for form, b_theta, normalize in (("generalized_inner", 0.3, False), ("cosine", 0.0, True)):
        eers = []
        for seed in (0, 1, 2):
            cfg = _desk_cfg(
                loss={"similarity": SimilarityKind(b_theta=b_theta)},
                normalize_features=normalize, epochs=100, eval_every=100, seed=seed,
            )
            eers.append(_final_eer(cfg, seed))
        means[form] = float(np.mean(eers))
    ok = means["generalized_inner"] <= means["cosine"]
    _verdict(
        7,
        ok,
        f"score function: mean EER generalized inner {means['generalized_inner']:.4f} "
        f"<= cosine (b_theta 0, unit features) {means['cosine']:.4f} (3 seeds)",
        time.time() - t0,
        1200.0,
    )


# ---------------------------------------------------------------- 8


def test_softmax_norm_blowup_vs_bounded_simple():
    t0 = time.time()
    ds = generate(GenSpec(samples_per_class=50, seed=0))
    ratios = {}
    acc = None
    # the plain proxy CE is proxy_gip_ce at b_theta 0 with no margin: logits
    # over raw inner products
    for method, b_theta in (("proxy_gip_ce", 0.0), ("simple", 0.3)):
        # weight decay off so the loss alone drives the norm dynamics
        cfg = _desk_cfg(
            loss={"similarity": SimilarityKind(b_theta=b_theta)},
            sgd={"weight_decay": 0.0}, method=method, epochs=100, eval_every=100, seed=0
        )
        log = train(cfg, ds)
        first = log.epochs[0]["mean_feature_norm"]
        ratios[method] = max(e["mean_feature_norm"] for e in log.epochs) / first
        if method == "proxy_gip_ce":
            acc = log.epochs[-1]["train_accuracy"]
    ok = ratios["proxy_gip_ce"] > 2.0 and acc >= 0.99 and ratios["simple"] < 10.0
    _verdict(
        8,
        ok,
        f"norm blowup: plain proxy CE (proxy_gip_ce, b_theta 0) {ratios['proxy_gip_ce']:.2f}x "
        f"(acc {acc:.2f}) "
        f"vs simple {ratios['simple']:.2f}x (< 10x)",
        time.time() - t0,
        180.0,
    )


# ---------------------------------------------------------------- 9


def test_cli_train_bit_identical(tmp_path):
    t0 = time.time()
    conf = tmp_path / "desk.cfg"
    conf.write_text(
        "data.num_classes = 8\n"
        "data.samples_per_class = 50\n"
        "train.epochs = 25\n"
        "train.eval_every = 25\n"
        "eval.num_pos = 200\n"
        "eval.num_neg = 200\n"
    )
    blobs = {}
    for run in ("a", "b"):
        out = tmp_path / run
        assert main(["train", "--config", str(conf), "--out", str(out)]) == 0
        blobs[run] = {
            name: (out / name).read_bytes()
            for name in ("runlog.jsonl", "checkpoint.bin", "summary.json", "manifest.json")
        }
    ok = blobs["a"] == blobs["b"]
    detail = "determinism: repeated train run byte-identical (runlog, checkpoint, summary)"
    _verdict(9, ok, detail, time.time() - t0, 120.0)
