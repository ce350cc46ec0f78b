"""Central finite-difference gradient checking helpers.

`component_checks` runs the standard battery of named fixtures (the score,
the pair loss and its batched form, encoder, full pipeline, proxy cross
entropies) and reports a max relative error per component; the command line
front end prints these and the test suite holds them to their tolerances.
Every check in it, of an array or of the scalar bias b, goes through
`numerical_grad`.  The full-pipeline row runs the gradient half of the step
`train` runs (encode, queue pairs, loss, backprop), `trainer._step_grads`,
and rebuilds none of it.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np


def numerical_grad(f, x, step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar f w.r.t. every entry of x.

    A float64 x is perturbed in place, one entry at a time, and each entry is
    restored exactly, so f may read x through a view instead of its argument.
    A Python float x becomes a 0-d array, which f receives in its place, and
    the gradient comes back 0-d.
    """
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        up = f(x)
        flat[i] = orig - step
        down = f(x)
        flat[i] = orig
        gflat[i] = (up - down) / (2.0 * step)
    return grad


def max_rel_err(analytic, numeric, floor: float = 1.0) -> float:
    """Worst per-entry relative error, with an absolute floor.

    err_i = |a_i - n_i| / max(|a_i|, |n_i|, floor): relative above the floor,
    absolute below it, so near-zero entries are not judged by their own
    (noise-dominated) magnitude.
    """
    a = np.asarray(analytic, dtype=np.float64).ravel()
    n = np.asarray(numeric, dtype=np.float64).ravel()
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
    return float(np.max(np.abs(a - n) / denom)) if a.size else 0.0


def _fd_err(floor: float, *checks) -> float:
    """Worst `max_rel_err` over (analytic, f, x) checks against
    numerical_grad(f, x)."""
    return max(max_rel_err(a, numerical_grad(f, x), floor) for a, f, x in checks)


def component_checks(seed: int = 0) -> list:
    """[(component, max_rel_err, tolerance)] over the standard fixtures.

    Tolerances follow the per-kind rule: 1e-6 for closed-form scalar maps,
    1e-4 for whole-pipeline compositions through the encoder (one `simple`
    step).  Hidden activations in the finite-difference fixtures are tanh,
    so no relu kink sits inside the perturbation window.
    """
    from .baselines import init_proxy_bank, proxy_gip_ce, softmax_ce
    from .encoder import backward, forward, init_encoder
    from .losses import LossConfig, PairBatch, batch_loss, pair_loss, pair_loss_grad
    from .numkit import Rng
    from .pair_queue import FeatureQueue, enqueue_batch
    from .similarity import SimilarityKind, score, score_grad
    from .trainer import TrainConfig, _step_grads

    rng = Rng(seed)
    out = []

    # scalar score gradients
    sim = SimilarityKind(b_theta=0.3)
    x1, x2 = rng.stream(("score", "generalized_inner")).normal(size=(2, 5))
    d1, d2 = score_grad(sim, x1, x2)
    out.append(("score_generalized_inner", _fd_err(
        1.0,
        (d1, lambda v: score(sim, v, x2), x1.copy()),
        (d2, lambda v: score(sim, x1, v), x2.copy()),
    ), 1e-6))

    # the pair loss at r = 3, at r = 1 (the balanced loss) and at r = 1,
    # alpha = 0.5 (half the plain pair logistic loss): one row each for the
    # scalar and the batched form, the worst over the three points
    points = ((3.0, 0.2), (1.0, 0.2), (1.0, 0.5))
    checks = [
        (pair_loss_grad(cfg, s, y)[0], lambda v, cfg=cfg, y=y: pair_loss(cfg, v, y), s)
        for cfg in (LossConfig(r=r, alpha=a, b=0.1) for r, a in points)
        for s in (-1.5, -0.2, 0.4, 2.0)
        for y in (0, 1)
    ]
    out.append(("pair_loss", _fd_err(1e-3, *checks), 1e-6))

    # batched: gradients w.r.t. all scores and the shared bias, each point on
    # its own fixture stream
    checks = []
    for name, r, alpha in (("simple_final", 2.0, 0.1), ("balanced", 1.0, 0.1),
                           ("naive", 1.0, 0.5)):
        cfg = LossConfig(r=r, alpha=alpha, b=0.05)
        srng = rng.stream(("batch", name))
        scores = srng.normal(size=12)
        labels = (srng.uniform(size=12) < 0.4).astype(int)
        _, d_scores, d_b = batch_loss(cfg, PairBatch(scores, labels))
        checks += [
            (d_scores, lambda v, cfg=cfg, labels=labels: batch_loss(cfg, PairBatch(v, labels))[0],
             scores.copy()),
            (d_b, lambda b, cfg=cfg, scores=scores, labels=labels:
             batch_loss(replace(cfg, b=b), PairBatch(scores, labels))[0], cfg.b),
        ]
    out.append(("batch_loss", _fd_err(1e-3, *checks), 1e-6))

    # encoder backward against a fixed linear readout; numerical_grad
    # perturbs the net's own theta entry by entry and restores each entry
    erng = rng.stream("encoder")
    net = init_encoder([4, 6, 3], erng.stream("init"), activation="tanh")
    x = erng.normal(size=(3, 4))
    readout = erng.normal(size=(3, 3))

    def f_net(_theta):
        feats, _ = forward(net, x)
        return float(np.sum(readout * feats))

    feats, cache = forward(net, x)
    analytic = backward(net, cache, readout)
    out.append(("encoder_backward", _fd_err(1e-3, (analytic, f_net, net.theta)), 1e-4))

    # full pipeline: params -> features -> queue pairs -> batch loss and
    # back, in the trainer's own step function
    step_cfg = TrainConfig()
    crng = rng.stream(("composition", "generalized_inner"))
    cfg = LossConfig(r=3.0, alpha=0.1, similarity=SimilarityKind(b_theta=0.3))
    pnet = init_encoder([4, 5, 3], crng.stream("init"), activation="tanh")
    px = crng.normal(size=(3, 4))
    qfeat = crng.normal(size=(6, 3))
    qlabels = crng.integers(0, 2, size=6)
    blabels = crng.integers(0, 2, size=3)
    queue = FeatureQueue(6, 3)
    enqueue_batch(queue, qfeat, qlabels)

    def step(b=0.1):
        return _step_grads(step_cfg, replace(cfg, b=b), pnet, px, blabels, {}, queue)

    _, d_theta, d_b, *_ = step()
    out.append(("composition_generalized_inner", _fd_err(
        1e-3,
        (d_theta, lambda _theta: step()[0], pnet.theta),
        (d_b, lambda b: step(b=b)[0], 0.1),
    ), 1e-4))

    # proxy cross entropies over a 3-row batch: features and proxies, with
    # the generalized-inner logits over unit and over raw proxies
    for name, normalize, b_theta, margin in (
        ("softmax_ce", False, 0.0, 0.0),
        ("proxy_gip_ce", True, 0.3, 0.2),
        ("proxy_gip_ce_raw_proxies", False, 0.3, 0.2),
    ):
        prng = rng.stream(("proxy", name))
        proxies = init_proxy_bank(prng.stream("bank"), 4, 5)
        feat = prng.normal(size=(3, 5))
        label = np.array([2, 0, 2])

        def ce(v=feat, w=proxies):
            if name == "softmax_ce":
                return softmax_ce(w, v, label, normalize)
            return proxy_gip_ce(w, v, label, b_theta, margin, normalize)

        g = ce()[1]
        out.append((name, _fd_err(
            1e-3,
            (g.d_feature, lambda v: ce(v=v)[0], feat.copy()),
            (g.d_proxies, lambda w: ce(w=w)[0], proxies.copy()),
        ), 1e-6))
    return out
