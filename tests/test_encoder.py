import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from pairsim.encoder import (
    EmaEncoder,
    EncoderNet,
    ParamGrads,
    SgdConfig,
    SgdState,
    backward,
    ema_update,
    forward,
    init_encoder,
    load_encoder,
    save_encoder,
    sgd_step,
)
from pairsim.errors import ConfigError, ShapeError
from pairsim.gradcheck import max_rel_err, numerical_grad
from pairsim.numkit import Rng


def zero_net(dims, activation="relu"):
    return EncoderNet(
        list(dims),
        [np.zeros((a, b)) for a, b in zip(dims[:-1], dims[1:])],
        [np.zeros(b) for b in dims[1:]],
        activation,
    )


# --- forward -----------------------------------------------------------------


def test_forward_zero_net():
    net = zero_net([3, 4, 2])
    feats, _ = forward(net, np.ones((5, 3)))
    assert_array_equal(feats, np.zeros((5, 2)))


def test_forward_identity_linear_layer():
    net = zero_net([3, 3])
    net.weights[0] = np.eye(3)
    x = np.arange(12, dtype=float).reshape(4, 3)
    feats, _ = forward(net, x)
    assert_array_equal(feats, x)


def test_forward_matches_scalar_hand_evaluation():
    # Independent oracle: evaluate the same net entry by entry in plain python.
    net = init_encoder([2, 3, 2], Rng(0))
    x = np.array([[1.0, 1.0]])
    feats, _ = forward(net, x)

    hidden = []
    for j in range(3):
        z = sum(x[0][i] * net.weights[0][i, j] for i in range(2)) + net.biases[0][j]
        hidden.append(max(z, 0.0))
    out = []
    for k in range(2):
        out.append(sum(hidden[j] * net.weights[1][j, k] for j in range(3)) + net.biases[1][k])
    assert_allclose(feats[0], out, rtol=1e-14)


def test_forward_deterministic():
    net = init_encoder([4, 8, 3], Rng(1))
    x = Rng(2).normal(size=(6, 4))
    a, _ = forward(net, x)
    b, _ = forward(net, x)
    assert_array_equal(a, b)


def test_forward_shape_check():
    with pytest.raises(ShapeError):
        forward(zero_net([3, 2]), np.ones((4, 5)))


# --- backward ----------------------------------------------------------------


def test_backward_zero_grad():
    net = init_encoder([3, 4, 2], Rng(3))
    x = Rng(4).normal(size=(5, 3))
    _, cache = forward(net, x)
    grads = backward(net, cache, np.zeros((5, 2)))
    for g in grads.weights + grads.biases:
        assert_array_equal(g, np.zeros_like(g))


def test_backward_scalar_closed_form():
    # 1x1 linear net, L = feat^2, input 2: dL/dW = 2*(2W)*2 = 8W.
    net = zero_net([1, 1])
    net.weights[0][0, 0] = 0.7
    x = np.array([[2.0]])
    feats, cache = forward(net, x)
    grads = backward(net, cache, 2.0 * feats)
    assert grads.weights[0][0, 0] == pytest.approx(8 * 0.7, rel=1e-14)


@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("dims", [[2, 3], [3, 5, 2], [4, 8, 6, 3]])
def test_backward_matches_finite_differences(activation, dims):
    rng = Rng(hash((activation, tuple(dims))) % 2**32)
    net = init_encoder(dims, rng, activation)
    x = rng.stream("x").normal(size=(4, dims[0]))
    target = rng.stream("t").normal(size=(4, dims[-1]))

    def loss_fn(n):
        feats, _ = forward(n, x)
        return 0.5 * float(np.sum((feats - target) ** 2))

    feats, cache = forward(net, x)
    grads = backward(net, cache, feats - target)

    for l in range(net.num_layers()):
        fd_w = numerical_grad(lambda w: loss_fn(net), net.weights[l])
        fd_b = numerical_grad(lambda b: loss_fn(net), net.biases[l])
        assert max_rel_err(grads.weights[l], fd_w) < 1e-5
        assert max_rel_err(grads.biases[l], fd_b) < 1e-5


# --- sgd_step ----------------------------------------------------------------


def test_sgd_zero_lr_is_noop():
    net = init_encoder([2, 2], Rng(5))
    before = net.copy()
    grads = ParamGrads([np.ones_like(w) for w in net.weights], [np.ones_like(b) for b in net.biases])
    sgd_step(net, grads, SgdConfig(lr=0.0), SgdState(net))
    assert_array_equal(net.weights[0], before.weights[0])
    assert_array_equal(net.biases[0], before.biases[0])


def test_sgd_plain_gradient_descent():
    net = zero_net([1, 1])
    net.weights[0][0, 0] = 1.0
    grads = ParamGrads([np.array([[0.5]])], [np.array([0.25])])
    sgd_step(net, grads, SgdConfig(lr=0.1, momentum=0.0, weight_decay=0.0), SgdState(net))
    assert net.weights[0][0, 0] == pytest.approx(1.0 - 0.1 * 0.5)
    assert net.biases[0][0] == pytest.approx(-0.1 * 0.25)


def test_sgd_momentum_two_step_displacement():
    # Constant gradient g, momentum 0.9: v1 = g, v2 = 1.9g, total lr*g*2.9.
    net = zero_net([1, 1])
    g = 0.4
    grads = ParamGrads([np.array([[g]])], [np.array([0.0])])
    state = SgdState(net)
    cfg = SgdConfig(lr=0.1, momentum=0.9, weight_decay=0.0)
    sgd_step(net, grads, cfg, state)
    sgd_step(net, grads, cfg, state)
    assert net.weights[0][0, 0] == pytest.approx(-0.1 * g * 2.9, rel=1e-14)


def test_sgd_weight_decay_enters_velocity():
    net = zero_net([1, 1])
    net.weights[0][0, 0] = 2.0
    grads = ParamGrads([np.array([[0.0]])], [np.array([0.0])])
    sgd_step(net, grads, SgdConfig(lr=0.1, momentum=0.0, weight_decay=0.5), SgdState(net))
    assert net.weights[0][0, 0] == pytest.approx(2.0 - 0.1 * 0.5 * 2.0)


def test_sgd_config_validation():
    with pytest.raises(ConfigError):
        SgdConfig(lr=-1.0)
    with pytest.raises(ConfigError):
        SgdConfig(momentum=1.0)
    with pytest.raises(ConfigError):
        SgdConfig(weight_decay=-0.1)


# --- ema_update --------------------------------------------------------------


def test_ema_endpoints():
    net = init_encoder([2, 3], Rng(6))
    ema = EmaEncoder(init_encoder([2, 3], Rng(7)), eta=1.0)
    before = ema.params.copy()
    ema_update(ema, net)
    assert_array_equal(ema.params.weights[0], before.weights[0])

    ema = EmaEncoder(init_encoder([2, 3], Rng(7)), eta=0.0)
    ema_update(ema, net)
    assert_array_equal(ema.params.weights[0], net.weights[0])


def test_ema_midpoint():
    net = zero_net([1, 1])
    net.weights[0][0, 0] = 3.0
    shadow = zero_net([1, 1])
    shadow.weights[0][0, 0] = 1.0
    ema = EmaEncoder(shadow, eta=0.5)
    ema_update(ema, net)
    assert ema.params.weights[0][0, 0] == 2.0


def test_ema_contraction():
    net = init_encoder([3, 4, 2], Rng(8))
    ema = EmaEncoder(init_encoder([3, 4, 2], Rng(9)), eta=0.75)
    gap0 = max(
        np.max(np.abs(pq - p)) for pq, p in zip(ema.params.weights, net.weights)
    )
    for k in range(1, 6):
        ema_update(ema, net)
        gap = max(np.max(np.abs(pq - p)) for pq, p in zip(ema.params.weights, net.weights))
        assert gap == pytest.approx(gap0 * 0.75**k, rel=1e-10)


def test_ema_shape_mismatch():
    with pytest.raises(ShapeError):
        ema_update(EmaEncoder(zero_net([2, 2])), zero_net([2, 3]))


# --- checkpoint --------------------------------------------------------------


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    net = init_encoder([5, 16, 8], Rng(10), activation="tanh")
    path = tmp_path / "enc.bin"
    save_encoder(net, path)
    loaded = load_encoder(path)
    assert loaded.layer_dims == net.layer_dims
    assert loaded.activation == net.activation
    for a, b in zip(loaded.weights + loaded.biases, net.weights + net.biases):
        assert_array_equal(a, b)
    # saving the loaded net reproduces identical bytes
    path2 = tmp_path / "enc2.bin"
    save_encoder(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_rejects_other_files(tmp_path):
    p = tmp_path / "junk.bin"
    p.write_bytes(b'{"format": "something-else"}\n')
    with pytest.raises(ConfigError):
        load_encoder(p)


def test_checkpoint_truncated_or_padded_is_config_error(tmp_path):
    net = init_encoder([5, 16, 8], Rng(11), activation="tanh")
    path = tmp_path / "enc.bin"
    save_encoder(net, path)
    blob = path.read_bytes()
    body = blob.index(b"\n") + 1
    first_weights = body + 8 * 5 * 16
    cut = tmp_path / "cut.bin"
    # inside the header, at its end, inside and at the end of the first
    # weight block, inside a bias block, one byte short
    for size in (body // 2, body, body + 12, first_weights, first_weights + 8, len(blob) - 1):
        cut.write_bytes(blob[:size])
        with pytest.raises(ConfigError, match="cut.bin"):
            load_encoder(cut)
    cut.write_bytes(blob + b"\0")
    with pytest.raises(ConfigError, match="left over"):
        load_encoder(cut)
