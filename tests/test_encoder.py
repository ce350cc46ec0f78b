import json
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from pairsim.encoder import (
    ACTIVATIONS,
    EncoderNet,
    SgdConfig,
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
from pairsim.trainer import encode


def zero_net(dims, activation="relu"):
    size = sum((a + 1) * b for a, b in zip(dims[:-1], dims[1:]))
    return EncoderNet(list(dims), np.zeros(size), activation)


# --- forward -----------------------------------------------------------------


def test_forward_zero_net():
    net = zero_net([3, 4, 2])
    feats, _ = forward(net, np.ones((5, 3)))
    assert_array_equal(feats, np.zeros((5, 2)))


def test_forward_identity_linear_layer():
    net = zero_net([3, 3])
    net.weights[0][...] = np.eye(3)
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


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_encode_keeps_the_bits_of_forward(activation):
    # encode runs forward's layer loop without its cache, and forward adds
    # each bias in place; both must give the bits of h @ w + b, layer by layer
    net = init_encoder([5, 16, 16, 3], Rng(3), activation)
    x = Rng(4).normal(size=(37, 5)) * 3.0
    want = x
    for l, (w, b) in enumerate(zip(net.weights, net.biases)):
        want = want @ w + b
        if l < net.num_layers() - 1:
            want = np.maximum(want, 0.0) if activation == "relu" else np.tanh(want)
    feats, cache = forward(net, x)
    assert len(cache) == net.num_layers()
    assert forward(net, x, cache=False)[1] == []
    assert encode(net, x).tobytes() == feats.tobytes() == want.tobytes()


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
    assert_array_equal(grads, np.zeros_like(net.theta))


def test_backward_scalar_closed_form():
    # 1x1 linear net, L = feat^2, input 2: dL/dW = 2*(2W)*2 = 8W.
    net = zero_net([1, 1])
    net.weights[0][0, 0] = 0.7
    x = np.array([[2.0]])
    feats, cache = forward(net, x)
    grads = backward(net, cache, 2.0 * feats)
    assert grads[0] == pytest.approx(8 * 0.7, rel=1e-14)  # theta[0] is W[0, 0]


def backward_from_preacts(net, x, grad_features):
    """The pre-activation form of backward: forward again keeping each hidden
    layer's z, then take the derivative from z (z > 0, 1 - tanh(z)**2)."""
    inputs, preacts, h = [], [], x
    last = net.num_layers() - 1
    for l, (w, b) in enumerate(zip(net.weights, net.biases)):
        inputs.append(h)
        z = h @ w + b
        if l < last:
            preacts.append(z)
            h = np.maximum(z, 0.0) if net.activation == "relu" else np.tanh(z)
    grad = np.empty_like(net.theta)
    i, g = grad.size, grad_features
    for l in range(last, -1, -1):
        if l < last:
            z = preacts[l]
            g = g * (z > 0.0) if net.activation == "relu" else g * (1.0 - np.tanh(z) ** 2)
        w = net.weights[l]
        i -= w.shape[1]
        grad[i : i + w.shape[1]] = g.sum(axis=0)
        i -= w.size
        grad[i : i + w.size] = (inputs[l].T @ g).ravel()
        g = g @ w.T
    return grad


@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("dims", [[3, 2], [32, 64, 64, 32], [5, 7, 6, 4, 3]])
def test_backward_bit_equal_to_preactivation_form(activation, dims):
    # backward takes each derivative from the cached activation; it must
    # give the bits the pre-activation form gives, exact zeros of relu included
    rng = Rng(len(dims) + 10 * dims[0])
    net = init_encoder(dims, rng, activation)
    net.biases[0][:] = rng.stream("b").normal(size=dims[1])  # some units dead
    x = rng.stream("x").normal(size=(32, dims[0]))
    feats, cache = forward(net, x)
    g = rng.stream("g").normal(size=feats.shape)
    assert backward(net, cache, g).tobytes() == backward_from_preacts(net, x, g).tobytes()


@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("dims", [[2, 3], [3, 5, 2], [4, 8, 6, 3]])
def test_backward_matches_finite_differences(activation, dims):
    # the draw must keep every ReLU pre-activation off its kink, where a
    # central difference reads half a slope, so its seed is fixed per case
    # (hash() of a str is salted per process)
    rng = Rng(zlib.crc32(f"{activation}{dims}".encode()))
    net = init_encoder(dims, rng, activation)
    x = rng.stream("x").normal(size=(4, dims[0]))
    target = rng.stream("t").normal(size=(4, dims[-1]))

    def loss_fn(n):
        feats, _ = forward(n, x)
        return 0.5 * float(np.sum((feats - target) ** 2))

    feats, cache = forward(net, x)
    grads = backward(net, cache, feats - target)

    # each layer's slice of the gradient vector, against finite differences
    # over that layer's views into theta
    i = 0
    for w, b in zip(net.weights, net.biases):
        fd_w = numerical_grad(lambda _: loss_fn(net), w)
        fd_b = numerical_grad(lambda _: loss_fn(net), b)
        assert max_rel_err(grads[i : i + w.size].reshape(w.shape), fd_w) < 1e-5
        i += w.size
        assert max_rel_err(grads[i : i + b.size], fd_b) < 1e-5
        i += b.size
    assert i == grads.size


# --- sgd_step ----------------------------------------------------------------


def test_sgd_zero_lr_is_noop():
    net = init_encoder([2, 2], Rng(5))
    before = net.copy()
    grads = np.ones_like(net.theta)
    sgd_step(net.theta, grads, SgdConfig(lr=0.0), np.zeros_like(net.theta))
    assert_array_equal(net.weights[0], before.weights[0])
    assert_array_equal(net.biases[0], before.biases[0])


def test_sgd_plain_gradient_descent():
    net = zero_net([1, 1])
    net.weights[0][0, 0] = 1.0
    grads = np.array([0.5, 0.25])  # (W[0, 0], b[0])
    cfg = SgdConfig(lr=0.1, momentum=0.0, weight_decay=0.0)
    sgd_step(net.theta, grads, cfg, np.zeros_like(net.theta))
    assert net.weights[0][0, 0] == pytest.approx(1.0 - 0.1 * 0.5)
    assert net.biases[0][0] == pytest.approx(-0.1 * 0.25)


def test_sgd_momentum_two_step_displacement():
    # Constant gradient g, momentum 0.9: v1 = g, v2 = 1.9g, total lr*g*2.9.
    net = zero_net([1, 1])
    g = 0.4
    grads = np.array([g, 0.0])
    velocity = np.zeros_like(net.theta)
    cfg = SgdConfig(lr=0.1, momentum=0.9, weight_decay=0.0)
    sgd_step(net.theta, grads, cfg, velocity)
    sgd_step(net.theta, grads, cfg, velocity)
    assert net.weights[0][0, 0] == pytest.approx(-0.1 * g * 2.9, rel=1e-14)


def test_sgd_weight_decay_enters_velocity():
    net = zero_net([1, 1])
    net.weights[0][0, 0] = 2.0
    cfg = SgdConfig(lr=0.1, momentum=0.0, weight_decay=0.5)
    sgd_step(net.theta, np.zeros(2), cfg, np.zeros_like(net.theta))
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
    ema = init_encoder([2, 3], Rng(7))
    before = ema.copy()
    ema_update(ema, net, 1.0)
    assert_array_equal(ema.weights[0], before.weights[0])

    ema = init_encoder([2, 3], Rng(7))
    ema_update(ema, net, 0.0)
    assert_array_equal(ema.weights[0], net.weights[0])


def test_ema_midpoint():
    net = zero_net([1, 1])
    net.weights[0][0, 0] = 3.0
    ema = zero_net([1, 1])
    ema.weights[0][0, 0] = 1.0
    ema_update(ema, net, 0.5)
    assert ema.weights[0][0, 0] == 2.0


def test_ema_contraction():
    net = init_encoder([3, 4, 2], Rng(8))
    ema = init_encoder([3, 4, 2], Rng(9))
    gap0 = np.max(np.abs(ema.theta - net.theta))
    for k in range(1, 6):
        ema_update(ema, net, 0.75)
        gap = np.max(np.abs(ema.theta - net.theta))
        assert gap == pytest.approx(gap0 * 0.75**k, rel=1e-10)


def test_ema_shape_mismatch():
    with pytest.raises(ShapeError):
        ema_update(zero_net([2, 2]), zero_net([2, 3]), 0.99)


@pytest.mark.parametrize("eta", [-0.1, 1.5, float("nan")])
def test_ema_rejects_eta_outside_the_unit_interval(eta):
    ema = zero_net([2, 2])
    with pytest.raises(ConfigError, match=r"eta must lie in \[0, 1\]"):
        ema_update(ema, zero_net([2, 2]), eta)
    assert_array_equal(ema.theta, 0.0)


# --- checkpoint --------------------------------------------------------------


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    net = init_encoder([5, 16, 8], Rng(10), activation="tanh")
    path = tmp_path / "enc.bin"
    save_encoder(net, path)
    loaded = load_encoder(path)
    assert loaded.layer_dims == net.layer_dims
    assert loaded.activation == net.activation
    assert_array_equal(loaded.theta, net.theta)
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


def _v1_bytes(layer_dims, activation, weights, biases):
    """The per-layer v1 writer, kept as the format oracle: the JSON header
    line, then each layer's weight matrix and bias vector as little-endian
    float64 bytes, layer by layer."""
    header = {"format": "pairsim-encoder-v1", "layer_dims": layer_dims, "activation": activation}
    blob = json.dumps(header, sort_keys=True).encode() + b"\n"
    for w, b in zip(weights, biases):
        blob += np.ascontiguousarray(w, dtype="<f8").tobytes()
        blob += np.ascontiguousarray(b, dtype="<f8").tobytes()
    return blob


@settings(max_examples=20, deadline=None)
@given(
    st.lists(st.integers(1, 9), min_size=2, max_size=5),
    st.sampled_from(ACTIVATIONS),
    st.integers(0, 2**32 - 1),
)
def test_checkpoint_roundtrip_property(tmp_path_factory, layer_dims, activation, seed):
    rng = Rng(seed)
    weights = [rng.stream(("w", l)).normal(size=(a, b))
               for l, (a, b) in enumerate(zip(layer_dims[:-1], layer_dims[1:]))]
    biases = [rng.stream(("b", l)).normal(size=b) for l, b in enumerate(layer_dims[1:])]
    blob = _v1_bytes(layer_dims, activation, weights, biases)
    path = tmp_path_factory.mktemp("ckpt") / "enc.bin"
    path.write_bytes(blob)

    # a v1 file written layer by layer loads bit-exact into the views
    net = load_encoder(path)
    assert net.layer_dims == layer_dims and net.activation == activation
    for got, want in zip(net.weights + net.biases, weights + biases):
        assert got.tobytes() == want.tobytes()
    # save writes the v1 bytes, and save -> load -> save is a fixed point
    save_encoder(net, path)
    assert path.read_bytes() == blob
    again = load_encoder(path)
    assert again.theta.tobytes() == net.theta.tobytes()
    save_encoder(again, path)
    assert path.read_bytes() == blob

    # every cut, and any appended byte, is a named error
    for size in range(len(blob)):
        path.write_bytes(blob[:size])
        with pytest.raises(ConfigError, match="enc.bin"):
            load_encoder(path)
    for tail in (b"\0", b"\n", blob[-8:]):
        path.write_bytes(blob + tail)
        with pytest.raises(ConfigError, match="enc.bin has bytes left over"):
            load_encoder(path)


def _good_header():
    return {"format": "pairsim-encoder-v1", "layer_dims": [2, 3], "activation": "tanh"}


def _drop(key):
    def edit(h):
        del h[key]
    return edit


def _set(key, value):
    def edit(h):
        h[key] = value
    return edit


# each bad header comes with a body of 8 bytes per parameter as the header's
# dims count them (where they can be counted), so size checks alone pass
@pytest.mark.parametrize("edit, body_floats", [
    (_set("layer_dims", [3]), 0),  # one dim: no layer at all
    (_set("layer_dims", [2, 0, 1]), 1),
    (_set("layer_dims", [2, -1]), 0),
    (_set("layer_dims", "ab"), 0),
    (_set("layer_dims", [2.5, 3]), 9),
    (_set("layer_dims", None), 0),
    (_set("activation", "sigmoid"), 9),
    (_drop("layer_dims"), 0),
    (_drop("activation"), 9),
], ids=["one-dim", "zero-dim", "negative-dim", "string-dims", "float-dim",
        "null-dims", "unknown-activation", "no-dims", "no-activation"])
def test_checkpoint_bad_header_is_named_config_error(tmp_path, edit, body_floats):
    header = _good_header()
    edit(header)
    path = tmp_path / "enc.bin"
    path.write_bytes(json.dumps(header).encode() + b"\n" + np.zeros(body_floats).tobytes())
    with pytest.raises(ConfigError, match=r"enc\.bin has a bad header"):
        load_encoder(path)


def test_encoder_net_rejects_theta_of_the_wrong_size():
    with pytest.raises(ShapeError):
        EncoderNet([2, 3], np.zeros(8))


@pytest.mark.parametrize("dims, activation, words", [
    # a net with an unknown activation would compute tanh features, and
    # save_encoder would write a checkpoint that load_encoder refuses
    ([3, 4, 2], "Relu", "unknown activation 'Relu'"),
    ([2, 0, 2], "relu", "need at least input and output dims, each >= 1"),
    ([3], "relu", "need at least input and output dims, each >= 1"),
], ids=["unknown-activation", "zero-dim", "one-dim"])
def test_encoder_net_holds_the_checkpoint_header_rules(dims, activation, words):
    with pytest.raises(ConfigError, match=words):
        zero_net(dims, activation)
