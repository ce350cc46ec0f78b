"""Feedforward feature encoder with manual backprop.

The encoder is a small MLP (hidden activations relu or tanh, linear output,
deliberately no output normalization). All of its parameters live in one
contiguous float64 vector `theta`, in checkpoint order: w0, b0, w1, b1, ...,
each weight matrix row-major. `weights[l]` (d_l x d_{l+1}) and `biases[l]`
are views into `theta`, so writing a layer writes `theta`; update them in
place and never rebind them or `theta`. `backward` returns a gradient vector
of the same layout, so `sgd_step`, `ema_update` and the checkpoint each act
on one vector. `forward` caches what `backward` needs; `sgd_step` and
`ema_update` mutate in place and are the only mutating entry points.
Checkpoints round-trip bit-exactly.
"""

from __future__ import annotations

import json
import operator
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError
from .numkit import Rng, check_finite

ACTIVATIONS = ("relu", "tanh")


def _architecture(layer_dims, activation) -> list[int]:
    """The validated layer dims as ints: at least input and output, each >= 1."""
    if activation not in ACTIVATIONS:
        raise ConfigError(f"unknown activation {activation!r}")
    try:
        dims = [operator.index(d) for d in layer_dims]
    except TypeError:
        dims = []
    if len(dims) < 2 or min(dims) < 1:
        raise ConfigError(f"need at least input and output dims, each >= 1, got {layer_dims!r}")
    return dims


def _layers(dims, vec: np.ndarray):
    """(weight views, bias views) of a flat vector in checkpoint order."""
    weights, biases, i = [], [], 0
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        weights.append(vec[i : i + d_in * d_out].reshape(d_in, d_out))
        i += d_in * d_out
        biases.append(vec[i : i + d_out])
        i += d_out
    return weights, biases


def _num_params(dims) -> int:
    return sum((d_in + 1) * d_out for d_in, d_out in zip(dims[:-1], dims[1:]))


@dataclass
class EncoderNet:
    layer_dims: list[int]
    theta: np.ndarray  # every parameter, in checkpoint order
    activation: str = "relu"
    weights: list = field(init=False, repr=False)  # views: (layer_dims[l], layer_dims[l+1])
    biases: list = field(init=False, repr=False)  # views: (layer_dims[l+1],)

    def __post_init__(self):
        self.theta = np.ascontiguousarray(self.theta, dtype=np.float64)
        if self.theta.shape != (_num_params(self.layer_dims),):
            raise ShapeError(
                f"theta shape {self.theta.shape} does not match layer dims {self.layer_dims}"
            )
        self.weights, self.biases = _layers(self.layer_dims, self.theta)

    def num_layers(self) -> int:
        return len(self.weights)

    def copy(self) -> "EncoderNet":
        return EncoderNet(list(self.layer_dims), self.theta.copy(), self.activation)


@dataclass
class SgdConfig:
    lr: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 5e-4

    def __post_init__(self):
        if not 0.0 <= self.lr < np.inf:
            raise ConfigError(f"lr must be >= 0 and finite, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must lie in [0, 1), got {self.momentum}")
        if not 0.0 <= self.weight_decay < np.inf:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")


def init_encoder(layer_dims, rng: Rng, activation: str = "relu") -> EncoderNet:
    """He-style init: W ~ N(0, sqrt(2/fan_in)), biases zero."""
    dims = _architecture(layer_dims, activation)
    net = EncoderNet(dims, np.zeros(_num_params(dims)), activation)
    for l, w in enumerate(net.weights):
        w[...] = rng.stream(("w", l)).normal(size=w.shape, scale=np.sqrt(2.0 / w.shape[0]))
    return net


def forward(net: EncoderNet, batch: np.ndarray):
    """Encode a batch (n x d0) into features (n x d_feat).

    Returns (features, cache); the cache is the list of each layer's input,
    which is exactly what `backward` consumes: a hidden layer's activation
    is the next layer's input, and its derivative is taken from it.
    """
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[1] != net.layer_dims[0]:
        raise ShapeError(
            f"batch shape {batch.shape} incompatible with input dim {net.layer_dims[0]}"
        )
    h = batch
    inputs = []
    last = net.num_layers() - 1
    for l, (w, b) in enumerate(zip(net.weights, net.biases)):
        inputs.append(h)
        h = h @ w + b
        if l < last:
            h = np.maximum(h, 0.0, out=h) if net.activation == "relu" else np.tanh(h, out=h)
    check_finite(h, "encoder features")
    return h, inputs


def backward(net: EncoderNet, cache, grad_features: np.ndarray) -> np.ndarray:
    """Chain-rule d(loss)/d(theta) from d(loss)/d(features); net unchanged.

    The gradient vector has `theta`'s layout; each layer is written straight
    into its slice.
    """
    inputs = cache
    g = np.asarray(grad_features, dtype=np.float64)
    if g.shape != (inputs[0].shape[0], net.layer_dims[-1]):
        raise ShapeError(f"grad_features shape {g.shape} does not match forward output")
    grad = np.empty_like(net.theta)
    d_weights, d_biases = _layers(net.layer_dims, grad)
    for l in range(net.num_layers() - 1, -1, -1):
        np.matmul(inputs[l].T, g, out=d_weights[l])
        g.sum(axis=0, out=d_biases[l])
        if l > 0:
            g = g @ net.weights[l].T
            # the activation derivative, from the layer's output h = inputs[l]:
            # h > 0 for relu (as z > 0), 1 - h**2 for tanh (h is tanh(z))
            h = inputs[l]
            if net.activation == "relu":
                g *= h > 0.0
            else:
                g *= 1.0 - h * h
    return grad


def sgd_step(theta: np.ndarray, grad: np.ndarray, cfg: SgdConfig, v: np.ndarray) -> None:
    """v <- momentum*v + grad + weight_decay*theta;  theta <- theta - lr*v.

    Updates `theta` and the velocity `v` (start it at zeros) in place; any
    parameter array serves, the encoder's `theta` or the proxy matrix.
    """
    if grad.shape != theta.shape:
        raise ShapeError(f"gradient shape {grad.shape} does not match parameters {theta.shape}")
    v *= cfg.momentum
    if cfg.weight_decay:
        v += grad + cfg.weight_decay * theta
    else:  # 0*theta would change nothing but the sign of an exact zero
        v += grad
    theta -= cfg.lr * v


def ema_update(ema: EncoderNet, net: EncoderNet, eta: float) -> None:
    """p_q <- eta*p_q + (1-eta)*p for every parameter of ``ema``, the
    momentum copy of ``net`` (``net.copy()`` at the start; never backpropped)."""
    if not 0.0 <= eta <= 1.0:
        raise ConfigError(f"eta must lie in [0, 1], got {eta}")
    if ema.layer_dims != net.layer_dims:
        raise ShapeError(f"EMA shape {ema.layer_dims} does not match encoder {net.layer_dims}")
    ema.theta *= eta
    ema.theta += (1.0 - eta) * net.theta


# Checkpoint format: one JSON header line, then `theta` as raw little-endian
# float64 bytes: every weight matrix (row-major) and bias vector, layer by layer.
_MAGIC = "pairsim-encoder-v1"


def save_encoder(net: EncoderNet, path) -> None:
    header = {
        "format": _MAGIC,
        "layer_dims": list(net.layer_dims),
        "activation": net.activation,
    }
    with open(path, "wb") as f:
        f.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        f.write(net.theta.astype("<f8", copy=False).tobytes())


def load_encoder(path) -> EncoderNet:
    with open(path, "rb") as f:
        try:
            header = json.loads(f.readline().decode())
        except ValueError:  # bad UTF-8 or JSON, e.g. a file cut inside its header
            header = None
        if not isinstance(header, dict) or header.get("format") != _MAGIC:
            raise ConfigError(f"{path} is not an encoder checkpoint")
        try:
            dims = _architecture(header.get("layer_dims"), header.get("activation"))
        except ConfigError as exc:
            raise ConfigError(f"{path} has a bad header: {exc}") from None
        # size the body from the file, so a header promising more than the
        # file holds fails here instead of allocating that much
        want = 8 * _num_params(dims)
        have = os.fstat(f.fileno()).st_size - f.tell()
        if have < want:
            raise ConfigError(f"{path} is truncated: {have} of {want} bytes of parameters")
        if have > want:
            raise ConfigError(f"{path} has bytes left over after its last layer")
        theta = np.frombuffer(f.read(want), dtype="<f8").astype(np.float64)
    return EncoderNet(dims, theta, header["activation"])
