"""Feedforward feature encoder with manual backprop.

The encoder is a small MLP (hidden activations relu or tanh, linear output,
deliberately no output normalization). `forward` caches what `backward`
needs; `sgd_step` and `ema_update` mutate in place and are the only mutating
entry points. Checkpoints round-trip bit-exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError
from .numkit import Rng, check_finite

ACTIVATIONS = ("relu", "tanh")


@dataclass
class EncoderNet:
    layer_dims: list[int]
    weights: list[np.ndarray]  # weights[l]: (layer_dims[l], layer_dims[l+1])
    biases: list[np.ndarray]  # biases[l]: (layer_dims[l+1],)
    activation: str = "relu"

    def num_layers(self) -> int:
        return len(self.weights)

    def copy(self) -> "EncoderNet":
        return EncoderNet(
            list(self.layer_dims),
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
            self.activation,
        )


@dataclass
class ParamGrads:
    weights: list[np.ndarray]
    biases: list[np.ndarray]


@dataclass
class EmaEncoder:
    """Exponentially averaged shadow copy of an encoder (never backpropped)."""

    params: EncoderNet
    eta: float = 0.99

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise ConfigError(f"eta must lie in [0, 1], got {self.eta}")


@dataclass
class SgdConfig:
    lr: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 5e-4

    def __post_init__(self):
        if not self.lr >= 0.0:
            raise ConfigError(f"lr must be >= 0, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must lie in [0, 1), got {self.momentum}")
        if self.weight_decay < 0.0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")


def init_encoder(layer_dims, rng: Rng, activation: str = "relu") -> EncoderNet:
    """He-style init: W ~ N(0, sqrt(2/fan_in)), biases zero."""
    if activation not in ACTIVATIONS:
        raise ConfigError(f"unknown activation {activation!r}")
    if len(layer_dims) < 2 or any(d < 1 for d in layer_dims):
        raise ConfigError(f"need at least input and output dims, got {layer_dims}")
    weights, biases = [], []
    for l, (d_in, d_out) in enumerate(zip(layer_dims[:-1], layer_dims[1:])):
        scale = np.sqrt(2.0 / d_in)
        weights.append(rng.stream(("w", l)).normal(size=(d_in, d_out), scale=scale))
        biases.append(np.zeros(d_out))
    return EncoderNet(list(layer_dims), weights, biases, activation)


def forward(net: EncoderNet, batch: np.ndarray):
    """Encode a batch (n x d0) into features (n x d_feat).

    Returns (features, cache); the cache holds each layer's input and the
    hidden pre-activations, which is exactly what `backward` consumes.
    """
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[1] != net.layer_dims[0]:
        raise ShapeError(
            f"batch shape {batch.shape} incompatible with input dim {net.layer_dims[0]}"
        )
    h = batch
    inputs, preacts = [], []
    last = net.num_layers() - 1
    for l, (w, b) in enumerate(zip(net.weights, net.biases)):
        inputs.append(h)
        z = h @ w + b
        if l < last:
            preacts.append(z)
            h = np.maximum(z, 0.0) if net.activation == "relu" else np.tanh(z)
        else:
            h = z
    check_finite(h, "encoder features")
    return h, (inputs, preacts)


def backward(net: EncoderNet, cache, grad_features: np.ndarray) -> ParamGrads:
    """Chain-rule d(loss)/d(params) from d(loss)/d(features); net unchanged."""
    inputs, preacts = cache
    g = np.asarray(grad_features, dtype=np.float64)
    if g.shape != (inputs[0].shape[0], net.layer_dims[-1]):
        raise ShapeError(f"grad_features shape {g.shape} does not match forward output")
    d_weights = [None] * net.num_layers()
    d_biases = [None] * net.num_layers()
    last = net.num_layers() - 1
    for l in range(last, -1, -1):
        if l < last:
            z = preacts[l]
            if net.activation == "relu":
                g = g * (z > 0.0)
            else:
                g = g * (1.0 - np.tanh(z) ** 2)
        d_weights[l] = inputs[l].T @ g
        d_biases[l] = g.sum(axis=0)
        if l > 0:
            g = g @ net.weights[l].T
    return ParamGrads(d_weights, d_biases)


class SgdState:
    """Momentum buffers for one encoder (created lazily, all zeros)."""

    def __init__(self, net: EncoderNet):
        self.v_weights = [np.zeros_like(w) for w in net.weights]
        self.v_biases = [np.zeros_like(b) for b in net.biases]


def sgd_step(net: EncoderNet, grads: ParamGrads, cfg: SgdConfig, state: SgdState) -> None:
    """v <- momentum*v + grad + weight_decay*theta;  theta <- theta - lr*v."""
    for w, g, v in zip(net.weights, grads.weights, state.v_weights):
        if w.shape != g.shape:
            raise ShapeError(f"gradient shape {g.shape} does not match weight {w.shape}")
        v *= cfg.momentum
        v += g + cfg.weight_decay * w
        w -= cfg.lr * v
    for b, g, v in zip(net.biases, grads.biases, state.v_biases):
        v *= cfg.momentum
        v += g + cfg.weight_decay * b
        b -= cfg.lr * v


def ema_update(ema: EmaEncoder, net: EncoderNet) -> None:
    """p_q <- eta*p_q + (1-eta)*p for every parameter."""
    if ema.params.layer_dims != net.layer_dims:
        raise ShapeError(
            f"EMA shape {ema.params.layer_dims} does not match encoder {net.layer_dims}"
        )
    eta = ema.eta
    for pq, p in zip(ema.params.weights, net.weights):
        pq *= eta
        pq += (1.0 - eta) * p
    for pq, p in zip(ema.params.biases, net.biases):
        pq *= eta
        pq += (1.0 - eta) * p


# Checkpoint format: one JSON header line, then the raw little-endian float64
# bytes of every weight matrix and bias vector in layer order, row-major.
_MAGIC = "pairsim-encoder-v1"


def save_encoder(net: EncoderNet, path) -> None:
    header = {
        "format": _MAGIC,
        "layer_dims": list(net.layer_dims),
        "activation": net.activation,
    }
    with open(path, "wb") as f:
        f.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        for w, b in zip(net.weights, net.biases):
            f.write(np.ascontiguousarray(w, dtype="<f8").tobytes())
            f.write(np.ascontiguousarray(b, dtype="<f8").tobytes())


def load_encoder(path) -> EncoderNet:
    with open(path, "rb") as f:
        try:
            header = json.loads(f.readline().decode())
        except ValueError:  # bad UTF-8 or JSON, e.g. a file cut inside its header
            header = None
        if not isinstance(header, dict) or header.get("format") != _MAGIC:
            raise ConfigError(f"{path} is not an encoder checkpoint")
        dims = [int(d) for d in header["layer_dims"]]

        def block(*shape):
            want = 8 * int(np.prod(shape))
            buf = f.read(want)
            if len(buf) != want:
                raise ConfigError(f"{path} is truncated: {len(buf)} of {want} bytes of a block")
            return np.frombuffer(buf, dtype="<f8").reshape(shape).copy()

        weights, biases = [], []
        for d_in, d_out in zip(dims[:-1], dims[1:]):
            weights.append(block(d_in, d_out))
            biases.append(block(d_out))
        if f.read(1):
            raise ConfigError(f"{path} has bytes left over after its last layer")
    return EncoderNet(dims, weights, biases, header["activation"])
