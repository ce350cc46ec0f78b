"""Deterministic numeric kernel.

Matrices are plain float64 numpy arrays, 2-D and C-ordered (row-major); the
helpers here add the shape/finiteness checking the rest of the package relies
on. The RNG is numpy's generator over counter-based Philox, so that independent,
reproducible streams can be derived by name regardless of call order.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .errors import ConfigError, DegenerateInputError, ShapeError


def as_matrix(data) -> np.ndarray:
    """Coerce to a 2-D float64 C-contiguous array, validating finiteness."""
    a = np.ascontiguousarray(data, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={a.ndim}")
    check_finite(a, "matrix")
    return a


def class_ids(labels) -> np.ndarray:
    """Class ids as a flat int64 array (no copy when they already are one).

    Integer and boolean ids are taken as they are.  Any other value must be
    a whole number in int64's range; the first one that is not raises
    ConfigError, so 0.5 is never truncated to class 0.
    """
    ids = np.asarray(labels).ravel()
    if ids.dtype.kind not in "biu":
        f = ids.astype(np.float64)
        whole = (f == np.floor(f)) & (f >= -(2.0**63)) & (f < 2.0**63)
        if not whole.all():
            bad = ids[np.argmin(whole)]
            raise ConfigError(f"class ids must be int64 integers, got {bad.item()!r}")
    return ids.astype(np.int64, copy=False)


def check_finite(a, what: str = "array"):
    """``a``, an array or a float, if all of it is finite."""
    if not (math.isfinite(a) if isinstance(a, float) else np.isfinite(a).all()):
        raise FloatingPointError(f"{what} contains NaN or Inf")
    return a


def row_norms(a: np.ndarray) -> np.ndarray:
    """||a_i|| for the rows of a 2-D array: ``np.linalg.norm(a, axis=1)``'s bits."""
    return np.sqrt(np.add.reduce(a * a, axis=1))


def unit_rows(a: np.ndarray, what: str = "row"):
    """(a / ||a_i||, ||a_i||) for the rows of a 2-D array."""
    norms = row_norms(a)
    if not norms.all():
        raise DegenerateInputError(f"cannot normalize a zero {what}")
    return a / norms[:, None], norms


def unit_rows_grad(unit: np.ndarray, norms: np.ndarray, d_unit: np.ndarray) -> np.ndarray:
    """Backprop d_unit through `unit_rows`: drop the radial part, divide by the norm."""
    radial = np.einsum("ij,ij->i", d_unit, unit)
    return (d_unit - radial[:, None] * unit) / norms[:, None]


def softplus(t):
    """log(1 + exp(t)), stable for large |t|; accepts scalars or arrays."""
    t_arr = np.asarray(t, dtype=np.float64)
    # log(1 + exp(t)) = max(t, 0) + log(1 + exp(-|t|)): one exp, which never
    # overflows, and far below zero the result is exp(t) to full precision
    out = np.maximum(t_arr, 0.0) + np.log1p(np.exp(-np.abs(t_arr)))
    if np.isscalar(t) or t_arr.ndim == 0:
        return float(out)
    return out


def sigmoid(t):
    """1 / (1 + exp(-t)) without overflow; accepts scalars or arrays."""
    t_arr = np.asarray(t, dtype=np.float64)
    # exp(-|t|) is exp(-t) on the t >= 0 branch and exp(t) on the other, and
    # never overflows: one exp and one division serve both branches,
    # 1 / (1 + exp(-t)) and exp(t) / (1 + exp(t)).
    e = np.exp(-np.abs(t_arr))
    out = np.where(t_arr >= 0, 1.0, e) / (1.0 + e)
    if np.isscalar(t) or t_arr.ndim == 0:
        return float(out)
    return out


def check_seed(seed, what: str = "seed") -> int:
    """``seed`` as an int if it is an integer in [0, 2**64), else ConfigError naming ``what``."""
    try:
        value = operator.index(seed)  # a float, even 2.0, is refused, not truncated
    except TypeError:
        value = -1
    if not 0 <= value < 2**64:
        raise ConfigError(f"{what} must be an unsigned 64-bit int, got {seed}")
    return value


class Rng(np.random.Generator):
    """Seeded counter-based random stream with deterministic substreams.

    ``Rng(seed)`` always yields the same draw sequence. ``stream(i)`` (or
    ``stream('name')``) derives an independent child stream that depends only
    on the seed and the path of stream keys, never on how many draws were
    taken elsewhere, so data generation, weight init and shuffling cannot
    perturb each other.
    """

    def __init__(self, seed: int, _path: tuple = ()):
        self.seed = check_seed(seed)
        self._path = _path
        # The path length disambiguates trailing zero keys (SeedSequence
        # zero-pads its entropy, so [s] and [s, 0] would otherwise collide).
        entropy = [self.seed, len(_path)]
        entropy += [_key_to_int(k) for k in _path]
        super().__init__(np.random.Philox(np.random.SeedSequence(entropy)))

    def stream(self, key) -> "Rng":
        """Derive the independent child stream identified by ``key``."""
        return Rng(self.seed, self._path + (key,))

    def __reduce__(self):
        # Generator pickles as a plain Generator; keep the seed and path
        # (Generator.__setstate__ takes the draw position as a state dict)
        return Rng, (self.seed, self._path), self.bit_generator.state


def _key_to_int(key) -> int:
    if isinstance(key, (int, np.integer)):
        return int(key) & 0xFFFFFFFFFFFFFFFF
    # Stable string hashing (not Python's randomized hash()).
    h = 1469598103934665603
    for byte in str(key).encode():
        h = ((h ^ byte) * 1099511628211) & 0xFFFFFFFFFFFFFFFF
    return h
