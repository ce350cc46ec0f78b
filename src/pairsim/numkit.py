"""Deterministic numeric kernel.

Matrices are plain float64 numpy arrays, 2-D and C-ordered (row-major); the
helpers here add the shape/finiteness checking the rest of the package relies
on. The RNG wraps numpy's counter-based Philox generator so that independent,
reproducible streams can be derived by name regardless of call order.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateInputError, ShapeError

__all__ = [
    "as_matrix",
    "check_finite",
    "unit_rows",
    "unit_rows_grad",
    "softplus",
    "sigmoid",
    "Rng",
]


def as_matrix(data) -> np.ndarray:
    """Coerce to a 2-D float64 C-contiguous array, validating finiteness."""
    a = np.ascontiguousarray(data, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={a.ndim}")
    check_finite(a, "matrix")
    return a


def check_finite(a: np.ndarray, what: str = "array") -> np.ndarray:
    if not np.isfinite(a).all():
        raise FloatingPointError(f"{what} contains NaN or Inf")
    return a


def unit_rows(a: np.ndarray, what: str = "row"):
    """(a / ||a_i||, ||a_i||) for the rows of a 2-D array."""
    norms = np.linalg.norm(a, axis=1)
    if np.any(norms == 0.0):
        raise DegenerateInputError(f"cannot normalize a zero {what}")
    return a / norms[:, None], norms


def unit_rows_grad(unit: np.ndarray, norms: np.ndarray, d_unit: np.ndarray) -> np.ndarray:
    """Backprop d_unit through `unit_rows`: drop the radial part, divide by the norm."""
    radial = np.einsum("ij,ij->i", d_unit, unit)
    return (d_unit - radial[:, None] * unit) / norms[:, None]


# Branch points for the stable softplus evaluation: above 30 the log1p term is
# below float64 resolution, below -30 log1p(x) == x to the same resolution.
_SOFTPLUS_CUT = 30.0


def softplus(t):
    """log(1 + exp(t)), stable for large |t|; accepts scalars or arrays."""
    t_arr = np.asarray(t, dtype=np.float64)
    clipped = np.clip(t_arr, -_SOFTPLUS_CUT, _SOFTPLUS_CUT)
    out = np.where(
        t_arr > _SOFTPLUS_CUT,
        t_arr,
        np.where(t_arr < -_SOFTPLUS_CUT, np.exp(clipped), np.log1p(np.exp(clipped))),
    )
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


class Rng:
    """Seeded counter-based random stream with deterministic substreams.

    ``Rng(seed)`` always yields the same draw sequence. ``stream(i)`` (or
    ``stream('name')``) derives an independent child stream that depends only
    on the seed and the path of stream keys, never on how many draws were
    taken elsewhere, so data generation, weight init and shuffling cannot
    perturb each other.
    """

    def __init__(self, seed: int, _path: tuple = ()):
        self.seed = int(seed)
        self._path = _path
        # The path length disambiguates trailing zero keys (SeedSequence
        # zero-pads its entropy, so [s] and [s, 0] would otherwise collide).
        entropy = [self.seed & 0xFFFFFFFFFFFFFFFF, len(_path)]
        entropy += [_key_to_int(k) for k in _path]
        self.gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))

    def stream(self, key) -> "Rng":
        """Derive the independent child stream identified by ``key``."""
        return Rng(self.seed, self._path + (key,))

    # Conveniences forwarded to the underlying numpy Generator.
    def normal(self, size=None, loc=0.0, scale=1.0):
        return self.gen.normal(loc=loc, scale=scale, size=size)

    def uniform(self, low=0.0, high=1.0, size=None):
        return self.gen.uniform(low, high, size=size)

    def integers(self, low, high=None, size=None):
        return self.gen.integers(low, high, size=size)

    def permutation(self, n):
        return self.gen.permutation(n)


def _key_to_int(key) -> int:
    if isinstance(key, (int, np.integer)):
        return int(key) & 0xFFFFFFFFFFFFFFFF
    # Stable string hashing (not Python's randomized hash()).
    h = 1469598103934665603
    for byte in str(key).encode():
        h = ((h ^ byte) * 1099511628211) & 0xFFFFFFFFFFFFFFFF
    return h
