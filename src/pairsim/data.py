"""Synthetic labeled datasets, stratified splits, and a CSV format.

Three controllable families, all scaled so the class-structure radius is
4x the noise scale (separation stays comparable across families):

* ``gaussian_blobs``    -- class means uniform on a radius-R sphere.
                           Gaussian noise is split by subspace: the part
                           inside the span of the means is clipped to a
                           fixed radius, the part in the orthogonal
                           complement is amplified.  Raw inputs look
                           noisy, but classes keep a strict geometric
                           margin inside the span, so a learned
                           projection can separate them perfectly.
* ``concentric_rings``  -- class k on a circle of radius R*(k+1) in the
                           first two coordinates, noise in all of them.
* ``hypercube_corners`` -- class means on distinct corners of a signed
                           hypercube scaled to norm R.

The default task (16 classes, 200 samples each, 32 dims, unit noise) is
calibrated so raw-input verification sits around 15-25% EER while the
in-span margin stays positive: easy enough that training can drive the
error to zero, hard enough that training matters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateInputError, ParseError, ShapeError
from .numkit import Rng, as_matrix

FAMILIES = ("gaussian_blobs", "concentric_rings", "hypercube_corners")


@dataclass
class Dataset:
    """Rows of float64 inputs with integer class ids in [0, num_classes)."""

    inputs: np.ndarray
    labels: np.ndarray
    num_classes: int
    tags: np.ndarray | None = None  # per-row split tag, None until split()

    def __post_init__(self):
        self.inputs = as_matrix(self.inputs)
        self.labels = np.asarray(self.labels).ravel().astype(np.int64)
        self.num_classes = int(self.num_classes)
        if self.inputs.shape[0] != self.labels.size:
            raise ShapeError(
                f"{self.inputs.shape[0]} input rows but {self.labels.size} labels"
            )
        if self.num_classes < 1:
            raise ConfigError(f"num_classes must be >= 1, got {self.num_classes}")
        if self.labels.size and (
            self.labels.min() < 0 or self.labels.max() >= self.num_classes
        ):
            raise ConfigError(
                f"labels must lie in [0, {self.num_classes}), "
                f"got range [{self.labels.min()}, {self.labels.max()}]"
            )
        if self.tags is not None:
            self.tags = np.asarray(self.tags)
            if self.tags.shape != self.labels.shape:
                raise ShapeError("tags must align with rows")

    def __len__(self):
        return self.labels.size

    @property
    def input_dim(self) -> int:
        return self.inputs.shape[1]

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.num_classes)

    def require_pairable(self):
        """Every class needs >= 2 rows for same-class pairs to exist."""
        counts = self.class_counts()
        if len(self) == 0:
            raise DegenerateInputError("dataset has no rows")
        absent = np.flatnonzero(counts == 0)
        if absent.size:
            raise DegenerateInputError(
                f"class ids {absent.tolist()} do not appear in the labels; "
                f"labels must run 0..K-1 without gaps (here K = {self.num_classes})"
            )
        thin = np.flatnonzero(counts < 2)
        if thin.size:
            raise DegenerateInputError(
                f"classes {thin.tolist()} have fewer than 2 samples"
            )


@dataclass(frozen=True)
class GenSpec:
    family: str = "gaussian_blobs"
    num_classes: int = 16
    samples_per_class: int = 200
    input_dim: int = 32
    noise_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown family {self.family!r}")
        if self.num_classes < 1:
            raise ConfigError("num_classes must be >= 1")
        if self.samples_per_class < 2:
            raise ConfigError(
                f"samples_per_class must be >= 2, got {self.samples_per_class}"
            )
        if self.input_dim < 1:
            raise ConfigError("input_dim must be >= 1")
        if not self.noise_scale >= 0:
            raise ConfigError(f"noise_scale must be >= 0, got {self.noise_scale}")


def _sphere_point(rng: Rng, dim: int) -> np.ndarray:
    """Uniform direction on the unit sphere."""
    while True:
        v = rng.normal(size=dim)
        n = np.linalg.norm(v)
        if n > 0:
            return v / n


def _blob_means(rng: Rng, spec: GenSpec) -> np.ndarray:
    radius = 4.0 * spec.noise_scale
    means = np.empty((spec.num_classes, spec.input_dim))
    for k in range(spec.num_classes):
        means[k] = radius * _sphere_point(rng.stream(("mean", k)), spec.input_dim)
    return means


# blob noise geometry, in units of noise_scale: the in-span component is
# clipped to _SPAN_CLIP (strictly below half the typical minimum mean
# separation of 4.3-4.5, so a true margin survives); the complement
# component is amplified by _NUISANCE_GAIN to push raw-input verification
# into the 15-25% EER band
_SPAN_CLIP = 1.5
_NUISANCE_GAIN = 1.5


def _span_projector(means: np.ndarray) -> np.ndarray:
    """Projector onto the span of the class means."""
    q, r = np.linalg.qr(means.T)
    keep = np.abs(np.diag(r)) > 1e-9 * max(np.abs(r).max(), 1e-300)
    basis = q[:, keep]
    return basis @ basis.T


def _corner_means(rng: Rng, spec: GenSpec) -> np.ndarray:
    d = spec.input_dim
    if d < 63 and spec.num_classes > 2**d:
        raise ConfigError(
            f"{spec.num_classes} classes need {spec.num_classes} distinct corners "
            f"but a {d}-cube has only {2**d}"
        )
    scale = 4.0 * spec.noise_scale / np.sqrt(d)
    seen = set()
    means = np.empty((spec.num_classes, d))
    draw = rng.stream("corners")
    k = 0
    while k < spec.num_classes:
        signs = 2.0 * draw.integers(0, 2, size=d) - 1.0
        key = signs.tobytes()
        if key in seen:
            continue
        seen.add(key)
        means[k] = scale * signs
        k += 1
    return means


def generate(spec: GenSpec) -> Dataset:
    """Sample a dataset; bit-identical for identical specs."""
    rng = Rng(spec.seed).stream(spec.family)
    n_per, d = spec.samples_per_class, spec.input_dim
    rows = np.empty((spec.num_classes * n_per, d))
    labels = np.repeat(np.arange(spec.num_classes, dtype=np.int64), n_per)

    if spec.family == "concentric_rings" and d < 2:
        raise ConfigError("concentric_rings needs input_dim >= 2")

    if spec.family == "gaussian_blobs":
        means = _blob_means(rng, spec)
        proj = _span_projector(means)
        for k in range(spec.num_classes):
            z = rng.stream(("noise", k)).normal(size=(n_per, d))
            z_in = z @ proj
            z_out = z - z_in
            norms = np.linalg.norm(z_in, axis=1, keepdims=True)
            z_in *= np.minimum(1.0, _SPAN_CLIP / np.maximum(norms, 1e-300))
            noise = z_in + _NUISANCE_GAIN * z_out
            rows[k * n_per : (k + 1) * n_per] = means[k] + spec.noise_scale * noise
    elif spec.family == "hypercube_corners":
        means = _corner_means(rng, spec)
        for k in range(spec.num_classes):
            noise = rng.stream(("noise", k)).normal(size=(n_per, d))
            rows[k * n_per : (k + 1) * n_per] = means[k] + spec.noise_scale * noise
    else:  # concentric_rings
        base = 4.0 * spec.noise_scale
        for k in range(spec.num_classes):
            sub = rng.stream(("ring", k))
            phi = sub.uniform(0.0, 2.0 * np.pi, size=n_per)
            block = spec.noise_scale * sub.normal(size=(n_per, d))
            radius = base * (k + 1)
            block[:, 0] += radius * np.cos(phi)
            block[:, 1] += radius * np.sin(phi)
            rows[k * n_per : (k + 1) * n_per] = block

    return Dataset(inputs=rows, labels=labels, num_classes=spec.num_classes)


def split(ds: Dataset, fractions, seed: int):
    """Stratified (train, val, test) split, reproducible under seed.

    Fractions must sum to 1; a class must have at least as many rows as
    there are nonzero fractions.  Row order inside each part follows the
    original dataset order.
    """
    fractions = [float(f) for f in fractions]
    if len(fractions) != 3:
        raise ConfigError(f"expected 3 fractions, got {len(fractions)}")
    if any(f < 0 for f in fractions):
        raise ConfigError(f"fractions must be >= 0, got {fractions}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ConfigError(f"fractions must sum to 1, got {sum(fractions)}")
    nonzero = sum(1 for f in fractions if f > 0)
    counts = ds.class_counts()
    thin = np.flatnonzero((counts > 0) & (counts < nonzero))
    if thin.size:
        raise ConfigError(
            f"classes {thin.tolist()} have fewer rows than the "
            f"{nonzero} requested splits"
        )

    rng = Rng(seed).stream("split")
    cum = np.cumsum(fractions)
    part_rows = ([], [], [])
    for k in range(ds.num_classes):
        idx = np.flatnonzero(ds.labels == k)
        if idx.size == 0:
            continue
        perm = idx[rng.stream(("class", k)).permutation(idx.size)]
        bounds = np.rint(cum * idx.size).astype(int)
        start = 0
        for j, stop in enumerate(bounds):
            part_rows[j].extend(perm[start:stop].tolist())
            start = stop

    names = ("train", "val", "test")
    parts = []
    for j, rows_j in enumerate(part_rows):
        order = np.sort(np.asarray(rows_j, dtype=np.int64))
        parts.append(
            Dataset(
                inputs=ds.inputs[order].reshape(len(order), ds.input_dim),
                labels=ds.labels[order],
                num_classes=ds.num_classes,
                tags=np.full(len(order), names[j]),
            )
        )
    return tuple(parts)


def save_csv(ds: Dataset, path) -> None:
    """Write `label,f0,...` rows; 17 significant digits round-trip exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        header = "label," + ",".join(f"f{i}" for i in range(ds.input_dim))
        fh.write(header + "\n")
        for y, row in zip(ds.labels, ds.inputs):
            fh.write("%d,%s\n" % (y, ",".join("%.17g" % v for v in row)))


def load_csv(path) -> Dataset:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError("empty file", line=0)
    header = lines[0].split(",")
    if header[0] != "label" or any(
        name != f"f{i}" for i, name in enumerate(header[1:])
    ):
        raise ParseError("malformed header, expected label,f0,f1,...", line=1)
    d = len(header) - 1
    if d < 1:
        raise ParseError("header names no feature columns", line=1)
    rows, labels = [], []
    for lineno, text in enumerate(lines[1:], start=2):
        if not text:
            continue
        cells = text.split(",")
        if len(cells) != d + 1:
            raise ParseError(
                f"expected {d + 1} columns, found {len(cells)}", line=lineno
            )
        try:
            label = int(cells[0])
            values = [float(c) for c in cells[1:]]
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from None
        if label < 0:
            raise ParseError(f"negative label {label}", line=lineno)
        labels.append(label)
        rows.append(values)
    if not rows:
        raise DegenerateInputError("file holds a header but no data rows")
    return Dataset(
        inputs=np.asarray(rows, dtype=np.float64),
        labels=np.asarray(labels, dtype=np.int64),
        num_classes=max(labels) + 1,
    )
