"""Synthetic labeled datasets, stratified splits, and a CSV format.

One task, ``gaussian_blobs``: class means uniform on a sphere of radius
R = 4x the noise scale, rows grouped by class in class order.  Gaussian
noise is split by subspace: the part inside the span of the means is
clipped to norm 1.5, the part in the orthogonal complement is multiplied
by 1.5 (in units of the noise scale).  Raw inputs look noisy, but classes
keep a strict geometric margin inside the span, so a learned projection
can separate them perfectly.

The default task (16 classes, 200 samples each, 32 dims, unit noise) is
calibrated so raw-input verification sits around 15-25% EER while the
in-span margin stays positive: easy enough that training can drive the
error to zero, hard enough that training matters.

Class ids are any integers >= 0; only their order matters, so gapped or
sparse ids ({0, 10**15}) size nothing.  A `Dataset`'s class count K is the
number of distinct ids in its labels.  `split` cuts each class into (train,
val) rows, so a small class may give val no rows.
"""

from __future__ import annotations

import io
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateInputError, ParseError, ShapeError
from .numkit import Rng, as_matrix, check_seed, class_ids, row_norms

_CSV_CHUNK = 1024  # rows per `%` operation in save_csv, which bounds the text it holds


@dataclass
class Dataset:
    """Rows of float64 inputs with integer class ids >= 0; the class count K
    is the number of distinct ids (0 without rows), so a split part's K is
    its own."""

    inputs: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.inputs = as_matrix(self.inputs)
        self.labels = class_ids(self.labels)
        if self.inputs.shape[0] != self.labels.size:
            raise ShapeError(
                f"{self.inputs.shape[0]} input rows but {self.labels.size} labels"
            )
        if self.labels.size and self.labels.min() < 0:
            raise ConfigError(f"class ids must be >= 0, got {self.labels.min()}")

    @property
    def num_classes(self) -> int:
        return np.unique(self.labels).size

    def __len__(self):
        return self.labels.size

    @property
    def input_dim(self) -> int:
        return self.inputs.shape[1]


@dataclass(frozen=True)
class GenSpec:
    """The settings of `generate`."""

    num_classes: int = 16
    samples_per_class: int = 200
    input_dim: int = 32
    noise_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        for name, low in (("num_classes", 1), ("samples_per_class", 2), ("input_dim", 1)):
            value = getattr(self, name)
            try:
                operator.index(value)  # a float, even 2.0, is refused, not truncated
            except TypeError:
                raise ConfigError(f"{name} must be an integer, got {value!r}") from None
            if value < low:
                raise ConfigError(f"{name} must be >= {low}, got {value}")
        if not 0 <= self.noise_scale < np.inf:
            raise ConfigError(f"noise_scale must be >= 0 and finite, got {self.noise_scale}")
        check_seed(self.seed)


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


def generate(spec: GenSpec) -> Dataset:
    """Sample a dataset; bit-identical for identical specs.

    Class k draws its mean direction from the ``("mean", k)`` substream and
    its noise from ``("noise", k)``, both of ``Rng(seed).stream("gaussian_blobs")``.
    """
    rng = Rng(spec.seed).stream("gaussian_blobs")  # a new key would change every dataset
    n_per, d = spec.samples_per_class, spec.input_dim
    rows = np.empty((spec.num_classes * n_per, d))
    labels = np.repeat(np.arange(spec.num_classes, dtype=np.int64), n_per)
    means = _blob_means(rng, spec)
    proj = _span_projector(means)
    for k in range(spec.num_classes):
        z = rng.stream(("noise", k)).normal(size=(n_per, d))
        z_in = z @ proj
        z_out = z - z_in
        z_in *= np.minimum(1.0, _SPAN_CLIP / np.maximum(row_norms(z_in), 1e-300))[:, None]
        noise = z_in + _NUISANCE_GAIN * z_out
        rows[k * n_per : (k + 1) * n_per] = means[k] + spec.noise_scale * noise
    return Dataset(inputs=rows, labels=labels)


def split(ds: Dataset, val_fraction: float, seed: int):
    """Stratified (train, val) split, reproducible under seed.

    Each class's rows are permuted from the seed's stream for the class's
    rank among the ids present (so only the ids' order matters), and the
    first rint((1 - val_fraction) * rows) go to train, the rest to val, so a
    small class may give val no rows.  val_fraction must lie in (0, 1) and
    every class needs at least 2 rows.  Row order inside each part follows
    the original dataset order.
    """
    v = float(val_fraction)
    if not 0.0 < v < 1.0:  # NaN fails this too
        raise ConfigError(f"val_fraction must lie in (0, 1), got {v}")
    # work over the ids present: a sparse id allocates nothing by its size
    present, counts = np.unique(ds.labels, return_counts=True)
    thin = present[counts < 2]
    if thin.size:
        raise ConfigError(
            f"classes {thin.tolist()} have fewer rows than the 2 parts of a split"
        )

    rng = Rng(seed).stream("split")
    to_train = np.zeros(len(ds), dtype=bool)
    # each class's rows in ascending order, classes by ascending id
    by_class = np.split(np.argsort(ds.labels, kind="stable"), np.cumsum(counts)[:-1])
    for k, idx in enumerate(by_class):
        perm = idx[rng.stream(("class", k)).permutation(idx.size)]
        to_train[perm[: int(np.rint((1.0 - v) * idx.size))]] = True
    return tuple(Dataset(ds.inputs[rows], ds.labels[rows]) for rows in (to_train, ~to_train))


def _header(d: int) -> str:
    return "label," + ",".join(f"f{i}" for i in range(d))


def save_csv(ds: Dataset, path) -> None:
    """Write `label,f0,...` rows; 17 significant digits round-trip exactly."""
    row = "%d," + ",".join(["%.17g"] * ds.input_dim) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_header(ds.input_dim) + "\n")
        for lo in range(0, len(ds), _CSV_CHUNK):
            labels, inputs = (a[lo : lo + _CSV_CHUNK].tolist() for a in (ds.labels, ds.inputs))
            values = [v for y, r in zip(labels, inputs) for v in (y, *r)]
            fh.write(row * len(labels) % tuple(values))


# Characters of the body `_parse_plain` hands to `np.loadtxt`: save_csv's
# output alphabet.  Over it, loadtxt's int64 and float64 cells accept exactly
# the strings `int()` and `float()` accept, with the same values, and its
# rows are exactly the "\n"-separated lines `splitlines` finds.  Whitespace,
# `#`, `_`, quotes, letters and non-ASCII text (where the two differ) send
# the file to the line parser.
_PLAIN = b"0123456789+-.eE,\n"
_LABEL_MAX = int(np.iinfo(np.int64).max)


def _parse_plain(head: bytes, body: bytes) -> Dataset | None:
    """One vectorized pass over a body in the `_PLAIN` alphabet, or None.

    None means the line parser must decide: the text is outside the
    alphabet, a row does not parse, loadtxt warns, there are no rows, or a
    label is negative.  So every error comes from `_parse_lines`, with its
    line.  Warnings are errors here whatever the caller's filters, since
    some numpy releases read a non-integer int64 cell (`1.5`, `9e18`) as a
    float and cast it, with only a DeprecationWarning.
    """
    d = head.count(b",")
    if head != _header(d).encode() or not body or body.isspace() or body.translate(None, _PLAIN):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = np.loadtxt(
                io.BytesIO(body), delimiter=",", comments=None, ndmin=1, encoding="ascii",
                dtype=[("label", np.int64), ("x", np.float64, (d,))],
            )
    except (ValueError, Warning):
        return None
    labels = rows["label"]
    if labels.min() < 0:
        return None
    return Dataset(inputs=rows["x"], labels=labels)


def _parse_lines(lines) -> Dataset:
    if not lines:
        raise ParseError("empty file", line=0)
    d = lines[0].count(",")
    if lines[0] not in (_header(d), "label"):
        raise ParseError("malformed header, expected label,f0,f1,...", line=1)
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
        if label > _LABEL_MAX:
            raise ParseError(f"label {label} does not fit in int64", line=lineno)
        labels.append(label)
        rows.append(values)
    if not rows:
        raise DegenerateInputError("file holds a header but no data rows")
    return Dataset(inputs=rows, labels=labels)  # which converts both lists


def load_csv(path) -> Dataset:
    """Read a `save_csv` file: header `label,f0,...`, then one row per line.

    Blank lines are skipped; labels are integers in [0, 2**63).  A clean
    file takes one vectorized pass; any other goes through the line parser,
    which names the first bad line in its `ParseError`.
    """
    with open(path, "rb") as fh:  # read apart, so a clean body is never copied
        head, body = fh.readline(), fh.read()
    ds = _parse_plain(head.removesuffix(b"\n"), body)
    return ds if ds is not None else _parse_lines((head + body).decode("utf-8").splitlines())
