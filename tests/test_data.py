"""Synthetic data generation, stratified splits, CSV round trips."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import pairsim.data
from pairsim import (
    ConfigError,
    Dataset,
    DegenerateInputError,
    GenSpec,
    ParseError,
    Rng,
    generate,
    load_csv,
    save_csv,
    split,
)


def small_spec(**kw):
    base = dict(
        num_classes=4,
        samples_per_class=100,
        input_dim=8,
        noise_scale=1.0,
        seed=11,
    )
    base.update(kw)
    return GenSpec(**base)


def test_generate_row_counts():
    ds = generate(small_spec())
    assert len(ds) == 400
    assert ds.input_dim == 8
    assert np.array_equal(np.bincount(ds.labels), [100, 100, 100, 100])


def test_generate_deterministic_per_family():
    a = generate(small_spec())
    b = generate(small_spec())
    assert np.array_equal(a.inputs, b.inputs)
    assert np.array_equal(a.labels, b.labels)
    c = generate(small_spec(seed=12))
    assert not np.array_equal(a.inputs, c.inputs)


def oracle_generate(spec):
    """The recipe `generate` states, kept as the reference its bits must match."""
    task = Rng(spec.seed).stream("gaussian_blobs")
    n, d, K = spec.samples_per_class, spec.input_dim, spec.num_classes
    means = []
    for k in range(K):
        v = task.stream(("mean", k)).normal(size=d)
        means.append(4.0 * spec.noise_scale * (v / np.linalg.norm(v)))
    q, r = np.linalg.qr(np.array(means).T)
    basis = q[:, np.abs(np.diag(r)) > 1e-9 * np.abs(r).max()]
    span = basis @ basis.T
    rows = []
    for k in range(K):
        z = task.stream(("noise", k)).normal(size=(n, d))
        inside = z @ span
        outside = z - inside
        inside *= np.minimum(1.0, 1.5 / np.linalg.norm(inside, axis=1))[:, None]
        rows.append(means[k] + spec.noise_scale * (inside + 1.5 * outside))
    return np.concatenate(rows), np.repeat(np.arange(K), n)


@pytest.mark.parametrize("spec", [GenSpec(), small_spec(noise_scale=0.5)],
                         ids=["default", "small"])
def test_generate_matches_oracle_bit_for_bit(spec):
    ds = generate(spec)
    inputs, labels = oracle_generate(spec)
    assert ds.inputs.tobytes() == inputs.tobytes()
    assert ds.labels.tobytes() == labels.astype(np.int64).tobytes()


def test_zero_noise_blobs_collapse_within_class():
    ds = generate(small_spec(noise_scale=0.0, samples_per_class=5))
    for k in range(4):
        rows = ds.inputs[ds.labels == k]
        assert np.array_equal(rows, np.tile(rows[0], (5, 1)))


def test_blob_means_sit_on_the_stated_sphere():
    # class means live on a radius-4*noise sphere; the sample mean of 400
    # rows estimates the class mean to ~ noise/20 per coordinate
    ds = generate(small_spec(samples_per_class=400, noise_scale=0.5, seed=3))
    for k in range(4):
        mean = ds.inputs[ds.labels == k].mean(axis=0)
        assert abs(np.linalg.norm(mean) - 2.0) < 0.15


def test_generate_validation_errors():
    with pytest.raises(ConfigError):
        small_spec(samples_per_class=1)
    with pytest.raises(ConfigError):
        small_spec(noise_scale=-0.5)
    # the seed too: -1 must not draw the data of seed 2**64 - 1
    with pytest.raises(ConfigError, match="seed must be an unsigned 64-bit int, got -1"):
        small_spec(seed=-1)
    # nor 1.5 the data of seed 1
    with pytest.raises(ConfigError, match=r"seed must be an unsigned 64-bit int, got 1\.5"):
        small_spec(seed=1.5)
    np_seed = generate(small_spec(seed=np.int64(1)))
    assert np_seed.inputs.tobytes() == generate(small_spec(seed=1)).inputs.tobytes()
    # numpy integer counts are integers
    np_counts = generate(small_spec(num_classes=np.int64(3), input_dim=np.int32(5)))
    counts = generate(small_spec(num_classes=3, input_dim=5))
    assert np_counts.inputs.tobytes() == counts.inputs.tobytes()


@pytest.mark.parametrize(
    "field, value",
    [("num_classes", 2.5), ("samples_per_class", 3.5), ("input_dim", 2.0), ("num_classes", "4")],
)
def test_genspec_names_a_non_integer_count(field, value):
    # a count is refused up front, not truncated or left to fail inside generate
    with pytest.raises(ConfigError, match=rf"{field} must be an integer, got {value!r}"):
        small_spec(**{field: value})


def test_genspec_defaults_are_the_desk_task():
    spec = GenSpec()
    assert spec.num_classes == 16
    assert spec.samples_per_class == 200
    assert spec.input_dim == 32
    assert spec.noise_scale == 1.0


def test_split_sizes_and_stratification():
    ds = generate(small_spec())
    train, val = split(ds, 0.2, seed=0)
    assert (len(train), len(val)) == (320, 80)
    assert np.array_equal(np.bincount(train.labels), [80, 80, 80, 80])
    assert np.array_equal(np.bincount(val.labels), [20, 20, 20, 20])


def test_split_partitions_the_rows():
    ds = generate(small_spec(num_classes=3, samples_per_class=10))
    parts = split(ds, 0.4, seed=5)
    stacked = np.vstack([p.inputs for p in parts])
    # multiset equality via lexicographic row sort
    order_a = np.lexsort(stacked.T)
    order_b = np.lexsort(ds.inputs.T)
    assert np.array_equal(stacked[order_a], ds.inputs[order_b])
    assert sum(len(p) for p in parts) == len(ds)


def test_split_small_class_may_give_val_no_rows():
    # rint(0.8 * 2) = 2: the 2-row class keeps both rows in train
    ds = Dataset(inputs=np.arange(24.0).reshape(12, 2), labels=[0] * 10 + [1] * 2)
    train, val = split(ds, 0.2, seed=0)
    assert np.array_equal(np.bincount(train.labels), [8, 2])
    assert val.labels.tolist() == [0, 0]


def test_split_proportions_within_one_row():
    ds = generate(small_spec(num_classes=5, samples_per_class=13))
    train, val = split(ds, 0.3, seed=2)
    for part, f in ((train, 0.7), (val, 0.3)):
        for c in np.bincount(part.labels, minlength=5):
            assert abs(c - 13 * f) <= 1.0


def test_split_reproducible_and_seed_sensitive():
    ds = generate(small_spec())
    a = split(ds, 0.2, seed=7)
    b = split(ds, 0.2, seed=7)
    c = split(ds, 0.2, seed=8)
    for x, y in zip(a, b):
        assert np.array_equal(x.inputs, y.inputs)
    assert not all(np.array_equal(x.inputs, y.inputs) for x, y in zip(a, c))


def test_split_rejects_bad_fractions_and_thin_classes():
    ds = generate(small_spec())
    # NaN fails every comparison, so the check is written to reject it too
    for val_fraction in (0.0, 1.0, -0.1, float("nan"), float("inf")):
        with pytest.raises(ConfigError, match=r"val_fraction must lie in \(0, 1\)"):
            split(ds, val_fraction, seed=0)
    tiny = Dataset(inputs=np.ones((3, 2)), labels=np.array([0, 0, 1]))
    with pytest.raises(ConfigError, match=r"classes \[1\] have fewer rows"):
        split(tiny, 0.5, seed=0)


def split_by_class_range(ds, val_fraction, seed):
    """The per-class loop form of split's row assignment: each class's rows
    permuted from the stream of its rank among the ids present; (train rows,
    val rows), each ascending."""
    rng = Rng(seed).stream("split")
    part_rows = ([], [])
    for k, y in enumerate(sorted(set(ds.labels.tolist()))):
        idx = np.flatnonzero(ds.labels == y)
        perm = idx[rng.stream(("class", k)).permutation(idx.size)]
        stop = int(np.rint((1.0 - val_fraction) * idx.size))
        part_rows[0].extend(perm[:stop].tolist())
        part_rows[1].extend(perm[stop:].tolist())
    return [np.sort(np.asarray(r, dtype=np.int64)) for r in part_rows]


def test_split_rows_match_the_per_class_range_form():
    # id 3 absent (ids 4 and 5 take the streams of ranks 3 and 4), classes
    # of uneven size
    rng = np.random.default_rng(3)
    labels = rng.choice([0, 1, 2, 4, 5], size=90, p=[0.1, 0.3, 0.2, 0.15, 0.25])
    ds = Dataset(inputs=np.arange(180.0).reshape(90, 2), labels=labels)
    for seed in (0, 7):
        parts = split(ds, 0.4, seed=seed)
        for part, rows in zip(parts, split_by_class_range(ds, 0.4, seed)):
            assert np.array_equal(part.inputs, ds.inputs[rows])
            assert np.array_equal(part.labels, ds.labels[rows])


def test_split_sparse_ids_size_nothing_by_the_largest_id():
    # ids {0, 10**15}: split works over the ids present, so nothing is sized
    # by num_classes (a bincount over it would need petabytes)
    big = 10**15
    labels = np.array([0, big] * 6)
    ds = Dataset(inputs=np.arange(24.0).reshape(12, 2), labels=labels)
    train, val = split(ds, 0.5, seed=0)
    assert (len(train), len(val)) == (6, 6)
    for part in (train, val):
        assert sorted(part.labels.tolist()) == [0, 0, 0, big, big, big]
    # a thin class is named by its id
    thin = Dataset(inputs=np.ones((3, 2)), labels=[0, 0, big])
    with pytest.raises(ConfigError, match=rf"classes \[{big}\] have fewer rows"):
        split(thin, 0.5, seed=0)


def test_dataset_validation():
    with pytest.raises(ConfigError, match=r"class ids must be >= 0, got -1"):
        Dataset(inputs=np.ones((2, 2)), labels=[0, -1])
    with pytest.raises(ValueError):
        Dataset(inputs=np.ones((3, 2)), labels=[0, 1])


def test_dataset_num_classes_counts_the_distinct_ids():
    big = 10**15
    ds = Dataset(inputs=np.ones((3, 2)), labels=[big, 0, big])
    assert ds.num_classes == 2
    assert Dataset(inputs=np.ones((0, 2)), labels=[]).num_classes == 0
    with pytest.raises(AttributeError):
        ds.num_classes = 3


def test_dataset_names_a_non_integer_class_id():
    # 1.7 would otherwise be stored as class 1
    with pytest.raises(ConfigError, match=r"class ids must be int64 integers, got 1.7"):
        Dataset(inputs=np.ones((2, 2)), labels=[1.0, 1.7])


def test_csv_round_trip_is_value_exact(tmp_path):
    ds = generate(small_spec(seed=21))
    path = tmp_path / "ds.csv"
    save_csv(ds, path)
    back = load_csv(path)
    assert np.array_equal(back.inputs, ds.inputs)
    assert np.array_equal(back.labels, ds.labels)
    assert back.num_classes == ds.num_classes


def test_csv_round_trip_awkward_values(tmp_path):
    vals = np.array(
        [
            [np.pi, -1.0 / 3.0, 6.02214076e23, 1e-300],
            [np.e, 2.0 ** -52, -0.1, 123456789.123456789],
        ]
    )
    ds = Dataset(inputs=vals, labels=[0, 0])
    path = tmp_path / "vals.csv"
    save_csv(ds, path)
    assert np.array_equal(load_csv(path).inputs, vals)


def test_csv_header_layout(tmp_path):
    ds = Dataset(inputs=np.zeros((2, 3)), labels=[0, 0])
    path = tmp_path / "h.csv"
    save_csv(ds, path)
    assert path.read_text().splitlines()[0] == "label,f0,f1,f2"


def test_csv_parse_errors(tmp_path):
    p = tmp_path / "bad.csv"

    p.write_text("")
    with pytest.raises(ParseError):
        load_csv(p)

    p.write_text("label,f0,f1\n")
    with pytest.raises(DegenerateInputError):
        load_csv(p)

    p.write_text("label,f0,f1\n0,1.0\n")
    with pytest.raises(ParseError) as err:
        load_csv(p)
    assert err.value.line == 2

    p.write_text("label,f0,f1\n0,1.0,2.0\n1,x,3.0\n")
    with pytest.raises(ParseError) as err:
        load_csv(p)
    assert err.value.line == 3

    p.write_text("feature,f0\n0,1.0\n")
    with pytest.raises(ParseError):
        load_csv(p)

    p.write_text("label,f0\n-1,1.0\n")
    with pytest.raises(ParseError):
        load_csv(p)

    p.write_text("label,f0\n9223372036854775807,1.0\n")
    assert load_csv(p).labels[0] == 2**63 - 1
    p.write_text("label,f0\n0,1.0\n99999999999999999999,2.0\n")
    with pytest.raises(ParseError, match="does not fit in int64") as err:
        load_csv(p)
    assert err.value.line == 3


def oracle_load_csv(path):
    """The line-by-line parser, kept as the reference the vectorized pass must match."""
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
    )


def parse_outcome(load, path):
    """What a loader makes of a file: the Dataset's bytes, or the error."""
    try:
        ds = load(path)
    except Exception as exc:
        return type(exc), getattr(exc, "line", None), str(exc)
    return ds.inputs.shape, ds.inputs.tobytes(), ds.labels.tobytes(), ds.num_classes


H2 = "label,f0,f1\n"

PARITY_CASES = {
    # rejected by the line parser, at a named line
    "wrong-column-count": H2 + "0,1.0,2.0\n1,3.0\n",
    "trailing-comma": H2 + "0,1.0,2.0,\n",
    "quoted-cell": H2 + '0,"1.0",2.0\n',
    "hash-line": H2 + "0,1.0,2.0\n# note\n1,3.0,4.0\n",
    "hash-cell": H2 + "#0,1.0,2.0\n",
    "whitespace-only-line": H2 + "0,1.0,2.0\n   \n1,3.0,4.0\n",
    "empty-body": H2,
    "blank-body": H2 + "\n\n",
    "empty-cell": H2 + "0,,2.0\n",
    "empty-label": H2 + ",1.0,2.0\n",
    "label-1.5": H2 + "1.5,1.0,2.0\n",
    "label-1e0": H2 + "1e0,1.0,2.0\n",
    "label-1.0": H2 + "1.0,1.0,2.0\n",
    "label-0-dot": H2 + "0.,1.0,2.0\n",
    "label-9e18": H2 + "9e18,1.0,2.0\n",
    "label-1e20": H2 + "1e20,1.0,2.0\n",
    "label-minus-1": H2 + "0,1.0,2.0\n-1,1.0,2.0\n",
    "value-hex": H2 + "0,0x1p3,2.0\n",
    "value-dot": H2 + "0,.,2.0\n",
    "bad-header": "label,f1,f0\n0,1.0,2.0\n",
    "no-feature-columns": "label\n0\n",
    "empty-file": "",
    # a form feed ends a line for splitlines only
    "form-feed-before-cell": H2 + "0,\x0c1.0,2.0\n",
    "form-feed-after-row": H2 + "0,1.0,2.0\x0c1,3.0,4.0\n",
    # parsed, then rejected as non-finite
    "nan-value": H2 + "0,nan,2.0\n",
    "inf-value": H2 + "0,1.0,-inf\n",
    "overflowing-value": H2 + "0,1e999,2.0\n",
    # accepted by int()/float(), perhaps not by the vectorized pass
    "label-plus-1": H2 + "+1,1.0,2.0\n",
    "label-space-1": H2 + " 1,1.0,2.0\n",
    "label-1-space": H2 + "1 ,1.0,2.0\n",
    "label-underscore": H2 + "1_0,1.0,2.0\n",
    "label-arabic-indic-one": H2 + "\u0661,1.0,2.0\n",
    "value-underscore": H2 + "0,1_0,2.0\n",
    "value-spaces": H2 + "0, 1.5 ,2.0\n",
    "value-words": H2 + "0,1.0,2.0\n1,Infinity,2.0\n",
    "label-leading-zeros": H2 + "007,1.0,2.0\n0,1.0,2.0\n",
    "label-minus-0": H2 + "-0,1.0,2.0\n",
    "values-plain-forms": H2 + "0,+.5,-5.\n0,1E5,-0\n",
    # layout
    "crlf": H2.replace("\n", "\r\n") + "0,1.0,2.0\r\n1,3.0,4.0\r\n",
    "blank-lines-between": H2 + "\n0,1.0,2.0\n\n\n1,3.0,4.0\n\n",
    "no-final-newline": H2 + "0,1.0,2.0\n1,3.0,4.0",
    "one-row": H2 + "3,1.0,2.0\n",
    "d-equals-1": "label,f0\n0,1.5\n1,-2.5\n",
    "header-only-no-newline": "label,f0,f1",
}


# The caller's warning filters must not change what load_csv accepts: a
# loadtxt that casts `1.5` to an int with only a warning would pass under
# "error" and load 1 under "default" or "ignore".
@pytest.mark.parametrize("filters", ["default", "ignore", "error"])
@pytest.mark.parametrize("text", PARITY_CASES.values(), ids=PARITY_CASES.keys())
def test_load_csv_matches_line_parser_oracle(tmp_path, text, filters):
    p = tmp_path / "case.csv"
    p.write_bytes(text.encode("utf-8"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(filters)
        got = parse_outcome(load_csv, p)
    assert got == parse_outcome(oracle_load_csv, p)
    assert caught == []


# cells over the vectorized pass's alphabet, where loadtxt and int()/float()
# could still disagree on what parses and to which value
_plain_cell = st.text(alphabet="0123456789+-.eE", max_size=6)


@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(
        st.lists(st.one_of(_plain_cell, st.sampled_from(["0", "1", "1.5", "-2e-3"])),
                 min_size=1, max_size=4),
        max_size=4,
    ),
    d=st.integers(1, 3),
)
def test_load_csv_matches_oracle_over_plain_alphabet_property(tmp_path_factory, rows, d):
    text = "label," + ",".join(f"f{i}" for i in range(d)) + "\n"
    text += "".join(",".join(cells) + "\n" for cells in rows)
    p = tmp_path_factory.mktemp("csv") / "case.csv"
    p.write_bytes(text.encode("ascii"))
    with warnings.catch_warnings():
        warnings.simplefilter("default")
        assert parse_outcome(load_csv, p) == parse_outcome(oracle_load_csv, p)


def test_clean_csv_takes_the_vectorized_pass(tmp_path, monkeypatch):
    ds = generate(small_spec(seed=5))
    clean, odd = tmp_path / "clean.csv", tmp_path / "odd.csv"
    save_csv(ds, clean)
    odd.write_text(clean.read_text().replace("\n0,", "\n 0,", 1))

    def no_line_parser(lines):
        raise AssertionError("line parser called")

    monkeypatch.setattr(pairsim.data, "_parse_lines", no_line_parser)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        back = load_csv(clean)
    assert caught == []
    assert back.inputs.tobytes() == ds.inputs.tobytes()
    assert np.array_equal(back.labels, ds.labels)
    # a cell with a space is outside the vectorized pass's alphabet
    with pytest.raises(AssertionError, match="line parser called"):
        load_csv(odd)


@pytest.mark.parametrize("filters", ["default", "ignore"])
def test_loadtxt_warning_sends_file_to_line_parser(tmp_path, monkeypatch, filters):
    # some numpy releases cast an int64 cell such as `1.5` through a float
    # with only a DeprecationWarning; any loadtxt warning must mean "fall
    # back", even when the caller's filters hide warnings
    p = tmp_path / "ds.csv"
    save_csv(generate(small_spec(seed=6)), p)
    real_loadtxt, parse_lines, calls = np.loadtxt, pairsim.data._parse_lines, []

    def warning_loadtxt(*args, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                      DeprecationWarning, stacklevel=2)
        return real_loadtxt(*args, **kwargs)

    def spy(lines):
        calls.append(len(lines))
        return parse_lines(lines)

    monkeypatch.setattr(pairsim.data.np, "loadtxt", warning_loadtxt)
    monkeypatch.setattr(pairsim.data, "_parse_lines", spy)
    with warnings.catch_warnings():
        warnings.simplefilter(filters)
        got = parse_outcome(load_csv, p)
    assert calls and got == parse_outcome(oracle_load_csv, p)


_finite_bits = (
    st.integers(0, 2**64 - 1)
    .map(lambda u: float(np.uint64(u).view(np.float64)))
    .filter(np.isfinite)
)
_EDGES = [-0.0, 0.0, 5e-324, -5e-324, 2.225073858507201e-308, -2.2250738585072014e-308,
          1.7976931348623157e308, -1.7976931348623157e308, 1.0, -1.0 / 3.0]


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(
        st.one_of(_finite_bits, st.floats(allow_nan=False, allow_infinity=False)),
        min_size=1, max_size=24,
    ),
    d=st.integers(1, 4),
    label_max=st.sampled_from([1, 3, 2**63 - 1]),
    seed=st.integers(0, 2**32 - 1),
)
@example(values=_EDGES, d=2, label_max=1, seed=0)
def test_csv_round_trip_is_bit_exact_property(tmp_path_factory, values, d, label_max, seed):
    n = -(-len(values) // d)
    vals = np.resize(np.asarray(values, dtype=np.float64), n * d).reshape(n, d)
    labels = np.random.default_rng(seed).integers(0, label_max, size=n, endpoint=True)
    ds = Dataset(inputs=vals, labels=labels)
    path = tmp_path_factory.mktemp("csv") / "ds.csv"
    save_csv(ds, path)
    back = load_csv(path)
    assert back.inputs.view(np.int64).tobytes() == vals.view(np.int64).tobytes()
    assert back.labels.tobytes() == ds.labels.tobytes()
    assert back.num_classes == ds.num_classes


def per_value_csv(ds):
    """The text of `save_csv` formatted one value at a time: the reference
    for the chunked formatting."""
    text = "label," + ",".join(f"f{i}" for i in range(ds.input_dim)) + "\n"
    return text + "".join(
        "%d,%s\n" % (y, ",".join("%.17g" % v for v in row))
        for y, row in zip(ds.labels, ds.inputs)
    )


_CHUNK = pairsim.data._CSV_CHUNK


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from([1, 2, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3]),
    d=st.integers(1, 5),
    edges=st.lists(st.sampled_from(_EDGES), max_size=8),
    label_max=st.sampled_from([1, 15, 2**63 - 1]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=1, d=1, edges=[], label_max=2**63 - 1, seed=0)
@example(n=_CHUNK + 1, d=1, edges=_EDGES, label_max=2**63 - 1, seed=1)
def test_save_csv_bytes_equal_per_value_formatting_property(
    tmp_path_factory, n, d, edges, label_max, seed
):
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=n * d) * 10.0 ** rng.integers(-300, 300, size=n * d)
    vals[rng.permutation(n * d)[: len(edges)]] = edges[: n * d]
    labels = rng.integers(0, label_max, size=n, endpoint=True)
    labels[rng.integers(0, n)] = label_max
    ds = Dataset(inputs=vals.reshape(n, d), labels=labels)
    path = tmp_path_factory.mktemp("csv") / "ds.csv"
    save_csv(ds, path)
    assert path.read_bytes() == per_value_csv(ds).encode()
