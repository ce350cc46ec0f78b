"""Synthetic data generation, stratified splits, CSV round trips."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pairsim import (
    ConfigError,
    Dataset,
    DegenerateInputError,
    GenSpec,
    ParseError,
    generate,
    load_csv,
    save_csv,
    split,
)


def small_spec(**kw):
    base = dict(
        family="gaussian_blobs",
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
    assert np.array_equal(ds.class_counts(), [100, 100, 100, 100])


def test_generate_deterministic_per_family():
    for family in ("gaussian_blobs", "concentric_rings", "hypercube_corners"):
        a = generate(small_spec(family=family))
        b = generate(small_spec(family=family))
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.labels, b.labels)
        c = generate(small_spec(family=family, seed=12))
        assert not np.array_equal(a.inputs, c.inputs)


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


def test_ring_radii_scale_with_class_index():
    spec = small_spec(family="concentric_rings", noise_scale=0.01, input_dim=6)
    ds = generate(spec)
    for k in range(4):
        radii = np.linalg.norm(ds.inputs[ds.labels == k][:, :2], axis=1)
        assert_allclose(radii, 0.04 * (k + 1), atol=0.05)


def test_corner_means_have_equal_magnitude_coordinates():
    spec = small_spec(family="hypercube_corners", num_classes=8, input_dim=6,
                      samples_per_class=400, seed=9)
    ds = generate(spec)
    want = 4.0 / np.sqrt(6)
    patterns = set()
    for k in range(8):
        mean = ds.inputs[ds.labels == k].mean(axis=0)
        assert_allclose(np.abs(mean), want, atol=0.25)
        patterns.add(tuple(np.sign(mean).astype(int)))
    assert len(patterns) == 8  # corners are distinct


def test_generate_validation_errors():
    with pytest.raises(ConfigError):
        small_spec(samples_per_class=1)
    with pytest.raises(ConfigError):
        small_spec(noise_scale=-0.5)
    with pytest.raises(ConfigError):
        small_spec(family="moons")
    with pytest.raises(ConfigError):
        generate(small_spec(family="concentric_rings", input_dim=1))
    with pytest.raises(ConfigError):
        generate(small_spec(family="hypercube_corners", num_classes=5, input_dim=2))


def test_genspec_defaults_are_the_desk_task():
    spec = GenSpec()
    assert spec.num_classes == 16
    assert spec.samples_per_class == 200
    assert spec.input_dim == 32
    assert spec.noise_scale == 1.0


def test_split_sizes_and_stratification():
    ds = generate(small_spec())
    train, val, test = split(ds, (0.8, 0.1, 0.1), seed=0)
    assert (len(train), len(val), len(test)) == (320, 40, 40)
    assert np.array_equal(train.class_counts(), [80, 80, 80, 80])
    assert np.array_equal(val.class_counts(), [10, 10, 10, 10])
    assert np.array_equal(test.class_counts(), [10, 10, 10, 10])
    assert list(np.unique(train.tags)) == ["train"]
    assert list(np.unique(test.tags)) == ["test"]


def test_split_partitions_the_rows():
    ds = generate(small_spec(num_classes=3, samples_per_class=10))
    parts = split(ds, (0.6, 0.2, 0.2), seed=5)
    stacked = np.vstack([p.inputs for p in parts])
    # multiset equality via lexicographic row sort
    order_a = np.lexsort(stacked.T)
    order_b = np.lexsort(ds.inputs.T)
    assert np.array_equal(stacked[order_a], ds.inputs[order_b])
    assert sum(len(p) for p in parts) == len(ds)


def test_split_all_train():
    ds = generate(small_spec(samples_per_class=3))
    train, val, test = split(ds, (1.0, 0.0, 0.0), seed=1)
    assert len(train) == len(ds)
    assert len(val) == 0 and len(test) == 0


def test_split_proportions_within_one_row():
    ds = generate(small_spec(num_classes=5, samples_per_class=13))
    train, val, test = split(ds, (0.7, 0.2, 0.1), seed=2)
    for part, f in ((train, 0.7), (val, 0.2), (test, 0.1)):
        for c in part.class_counts():
            assert abs(c - 13 * f) <= 1.0


def test_split_reproducible_and_seed_sensitive():
    ds = generate(small_spec())
    a = split(ds, (0.8, 0.1, 0.1), seed=7)
    b = split(ds, (0.8, 0.1, 0.1), seed=7)
    c = split(ds, (0.8, 0.1, 0.1), seed=8)
    for x, y in zip(a, b):
        assert np.array_equal(x.inputs, y.inputs)
    assert not all(np.array_equal(x.inputs, y.inputs) for x, y in zip(a, c))


def test_split_rejects_bad_fractions_and_thin_classes():
    ds = generate(small_spec())
    with pytest.raises(ConfigError):
        split(ds, (0.5, 0.2, 0.2), seed=0)
    with pytest.raises(ConfigError):
        split(ds, (0.8, 0.3, -0.1), seed=0)
    tiny = Dataset(
        inputs=np.ones((3, 2)), labels=np.array([0, 0, 1]), num_classes=2
    )
    with pytest.raises(ConfigError):
        split(tiny, (0.4, 0.3, 0.3), seed=0)
    # one nonzero split is fine even for the 1-sample class
    train, _, _ = split(tiny, (1.0, 0.0, 0.0), seed=0)
    assert len(train) == 3


def test_dataset_validation():
    with pytest.raises(ConfigError):
        Dataset(inputs=np.ones((2, 2)), labels=[0, 5], num_classes=2)
    with pytest.raises(ValueError):
        Dataset(inputs=np.ones((3, 2)), labels=[0, 1], num_classes=2)
    thin = Dataset(inputs=np.ones((3, 2)), labels=[0, 0, 1], num_classes=2)
    with pytest.raises(DegenerateInputError):
        thin.require_pairable()


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
    ds = Dataset(inputs=vals, labels=[0, 0], num_classes=1)
    path = tmp_path / "vals.csv"
    save_csv(ds, path)
    assert np.array_equal(load_csv(path).inputs, vals)


def test_csv_header_layout(tmp_path):
    ds = Dataset(inputs=np.zeros((2, 3)), labels=[0, 0], num_classes=1)
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
