import json

import pytest

from pairsim.config import (
    SCHEMA,
    load_config,
    manifest_json,
    parse_config_text,
    resolve,
    to_genspec,
    to_train_config,
)
from pairsim.data import GenSpec
from pairsim.errors import ConfigError, ParseError
from pairsim.trainer import TrainConfig

SAMPLE = """
# ablation cell
loss.r = 3
loss.alpha = 0.002
train.method = proxy_gip_ce
train.epochs = 5          # short run
train.hidden_dims = 32, 32
eval.far_targets = 0.0001, 0.001, 0.01
train.normalize_features = true
seed = 7
"""


def test_parse_text_types_and_comments():
    conf = parse_config_text(SAMPLE)
    assert conf["loss.r"] == 3.0
    assert conf["loss.alpha"] == 0.002
    assert conf["train.method"] == "proxy_gip_ce"
    assert conf["train.epochs"] == 5
    assert conf["train.hidden_dims"] == (32, 32)
    assert conf["eval.far_targets"] == (0.0001, 0.001, 0.01)
    assert conf["train.normalize_features"] is True
    assert conf["seed"] == 7


def test_parse_rejects_unknown_and_malformed():
    with pytest.raises(ConfigError, match="unknown config key 'loss.gamma'"):
        parse_config_text("loss.gamma = 2")
    with pytest.raises(ParseError, match="line 2"):
        parse_config_text("seed = 1\nnot a key value line")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("seed = 1\nseed = 2")
    with pytest.raises(ConfigError, match="expects int"):
        parse_config_text("train.epochs = five")
    with pytest.raises(ConfigError, match="expects bool"):
        parse_config_text("train.normalize_features = yes")


def test_resolve_fills_defaults_and_data_seed():
    conf = resolve({"seed": 9})
    assert conf["data.seed"] == 9
    assert conf["loss.r"] == 3.0
    assert conf["train.queue_capacity"] == 256
    explicit = resolve({"seed": 9, "data.seed": 4})
    assert explicit["data.seed"] == 4
    with pytest.raises(ConfigError):
        resolve({"nonsense": 1})


def test_config_builds_dataclasses():
    conf = resolve(parse_config_text(SAMPLE))
    spec = to_genspec(conf)
    assert spec.num_classes == 16 and spec.seed == 7
    cfg = to_train_config(conf)
    assert cfg.loss.alpha == 0.002
    assert cfg.method == "proxy_gip_ce"
    assert cfg.epochs == 5
    assert cfg.hidden_dims == (32, 32)
    assert cfg.far_targets == (0.0001, 0.001, 0.01)
    assert cfg.seed == 7


def test_manifest_round_trip(tmp_path):
    conf = resolve(parse_config_text(SAMPLE))
    path = tmp_path / "manifest.json"
    path.write_text(manifest_json("train", conf))
    again = resolve(load_config(path))
    assert again == conf
    # and a plain JSON object (no manifest wrapper) works too
    plain = tmp_path / "plain.json"
    plain.write_text(json.dumps({"loss.r": 1, "train.epochs": 2}))
    conf2 = resolve(load_config(plain))
    assert conf2["loss.r"] == 1.0 and conf2["train.epochs"] == 2


def test_json_type_checks():
    bad = {"train.epochs": 2.5}
    with pytest.raises(ConfigError, match="expects int"):
        resolve_loaded(bad)
    with pytest.raises(ConfigError, match="expects bool"):
        resolve_loaded({"train.normalize_features": 1})
    # json reads NaN and Infinity (and 1e999) as floats, none of them an int
    for text in ('{"seed": NaN}', '{"seed": Infinity}', '{"seed": 1e999}'):
        with pytest.raises(ConfigError, match="expects int"):
            resolve_loaded(json.loads(text))
    with pytest.raises(ConfigError, match="unknown config key"):
        resolve_loaded({"loss.gamma": 1.0})
    # scalars promote to one-element lists for list-typed keys
    conf = resolve_loaded({"grid.r": 3})
    assert conf["grid.r"] == (3.0,)


def resolve_loaded(doc):
    from pairsim.config import parse_config_json

    return resolve(parse_config_json(doc))


def test_load_config_sniffs_text_vs_json(tmp_path):
    t = tmp_path / "run.cfg"
    t.write_text("seed = 3\n")
    assert load_config(t)["seed"] == 3
    j = tmp_path / "run.json"
    j.write_text('{"seed": 3}')
    assert load_config(j)["seed"] == 3
    broken = tmp_path / "broken.json"
    broken.write_text('{"seed": ')
    with pytest.raises(ParseError, match="invalid JSON"):
        load_config(broken)


def test_schema_defaults_are_self_consistent():
    conf = resolve({})
    cfg = to_train_config(conf)
    assert cfg.batch_size == 32 and cfg.queue_capacity == 256
    assert cfg.loss.r == 3.0 and cfg.loss.similarity.b_theta == 0.3
    spec = to_genspec(conf)
    assert spec.num_classes * spec.samples_per_class == 3200
    # the schema derives its defaults from the dataclasses, and the builders
    # read them back: the round trip gives the default-constructed configs
    assert cfg == TrainConfig()
    assert spec == GenSpec()
    # every schema key is typed with a known tag
    assert {kind for kind, _ in SCHEMA.values()} <= {
        "int", "float", "bool", "str", "floats", "ints", "strs",
    }


def test_schema_keys_are_pinned():
    # the dataclasses declare these keys; a new field is a new key, so it
    # must show up here too
    assert sorted(SCHEMA) == [
        "data.csv", "data.input_dim", "data.noise_scale",
        "data.num_classes", "data.samples_per_class", "data.seed",
        "eval.checkpoint", "eval.far_targets", "eval.num_neg", "eval.num_pos",
        "eval.threshold",
        "grid.alpha", "grid.b_theta", "grid.r",
        "loss.alpha", "loss.b", "loss.r",
        "plot.names", "plot.reports",
        "seed",
        "sgd.lr", "sgd.momentum", "sgd.weight_decay",
        "similarity.b_theta",
        "train.activation", "train.batch_size",
        "train.epochs", "train.eta", "train.eval_every", "train.feature_dim",
        "train.hidden_dims", "train.lr_decay_at", "train.lr_decay_factor",
        "train.lr_warmup_steps", "train.method", "train.normalize_features",
        "train.normalize_proxies", "train.proxy_margin", "train.queue_capacity",
        "train.val_fraction",
    ]
    assert SCHEMA["train.hidden_dims"] == ("ints", (64, 64))
    assert SCHEMA["train.lr_decay_at"] == ("floats", (0.6, 0.8))
    assert SCHEMA["data.seed"] == ("int", None)
