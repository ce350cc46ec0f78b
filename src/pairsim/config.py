"""Flat `key = value` run configuration with a published schema.

A config file is plain text: one `key = value` per line, `#` comments, blank
lines ignored, keys dotted by section (`loss.r = 3`).  List values are comma
separated.  The same loader also accepts JSON: either a plain object of
dotted keys or a manifest written by the command line front end (whose
resolved config sits under its "config" key), so a manifest can be re-fed as
the config of a new run and reproduces it exactly.

The dataclasses behind a run (`GenSpec`, `LossConfig`, `SimilarityKind`,
`SgdConfig`, `TrainConfig`) declare its settings: `SCHEMA` derives each of
their keys, types and defaults from the fields, and adds the few keys no
field declares.  Unknown keys and ill-typed values are rejected by name.
"""

from __future__ import annotations

import json
from dataclasses import fields

from .data import GenSpec
from .encoder import SgdConfig
from .errors import ConfigError, ParseError
from .losses import LossConfig
from .numkit import check_seed
from .similarity import SimilarityKind
from .trainer import GRID_AXES, TrainConfig

# Each field of these dataclasses is the config key `<section>.<field>`: its
# annotation is the type tag (a tuple is "ints" or "floats" by its default's
# items), and its default is the key's default.
_SECTIONS = {
    GenSpec: "data",
    LossConfig: "loss",
    SimilarityKind: "similarity",
    SgdConfig: "sgd",
    TrainConfig: "train",
}

# Fields outside that pattern: the key they read, or, for a nested config,
# the class it is built from (not a key itself).
_EXCEPTIONS = {
    (TrainConfig, "seed"): "seed",
    (TrainConfig, "eval_num_pos"): "eval.num_pos",
    (TrainConfig, "eval_num_neg"): "eval.num_neg",
    (TrainConfig, "far_targets"): "eval.far_targets",
    (GenSpec, "seed"): "data.seed",
    (TrainConfig, "loss"): LossConfig,
    (TrainConfig, "sgd"): SgdConfig,
    (LossConfig, "similarity"): SimilarityKind,
}


def _keyed_fields(cls):
    """(field, key or nested class) for each field of a section's class."""
    for f in fields(cls):
        yield f, _EXCEPTIONS.get((cls, f.name), f"{_SECTIONS[cls]}.{f.name}")


def _derived_schema() -> dict:
    out = {}
    for cls in _SECTIONS:
        defaults = cls()
        for f, key in _keyed_fields(cls):
            if isinstance(key, str):
                val = getattr(defaults, f.name)
                tag = f.type
                if tag == "tuple":
                    tag = "ints" if all(isinstance(v, int) for v in val) else "floats"
                out[key] = (tag, val)
    return out


# key -> (type tag, default). Tags: int, float, bool, str, floats, ints, strs.
# The literal entries are keys no dataclass field declares, and data.seed,
# whose None default (unset) falls back to seed on resolution; the other
# None defaults leave optional inputs unset.
SCHEMA = {
    **_derived_schema(),
    "data.seed": ("int", None),
    "data.csv": ("str", None),
    "eval.checkpoint": ("str", None),
    "eval.threshold": ("float", None),
    **{f"grid.{axis}": ("floats", None) for axis in GRID_AXES},
    "plot.reports": ("strs", None),
    "plot.names": ("strs", None),
}


def _coerce_text(key: str, kind: str, raw: str):
    raw = raw.strip()
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            low = raw.lower()
            if low in ("true", "false"):
                return low == "true"
            raise ValueError(raw)
        if kind == "str":
            return raw
        parts = [p.strip() for p in raw.split(",") if p.strip()]
        if kind == "floats":
            return tuple(float(p) for p in parts)
        if kind == "ints":
            return tuple(int(p) for p in parts)
        return tuple(parts)  # strs
    except ValueError:
        raise ConfigError(f"config key {key!r} expects {kind}, got {raw!r}") from None


def _coerce_json(key: str, kind: str, val):
    def fail():
        raise ConfigError(f"config key {key!r} expects {kind}, got {val!r}")

    if kind == "int":
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            fail()
        if isinstance(val, float) and not val.is_integer():  # 2.5, NaN, inf
            fail()
        return int(val)
    if kind == "float":
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            fail()
        return float(val)
    if kind == "bool":
        if not isinstance(val, bool):
            fail()
        return val
    if kind == "str":
        if not isinstance(val, str):
            fail()
        return val
    if not isinstance(val, (list, tuple)):
        val = [val]
    if kind == "floats":
        return tuple(_coerce_json(key, "float", v) for v in val)
    if kind == "ints":
        return tuple(_coerce_json(key, "int", v) for v in val)
    return tuple(_coerce_json(key, "str", v) for v in val)


def parse_config_text(text: str) -> dict:
    """`key = value` lines to a typed override dict; errors carry line numbers."""
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ParseError(f"line {lineno}: expected 'key = value', got {line.strip()!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in SCHEMA:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate config key {key!r}")
        out[key] = _coerce_text(key, SCHEMA[key][0], raw)
    return out


def parse_config_json(doc) -> dict:
    """A JSON object (or a manifest with a "config" member) to overrides."""
    if not isinstance(doc, dict):
        raise ConfigError("JSON config must be an object of config keys")
    if "config" in doc and "command" in doc:
        doc = doc["config"]
        if not isinstance(doc, dict):
            raise ConfigError("manifest 'config' member must be an object")
    out = {}
    for key, val in doc.items():
        if key not in SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        if val is None:
            continue
        out[key] = _coerce_json(key, SCHEMA[key][0], val)
    return out


def load_config(path) -> dict:
    """Read overrides from a config file, sniffing JSON versus flat text."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    if text.lstrip().startswith(("{", "[")):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON: {exc}") from None
        return parse_config_json(doc)
    return parse_config_text(text)


def resolve(overrides: dict) -> dict:
    """Full config: schema defaults, then overrides, then cross-key fallbacks."""
    unknown = set(overrides) - set(SCHEMA)
    if unknown:
        raise ConfigError(f"unknown config keys {sorted(unknown)}")
    conf = {key: default for key, (_, default) in SCHEMA.items()}
    conf.update(overrides)
    if conf["data.seed"] is None:
        conf["data.seed"] = conf["seed"]
    for key in ("seed", "data.seed"):
        check_seed(conf[key], key)
    return conf


def _build(cls, conf: dict):
    """A section's dataclass from the resolved config, nested configs too."""
    kwargs = {}
    for f, key in _keyed_fields(cls):
        if not isinstance(key, str):
            kwargs[f.name] = _build(key, conf)
        else:
            kwargs[f.name] = tuple(conf[key]) if f.type == "tuple" else conf[key]
    return cls(**kwargs)


def to_genspec(conf: dict) -> GenSpec:
    return _build(GenSpec, conf)


def to_train_config(conf: dict) -> TrainConfig:
    return _build(TrainConfig, conf)


def manifest_json(command: str, conf: dict) -> str:
    """The manifest written by every command: full resolved config, sorted."""
    doc = {"command": command, "config": {k: conf[k] for k in sorted(conf)}}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
