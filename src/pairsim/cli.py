"""Command line front end.

Subcommands::

    gen-data    synthesize a labeled dataset CSV
    train       run the training loop; writes runlog, summary, checkpoint, report
    eval        score a checkpoint on a dataset; writes report.json
    ablate      sweep (r, alpha, b_theta) grid cells; writes ablation.csv
    grad-check  finite-difference audit of every gradient path
    plot-roc    render evaluation ROCs as one static SVG

Every command takes ``--config <path>`` (flat `key = value` text or JSON)
and ``--out <dir>``, plus ``--seed`` to override the config seed and
``--jobs`` (ablate only) to fan grid cells out across processes, each of
which loads scipy at its first eval.  The config dataclasses declare the
settings: each ``data.*``, ``loss.*``, ``similarity.*``, ``sgd.*`` and
``train.*`` key is the field of that name in ``GenSpec``, ``LossConfig``,
``SimilarityKind``, ``SgdConfig`` or ``TrainConfig``, with its default (see
config.SCHEMA for the exceptions).
Each run writes ``manifest.json`` with the fully resolved configuration into
its output directory and writes nothing anywhere else; feeding a manifest
back as ``--config`` reproduces the run bit for bit.

Exit codes: 0 success, 1 flag/config validation error, 2 runtime failure.

Without an explicit grid, ``ablate`` sweeps r in {1, 2, 3} crossed with
alpha in {2e-4, 5e-4, 1e-3, 2e-3}, and defaults the report columns to
TPR at FAR 1e-4 / 1e-3 / 1e-2, drawn from 10,000 negative pairs (so the
1e-4 column is reachable) unless the config sets ``eval.num_neg``.  A FAR
stricter than the negatives reach is clamped, and its cells are left empty,
as a failed cell's are.  ``plot-roc`` legend names default to the
directory holding each report (evaluations all emit ``report.json``), and
can be overridden with ``plot.names``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .config import (
    load_config,
    manifest_json,
    resolve,
    to_genspec,
    to_similarity,
    to_train_config,
)
from .data import generate, load_csv, save_csv
from .encoder import load_encoder
from .errors import ConfigError, DegenerateInputError, ParseError
from .evaluation import _check_threshold, evaluate, report_to_json
from .gradcheck import component_checks
from .plotting import render_roc_svg
from .trainer import ablate, ablate_csv, encode, final_report, save_runlog, train

COMMANDS = ("gen-data", "train", "eval", "ablate", "grad-check", "plot-roc")
TABLE_GRID = {"r": (1.0, 2.0, 3.0), "alpha": (0.0002, 0.0005, 0.001, 0.002)}
TABLE_FARS = (0.0001, 0.001, 0.01)
TABLE_NUM_NEG = 10_000  # 1 / min(TABLE_FARS): the strictest column is reachable


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _u64(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"seed must be an unsigned 64-bit int, got {text}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="pairsim", description="pairwise similarity learning toolkit")
    sub = parser.add_subparsers(dest="command", metavar="{" + ",".join(COMMANDS) + "}")
    sub.required = True
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="config file (key = value or JSON)")
        cmd.add_argument("--out", required=True, help="output directory")
        cmd.add_argument("--seed", type=_u64, default=None, help="override the config seed")
        if name == "ablate":
            cmd.add_argument("--jobs", type=int, default=1, help="worker processes")
    return parser


def _load_dataset(conf):
    if conf["data.csv"]:
        return load_csv(conf["data.csv"])
    return generate(to_genspec(conf))


def _precheck(command: str, conf: dict, overrides: dict, args) -> None:
    """Fail fast (exit 1) on anything knowable before the run starts."""
    runs = command in ("train", "eval", "ablate")
    if command == "gen-data" or (runs and not conf["data.csv"]):
        to_genspec(conf)
    if runs:
        to_train_config(conf)  # for eval: the pair counts, FAR targets and similarity
    if command == "eval":
        if not conf["eval.checkpoint"]:
            raise ConfigError("eval requires the eval.checkpoint config key")
        if conf["eval.threshold"] is not None:
            _check_threshold(conf["eval.threshold"])
    elif command == "plot-roc":
        if not conf["plot.reports"]:
            raise ConfigError("plot-roc requires at least one path in plot.reports")
        names = conf["plot.names"]
        if names and len(names) != len(conf["plot.reports"]):
            raise ConfigError("plot.names must match plot.reports in length")
    if command == "ablate":
        for axis in ("r", "alpha", "b_theta"):
            vals = conf[f"grid.{axis}"]
            if vals is not None and len(vals) == 0:
                raise ConfigError(f"grid.{axis} is empty")
        if getattr(args, "jobs", 1) < 1:
            raise ConfigError("--jobs must be >= 1")
        # no explicit grid: sweep the standard (r, alpha) table, reporting
        # TPR at the table's FAR columns from the table's negative count
        # unless the config chose its own
        if all(conf[f"grid.{axis}"] is None for axis in ("r", "alpha", "b_theta")):
            conf["grid.r"] = TABLE_GRID["r"]
            conf["grid.alpha"] = TABLE_GRID["alpha"]
        if "eval.far_targets" not in overrides:
            conf["eval.far_targets"] = TABLE_FARS
        if "eval.num_neg" not in overrides:
            conf["eval.num_neg"] = TABLE_NUM_NEG


def _cmd_gen_data(conf, out, args):
    ds = _load_dataset(conf)
    path = os.path.join(out, "dataset.csv")
    save_csv(ds, path)
    print(f"wrote {path} ({ds.labels.size} rows, {ds.num_classes} classes)")
    return 0


def _write_report(out, rep) -> None:
    with open(os.path.join(out, "report.json"), "w", newline="\n") as f:
        f.write(report_to_json(rep) + "\n")


def _cmd_train(conf, out, args):
    cfg = to_train_config(conf)
    ds = _load_dataset(conf)
    log = train(cfg, ds)
    save_runlog(log, out)
    rep = final_report(log)
    _write_report(out, rep)
    print(f"trained {cfg.method} for {cfg.epochs} epochs: val eer {rep['eer']:.4f}")
    return 0


def _cmd_eval(conf, out, args):
    net = load_encoder(conf["eval.checkpoint"])
    ds = _load_dataset(conf)
    feats = encode(net, ds.inputs, conf["train.normalize_features"])
    rep = evaluate(
        feats,
        ds.labels,
        to_similarity(conf),
        num_pos=conf["eval.num_pos"],
        num_neg=conf["eval.num_neg"],
        seed=conf["seed"],
        far_targets=tuple(conf["eval.far_targets"]),
        threshold=conf["eval.threshold"],
    )
    _write_report(out, rep)
    print(f"eer {rep['eer']:.4f}, margin {rep['desideratum_margin']:+.4f}")
    return 0


def _cmd_ablate(conf, out, args):
    grid = {
        axis: list(conf[f"grid.{axis}"])
        for axis in ("r", "alpha", "b_theta")
        if conf[f"grid.{axis}"] is not None
    }
    rows = ablate(grid, to_train_config(conf), _load_dataset(conf), jobs=args.jobs)
    path = os.path.join(out, "ablation.csv")
    with open(path, "w", newline="\n") as f:
        f.write(ablate_csv(rows))
    ok = sum(1 for row in rows if row["status"] == "ok")
    print(f"wrote {path} ({len(rows)} cells, {ok} ok)")
    return 0


def _cmd_grad_check(conf, out, args):
    rows = component_checks(conf["seed"])
    lines = [f"{name}: max rel err {err:.3e} (tol {tol:g})" for name, err, tol in rows]
    failed = ", ".join(name for name, err, tol in rows if not err < tol)  # NaN fails
    verdict = f"FAIL: over tolerance: {failed}" if failed else "PASS: all rows under tolerance"
    with open(os.path.join(out, "gradcheck.txt"), "w", newline="\n") as f:
        f.write("\n".join(lines + [verdict]) + "\n")
    print("\n".join(lines))
    print(verdict)
    if failed:
        raise RuntimeError(f"gradient check failed: {failed}")
    return 0


def _legend_name(path: str) -> str:
    parent = os.path.basename(os.path.dirname(path))
    return parent or os.path.splitext(os.path.basename(path))[0]


def _cmd_plot_roc(conf, out, args):
    paths = list(conf["plot.reports"])
    names = list(conf["plot.names"]) if conf["plot.names"] else [_legend_name(p) for p in paths]
    curves = []
    for name, path in zip(names, paths):
        with open(path, "r") as f:
            doc = json.load(f)
        if not isinstance(doc, dict) or "roc" not in doc:
            raise DegenerateInputError(
                f"{path} holds no ROC: plot-roc reads the report.json that train and eval write"
            )
        roc = [(float(p[0]), float(p[1])) for p in doc["roc"]]
        curves.append((name, roc))
    svg = render_roc_svg(curves)
    path = os.path.join(out, "roc.svg")
    with open(path, "w", newline="\n") as f:
        f.write(svg)
    print(f"wrote {path} ({len(curves)} curves)")
    return 0


_RUNNERS = {
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "ablate": _cmd_ablate,
    "grad-check": _cmd_grad_check,
    "plot-roc": _cmd_plot_roc,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        sys.stderr.write(parser.format_usage())
        sys.stderr.write(f"pairsim: error: {exc}\n")
        return 1
    try:
        overrides = load_config(args.config)
        if args.seed is not None:
            overrides["seed"] = args.seed
        conf = resolve(overrides)
        _precheck(args.command, conf, overrides, args)
    except FileNotFoundError as exc:
        sys.stderr.write(parser.format_usage())
        sys.stderr.write(f"pairsim: error: config not found: {exc.filename}\n")
        return 1
    except (ConfigError, ParseError) as exc:
        sys.stderr.write(f"pairsim: error: {exc}\n")
        return 1
    try:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "manifest.json"), "w", newline="\n") as f:
            f.write(manifest_json(args.command, conf))
        return _RUNNERS[args.command](conf, args.out, args)
    except Exception as exc:
        sys.stderr.write(f"pairsim: error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
