"""Command-line interface exposing the full pipeline.

Subcommands: synth, prepare, train, evaluate, backtest, sweep, gradcheck,
neighbors. Runs are driven by a JSON config file plus overriding flags; all
randomness flows from the mandatory seed through named streams, so rerunning
a command with the same inputs reproduces its outputs byte for byte.

Exit codes: 0 success, 1 check failure, 2 usage, configuration or input
error or a path that cannot be read or written, 3 numeric failure during a run.
"""

from __future__ import annotations

import argparse
import datetime as dt
import functools
import math
import sys
from dataclasses import MISSING, asdict, dataclass, fields, replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import backtest as bt
from . import corpus, embeddings, gradcheck, pipeline, training
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .fileio import (
    CONVERTERS,
    csv_text,
    json_text,
    list_of,
    optional,
    read_csv,
    read_json,
    read_object,
    strict_int,
    strict_number,
    strict_str,
    write_text_atomic,
)
from .network import HEAD_BINARY, ModelConfig, init_parameters, predict
from .seeding import derive_seed
from .text import PAD_TOKEN, vocabulary_to_text


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    headlines_path: Path
    prices_path: Path
    portfolio: tuple[str, ...]
    seed: int
    out_dir: Path = Path("out")
    pretrained_path: Path | None = None
    min_relevance: float = 1.0
    # model
    p: int = 16
    filter_widths: tuple[int, ...] = (3, 4)
    filters_per_width: int = 6
    pool_w: int = 2
    hidden_sizes: tuple[int, int] = (32, 16)
    dropout_rate: float = 0.25
    head: str = HEAD_BINARY
    max_len: int | None = None
    embedding_mode: str = embeddings.MODE_SELF_LEARNT
    embedding_init_mean: float = 0.0
    embedding_init_std: float = 0.1
    # training
    epochs: int = 10
    batch_size: int = 32
    learning_rate: float = 1e-3
    validation_fraction: float = 0.2
    select_on_test: bool = False
    grid: training.GridAxes | None = None
    # strategy
    threshold: float = 0.5
    sweep_step: float = 0.01


# Config-file section ("" is the top level) -> key -> RunConfig field. An
# absent key takes the field's default; a present value is converted by the
# field's annotation (a string, under postponed evaluation). The grid's axes
# default to the single-run values, so they are resolved after the rest.
_SECTIONS: dict[str, dict[str, str]] = {
    "": {"portfolio": "portfolio", "min_relevance": "min_relevance"},
    "paths": {"headlines": "headlines_path", "prices": "prices_path",
              "out_dir": "out_dir", "pretrained": "pretrained_path"},
    "model": {k: k for k in ("p", "filter_widths", "filters_per_width", "pool_w",
                             "hidden_sizes", "dropout_rate", "head", "max_len",
                             "embedding_mode", "embedding_init_mean", "embedding_init_std")},
    "training": {k: k for k in ("seed", "epochs", "batch_size", "learning_rate",
                                "validation_fraction", "select_on_test", "grid")},
    "strategy": {"threshold": "threshold", "sweep_step": "sweep_step"},
}
_GRID_AXES: dict[str, Callable] = {
    "epochs": list_of(strict_int), "dropout": list_of(strict_number),
    "width_sets": list_of(list_of(strict_int)), "modes": list_of(strict_str),
}
_CONVERTERS: dict[str, Callable | dict] = {**CONVERTERS, "Path": Path, "Path | None": optional(Path),
                                           "training.GridAxes | None": optional(_GRID_AXES)}
_FIELDS = {f.name: f for f in fields(RunConfig)}
# RunConfig field -> the key that sets it, as a message names it
_KEY_OF = {field: f"{name}.{key}".lstrip(".")
           for name, keys in _SECTIONS.items() for key, field in keys.items()}
# What ``read_object`` reads the file with: the top-level keys beside one mapping per section.
_CONFIG_KEYS = {name: {key: _CONVERTERS[_FIELDS[field].type] for key, field in keys.items()}
                for name, keys in _SECTIONS.items()}
_CONFIG_KEYS.update(_CONFIG_KEYS.pop(""))


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def load_run_config(path: str | Path, args: argparse.Namespace) -> RunConfig:
    """The run config in the JSON file ``path``; ``--seed`` and ``--out-dir`` in
    ``args`` override it. An unknown key, a value of the wrong JSON type or out of
    range and a missing required key raise ConfigError as ``<path>:
    <section>.<key>: <problem>`` (the bare key at the top level). The files it
    names are not opened here: one that cannot be read is reported where it is."""
    raw = read_json(path)
    try:
        parsed = read_object(raw, _CONFIG_KEYS)
        sections = {name: parsed.get(name, {}) if name else parsed for name in _SECTIONS}
        values = {field: sections[name][key] for name, keys in _SECTIONS.items()
                  for key, field in keys.items() if key in sections[name]}
        if args.seed is not None:
            values["seed"] = args.seed
        if args.out_dir:
            values["out_dir"] = Path(args.out_dir)
        missing = [key for field, key in _KEY_OF.items()
                   if field not in values and _FIELDS[field].default is MISSING]
        _require(not missing, f"missing required config keys: {', '.join(missing)} "
                              "(--seed stands in for training.seed)")
        grid = values.pop("grid", None)
        cfg = RunConfig(**values)
        if grid is not None:
            defaults = {"epochs": (cfg.epochs,), "dropout": (cfg.dropout_rate,),
                        "width_sets": (cfg.filter_widths,), "modes": (cfg.embedding_mode,)}
            cfg.grid = training.GridAxes(**{**defaults, **grid})
            for axis, axis_values in grid.items():
                _require(axis_values != (), f"training.grid.{axis}: expected at least one value")
            for n in cfg.grid.epochs:
                _require(n >= 0, f"training.grid.epochs: expected an integer >= 0, got {n!r}")
        ranges = {"max_len": (cfg.max_len is None or cfg.max_len >= 1, "an integer >= 1 or null"),
                  "embedding_init_std": (cfg.embedding_init_std > 0, "a number > 0"),
                  "epochs": (cfg.epochs >= 0, "an integer >= 0"),
                  "batch_size": (cfg.batch_size >= 1, "an integer >= 1"),
                  "learning_rate": (cfg.learning_rate >= 0, "a number >= 0"),
                  "validation_fraction": (0 < cfg.validation_fraction < 1, "a number in (0, 1)"),
                  "sweep_step": (cfg.sweep_step >= bt.MIN_GRID_STEP, f"a number >= {bt.MIN_GRID_STEP}"),
                  "threshold": (0 <= cfg.threshold <= 1, "a number in [0, 1]")}
        for field, (ok, expected) in ranges.items():
            _require(ok, f"{_KEY_OF[field]}: expected {expected}, got {getattr(cfg, field)!r}")
        _require(cfg.portfolio != (), "portfolio: expected at least one ticker")
        modes = [("model.embedding_mode", cfg.embedding_mode)]
        modes += [("training.grid.modes", mode) for mode in (cfg.grid.modes if cfg.grid else ())]
        for key, mode in modes:
            _require(mode in embeddings.MODES, f"{key}: unknown embedding mode {mode!r}, "
                                               f"expected one of {', '.join(embeddings.MODES)}")
            _require(mode == embeddings.MODE_SELF_LEARNT or cfg.pretrained_path is not None,
                     f"paths.pretrained: embedding mode {mode!r} ({key}) requires a vector file")
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return cfg


def _build_table(cfg: RunConfig, vocab, mode: str, seed: int) -> embeddings.EmbeddingTable:
    if mode == embeddings.MODE_SELF_LEARNT:
        return embeddings.init_self_learnt(
            vocab, cfg.p, mean=cfg.embedding_init_mean, std=cfg.embedding_init_std, seed=seed
        )
    return embeddings.load_pretrained(
        vocab, cfg.pretrained_path, mode, seed=seed, expected_p=cfg.p
    )


def _prepare(cfg: RunConfig) -> tuple[pipeline.PreparedData, corpus.PriceIndex]:
    """The prepared data and the price index it was labeled with, for the backtests."""
    prices = corpus.load_prices(cfg.prices_path)
    missing = ", ".join(repr(ticker) for ticker in cfg.portfolio if not prices.has_asset(ticker))
    _require(not missing, f"portfolio: no price bars for {missing} in {cfg.prices_path}")
    headlines = corpus.load_headlines(cfg.headlines_path, cfg.min_relevance)
    return pipeline.prepare_dataset(headlines, prices, set(cfg.portfolio), max_len=cfg.max_len), prices


# RunConfig fields named as ModelConfig's; ``m`` comes from the prepared vocabulary.
_MODEL_FIELDS = [f.name for f in fields(ModelConfig) if f.name != "m"]


def _model_config(cfg: RunConfig, m: int, config_path: str | Path) -> ModelConfig:
    try:
        config = ModelConfig(m=m, **{name: getattr(cfg, name) for name in _MODEL_FIELDS})
    except ValueError as exc:
        raise ConfigError(f"{config_path}: model: {exc}") from None
    if cfg.grid is None:
        return config
    # a cell's widths and its dropout are checked apart, so the message names the axis at fault
    cells = ([("width_sets", tuple(widths), config.dropout_rate) for widths in cfg.grid.width_sets]
             + [("dropout", config.filter_widths, dropout) for dropout in cfg.grid.dropout])
    for key, widths, dropout in cells:
        try:
            training.cell_config(config, widths, dropout)
        except ValueError as exc:
            raise ConfigError(f"{config_path}: training.grid.{key}: {exc}") from None
    return config


# --- subcommands ------------------------------------------------------------

# A config-driven command takes the run config ``main`` read and returns its
# outputs, {file name under out_dir: text}, and its report lines; ``main``
# writes the outputs, then prints the report: a run that fails before then writes nothing.
Outputs = tuple[dict[str, str], list[str]]


def cmd_synth(args: argparse.Namespace) -> int:
    if min(args.n_assets, args.n_days, args.headlines_per_day) < 1:
        raise ConfigError("n-assets, n-days and headlines-per-day must all be >= 1")
    headlines, prices = corpus.generate_synthetic(
        seed=args.seed if args.seed is not None else 0,
        n_assets=args.n_assets,
        n_days=args.n_days,
        headlines_per_day=args.headlines_per_day,
        signal_strength=args.signal_strength,
    )
    out = Path(args.out_dir or "out")
    corpus.write_headlines_csv(headlines, out / "headlines.csv")
    corpus.write_prices_csv(prices, out / "prices.csv")
    print(f"wrote {len(headlines)} headlines and {len(prices)} price bars to {out}/")
    return 0


def cmd_prepare(cfg: RunConfig, args: argparse.Namespace) -> Outputs:
    prepared, _ = _prepare(cfg)
    _model_config(cfg, prepared.vocab.max_len, args.config)
    files = {"vocab.tsv": vocabulary_to_text(prepared.vocab)}
    files["split.json"] = json_text({
        "train_ids": sorted(prepared.split.train_ids),
        "test_ids": sorted(prepared.split.test_ids),
        "test_dates": [d.isoformat() for d in prepared.split.test_dates],
        "n_unlabeled": prepared.n_unlabeled,
    })
    files["samples.csv"] = csv_text(
        ["headline_id", "asset", "date", "trade_date", "next_day_return",
         "binary_label", "tri_label", "role", "true_len"],
        ([s.headline_id, s.asset, s.date.isoformat(), s.trade_date.isoformat(),
          repr(s.next_day_return), s.binary_label, s.tri_label, role, np.count_nonzero(s.enc)]
         for role, samples in (("train", prepared.train), ("test", prepared.test)) for s in samples),
    )
    return files, [
        f"vocab size {prepared.vocab.size}, max_len {prepared.vocab.max_len}; "
        f"{len(prepared.train)} train / {len(prepared.test)} test samples "
        f"on {len(prepared.split.test_dates)} test dates; wrote {cfg.out_dir}/"
    ]


def cmd_train(cfg: RunConfig, args: argparse.Namespace) -> Outputs:
    """Also saves the checkpoint, once every other output has been computed."""
    prepared, _ = _prepare(cfg)
    vocab = prepared.vocab
    model_config = _model_config(cfg, vocab.max_len, args.config)
    files, report = {}, []

    if cfg.grid is not None:
        if cfg.select_on_test:
            fit, selection = prepared.train, prepared.test
        else:
            fit, selection = pipeline.validation_slice(
                prepared.train, cfg.validation_fraction, cfg.seed
            )
        results = training.grid_search(
            pipeline.to_pairs(fit, cfg.head),
            pipeline.to_pairs(selection, cfg.head),
            model_config,
            cfg.grid,
            functools.partial(_build_table, cfg, vocab),
            seed=cfg.seed,
            batch_size=cfg.batch_size,
            lr=cfg.learning_rate,
            parallel=args.parallel,
        )
        best = results[0]
        files["grid.csv"] = training.grid_csv(results)
        files["grid_summary.json"] = json_text({"best": asdict(best), "n_cells": len(results)})
        report.append(
            f"grid search: {len(results)} cells; best widths={best.widths} mode={best.mode} "
            f"dropout={best.dropout} epochs={best.epochs} f1={best.f1:.4f}"
        )
        model_config = training.cell_config(model_config, best.widths, best.dropout)
        cfg = replace(cfg, embedding_mode=best.mode, epochs=best.epochs)

    table = _build_table(cfg, vocab, cfg.embedding_mode, derive_seed(cfg.seed, "embeddings"))
    params = init_parameters(
        model_config, np.random.default_rng(derive_seed(cfg.seed, "params-init"))
    )
    result = training.train(
        pipeline.to_pairs(prepared.train, cfg.head), table, params, model_config,
        epochs=cfg.epochs, batch_size=cfg.batch_size,
        seed=derive_seed(cfg.seed, "train"), lr=cfg.learning_rate,
    )
    metrics = training.evaluate(
        pipeline.to_pairs(prepared.test, cfg.head), table, params, model_config
    )
    files["metrics.json"] = json_text(metrics.to_dict())
    files["trace.csv"] = csv_text(
        ["epoch", "mean_loss", "accuracy"],
        ([row.epoch, repr(row.mean_loss), repr(row.accuracy)] for row in result.trace),
    )

    save_checkpoint(
        cfg.out_dir / "checkpoint.json", model_config, vocab, table, params,
        training_meta={
            "epochs": cfg.epochs, "batch_size": cfg.batch_size,
            "learning_rate": cfg.learning_rate, "seed": cfg.seed,
        },
    )
    report.append(
        f"trained {cfg.epochs} epochs on {len(prepared.train)} samples; "
        f"test accuracy {metrics.accuracy:.4f}, f1 {metrics.f1:.4f}; wrote {cfg.out_dir}/"
    )
    return files, report


def _checkpoint_run(
    cfg: RunConfig, args: argparse.Namespace
) -> tuple[Checkpoint, pipeline.PreparedData, corpus.PriceIndex]:
    """The checkpoint to run (``--checkpoint``, else ``checkpoint.json`` in the
    output directory, which ``--out-dir`` moves too), the prepared data and the
    price index it runs on, each read once, checked against each other."""
    ckpt = load_checkpoint(args.checkpoint or cfg.out_dir / "checkpoint.json")
    # widths/dropout/epochs may come from a grid search, but the embedding
    # dimension and the head must agree with the config driving this run
    if ckpt.config.p != cfg.p or ckpt.config.head != cfg.head:
        raise ConfigError(
            f"checkpoint (p={ckpt.config.p}, head={ckpt.config.head!r}) is incompatible "
            f"with the config (p={cfg.p}, head={cfg.head!r})"
        )
    prepared, prices = _prepare(cfg)
    if prepared.vocab != ckpt.vocab:
        raise ConfigError(
            "vocabulary hash mismatch: the data/config no longer reproduce the "
            "vocabulary this checkpoint was trained with"
        )
    return ckpt, prepared, prices


def cmd_evaluate(cfg: RunConfig, args: argparse.Namespace) -> Outputs:
    ckpt, prepared, _ = _checkpoint_run(cfg, args)
    _require(args.class_threshold == 0.5 or ckpt.config.head == HEAD_BINARY,
             f"--class-threshold applies to the binary head only; the checkpoint's head "
             f"{ckpt.config.head!r} predicts the argmax class")
    metrics = training.evaluate(
        pipeline.to_pairs(prepared.test, ckpt.config.head), ckpt.table, ckpt.params,
        ckpt.config, class_threshold=args.class_threshold,
    )
    return {"metrics.json": json_text(metrics.to_dict())}, [
        f"test accuracy {metrics.accuracy:.4f}, precision {metrics.precision:.4f}, "
        f"recall {metrics.recall:.4f}, f1 {metrics.f1:.4f} over {metrics.n_samples} samples"
    ]


def _read_predictions_csv(path: Path, head: str, prices: corpus.PriceIndex) -> list:
    """The (line, asset, date, output) rows of a predictions CSV, whose header
    must be ``head``'s: p0 alone for the binary head, p0,p1,p2 for the 3-way
    head. Every row needs a price bar of its asset after its date, to trade on."""
    rows: list[tuple[int, str, dt.date, float | np.ndarray]] = []

    def parse(line: int, row: list[str]) -> None:
        asset, date = corpus.parse_asset(row[0]), corpus.parse_date(row[1])
        values = [float(x) for x in row[2:]]
        if not all(0.0 <= v <= 1.0 for v in values):
            raise ValueError(f"probabilities must lie in [0, 1], got {values}")
        rows.append((line, asset, date, values[0] if len(values) == 1 else np.array(values)))
    header = read_csv(path, (["asset", "date", "p0"], ["asset", "date", "p0", "p1", "p2"]), parse)
    if (header[-1] == "p0") != (head == HEAD_BINARY):  # p0 alone is the binary head's
        raise ConfigError(f"{path}: header {','.join(header)} does not match model.head {head!r}")
    if not rows:
        raise ConfigError(f"{path}: no prediction rows")
    positions = prices.next_positions([row[1] for row in rows], [row[2] for row in rows])
    late = np.flatnonzero(positions < 0)
    if late.size:
        line, asset, date, _ = rows[late[0]]
        missing = f"no price bar after {date}" if prices.has_asset(asset) else "no price bars"
        raise ConfigError(f"{path}: line {line}: asset {asset!r} has {missing}")
    return rows


def _day_predictions(
    cfg: RunConfig, args: argparse.Namespace
) -> tuple[bt.DayPredictions, corpus.PriceIndex]:
    """Day predictions of the head ``model.head`` names, from either a
    predictions CSV or a checkpoint run."""
    if args.predictions:
        prices = corpus.load_prices(cfg.prices_path)
        rows = _read_predictions_csv(Path(args.predictions), cfg.head, prices)
    else:
        ckpt, prepared, prices = _checkpoint_run(cfg, args)
        outputs = predict([s.enc for s in prepared.test], ckpt.table, ckpt.params, ckpt.config)
        rows = [(s.headline_id, s.asset, s.date, output)
                for s, output in zip(prepared.test, outputs)]
    return bt.aggregate_daily(rows), prices


def cmd_backtest(cfg: RunConfig, args: argparse.Namespace) -> Outputs:
    day_preds, prices = _day_predictions(cfg, args)
    score = bt.buy_scores(day_preds)
    buys = map(day_preds.__getitem__, np.flatnonzero(score > cfg.threshold).tolist())
    report = bt.simulate([(dp.asset, dp.date, bt.BUY) for dp in buys], prices)
    return {"report.json": json_text(report.to_dict())}, [
        f"{report.n_trades} trades; total return {report.total_return_pct:.2f}%, "
        f"PP {report.pp_pct:.2f}%, ATP {report.atp_pct:.4f}%"
    ]


def cmd_sweep(cfg: RunConfig, args: argparse.Namespace) -> Outputs:
    day_preds, prices = _day_predictions(cfg, args)
    grid = bt.default_threshold_grid(day_preds.binary, step=cfg.sweep_step)
    rows = bt.threshold_sweep(day_preds, prices, grid)
    best = max(rows, key=lambda r: r.atp_pct)
    return {"sweep.csv": bt.sweep_csv(rows)}, [
        f"{len(rows)} thresholds; best ATP {best.atp_pct:.4f}% at t={best.t:.2f} "
        f"({best.n_trades} trades); wrote {cfg.out_dir / 'sweep.csv'}"
    ]


def cmd_gradcheck(args: argparse.Namespace) -> int:
    suite = gradcheck.run_suite(
        seed=args.seed if args.seed is not None else 0,
        n_configs=args.configs,
    )
    for i, r in enumerate(suite.results):
        print(f"config {i:2d}: max rel error {r.max_rel_error:.3e} ({r.description})")
    verdict = "PASS" if suite.passed else "FAIL"
    print(
        f"gradcheck {verdict}: max relative error {suite.max_rel_error:.3e} "
        f"(tolerance {gradcheck.TOLERANCE:.0e}) over {len(suite.results)} configs "
        f"in {suite.elapsed_s:.2f}s"
    )
    return 0 if suite.passed else 1


def cmd_neighbors(args: argparse.Namespace) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    if args.token == PAD_TOKEN:
        raise ConfigError("the padding token has no meaningful neighbors")
    neighbors = embeddings.nearest_neighbors(args.token, args.k, ckpt.table, ckpt.vocab)
    for token, sim in neighbors:
        print(f"{token}\t{sim:.6f}")
    return 0


# --- argument parsing -------------------------------------------------------


def _probability(text: str) -> float:
    """An argparse type: a number in [0, 1] (so never NaN)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"expected a number in [0, 1], got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    # one parent parser per shared flag, given only to the subcommands that read it
    config, seed, out_dir = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    config.add_argument("--config", required=True, help="path to the JSON run configuration")
    seed.add_argument("--seed", type=int, default=None, help="override the config seed")
    out_dir.add_argument("--out-dir", default=None, help="override the output directory")
    run = [config, seed, out_dir]

    parser = argparse.ArgumentParser(
        prog="newsvane",
        description="Headline-driven next-day stock movement classification and trading simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[seed, out_dir], help="generate a synthetic corpus")
    p.add_argument("--n-assets", type=int, default=2)
    p.add_argument("--n-days", type=int, default=300)
    p.add_argument("--headlines-per-day", type=int, default=5)
    p.add_argument("--signal-strength", type=float, default=1.0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("prepare", parents=run,
                       help="materialize the labeled, split, encoded dataset")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train", parents=run, help="train a model and write a checkpoint")
    p.add_argument("--parallel", action="store_true",
                   help="run independent grid-search cells in parallel")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", parents=run, help="evaluate a checkpoint on the test split")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--class-threshold", type=_probability, default=0.5)
    p.set_defaults(func=cmd_evaluate)

    for name, func, about in (("backtest", cmd_backtest, "simulate the trading strategy"),
                              ("sweep", cmd_sweep, "threshold sweep over the strategy grid")):
        p = sub.add_parser(name, parents=run, help=about)
        source = p.add_mutually_exclusive_group()
        source.add_argument("--checkpoint", default=None)
        source.add_argument("--predictions", default=None, help="standalone predictions CSV "
                            "(asset,date,p0[,p1,p2], as model.head) instead of a checkpoint")
        p.set_defaults(func=func)

    p = sub.add_parser("gradcheck", parents=[seed],
                       help="verify analytic gradients against finite differences")
    p.add_argument("--configs", type=int, default=20)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("neighbors", help="cosine-similarity neighbors of a vocabulary token")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("token")
    p.add_argument("-k", type=int, default=5)
    p.set_defaults(func=cmd_neighbors)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if "config" not in args:
            return args.func(args)
        cfg = load_run_config(args.config, args)
        files, report = args.func(cfg, args)
        for name, text in files.items():
            write_text_atomic(cfg.out_dir / name, text)
        print("\n".join(report))
        return 0
    except training.NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError) as exc:  # ConfigError and CheckpointError among them
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 2
    except OSError as exc:  # an input that cannot be read or an output that cannot be written
        print(f"error: {exc.filename}: {exc.strerror}" if exc.filename else f"error: {exc}",
              file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
