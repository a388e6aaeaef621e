"""Command-line interface exposing the full pipeline.

Subcommands: synth, prepare, train, evaluate, backtest, sweep, gradcheck,
neighbors. Runs are driven by a JSON config file plus overriding flags; all
randomness flows from the mandatory seed through named streams, so rerunning
a command with the same inputs reproduces its outputs byte for byte.

Exit codes: 0 success, 1 check failure, 2 usage or configuration error,
3 numeric failure during a run (a non-finite gradient).
"""

from __future__ import annotations

import argparse
import csv
import datetime as dt
import functools
import math
import sys
from dataclasses import MISSING, dataclass, fields, replace
from itertools import compress
from pathlib import Path
from typing import Callable

import numpy as np

from . import backtest as bt
from . import corpus, embeddings, gradcheck, pipeline, training
from .checkpoint import Checkpoint, CheckpointError, load_checkpoint, save_checkpoint
from .fileio import (
    CONVERTERS,
    csv_text,
    list_of,
    optional,
    read_json,
    strict_int,
    strict_number,
    strict_str,
    write_json_atomic,
    write_text_atomic,
)
from .network import HEAD_BINARY, HEAD_MULTICLASS3, ModelConfig, forward, init_parameters
from .seeding import derive_seed
from .text import PAD_TOKEN, save_vocabulary, vocabulary_hash


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
    strategy_head: str | None = None
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
    "strategy": {"threshold": "threshold", "head": "strategy_head", "sweep_step": "sweep_step"},
}
_CONVERTERS: dict[str, Callable] = {
    **CONVERTERS, "Path": Path, "Path | None": optional(Path),
    "training.GridAxes | None": lambda grid: grid,  # checked below, as a section
}
_GRID_AXES: dict[str, Callable] = {
    "epochs": list_of(strict_int), "dropout": list_of(strict_number),
    "width_sets": list_of(list_of(strict_int)), "modes": list_of(strict_str),
}


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _reject_unknown(section, known, name: str) -> None:
    _require(isinstance(section, dict), f"config section {name!r} must be a JSON object")
    for key in section:
        _require(key in known, f"unknown key {key!r} in config section {name!r}")


def _convert(convert: Callable, value, key: str, section: str):
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config key {key!r} in section {section!r}: {exc}") from None


def load_run_config(path: str | Path, args: argparse.Namespace) -> RunConfig:
    raw = read_json(path)
    run_fields = {f.name: f for f in fields(RunConfig)}
    values: dict = {}
    for name, keys in _SECTIONS.items():
        section = raw.get(name, {}) if name else raw  # the top level is checked first
        _reject_unknown(section, set(keys) if name else set(keys) | set(_SECTIONS) - {""},
                        name or "top level")
        for key, field in keys.items():
            if key in section:
                values[field] = _convert(_CONVERTERS[run_fields[field].type], section[key],
                                         key, name or "top level")
    if args.seed is not None:
        values["seed"] = args.seed
    if args.out_dir:
        values["out_dir"] = Path(args.out_dir)
    missing = [f"{name}.{key}".lstrip(".") for name, keys in _SECTIONS.items()
               for key, field in keys.items()
               if field not in values and run_fields[field].default is MISSING]
    _require(not missing, f"missing required config keys: {', '.join(missing)} "
                          "(--seed stands in for training.seed)")
    grid = values.pop("grid", None)
    cfg = RunConfig(**values)
    if grid is not None:
        _reject_unknown(grid, _GRID_AXES, "training.grid")
        defaults = {"epochs": [cfg.epochs], "dropout": [cfg.dropout_rate],
                    "width_sets": [list(cfg.filter_widths)], "modes": [cfg.embedding_mode]}
        cfg.grid = training.GridAxes(**{
            axis: _convert(convert, grid.get(axis, defaults[axis]), axis, "training.grid")
            for axis, convert in _GRID_AXES.items()})

    _require(cfg.max_len is None or cfg.max_len >= 1,
             f"config key 'max_len' in section 'model': expected an integer >= 1 or null, "
             f"got {cfg.max_len!r}")
    _require(cfg.portfolio != (), "portfolio must list at least one ticker")
    _require(cfg.headlines_path.is_file(), f"headlines file not found: {cfg.headlines_path}")
    _require(cfg.prices_path.is_file(), f"prices file not found: {cfg.prices_path}")
    if cfg.embedding_mode in (embeddings.MODE_STATIC, embeddings.MODE_NON_STATIC):
        _require(
            cfg.pretrained_path is not None and cfg.pretrained_path.is_file(),
            f"embedding mode {cfg.embedding_mode!r} requires an existing paths.pretrained file",
        )
    if cfg.strategy_head is not None:
        _require(cfg.strategy_head in (HEAD_BINARY, HEAD_MULTICLASS3),
                 f"unknown strategy head {cfg.strategy_head!r}")
    _require(cfg.sweep_step > 0, f"config key 'sweep_step' in section 'strategy': "
                                 f"expected a number > 0, got {cfg.sweep_step!r}")
    _require(0.0 <= cfg.threshold <= 1.0, f"config key 'threshold' in section 'strategy': "
                                          f"expected a number in [0, 1], got {cfg.threshold!r}")
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
    prices = corpus.PriceIndex(corpus.load_prices(cfg.prices_path))
    headlines = corpus.load_headlines(cfg.headlines_path, cfg.min_relevance)
    return pipeline.prepare_dataset(headlines, prices, set(cfg.portfolio), max_len=cfg.max_len), prices


def _model_config(cfg: RunConfig, m: int) -> ModelConfig:
    return ModelConfig(
        p=cfg.p, m=m, filter_widths=cfg.filter_widths,
        filters_per_width=cfg.filters_per_width, hidden_sizes=cfg.hidden_sizes,
        dropout_rate=cfg.dropout_rate, pool_w=cfg.pool_w, head=cfg.head,
    )


# --- subcommands ------------------------------------------------------------


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


def cmd_prepare(args: argparse.Namespace) -> int:
    cfg = load_run_config(args.config, args)
    prepared, _ = _prepare(cfg)
    out = cfg.out_dir
    save_vocabulary(prepared.vocab, out / "vocab.tsv")
    write_json_atomic(
        out / "split.json",
        {
            "train_ids": sorted(prepared.split.train_ids),
            "test_ids": sorted(prepared.split.test_ids),
            "test_dates": [d.isoformat() for d in prepared.split.test_dates],
            "n_unlabeled": prepared.n_unlabeled,
        },
    )
    write_text_atomic(out / "samples.csv", csv_text(
        ["headline_id", "asset", "date", "trade_date", "next_day_return",
         "binary_label", "tri_label", "role", "true_len"],
        ([s.headline_id, s.asset, s.date.isoformat(), s.trade_date.isoformat(),
          repr(s.next_day_return), s.binary_label, s.tri_label, role, s.enc.true_len]
         for role, samples in (("train", prepared.train), ("test", prepared.test)) for s in samples),
    ))
    print(
        f"vocab size {prepared.vocab.size}, max_len {prepared.vocab.max_len}; "
        f"{len(prepared.train)} train / {len(prepared.test)} test samples "
        f"on {len(prepared.split.test_dates)} test dates; wrote {out}/"
    )
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    cfg = load_run_config(args.config, args)
    prepared, _ = _prepare(cfg)
    vocab = prepared.vocab
    model_config = _model_config(cfg, vocab.max_len)

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
        training.write_grid_results(
            results, cfg.out_dir / "grid.csv", cfg.out_dir / "grid_summary.json"
        )
        best = results[0]
        print(
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

    out = cfg.out_dir
    save_checkpoint(
        out / "checkpoint.json", model_config, vocab, table, params,
        training_meta={
            "epochs": cfg.epochs, "batch_size": cfg.batch_size,
            "learning_rate": cfg.learning_rate, "seed": cfg.seed,
            "embedding_mode": cfg.embedding_mode,
        },
    )
    write_json_atomic(out / "metrics.json", metrics.to_dict())
    write_text_atomic(out / "trace.csv", csv_text(
        ["epoch", "mean_loss", "accuracy"],
        ([row.epoch, repr(row.mean_loss), repr(row.accuracy)] for row in result.trace),
    ))
    print(
        f"trained {cfg.epochs} epochs on {len(prepared.train)} samples; "
        f"test accuracy {metrics.accuracy:.4f}, f1 {metrics.f1:.4f}; wrote {out}/"
    )
    return 0


def _checkpoint_run(
    cfg: RunConfig, args: argparse.Namespace
) -> tuple[Checkpoint, pipeline.PreparedData, corpus.PriceIndex]:
    """The checkpoint to run, the prepared data and the price index it runs
    on, each read once, checked against each other."""
    path = Path(args.checkpoint) if args.checkpoint else cfg.out_dir / "checkpoint.json"
    _require(path.is_file(), f"checkpoint not found: {path}")
    ckpt = load_checkpoint(path)
    # widths/dropout/epochs may come from a grid search, but the embedding
    # dimension and the head must agree with the config driving this run
    if ckpt.config.p != cfg.p or ckpt.config.head != cfg.head:
        raise ConfigError(
            f"checkpoint (p={ckpt.config.p}, head={ckpt.config.head!r}) is incompatible "
            f"with the config (p={cfg.p}, head={cfg.head!r})"
        )
    prepared, prices = _prepare(cfg)
    if vocabulary_hash(prepared.vocab) != ckpt.vocab_hash:
        raise ConfigError(
            "vocabulary hash mismatch: the data/config no longer reproduce the "
            "vocabulary this checkpoint was trained with"
        )
    return ckpt, prepared, prices


def cmd_evaluate(args: argparse.Namespace) -> int:
    cfg = load_run_config(args.config, args)
    ckpt, prepared, _ = _checkpoint_run(cfg, args)
    metrics = training.evaluate(
        pipeline.to_pairs(prepared.test, ckpt.config.head), ckpt.table, ckpt.params,
        ckpt.config, class_threshold=args.class_threshold,
    )
    write_json_atomic(cfg.out_dir / "metrics.json", metrics.to_dict())
    print(
        f"test accuracy {metrics.accuracy:.4f}, precision {metrics.precision:.4f}, "
        f"recall {metrics.recall:.4f}, f1 {metrics.f1:.4f} over {metrics.n_samples} samples"
    )
    return 0


def _read_predictions_csv(path: Path, prices: corpus.PriceIndex) -> tuple[list, str]:
    """The (line, asset, date, output) rows of a predictions CSV and the head
    its header names: p0 alone for the binary head, p0,p1,p2 for the 3-way head.
    Every row's asset must have bars in ``prices``."""
    rows: list[tuple[int, str, dt.date, float | np.ndarray]] = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header not in (["asset", "date", "p0"], ["asset", "date", "p0", "p1", "p2"]):
            raise ConfigError(f"{path}: expected header asset,date,p0[,p1,p2]")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                if len(row) != len(header):
                    raise ValueError(f"the header has {len(header)} fields, this row {len(row)}")
                asset = row[0].strip()  # as load_prices reads it
                if not asset:
                    raise ValueError("empty asset")
                if asset not in prices:
                    raise ValueError(f"asset {asset!r} has no price bars")
                date = dt.datetime.strptime(row[1], "%Y-%m-%d").date()
                values = [float(x) for x in row[2:]]
                if not all(0.0 <= v <= 1.0 for v in values):
                    raise ValueError(f"probabilities must lie in [0, 1], got {values}")
                output: float | np.ndarray = values[0] if len(row) == 3 else np.array(values)
            except ValueError as exc:
                raise ConfigError(f"{path}: line {lineno}: {exc}") from exc
            rows.append((lineno, asset, date, output))
    if not rows:
        raise ConfigError(f"{path}: no prediction rows")
    return rows, HEAD_BINARY if len(header) == 3 else HEAD_MULTICLASS3


def _day_predictions(
    cfg: RunConfig, args: argparse.Namespace
) -> tuple[list[bt.DayPrediction], corpus.PriceIndex, str]:
    """Day predictions from either a predictions CSV or a checkpoint run,
    with the head they were made by, checked against the strategy head."""
    if args.predictions:
        prices = corpus.PriceIndex(corpus.load_prices(cfg.prices_path))
        rows, head = _read_predictions_csv(Path(args.predictions), prices)
    else:
        ckpt, prepared, prices = _checkpoint_run(cfg, args)
        rows = [(s.headline_id, s.asset, s.date,
                 forward(s.enc, ckpt.table, ckpt.params, ckpt.config, mode="test")[0])
                for s in prepared.test]
        head = ckpt.config.head
    _require(cfg.strategy_head in (None, head),
             f"strategy head {cfg.strategy_head!r} does not match the model head {head!r}")
    return bt.aggregate_daily(rows), prices, head


def cmd_backtest(args: argparse.Namespace) -> int:
    cfg = load_run_config(args.config, args)
    day_preds, prices, head = _day_predictions(cfg, args)
    score = bt.buy_scores(day_preds, binary=head == HEAD_BINARY)
    buys = compress(day_preds, (score > cfg.threshold).tolist())
    report = bt.simulate([(dp.asset, dp.date, bt.BUY) for dp in buys], prices)
    bt.write_report_json(report, cfg.out_dir / "report.json")
    print(
        f"{report.n_trades} trades; total return {report.total_return_pct:.2f}%, "
        f"PP {report.pp_pct:.2f}%, ATP {report.atp_pct:.4f}%"
    )
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = load_run_config(args.config, args)
    day_preds, prices, head = _day_predictions(cfg, args)
    grid = bt.default_threshold_grid(head == HEAD_BINARY, step=cfg.sweep_step)
    rows = bt.threshold_sweep(day_preds, prices, grid)
    bt.write_sweep_csv(rows, cfg.out_dir / "sweep.csv")
    best = max(rows, key=lambda r: r.atp_pct)
    print(
        f"{len(rows)} thresholds; best ATP {best.atp_pct:.4f}% at t={best.t:.2f} "
        f"({best.n_trades} trades); wrote {cfg.out_dir / 'sweep.csv'}"
    )
    return 0


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
        f"(tolerance {suite.tolerance:.0e}) over {len(suite.results)} configs "
        f"in {suite.elapsed_s:.2f}s"
    )
    return 0 if suite.passed else 1


def cmd_neighbors(args: argparse.Namespace) -> int:
    path = Path(args.checkpoint)
    _require(path.is_file(), f"checkpoint not found: {path}")
    ckpt = load_checkpoint(path)
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
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to the JSON run configuration")
    common.add_argument("--seed", type=int, default=None, help="override the config seed")
    common.add_argument("--out-dir", default=None, help="override the output directory")

    parser = argparse.ArgumentParser(
        prog="newsvane",
        description="Headline-driven next-day stock movement classification and trading simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[common], help="generate a synthetic corpus")
    p.add_argument("--n-assets", type=int, default=2)
    p.add_argument("--n-days", type=int, default=300)
    p.add_argument("--headlines-per-day", type=int, default=5)
    p.add_argument("--signal-strength", type=float, default=1.0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("prepare", parents=[common],
                       help="materialize the labeled, split, encoded dataset")
    p.set_defaults(func=cmd_prepare, needs_config=True)

    p = sub.add_parser("train", parents=[common], help="train a model and write a checkpoint")
    p.add_argument("--parallel", action="store_true",
                   help="run independent grid-search cells in parallel")
    p.set_defaults(func=cmd_train, needs_config=True)

    p = sub.add_parser("evaluate", parents=[common], help="evaluate a checkpoint on the test split")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--class-threshold", type=_probability, default=0.5)
    p.set_defaults(func=cmd_evaluate, needs_config=True)

    p = sub.add_parser("backtest", parents=[common], help="simulate the trading strategy")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--predictions", default=None,
                   help="standalone predictions CSV (asset,date,p0[,p1,p2]) instead of a checkpoint")
    p.set_defaults(func=cmd_backtest, needs_config=True)

    p = sub.add_parser("sweep", parents=[common], help="threshold sweep over the strategy grid")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--predictions", default=None)
    p.set_defaults(func=cmd_sweep, needs_config=True)

    p = sub.add_parser("gradcheck", parents=[common],
                       help="verify analytic gradients against finite differences")
    p.add_argument("--configs", type=int, default=20)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("neighbors", parents=[common],
                       help="cosine-similarity neighbors of a vocabulary token")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("token")
    p.add_argument("-k", type=int, default=5)
    p.set_defaults(func=cmd_neighbors)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "needs_config", False) and not args.config:
        parser.error(f"{args.command} requires --config")
    try:
        return args.func(args)
    except training.NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, CheckpointError, ValueError, KeyError, FileNotFoundError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
