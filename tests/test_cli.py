"""CLI subcommand tests, run in-process through main()."""

import argparse
import codecs
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from newsvane import cli, fileio, pipeline, training
from newsvane.checkpoint import load_checkpoint
from newsvane.corpus import load_headlines, load_prices
from newsvane.embeddings import load_pretrained, nearest_neighbors
from newsvane.network import ModelConfig
from newsvane.pipeline import prepare_dataset
from newsvane.training import cell_config
from test_gradients import perturb_backward


def _where(section: str, key: str) -> str:
    """How a config error names a key: ``<section>.<key>``, or the bare key at the top level."""
    return key if section == "top level" else f"{section}.{key}"


def _prepare_args(config_path) -> argparse.Namespace:
    """The arguments of ``prepare --config <config_path>``."""
    return cli.build_parser().parse_args(["prepare", "--config", str(config_path)])


def _run_cli(*args):
    """Run ``python -m newsvane`` on this checkout's sources in a subprocess."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    return subprocess.run([sys.executable, "-m", "newsvane", *args],
                          capture_output=True, text=True, env=env, timeout=120)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Synthetic corpus, config file and a trained checkpoint."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    out = root / "out"
    assert cli.main([
        "synth", "--seed", "11", "--n-assets", "2", "--n-days", "60",
        "--headlines-per-day", "4", "--signal-strength", "1.0", "--out-dir", str(data),
    ]) == 0
    config = {
        "paths": {
            "headlines": str(data / "headlines.csv"),
            "prices": str(data / "prices.csv"),
            "out_dir": str(out),
        },
        "portfolio": ["SYN0", "SYN1"],
        "model": {
            "p": 8, "filter_widths": [2, 3], "filters_per_width": 2,
            "hidden_sizes": [8, 4], "dropout_rate": 0.1, "head": "binary",
            "embedding_mode": "self_learnt",
        },
        "training": {"epochs": 10, "batch_size": 16, "seed": 11},
        "strategy": {"threshold": 0.5},
    }
    config_path = root / "config.json"
    config_path.write_text(json.dumps(config, indent=2))
    assert cli.main(["train", "--config", str(config_path)]) == 0
    return root, config_path, data, out, config


class TestSynth:
    def test_row_counts(self, workspace):
        _, _, data, _, _ = workspace
        headlines = load_headlines(data / "headlines.csv")
        prices = load_prices(data / "prices.csv")
        assert len(headlines) == 2 * 60 * 4
        assert len(prices) == 2 * 61

    def test_same_seed_identical_files(self, workspace, tmp_path):
        root, _, data, _, _ = workspace
        assert cli.main([
            "synth", "--seed", "11", "--n-assets", "2", "--n-days", "60",
            "--headlines-per-day", "4", "--signal-strength", "1.0",
            "--out-dir", str(tmp_path / "again"),
        ]) == 0
        assert (tmp_path / "again" / "headlines.csv").read_bytes() == (data / "headlines.csv").read_bytes()
        assert (tmp_path / "again" / "prices.csv").read_bytes() == (data / "prices.csv").read_bytes()

    def test_zero_days_usage_error(self, tmp_path):
        assert cli.main(["synth", "--n-days", "0", "--out-dir", str(tmp_path)]) == 2


class TestPrepare:
    def test_artifacts_written(self, workspace, tmp_path):
        _, config_path, _, _, _ = workspace
        assert cli.main(["prepare", "--config", str(config_path),
                         "--out-dir", str(tmp_path)]) == 0
        assert (tmp_path / "vocab.tsv").exists()
        split = json.loads((tmp_path / "split.json").read_text())
        assert split["train_ids"] and split["test_ids"]
        assert not set(split["train_ids"]) & set(split["test_ids"])
        assert (tmp_path / "samples.csv").read_text().count("\n") == (
            len(split["train_ids"]) + len(split["test_ids"]) + 1
        )


class TestTrain:
    def test_outputs_exist(self, workspace):
        _, _, _, out, _ = workspace
        for name in ("checkpoint.json", "metrics.json", "trace.csv"):
            assert (out / name).exists()
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["accuracy"] > 0.9  # full-signal corpus is easy

    def test_missing_pretrained_path_rejected(self, workspace, tmp_path):
        root, _, data, _, config = workspace
        bad = dict(config)
        bad["model"] = dict(config["model"], embedding_mode="non_static")
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(json.dumps(bad))
        assert cli.main(["train", "--config", str(bad_path)]) == 2

    def test_missing_seed_rejected(self, workspace, tmp_path):
        root, _, data, _, config = workspace
        bad = dict(config)
        bad["training"] = {"epochs": 1, "batch_size": 16}
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(json.dumps(bad))
        assert cli.main(["train", "--config", str(bad_path)]) == 2

    def test_diverging_run_exits_3(self, workspace, tmp_path, capsys):
        # a numeric failure mid-run is told apart from a usage error (exit 2)
        _, _, _, _, config = workspace
        bad = json.loads(json.dumps(config))
        bad["training"].update(learning_rate=1e300, epochs=2)
        bad["paths"]["out_dir"] = str(tmp_path / "out")
        bad_path = tmp_path / "diverge.json"
        bad_path.write_text(json.dumps(bad))
        assert cli.main(["train", "--config", str(bad_path)]) == 3
        assert "non-finite gradient" in capsys.readouterr().err
        assert not (tmp_path / "out" / "checkpoint.json").exists()
        # numpy's overflow warnings stay out of the shipped command's stderr
        done = _run_cli("train", "--config", str(bad_path))
        assert done.returncode == 3
        assert done.stderr.splitlines() == [done.stderr.strip()]
        assert done.stderr.startswith("error: non-finite gradient")

    def test_static_checkpoint_keeps_initial_embeddings(self, workspace, tmp_path):
        root, _, data, _, config = workspace
        headlines = load_headlines(data / "headlines.csv")
        prices = load_prices(data / "prices.csv")
        prepared = prepare_dataset(headlines, prices, {"SYN0", "SYN1"}, max_len=None)
        rng = np.random.default_rng(0)
        vecs = tmp_path / "vecs.txt"
        tokens = prepared.vocab.tokens
        lines = [f"{len(tokens)} 8"] + [
            t + " " + " ".join(f"{x:.6f}" for x in rng.normal(0, 0.2, 8)) for t in tokens
        ]
        vecs.write_text("\n".join(lines) + "\n")

        cfg = dict(config)
        cfg["paths"] = dict(config["paths"], pretrained=str(vecs), out_dir=str(tmp_path / "out"))
        cfg["model"] = dict(config["model"], embedding_mode="static")
        cfg_path = tmp_path / "static.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli.main(["train", "--config", str(cfg_path)]) == 0

        ckpt = load_checkpoint(tmp_path / "out" / "checkpoint.json")
        from newsvane.seeding import derive_seed

        initial = load_pretrained(
            prepared.vocab, vecs, "static", seed=derive_seed(11, "embeddings"), expected_p=8
        )
        assert ckpt.table.matrix.tobytes() == initial.matrix.tobytes()


    def test_grid_retrains_the_best_cell(self, workspace, tmp_path):
        _, _, _, _, config = workspace
        outputs = ("grid.csv", "grid_summary.json", "checkpoint.json", "checkpoint.npy",
                   "metrics.json", "trace.csv")
        written = {}
        for flag in ((), ("--parallel",)):
            cfg = json.loads(json.dumps(config))
            cfg["paths"]["out_dir"] = str(tmp_path / f"out{len(flag)}")
            cfg["training"].update(epochs=2, grid={"width_sets": [[2], [2, 3]],
                                                   "dropout": [0.0, 0.25]})
            cfg_path = tmp_path / f"grid{len(flag)}.json"
            cfg_path.write_text(json.dumps(cfg))
            assert cli.main(["train", "--config", str(cfg_path), *flag]) == 0
            out = tmp_path / f"out{len(flag)}"
            written[flag] = [(out / name).read_bytes() for name in outputs]

        assert written[()] == written[("--parallel",)]
        summary = json.loads((out / "grid_summary.json").read_text())
        assert summary["n_cells"] == 4
        assert (out / "grid.csv").read_text().count("\n") == 5
        best = summary["best"]
        ckpt = load_checkpoint(out / "checkpoint.json")
        model = config["model"]
        base = ModelConfig(
            p=model["p"], m=ckpt.config.m, filter_widths=tuple(model["filter_widths"]),
            filters_per_width=model["filters_per_width"],
            hidden_sizes=tuple(model["hidden_sizes"]), dropout_rate=model["dropout_rate"],
            head=model["head"],
        )
        assert ckpt.config == cell_config(base, tuple(best["widths"]), best["dropout"])
        assert ckpt.training_meta["embedding_mode"] == best["mode"]
        assert ckpt.training_meta["epochs"] == best["epochs"] == 2

    @pytest.mark.parametrize("select_on_test", [False, True])
    def test_grid_fit_and_selection_sets(self, workspace, tmp_path, monkeypatch, select_on_test):
        """By default the grid fits on part of the training split and selects on
        the rest, whole dates apart, with no test headline in either; with
        ``select_on_test`` it fits on all of train and selects on test."""
        _, _, data, _, config = workspace
        real_to_pairs, real_grid_search = pipeline.to_pairs, training.grid_search

        class Pairs(list):
            samples: tuple = ()

        def to_pairs(samples, head):
            pairs = Pairs(real_to_pairs(samples, head))
            pairs.samples = samples
            return pairs

        seen = []

        def grid_search(train_set, selection_set, *args, **kwargs):
            seen.append((train_set.samples, selection_set.samples))
            return real_grid_search(train_set, selection_set, *args, **kwargs)

        monkeypatch.setattr(pipeline, "to_pairs", to_pairs)
        monkeypatch.setattr(training, "grid_search", grid_search)
        cfg = json.loads(json.dumps(config))
        cfg["paths"]["out_dir"] = str(tmp_path / "out")
        cfg["training"].update(epochs=1, select_on_test=select_on_test, grid={"epochs": [1]})
        cfg_path = tmp_path / "grid.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli.main(["train", "--config", str(cfg_path)]) == 0

        prepared = prepare_dataset(load_headlines(data / "headlines.csv"),
                                   load_prices(data / "prices.csv"), {"SYN0", "SYN1"}, max_len=None)
        [(fit, selection)] = seen
        ids = lambda samples: [s.headline_id for s in samples]
        if select_on_test:
            assert ids(fit) == ids(prepared.train) and ids(selection) == ids(prepared.test)
            return
        assert fit and selection
        assert sorted(ids(fit) + ids(selection)) == ids(prepared.train)
        assert not {s.date for s in fit} & {s.date for s in selection}
        assert not set(ids(fit) + ids(selection)) & prepared.split.test_ids


class TestEvaluate:
    def test_metrics_written(self, workspace, tmp_path):
        root, config_path, _, out, _ = workspace
        assert cli.main([
            "evaluate", "--config", str(config_path),
            "--checkpoint", str(out / "checkpoint.json"), "--out-dir", str(tmp_path),
        ]) == 0
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert set(metrics) >= {"accuracy", "precision", "recall", "f1"}


class TestBacktest:
    def test_report_written(self, workspace):
        root, config_path, _, out, _ = workspace
        assert cli.main(["backtest", "--config", str(config_path)]) == 0
        assert cli.main(["sweep", "--config", str(config_path)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["n_trades"] > 0
        assert report["final_over_initial_pct"] == pytest.approx(
            report["total_return_pct"] + 100.0
        )
        sweep = (out / "sweep.csv").read_text().splitlines()
        assert sweep[0] == "t,pp,atp,total_return,n_trades"
        assert len(sweep) == 42  # 0.50..0.90 step 0.01 plus header

    def test_head_mismatch_rejected(self, workspace, tmp_path):
        root, _, data, out, config = workspace
        bad = dict(config)
        bad["strategy"] = {"threshold": 0.5, "head": "multiclass3"}
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(json.dumps(bad))
        assert cli.main([
            "backtest", "--config", str(bad_path),
            "--checkpoint", str(out / "checkpoint.json"),
        ]) == 2

    def test_predictions_csv_input_matches_module_oracle(self, workspace, tmp_path):
        import datetime as dt

        from newsvane import backtest as bt
        from newsvane.corpus import load_prices as _load

        root, config_path, data, _, _ = workspace
        preds = tmp_path / "preds.csv"
        preds.write_text(
            "asset,date,p0\nSYN0,2015-01-05,0.9\nSYN0,2015-01-06,0.2\nSYN1,2015-01-05,0.8\n"
        )
        assert cli.main([
            "backtest", "--config", str(config_path), "--predictions", str(preds),
            "--out-dir", str(tmp_path),
        ]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["n_trades"] == 2  # the 0.2 day stays out

        prices = _load(data / "prices.csv")
        day_preds = bt.aggregate_daily([
            (0, "SYN0", dt.date(2015, 1, 5), 0.9),
            (1, "SYN0", dt.date(2015, 1, 6), 0.2),
            (2, "SYN1", dt.date(2015, 1, 5), 0.8),
        ])
        decisions = [(dp.asset, dp.date, bt.decide_binary(dp, 0.5)) for dp in day_preds]
        expected = bt.simulate(decisions, prices)
        assert report["total_return_pct"] == expected.total_return_pct
        assert report["pp_pct"] == expected.pp_pct
        assert report["atp_pct"] == expected.atp_pct

    @pytest.mark.parametrize("header, bad", [
        ("p0", "nan"), ("p0", "7.5"), ("p0", "-0.1"), ("p0", "inf"),
        ("p0,p1,p2", "0.2,nan,0.3"), ("p0,p1,p2", "0.2,1.5,0.3"),
    ])
    def test_predictions_must_be_probabilities(self, workspace, tmp_path, capsys, header, bad):
        _, config_path, _, _, _ = workspace
        good = "0.9" if header == "p0" else "0.1,0.2,0.7"
        preds = tmp_path / "preds.csv"
        preds.write_text(f"asset,date,{header}\nSYN0,2015-01-05,{good}\nSYN0,2015-01-06,{bad}\n")
        assert cli.main([
            "backtest", "--config", str(config_path), "--predictions", str(preds),
            "--out-dir", str(tmp_path),
        ]) == 2
        assert f"{preds}: line 3: probabilities must lie in [0, 1]" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("header, row, fields", [
        ("p0,p1,p2", "0.9", 3),  # once read as a binary prediction, and traded
        ("p0", "0.1,0.2,0.7", 5),  # once a late error naming no file or line
    ])
    def test_prediction_rows_must_match_the_header(self, workspace, tmp_path, capsys,
                                                   header, row, fields):
        _, config_path, _, _, _ = workspace
        good = "0.9" if header == "p0" else "0.1,0.2,0.7"
        preds = tmp_path / "preds.csv"
        preds.write_text(f"asset,date,{header}\nSYN0,2015-01-05,{good}\nSYN0,2015-01-06,{row}\n")
        assert cli.main([
            "backtest", "--config", str(config_path), "--predictions", str(preds),
            "--out-dir", str(tmp_path),
        ]) == 2
        n_header = 2 + len(header.split(","))
        assert f"{preds}: line 3: expected {n_header} fields, got {fields}" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("command", ["backtest", "sweep"])
    @pytest.mark.parametrize("asset, message", [
        ("", "empty asset"),
        ("  ", "empty asset"),
        ("ZZZ", "asset 'ZZZ' has no price bars"),
    ])
    def test_prediction_assets_must_have_price_bars(self, workspace, tmp_path, capsys,
                                                    command, asset, message):
        """Once a late 'no next-day price bar' error naming no file or line."""
        _, config_path, _, _, _ = workspace
        preds = tmp_path / "preds.csv"
        preds.write_text(f"asset,date,p0\nSYN0,2015-01-05,0.9\n{asset},2015-01-05,0.9\n")
        assert cli.main([
            command, "--config", str(config_path), "--predictions", str(preds),
            "--out-dir", str(tmp_path),
        ]) == 2
        assert f"{preds}: line 3: {message}" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists() and not (tmp_path / "sweep.csv").exists()

    def test_prediction_assets_are_stripped_like_price_assets(self, workspace, tmp_path):
        _, config_path, _, _, _ = workspace
        reports = []
        for asset in ("SYN1", " SYN1 "):
            preds = tmp_path / "preds.csv"
            preds.write_text(f"asset,date,p0\nSYN0,2015-01-05,0.9\n{asset},2015-01-05,0.8\n")
            assert cli.main([
                "backtest", "--config", str(config_path), "--predictions", str(preds),
                "--out-dir", str(tmp_path),
            ]) == 0
            reports.append((tmp_path / "report.json").read_bytes())
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["n_trades"] == 2

    def test_checkpoint_run_reads_prices_once(self, workspace, tmp_path, monkeypatch):
        """Each command reads the price file once and indexes it once: labeling
        and the backtest or sweep share one PriceIndex."""
        _, config_path, _, out, _ = workspace
        calls, indexed = [], []
        real = cli.corpus.load_prices
        monkeypatch.setattr(cli.corpus, "load_prices", lambda path: calls.append(path) or real(path))
        real_init = cli.corpus.PriceIndex.__init__
        monkeypatch.setattr(cli.corpus.PriceIndex, "__init__",
                            lambda self, prices: indexed.append(1) or real_init(self, prices))
        for command in ("evaluate", "backtest", "sweep"):
            calls.clear()
            indexed.clear()
            assert cli.main([
                command, "--config", str(config_path),
                "--checkpoint", str(out / "checkpoint.json"), "--out-dir", str(tmp_path),
            ]) == 0
            assert len(calls) == 1, command
            assert len(indexed) == 1, command

    def test_sweep_subcommand(self, workspace, tmp_path):
        root, config_path, _, out, _ = workspace
        assert cli.main([
            "sweep", "--config", str(config_path),
            "--checkpoint", str(out / "checkpoint.json"), "--out-dir", str(tmp_path),
        ]) == 0
        assert (tmp_path / "sweep.csv").exists()

    def test_vocab_hash_mismatch_rejected(self, workspace, tmp_path):
        # a checkpoint trained on different data cannot score this config's data
        root, config_path, data, out, config = workspace
        other_data = tmp_path / "other"
        assert cli.main([
            "synth", "--seed", "99", "--n-assets", "2", "--n-days", "60",
            "--headlines-per-day", "4", "--signal-strength", "1.0",
            "--out-dir", str(other_data),
        ]) == 0
        cfg = dict(config)
        cfg["paths"] = dict(
            config["paths"],
            headlines=str(other_data / "headlines.csv"),
            prices=str(other_data / "prices.csv"),
            out_dir=str(tmp_path / "out"),
        )
        cfg_path = tmp_path / "other.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli.main([
            "backtest", "--config", str(cfg_path),
            "--checkpoint", str(out / "checkpoint.json"),
        ]) == 2


class TestConfigRefusedBeforeOutput:
    """A config the run cannot use exits 2 with one line naming the file and
    the key, and writes nothing."""

    @pytest.mark.parametrize("model, grid, message", [
        ({}, {"modes": ["self_learnt", "non_static"]},
         "paths.pretrained: embedding mode 'non_static' (training.grid.modes) requires a vector file"),
        ({"embedding_mode": "glove"}, None, "model.embedding_mode: unknown embedding mode 'glove'"),
        ({}, {"modes": ["self_learnt", "glove"]},
         "training.grid.modes: unknown embedding mode 'glove'"),
    ], ids=["grid-mode-without-vectors", "unknown-mode", "unknown-grid-mode"])
    def test_every_embedding_mode_is_checked(self, workspace, tmp_path, capsys, model, grid,
                                             message):
        _, _, _, _, config = workspace
        bad = json.loads(json.dumps(config))
        bad["paths"]["out_dir"] = str(tmp_path / "out")
        bad["model"].update(model)
        bad["training"].update(epochs=1, grid=grid)
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(json.dumps(bad))
        assert cli.main(["train", "--config", str(bad_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad_path}: {message}") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value, message", [
        ("filter_widths", [1, 3], "filter widths must be >= 2"),
        ("hidden_sizes", [4, 8], "hidden sizes must satisfy 1 <= l2 < l1"),
        ("dropout_rate", 1.5, "dropout_rate must lie in [0, 1)"),
        ("head", "tri", "unknown head 'tri'"),
        ("pool_w", 0, "pool_w must be >= 1"),
        ("p", 0, "p and m must be >= 1"),
    ])
    def test_model_errors_name_the_file(self, workspace, tmp_path, capsys, key, value, message):
        _, _, _, _, config = workspace
        bad = json.loads(json.dumps(config))
        bad["paths"]["out_dir"] = str(tmp_path / "out")
        bad["model"][key] = value
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(json.dumps(bad))
        for command in ("prepare", "train"):
            assert cli.main([command, "--config", str(bad_path)]) == 2
            assert capsys.readouterr().err == f"error: {bad_path}: model: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("grid, message", [
        ({"width_sets": [[2, 3], [2, 9]]}, "width_sets: every filter width must be <= m"),
        ({"width_sets": [[2, 3, 4]]},
         "width_sets: filters_per_width x len(filter_widths) = 4 is not divisible by len((2, 3, 4))"),
        ({"width_sets": [[]]}, "width_sets: at least one filter width required"),
        ({"dropout": [0.1, 1.5]}, "dropout: dropout_rate must lie in [0, 1)"),
    ], ids=["width-above-m", "indivisible-budget", "no-widths", "dropout"])
    def test_every_grid_cell_is_checked(self, workspace, tmp_path, capsys, grid, message):
        _, _, _, _, config = workspace
        bad = json.loads(json.dumps(config))
        bad["paths"]["out_dir"] = str(tmp_path / "out")
        bad["model"]["max_len"] = 7  # m = 7; the filter budget is 2 widths x 2 = 4
        bad["training"]["grid"] = grid
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(json.dumps(bad))
        for command in ("prepare", "train"):
            assert cli.main([command, "--config", str(bad_path)]) == 2
            assert capsys.readouterr().err == f"error: {bad_path}: training.grid.{message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section, key, value, message", [
        ("training", "batch_size", 0, "expected an integer >= 1, got 0"),
        ("training", "epochs", -1, "expected an integer >= 0, got -1"),
        ("training", "learning_rate", -1, "expected a number >= 0, got -1.0"),
        ("training", "validation_fraction", 1.5, "expected a number in (0, 1), got 1.5"),
        ("model", "embedding_init_std", 0, "expected a number > 0, got 0.0"),
        ("training.grid", "epochs", [-1], "expected an integer >= 0, got -1"),
        ("training.grid", "dropout", [], "expected at least one value"),
    ], ids=["batch_size", "epochs", "learning_rate", "validation_fraction", "embedding_init_std",
            "grid-epochs", "grid-empty-axis"])
    def test_training_values_checked_on_load(self, workspace, tmp_path, capsys, section, key,
                                             value, message):
        # each used to pass prepare, which wrote its files, and fail later in train
        _, _, _, _, config = workspace
        bad = json.loads(json.dumps(config))
        bad["paths"]["out_dir"] = str(tmp_path / "out")
        bad["training"]["grid"] = {"epochs": [1]}  # validation_fraction is read with a grid
        if section == "training.grid":
            bad["training"]["grid"] = {key: value}
        else:
            bad[section][key] = value
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(json.dumps(bad))
        expected = f"{bad_path}: {section}.{key}: {message}"
        with pytest.raises(cli.ConfigError, match=f"^{re.escape(expected)}$"):
            cli.load_run_config(bad_path, _prepare_args(bad_path))
        for command in ("prepare", "train"):
            assert cli.main([command, "--config", str(bad_path)]) == 2
            assert capsys.readouterr().err == f"error: {expected}\n"
        assert not (tmp_path / "out").exists()


class TestPredictionsNeedALaterBar:
    @pytest.mark.parametrize("command", ["backtest", "sweep"])
    @pytest.mark.parametrize("days_after_last_bar", [0, 3])
    @pytest.mark.parametrize("p0", ["0.9", "0.2"])  # one that buys, one that does not
    def test_row_without_a_later_bar_rejected(self, workspace, tmp_path, capsys,
                                              command, days_after_last_bar, p0):
        import datetime as dt

        _, config_path, data, _, _ = workspace
        last = max(bar.date for bar in load_prices(data / "prices.csv").bars if bar.asset == "SYN1")
        date = last + dt.timedelta(days=days_after_last_bar)
        preds = tmp_path / "preds.csv"
        preds.write_text(f"asset,date,p0\nSYN0,2015-01-05,0.9\nSYN1,{date},{p0}\n")
        out = tmp_path / "out"
        assert cli.main([command, "--config", str(config_path), "--predictions", str(preds),
                         "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {preds}: line 3: asset 'SYN1' has no price bar after {date}\n")
        assert not out.exists()


def _unreadable_input(workspace, tmp_path, kind, failure):
    """The CLI arguments that read a ``kind`` input file spoilt by ``failure``,
    and the path of that file."""
    _, config_path, _, _, config = workspace
    bad = tmp_path / f"{kind}.{'json' if kind in ('config', 'checkpoint') else 'csv'}"
    if failure == "directory":
        bad.mkdir()
    elif failure == "non-UTF-8":
        bad.write_bytes(b"caf\xe9\n")
    elif failure == "malformed":
        bad.write_text({
            "config": '{"paths": ',
            "headlines": "id,asset,date\n",
            "prices": "asset,date,open,close\nSYN0,2015-01-05,1.0\n",
            "vectors": "two 8\n",
            "predictions": "asset,date,p0\nSYN0,2015-01-05,high\n",
            "checkpoint": '{"format_version": 3',
        }[kind])
    run = ["--out-dir", str(tmp_path / "out")]
    if kind == "config":
        return ["train", "--config", str(bad), *run], bad
    if kind == "predictions":
        return ["backtest", "--config", str(config_path), "--predictions", str(bad), *run], bad
    if kind == "checkpoint":
        return ["evaluate", "--config", str(config_path), "--checkpoint", str(bad), *run], bad
    cfg = json.loads(json.dumps(config))
    if kind == "vectors":
        cfg["paths"]["pretrained"] = str(bad)
        cfg["model"]["embedding_mode"] = "static"
    else:
        cfg["paths"][kind] = str(bad)
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    return ["train", "--config", str(cfg_path), *run], bad


class TestUnreadableFiles:
    @pytest.mark.parametrize("failure", ["missing", "directory", "non-UTF-8", "malformed"])
    @pytest.mark.parametrize("kind", ["config", "headlines", "prices", "vectors", "predictions",
                                      "checkpoint"])
    def test_bad_input_is_one_error_line_naming_it(self, workspace, tmp_path, capsys,
                                                   kind, failure):
        args, bad = _unreadable_input(workspace, tmp_path, kind, failure)
        assert cli.main(args) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and str(bad) in lines[0], lines
        assert not (tmp_path / "out").exists()

    def test_unwritable_output_is_one_error_line_naming_it(self, workspace, tmp_path, capsys):
        _, config_path, _, _, _ = workspace
        target = config_path / "x"
        assert cli.main(["prepare", "--config", str(config_path), "--out-dir", str(target)]) == 2
        assert capsys.readouterr().err == f"error: {target}: Not a directory\n"
        assert cli.main(["synth", "--n-days", "3", "--out-dir", str(config_path)]) == 2
        assert capsys.readouterr().err == f"error: {config_path}: File exists\n"

    def test_output_that_is_a_directory_is_named(self, tmp_path, capsys):
        (tmp_path / "headlines.csv").mkdir()
        assert cli.main(["synth", "--n-days", "3", "--out-dir", str(tmp_path)]) == 2
        target = tmp_path / "headlines.csv"
        assert capsys.readouterr().err == f"error: {target}: Is a directory\n"
        assert [p.name for p in tmp_path.iterdir()] == ["headlines.csv"]  # no temporary left

    def test_unwritable_directory_names_the_target(self, tmp_path, capsys, monkeypatch):
        # Where a directory cannot be written, creating the temporary file fails
        # first; the error names the output, not the temporary's random name.
        def refuse(dir, prefix, suffix):
            raise PermissionError(13, "Permission denied", f"{dir}/{prefix}x7k2{suffix}")
        monkeypatch.setattr(fileio.tempfile, "mkstemp", refuse)
        assert cli.main(["synth", "--n-days", "3", "--out-dir", str(tmp_path)]) == 2
        target = tmp_path / "headlines.csv"
        assert capsys.readouterr().err == f"error: {target}: Permission denied\n"


class TestByteOrderMark:
    @pytest.mark.parametrize("kind", ["headlines", "prices", "predictions", "config", "checkpoint",
                                      "vectors"])
    def test_input_with_a_bom_reads_as_without_one(self, workspace, tmp_path, kind):
        """Spreadsheet exports start UTF-8 files with a byte-order mark; every
        input reads the same with one as without."""
        _, config_path, data, out, _ = workspace
        checkpoint = load_checkpoint(out / "checkpoint.json")
        (tmp_path / "preds.csv").write_text("asset,date,p0\nSYN0,2015-01-05,0.9\n")
        (tmp_path / "vecs.txt").write_text("2 2\nsyn0 1 2\nshares 3 4\n")
        plain, read = {
            "headlines": (data / "headlines.csv", load_headlines),
            "prices": (data / "prices.csv", lambda path: load_prices(path).bars),
            "predictions": (tmp_path / "preds.csv", lambda path: cli._read_predictions_csv(
                path, load_prices(data / "prices.csv"))),
            "config": (config_path, lambda path: cli.load_run_config(
                path, _prepare_args(path))),
            "checkpoint": (out / "checkpoint.json", lambda path: (
                (ck := load_checkpoint(path)).config, ck.vocab, ck.table.matrix.tobytes())),
            "vectors": (tmp_path / "vecs.txt", lambda path: load_pretrained(
                checkpoint.vocab, path, "static", seed=0, expected_p=2).matrix.tobytes()),
        }[kind]
        bom = tmp_path / "bom" / plain.name
        bom.parent.mkdir()
        bom.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
        (bom.parent / "checkpoint.npy").write_bytes((out / "checkpoint.npy").read_bytes())
        assert read(bom) == read(plain)


class TestGradcheckCommand:
    def test_pass_exit_zero(self, capsys):
        assert cli.main(["gradcheck", "--seed", "0", "--configs", "5"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_perturbed_exit_one(self, capsys, monkeypatch):
        perturb_backward(monkeypatch, 0.01)
        assert cli.main(["gradcheck", "--seed", "0", "--configs", "3"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_python_dash_m_runs_the_cli(self):
        done = _run_cli("gradcheck", "--configs", "1")
        assert done.returncode == 0, done.stderr
        assert "gradcheck PASS" in done.stdout

    def test_zero_configs_is_a_usage_error(self, capsys):
        assert cli.main(["gradcheck", "--configs", "0"]) == 2
        assert "n_configs must be >= 1, got 0" in capsys.readouterr().err

    def test_fixed_seed_identical_report(self, capsys):
        cli.main(["gradcheck", "--seed", "4", "--configs", "3"])
        first = capsys.readouterr().out
        cli.main(["gradcheck", "--seed", "4", "--configs", "3"])
        second = capsys.readouterr().out
        # per-config error lines identical; only the timing line may differ
        strip = lambda text: [l for l in text.splitlines() if l.startswith("config")]
        assert strip(first) == strip(second)


class TestNeighborsCommand:
    def test_matches_brute_force(self, workspace, capsys):
        _, _, _, out, _ = workspace
        ckpt = load_checkpoint(out / "checkpoint.json")
        token = ckpt.vocab.tokens[0]
        assert cli.main([
            "neighbors", "--checkpoint", str(out / "checkpoint.json"), token, "-k", "1",
        ]) == 0
        line = capsys.readouterr().out.strip().splitlines()[0]
        expected = nearest_neighbors(token, 1, ckpt.table, ckpt.vocab)[0]
        assert line.split("\t")[0] == expected[0]

    def test_k_larger_than_vocab(self, workspace, capsys):
        _, _, _, out, _ = workspace
        ckpt = load_checkpoint(out / "checkpoint.json")
        token = ckpt.vocab.tokens[0]
        assert cli.main([
            "neighbors", "--checkpoint", str(out / "checkpoint.json"), token, "-k", "100000",
        ]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == ckpt.vocab.size - 1

    def test_padding_token_rejected(self, workspace):
        _, _, _, out, _ = workspace
        assert cli.main([
            "neighbors", "--checkpoint", str(out / "checkpoint.json"), "<pad>",
        ]) == 2

    def test_malformed_checkpoint_exits_2(self, workspace, tmp_path, capsys):
        _, _, _, out, _ = workspace
        payload = json.loads((out / "checkpoint.json").read_text())
        payload["sidecar"] = "not an object"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert cli.main(["neighbors", "--checkpoint", str(bad), "surge"]) == 2
        assert "sidecar" in capsys.readouterr().err

    def test_unknown_token_rejected(self, workspace):
        _, _, _, out, _ = workspace
        assert cli.main([
            "neighbors", "--checkpoint", str(out / "checkpoint.json"), "zzzznotthere",
        ]) == 2


class TestUsageErrors:
    def test_missing_config_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["train"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command, flag", [
        ("synth", "--config"), ("gradcheck", "--config"), ("gradcheck", "--out-dir"),
        ("neighbors", "--config"), ("neighbors", "--seed"), ("neighbors", "--out-dir"),
    ])
    def test_flag_the_subcommand_does_not_read_is_refused(self, workspace, tmp_path, command,
                                                          flag):
        _, _, _, out, _ = workspace
        token = json.loads((out / "checkpoint.json").read_text())["vocab"]["tokens"].split()[0]
        argv = {
            "synth": ["synth", "--n-days", "2", "--out-dir", str(tmp_path / "data")],
            "gradcheck": ["gradcheck", "--configs", "1"],
            "neighbors": ["neighbors", "--checkpoint", str(out / "checkpoint.json"), token],
        }[command]
        value = {"--config": str(tmp_path / "nothing.json"), "--seed": "3",
                 "--out-dir": str(tmp_path / "zz")}[flag]
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, flag, value])
        assert exc.value.code == 2
        assert not (tmp_path / "zz").exists()

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2

    def test_every_documented_key_loads(self, workspace, tmp_path):
        _, _, data, _, config = workspace
        full = {
            "paths": dict(config["paths"], pretrained=config["paths"]["headlines"]),
            "portfolio": ["SYN0"], "min_relevance": 0.5,
            "model": {"p": 4, "filter_widths": [2], "filters_per_width": 3, "pool_w": 1,
                      "hidden_sizes": [5, 2], "dropout_rate": 0.5, "head": "multiclass3",
                      "max_len": 7, "embedding_mode": "non_static",
                      "embedding_init_mean": 0.1, "embedding_init_std": 0.2},
            "training": {"epochs": 3, "batch_size": 4, "learning_rate": 0.01, "seed": 5,
                         "validation_fraction": 0.3, "select_on_test": True,
                         "grid": {"epochs": [1, 2], "modes": ["static"]}},
            "strategy": {"threshold": 0.6, "head": "multiclass3", "sweep_step": 0.05},
        }
        path = tmp_path / "full.json"
        path.write_text(json.dumps(full))
        cfg = cli.load_run_config(path, _prepare_args(path))
        assert (cfg.portfolio, cfg.min_relevance, cfg.pool_w, cfg.hidden_sizes) == (("SYN0",), 0.5, 1, (5, 2))
        assert (cfg.max_len, cfg.embedding_init_std, cfg.select_on_test) == (7, 0.2, True)
        assert (cfg.strategy_head, cfg.sweep_step, cfg.seed) == ("multiclass3", 0.05, 5)
        assert cfg.pretrained_path == data / "headlines.csv"
        # grid axes absent from the file default to the single-run values
        assert cfg.grid.epochs == (1, 2) and cfg.grid.modes == ("static",)
        assert cfg.grid.dropout == (0.5,) and cfg.grid.width_sets == ((2,),)

    def test_spelled_out_defaults_give_the_outputs_of_omitted_ones(self, workspace, tmp_path,
                                                                   monkeypatch):
        """``cli.RunConfig`` is the one table of run defaults: a config that
        spells out every default key runs as one that leaves them out."""
        _, _, data, _, _ = workspace
        # the default model needs m >= 8 for its pooled features to exceed hidden_sizes[0]
        omitted = {"paths": {"headlines": str(data / "headlines.csv"),
                             "prices": str(data / "prices.csv")},
                   "portfolio": ["SYN0", "SYN1"], "model": {"max_len": 8},
                   "training": {"seed": 11}}
        defaults = {f.name: f.default for f in dataclasses.fields(cli.RunConfig)
                    if f.default is not dataclasses.MISSING}
        spelled = {name: {key: defaults[field] for key, field in keys.items() if field in defaults}
                   for name, keys in cli._SECTIONS.items() if name}
        spelled.update({key: defaults[field] for key, field in cli._SECTIONS[""].items()
                        if field in defaults})
        for name, section in omitted.items():
            spelled[name] = {**spelled[name], **section} if isinstance(section, dict) else section
        spelled_keys = {f"{name}.{key}" if isinstance(value, dict) else name
                        for name, value in spelled.items()
                        for key in (value if isinstance(value, dict) else [None])}
        assert spelled_keys == set(cli._KEY_OF.values())
        outputs = {}
        for kind, config in (("omitted", omitted), ("spelled", spelled)):
            run = tmp_path / kind
            run.mkdir()
            (run / "run.json").write_text(json.dumps(config, default=str))
            monkeypatch.chdir(run)  # the default out_dir, "out", is relative
            for command in ("train", "sweep", "backtest"):
                assert cli.main([command, "--config", "run.json"]) == 0
            outputs[kind] = {name: (run / "out" / name).read_bytes() for name in (
                "checkpoint.json", "checkpoint.npy", "trace.csv", "sweep.csv", "report.json")}
        assert outputs["spelled"] == outputs["omitted"]

    @pytest.mark.parametrize("section, key", [
        ("training", "learnig_rate"),
        ("model", "filter_width"),
        ("top level", "protfolio"),
        ("training.grid", "dropouts"),
    ])
    def test_unknown_config_key_rejected(self, workspace, tmp_path, capsys, section, key):
        _, _, _, _, config = workspace
        bad = json.loads(json.dumps(config))
        if section == "top level":
            bad[key] = 1
        elif section == "training.grid":
            bad["training"]["grid"] = {key: [0.1]}
        else:
            bad[section][key] = 1
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(json.dumps(bad))
        with pytest.raises(cli.ConfigError, match=f"^{bad_path}: {_where(section, key)}: unknown key$"):
            cli.load_run_config(bad_path, _prepare_args(bad_path))
        assert cli.main(["train", "--config", str(bad_path)]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
    def test_bool_key_takes_only_json_booleans(self, workspace, tmp_path, value):
        _, _, _, _, config = workspace
        bad = json.loads(json.dumps(config))
        bad["training"]["select_on_test"] = value
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(json.dumps(bad))
        args = _prepare_args(bad_path)
        with pytest.raises(cli.ConfigError, match=f"^{bad_path}: training.select_on_test: "):
            cli.load_run_config(bad_path, args)
        bad["training"]["select_on_test"] = False
        bad_path.write_text(json.dumps(bad))
        assert cli.load_run_config(bad_path, args).select_on_test is False

    @pytest.mark.parametrize("section, key, value", [
        ("top level", "portfolio", "SYN0"),     # would be a tuple of letters
        ("model", "filter_widths", "34"),       # would be (3, 4)
        ("model", "hidden_sizes", [8]),         # a pair is two numbers
        ("model", "max_len", 0),                # would be the default, None
        ("model", "head", 1),
        ("training", "epochs", True),
        ("training", "epochs", 2.5),
        ("training.grid", "width_sets", [2, 3]),
        ("training", "learning_rate", "0.001"),  # a number is a JSON number
        ("top level", "min_relevance", True),    # would be 1.0
        ("training.grid", "dropout", ["0.1"]),
        ("strategy", "threshold", float("nan")),  # json reads NaN, which trades nothing
    ])
    def test_value_of_wrong_json_type_rejected(self, workspace, tmp_path, section, key, value):
        _, _, _, _, config = workspace
        bad = json.loads(json.dumps(config))
        if section == "top level":
            bad[key] = value
        elif section == "training.grid":
            bad["training"]["grid"] = {key: value}
        else:
            bad[section][key] = value
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(json.dumps(bad))
        with pytest.raises(cli.ConfigError, match=f"^{bad_path}: {_where(section, key)}: "):
            cli.load_run_config(bad_path, _prepare_args(bad_path))

    def test_null_and_integral_values_load(self, workspace, tmp_path):
        _, _, _, _, config = workspace
        good = json.loads(json.dumps(config))
        good["model"]["max_len"] = None
        good["training"]["epochs"] = 3.0
        good["training"]["grid"] = None
        path = tmp_path / "good.json"
        path.write_text(json.dumps(good))
        cfg = cli.load_run_config(path, _prepare_args(path))
        assert cfg.max_len is None and cfg.grid is None
        assert cfg.epochs == 3 and isinstance(cfg.epochs, int)

    @pytest.mark.parametrize("step", [0, -0.01, 1e-6])
    def test_sweep_step_must_be_positive(self, workspace, tmp_path, capsys, step):
        _, _, _, out, config = workspace
        bad = json.loads(json.dumps(config))
        bad["strategy"]["sweep_step"] = step
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(json.dumps(bad))
        message = f"{bad_path}: strategy.sweep_step: expected a number >= 0.0001"
        with pytest.raises(cli.ConfigError, match=message):
            cli.load_run_config(bad_path, _prepare_args(bad_path))
        assert cli.main(["sweep", "--config", str(bad_path),
                         "--checkpoint", str(out / "checkpoint.json")]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("threshold", [7.5, -0.01, 1.0000001])
    def test_threshold_must_be_a_probability(self, workspace, tmp_path, capsys, threshold):
        _, _, _, out, config = workspace
        bad = json.loads(json.dumps(config))
        bad["strategy"]["threshold"] = threshold
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(json.dumps(bad))
        message = f"{bad_path}: strategy.threshold: expected a number in [0, 1]"
        with pytest.raises(cli.ConfigError, match=re.escape(message)):
            cli.load_run_config(bad_path, _prepare_args(bad_path))
        assert cli.main(["backtest", "--config", str(bad_path),
                         "--checkpoint", str(out / "checkpoint.json")]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("threshold", ["0", "1"])
    def test_threshold_bounds_accepted(self, workspace, tmp_path, threshold):
        _, _, _, _, config = workspace
        good = json.loads(json.dumps(config))
        good["strategy"]["threshold"] = int(threshold)
        path = tmp_path / "good.json"
        path.write_text(json.dumps(good))
        cfg = cli.load_run_config(path, _prepare_args(path))
        assert cfg.threshold == float(threshold)
        args = cli.build_parser().parse_args(["evaluate", "--config", str(path),
                                              "--class-threshold", threshold])
        assert args.class_threshold == float(threshold)

    @pytest.mark.parametrize("value", ["nan", "inf", "-0.5", "1.5", "half"])
    def test_class_threshold_must_be_a_probability(self, workspace, tmp_path, capsys, value):
        _, config_path, _, out, _ = workspace
        with pytest.raises(SystemExit) as exc:
            cli.main(["evaluate", "--config", str(config_path), "--checkpoint",
                      str(out / "checkpoint.json"), "--out-dir", str(tmp_path),
                      "--class-threshold", value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--class-threshold" in err and "expected a number in [0, 1]" in err
        assert not (tmp_path / "metrics.json").exists()

    def test_non_object_section_rejected(self, workspace, tmp_path):
        _, _, _, _, config = workspace
        bad = dict(config, model=[1, 2])
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(json.dumps(bad))
        with pytest.raises(cli.ConfigError, match=f"^{bad_path}: model: expected a JSON object, got list$"):
            cli.load_run_config(bad_path, _prepare_args(bad_path))

    def test_parallel_is_a_train_flag(self, workspace):
        _, config_path, _, _, _ = workspace
        with pytest.raises(SystemExit) as exc:
            cli.main(["prepare", "--config", str(config_path), "--parallel"])
        assert exc.value.code == 2
