"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS lines.
"""

import json
import math
import time

import numpy as np
import pytest

from newsvane import cli
from newsvane.backtest import (
    DayPrediction,
    aggregate_daily,
    decide_multiclass,
    default_threshold_grid,
    threshold_sweep,
)
from newsvane.corpus import PriceBar, PriceIndex, generate_synthetic
from newsvane.embeddings import (
    EmbeddingTable,
    init_self_learnt,
    load_pretrained,
    nearest_neighbors,
)
from newsvane.gradcheck import run_suite
from newsvane.network import (
    ModelConfig,
    ModelParameters,
    conv_forward,
    forward,
    init_parameters,
    param_layout,
)
from newsvane.pipeline import prepare_dataset, to_pairs
from newsvane.seeding import derive_seed
from newsvane.text import Vocabulary
from newsvane.training import evaluate, train
from test_network import forward_pools

PORTFOLIO = {"SYN0", "SYN1"}


def _passed(n, detail):
    print(f"\nACCEPTANCE {n}: PASS - {detail}")


@pytest.fixture(scope="module")
def learning_runs():
    """Train the reference configuration on the full- and null-signal corpora."""
    runs = {}
    for signal in (1.0, 0.5):
        headlines, prices = generate_synthetic(
            seed=42, n_assets=2, n_days=300, headlines_per_day=5, signal_strength=signal
        )
        prepared = prepare_dataset(headlines, PriceIndex(prices), PORTFOLIO, max_len=12)
        config = ModelConfig(
            p=16, m=12, filter_widths=(3, 4), filters_per_width=6,
            hidden_sizes=(32, 16), dropout_rate=0.25, head="binary",
        )
        table = init_self_learnt(prepared.vocab, 16, mean=0.0, std=0.1,
                                 seed=derive_seed(42, "embeddings"))
        params = init_parameters(config, np.random.default_rng(derive_seed(42, "params-init")))
        start = time.perf_counter()
        train(
            to_pairs(prepared.train, "binary"), table, params, config,
            epochs=10, batch_size=32, seed=derive_seed(42, "train"), lr=1e-3,
        )
        elapsed = time.perf_counter() - start
        runs[signal] = dict(
            prepared=prepared, config=config, table=table, params=params, elapsed=elapsed
        )
    return runs


def test_criterion_1_gradient_correctness():
    suite = run_suite(seed=0, n_configs=20)
    assert suite.elapsed_s < 30.0
    assert suite.max_rel_error < 1e-4, suite
    _passed(1, f"max relative error {suite.max_rel_error:.3e} < 1e-4 over 20 configs "
               f"in {suite.elapsed_s:.2f}s")


def test_criterion_2_learning_capability(learning_runs):
    run = learning_runs[1.0]
    assert run["elapsed"] < 120.0
    train_metrics = evaluate(
        to_pairs(run["prepared"].train, "binary"), run["table"], run["params"], run["config"]
    )
    test_metrics = evaluate(
        to_pairs(run["prepared"].test, "binary"), run["table"], run["params"], run["config"]
    )
    assert train_metrics.accuracy >= 0.95
    assert test_metrics.accuracy >= 0.90

    null = learning_runs[0.5]
    null_metrics = evaluate(
        to_pairs(null["prepared"].test, "binary"), null["table"], null["params"], null["config"]
    )
    assert 0.45 <= null_metrics.accuracy <= 0.55
    _passed(2, f"signal 1.0: train {train_metrics.accuracy:.3f} / test {test_metrics.accuracy:.3f} "
               f"in {run['elapsed']:.1f}s; signal 0.5: test {null_metrics.accuracy:.3f}")


def test_criterion_3_overfit_one_batch(learning_runs):
    prepared = learning_runs[1.0]["prepared"]
    pairs = to_pairs(prepared.train, "binary")
    batch = [p for p in pairs if p[1] == 1][:4] + [p for p in pairs if p[1] == 0][:4]
    assert len(batch) == 8
    config = ModelConfig(
        p=16, m=12, filter_widths=(3, 4), filters_per_width=6,
        hidden_sizes=(32, 16), dropout_rate=0.0, head="binary",
    )
    table = init_self_learnt(prepared.vocab, 16, mean=0.0, std=0.1,
                             seed=derive_seed(42, "embeddings"))
    params = init_parameters(config, np.random.default_rng(derive_seed(42, "params-init")))
    result = train(batch, table, params, config, epochs=200, batch_size=8,
                   seed=derive_seed(42, "train"), lr=1e-3)
    final_loss = result.trace[-1].mean_loss
    assert final_loss < 0.01
    _passed(3, f"mean loss {final_loss:.5f} < 0.01 after 200 epochs on one batch of 8")


def _naive_conv(x, filt, bias, h):
    p = len(filt) // h
    m = len(x) // p
    out = []
    for k in range(m - h + 1):
        acc = bias
        for j in range(h * p):
            acc += filt[j] * x[k * p + j]
        out.append(max(0.0, acc))
    return out


def _naive_pool(c, w):
    """Each window's max and the position of its first occurrence."""
    out, pos = [], []
    for start in range(0, len(c), w):
        out.append(max(c[start : start + w]))
        pos.append(c.index(out[-1], start))
    return out, pos


def _naive_neighbors(token, k, matrix, tokens):
    qi = tokens.index(token) + 1
    q = matrix[qi]
    qn = math.sqrt(sum(v * v for v in q))
    rows = []
    for idx, tok in enumerate(tokens, 1):
        if idx == qi:
            continue
        v = matrix[idx]
        vn = math.sqrt(sum(x * x for x in v))
        sim = sum(a * b for a, b in zip(v, q)) / (vn * qn)
        rows.append((tok, sim, idx))
    rows.sort(key=lambda r: (-r[1], r[2]))
    return [t for t, _, _ in rows[:k]]


def _naive_multiclass_decision(means, t):
    buy = means[2]
    return "buy" if buy > means[0] and buy > means[1] and buy > t else "no_action"


def test_criterion_4_oracle_equivalence():
    rng = np.random.default_rng(404)
    for _ in range(100):
        h = int(rng.integers(2, 5))
        p = int(rng.integers(1, 4))
        m = int(rng.integers(h, 9))
        x = rng.normal(size=m * p)
        filt = rng.normal(size=h * p)
        bias = float(rng.normal())
        _, pre = conv_forward(x, filt[None, :], np.array([bias]), p)  # a one-filter bank
        np.testing.assert_allclose(np.maximum(0.0, pre[:, 0]), _naive_conv(x, filt, bias, h),
                                   atol=1e-12)
    for _ in range(100):
        # one filter per width through forward's pool; negative words give relu ties at 0
        words = rng.normal(size=int(rng.integers(4, 28))).tolist()
        w = int(rng.integers(1, 5))
        for post, pooled, positions in forward_pools(words, w):
            assert (pooled, positions) == _naive_pool(post, w)
    for trial in range(100):
        size = int(rng.integers(2, 30))
        tokens = tuple(f"t{i}" for i in range(size))
        matrix = rng.normal(size=(size + 1, int(rng.integers(2, 6))))
        matrix[0] = 0.0
        table = EmbeddingTable(matrix=matrix, mode="self_learnt")
        vv = Vocabulary(tokens, max_len=4)
        token = f"t{int(rng.integers(size))}"
        k = int(rng.integers(1, size + 3))
        mine = [t for t, _ in nearest_neighbors(token, k, table, vv)]
        assert mine == _naive_neighbors(token, k, matrix, tokens)
    for _ in range(100):
        means = tuple(float(x) for x in rng.dirichlet(np.ones(3)))
        t = float(rng.uniform(0.0, 1.0))
        dp = DayPrediction(asset="A", date=__import__("datetime").date(2016, 1, 4),
                           n_headlines=1, class_means=means)
        assert decide_multiclass(dp, t) == _naive_multiclass_decision(means, t)
    _passed(4, "conv, max-pool, neighbors and 3-class decisions match naive oracles "
               "on 100 random instances each")


def test_criterion_5_metric_exactness():
    vocab = Vocabulary(("pos", "neg"), max_len=2)
    table = EmbeddingTable(matrix=np.array([[0.0], [1.0], [-1.0]]), mode="self_learnt")
    config = ModelConfig(
        p=1, m=2, filter_widths=(2,), filters_per_width=4,
        hidden_sizes=(2, 1), dropout_rate=0.0, head="binary",
    )
    layout = param_layout(config)
    params = ModelParameters.from_flat(np.zeros(layout.size), layout)  # zero biases
    params.filters[2][:] = [[1.0, 0.0], [-1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
    params.w1[:] = [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]]
    params.w2[:] = [[1.0, -1.0]]
    params.w_out[:] = [[4.0]]
    params.b_out[:] = [-2.0]
    pos = np.array([1, 0])
    neg = np.array([2, 0])
    dataset = [(pos, 1)] * 3 + [(pos, 0)] * 1 + [(neg, 1)] * 2 + [(neg, 0)] * 4
    report = evaluate(dataset, table, params, config)
    assert (report.tp, report.fp, report.fn, report.tn) == (3, 1, 2, 4)
    assert abs(report.precision - 0.75) < 1e-12
    assert abs(report.recall - 0.6) < 1e-12
    assert abs(report.f1 - 2.0 / 3.0) < 1e-12
    assert abs(report.accuracy - 0.7) < 1e-12
    _passed(5, "PRE=0.75 REC=0.6 F1=2/3 accuracy=0.7 reproduced to 1e-12 "
               "from confusion counts (3,1,2,4)")


def test_criterion_6_backtest_exactness():
    import datetime as dt

    d0 = dt.date(2016, 6, 1)
    rng = np.random.default_rng(606)
    outputs = []
    returns = {}
    bars = []
    for day in range(20):
        for asset in ("A", "B"):
            sigma = float(rng.uniform(0.3, 0.95))
            ret = float(rng.uniform(-0.04, 0.05))
            outputs.append((len(outputs), asset, d0 + dt.timedelta(days=day), sigma))
            returns[(asset, day + 1)] = ret
            bars.append(PriceBar(asset, d0 + dt.timedelta(days=day + 1), 50.0, 50.0 * (1 + ret)))
    day_preds = aggregate_daily(outputs)  # one output per (asset, day): its own mean

    def enumerate_at(t):
        trades = []
        for dp in day_preds:
            if dp.sigma_mean > t:
                day = (dp.date - d0).days + 1
                trades.append((day, returns[(dp.asset, day)]))
        if not trades:
            return 0.0, 0.0, 0.0, 0
        by_day = {}
        for day, r in trades:
            by_day.setdefault(day, []).append(r)
        capital = 1.0
        for day in sorted(by_day):
            capital *= 1.0 + sum(by_day[day]) / len(by_day[day])
        pp = 100.0 * sum(1 for _, r in trades if r > 0) / len(trades)
        atp = 100.0 * sum(r for _, r in trades) / len(trades)
        return pp, atp, 100.0 * (capital - 1.0), len(trades)

    grid = default_threshold_grid(head_binary=True)
    rows = threshold_sweep(day_preds, PriceIndex(bars), grid)
    for row in rows:
        pp, atp, total, n = enumerate_at(row.t)
        assert row.n_trades == n
        assert abs(row.pp_pct - pp) < 1e-10
        assert abs(row.atp_pct - atp) < 1e-10
        assert abs(row.total_return_pct - total) < 1e-10
    counts = [r.n_trades for r in rows]
    assert all(a >= b for a, b in zip(counts, counts[1:]))
    _passed(6, f"PP/ATP/total match hand enumeration to 1e-10 at {len(rows)} thresholds; "
               "trade count non-increasing")


def test_criterion_7_mode_contracts(tmp_path):
    headlines, prices = generate_synthetic(
        seed=7, n_assets=2, n_days=60, headlines_per_day=4, signal_strength=1.0
    )
    prepared = prepare_dataset(headlines, PriceIndex(prices), PORTFOLIO, max_len=None)
    rng = np.random.default_rng(0)
    vecs = tmp_path / "vecs.txt"
    tokens = prepared.vocab.tokens[::2]
    vecs.write_text(
        f"{len(tokens)} 8\n"
        + "\n".join(t + " " + " ".join(f"{x:.6f}" for x in rng.normal(0, 0.2, 8)) for t in tokens)
        + "\n"
    )
    config = ModelConfig(
        p=8, m=prepared.vocab.max_len, filter_widths=(2, 3), filters_per_width=2,
        hidden_sizes=(8, 4), dropout_rate=0.1, head="binary",
    )
    pairs = to_pairs(prepared.train, "binary")
    outcomes = {}
    for mode in ("static", "non_static", "self_learnt"):
        if mode == "self_learnt":
            table = init_self_learnt(prepared.vocab, 8, mean=0.0, std=0.1, seed=2)
        else:
            table = load_pretrained(prepared.vocab, vecs, mode, seed=2, expected_p=8)
        initial = table.matrix.copy()
        params = init_parameters(config, np.random.default_rng(3))
        train(pairs, table, params, config, epochs=2, batch_size=16, seed=4, lr=1e-3)
        assert not table.matrix[0].any(), f"padding row moved in mode {mode}"
        changed_rows = int(np.any(table.matrix != initial, axis=1).sum())
        outcomes[mode] = changed_rows
    assert outcomes["static"] == 0  # bit-identical matrix
    assert outcomes["non_static"] >= 1
    assert outcomes["self_learnt"] >= 1
    _passed(7, f"static matrix bit-identical; non-static changed {outcomes['non_static']} rows; "
               "padding row zero in all modes")


def test_criterion_8_determinism(tmp_path):
    data = tmp_path / "data"
    assert cli.main([
        "synth", "--seed", "11", "--n-assets", "2", "--n-days", "60",
        "--headlines-per-day", "4", "--signal-strength", "1.0", "--out-dir", str(data),
    ]) == 0
    outputs = {}
    for run in ("one", "two"):
        out = tmp_path / run
        config = {
            "paths": {"headlines": str(data / "headlines.csv"),
                      "prices": str(data / "prices.csv"), "out_dir": str(out)},
            "portfolio": ["SYN0", "SYN1"],
            "model": {"p": 8, "filter_widths": [2, 3], "filters_per_width": 2,
                      "hidden_sizes": [8, 4], "dropout_rate": 0.1},
            "training": {"epochs": 3, "batch_size": 16, "seed": 11},
            "strategy": {"threshold": 0.5},
        }
        cfg_path = tmp_path / f"{run}.json"
        cfg_path.write_text(json.dumps(config))
        assert cli.main(["train", "--config", str(cfg_path)]) == 0
        assert cli.main(["backtest", "--config", str(cfg_path)]) == 0
        assert cli.main(["sweep", "--config", str(cfg_path)]) == 0
        outputs[run] = {
            name: (out / name).read_bytes()
            for name in ("checkpoint.json", "checkpoint.npy", "metrics.json", "trace.csv",
                         "report.json", "sweep.csv")
        }
    for name in outputs["one"]:
        assert outputs["one"][name] == outputs["two"][name], f"{name} differs between runs"
    _passed(8, "two identical train+backtest runs produced byte-identical "
               "checkpoints, metrics, traces, reports and sweeps")


def test_criterion_9_reference_shape_conformance(tmp_path):
    # dimension-300 pretrained vectors are accepted by the loader
    rng = np.random.default_rng(9)
    tokens = [f"tok{i}" for i in range(10)]
    vecs = tmp_path / "vecs300.txt"
    vecs.write_text(
        "10 300\n"
        + "\n".join(t + " " + " ".join(f"{x:.4f}" for x in rng.normal(0, 0.1, 300)) for t in tokens)
        + "\n"
    )
    vocab = Vocabulary(tokens, max_len=20)
    table = load_pretrained(vocab, vecs, "non_static", seed=1, expected_p=300)
    assert table.p == 300
    assert table.pretrained_hit_count == 10

    # 36 filters as 12 x 3 widths, pool width 2
    m = 20
    config = ModelConfig(
        p=300, m=m, filter_widths=(3, 4, 5), filters_per_width=12,
        hidden_sizes=(128, 64), dropout_rate=0.0, pool_w=2, head="binary",
    )
    assert config.total_filters == 36
    params = init_parameters(config, np.random.default_rng(2))
    enc = np.zeros(m, dtype=np.int64)
    enc[:9] = rng.integers(1, 11, size=9)
    _, cache = forward(enc, table, params, config, mode="train")
    expected_z = 0
    for width in cache.plan.widths:
        assert cache.pre[: width.length, width.cols].shape == (m - width.h + 1, 12)
        expected_z += 12 * math.ceil((m - width.h + 1) / 2)
    assert cache.z.shape == (expected_z,)
    assert config.z_len == expected_z

    # one batch-32 training step runs at these shapes
    pairs = [(enc, int(rng.integers(2))) for _ in range(32)]
    train(pairs, table, params, config, epochs=1, batch_size=32, seed=3, lr=1e-3)
    _passed(9, f"p=300 accepted; |c|=m-h+1 and |z|={expected_z}=sum(12*ceil((m-h+1)/2)) "
               "verified; batch-32 step ran")
