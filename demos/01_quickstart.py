#!/usr/bin/env python3
"""End-to-end walkthrough: synthetic corpus -> train -> evaluate -> backtest.

Generates a two-asset corpus whose headlines perfectly predict the next
day's price direction, trains the binary-head network on it, and runs the
baseline trading strategy on the held-out test days.
"""

import numpy as np

from newsvane import (
    ModelConfig,
    PriceIndex,
    aggregate_daily,
    decide_binary,
    evaluate,
    forward,
    generate_synthetic,
    init_parameters,
    init_self_learnt,
    prepare_dataset,
    simulate,
    to_pairs,
    train,
)
from newsvane.seeding import derive_seed

SEED = 42
PORTFOLIO = {"SYN0", "SYN1"}

print("== 1. synthetic corpus ==")
headlines, bars = generate_synthetic(
    seed=SEED, n_assets=2, n_days=300, headlines_per_day=5, signal_strength=1.0
)
prices = PriceIndex(bars)  # one index, shared by labelling and the backtest
print(f"{len(headlines)} headlines over 300 trading days, e.g.:")
for h in headlines[:3]:
    print(f"  {h.date} {h.time} [{h.asset}] {h.text!r}")

print("\n== 2. label, split, encode ==")
prepared = prepare_dataset(headlines, prices, PORTFOLIO, max_len=12)
print(
    f"vocabulary: {prepared.vocab.size} tokens, padded length m={prepared.vocab.max_len}\n"
    f"train: {len(prepared.train)} headlines   "
    f"test: {len(prepared.test)} half-hourly-unique headlines "
    f"on {len(prepared.split.test_dates)} retained dates"
)

print("\n== 3. train the binary head ==")
config = ModelConfig(
    p=16, m=prepared.vocab.max_len, filter_widths=(3, 4), filters_per_width=6,
    hidden_sizes=(32, 16), dropout_rate=0.25, head="binary",
)
table = init_self_learnt(prepared.vocab, config.p, mean=0.0, std=0.1,
                         seed=derive_seed(SEED, "embeddings"))
params = init_parameters(config, np.random.default_rng(derive_seed(SEED, "params-init")))
result = train(
    to_pairs(prepared.train, "binary"), table, params, config,
    epochs=10, batch_size=32, seed=derive_seed(SEED, "train"), lr=1e-3,
)
for stats in result.trace[::3]:
    print(f"  epoch {stats.epoch}: mean loss {stats.mean_loss:.4f}, accuracy {stats.accuracy:.3f}")

print("\n== 4. held-out metrics ==")
metrics = evaluate(to_pairs(prepared.test, "binary"), table, params, config)
print(
    f"accuracy {metrics.accuracy:.3f}  precision {metrics.precision:.3f}  "
    f"recall {metrics.recall:.3f}  F1 {metrics.f1:.3f}"
)

print("\n== 5. baseline trading strategy (buy iff day-mean sigma > 0.5) ==")
outputs = [
    (s.headline_id, s.asset, s.date, forward(s.enc, table, params, config, mode="test")[0])
    for s in prepared.test
]
day_predictions = aggregate_daily(outputs)
decisions = [(dp.asset, dp.date, decide_binary(dp, 0.5)) for dp in day_predictions]
report = simulate(decisions, prices)
print(
    f"{report.n_trades} trades  total return {report.total_return_pct:+.2f}%  "
    f"PP {report.pp_pct:.1f}%  ATP {report.atp_pct:.4f}%\n"
    f"worst one-day trade loss {report.max_single_day_loss_pct:.2f}%, "
    f"average winning trade {report.avg_correct_buy_return_pct:.2f}%"
)
