#!/usr/bin/env python3
"""Risk-reduction strategies: buy thresholds and 3-class relabeling.

Trains both output heads on the same noisy corpus, then compares:
  1. the baseline strategy (buy iff day-mean sigma > 0.5),
  2. binary strategies with stricter buy thresholds t in [0.5, 0.9],
  3. 3-class strategies that buy only when 'buy' is the dominant day-mean
     class AND its mean probability exceeds t in [0.33, 0.9].
Writes both sweep CSVs (threshold vs PP/ATP/total return) for plotting.
"""

from pathlib import Path

import numpy as np

from newsvane import (
    ModelConfig,
    PriceIndex,
    aggregate_daily,
    evaluate,
    generate_synthetic,
    init_parameters,
    init_self_learnt,
    predict,
    prepare_dataset,
    to_pairs,
    train,
)
from newsvane.backtest import default_threshold_grid, sweep_csv, threshold_sweep
from newsvane.fileio import write_text_atomic
from newsvane.seeding import derive_seed

SEED = 13
ROOT = Path(__file__).resolve().parent.parent  # paths are printed relative to it
OUT = ROOT / "demos" / "output"
OUT.mkdir(exist_ok=True)

headlines, bars = generate_synthetic(
    seed=SEED, n_assets=2, n_days=250, headlines_per_day=5, signal_strength=0.8
)
prices = PriceIndex(bars)  # indexed once, for the labels and every sweep
prepared = prepare_dataset(headlines, prices, {"SYN0", "SYN1"}, max_len=12)
print(f"{len(prepared.train)} train / {len(prepared.test)} test headlines\n")

sweeps = {}
for head in ("binary", "multiclass3"):
    config = ModelConfig(
        p=16, m=prepared.vocab.max_len, filter_widths=(3, 4), filters_per_width=6,
        hidden_sizes=(32, 16), dropout_rate=0.25, head=head,
    )
    table = init_self_learnt(prepared.vocab, config.p, mean=0.0, std=0.1,
                             seed=derive_seed(SEED, "embeddings"))
    params = init_parameters(config, np.random.default_rng(derive_seed(SEED, "params-init")))
    train(
        to_pairs(prepared.train, head), table, params, config,
        epochs=8, batch_size=32, seed=derive_seed(SEED, "train"), lr=1e-3,
    )
    metrics = evaluate(to_pairs(prepared.test, head), table, params, config)
    print(f"[{head}] test accuracy {metrics.accuracy:.3f}, F1 {metrics.f1:.3f}")

    outputs = predict([s.enc for s in prepared.test], table, params, config)
    day_preds = aggregate_daily(
        [(s.headline_id, s.asset, s.date, out) for s, out in zip(prepared.test, outputs)])
    grid = default_threshold_grid(head_binary=(head == "binary"), step=0.01)
    sweeps[head] = threshold_sweep(day_preds, prices, grid)

baseline = sweeps["binary"][0]
print(
    f"\nbaseline (t=0.50): {baseline.n_trades} trades, total {baseline.total_return_pct:+.2f}%, "
    f"PP {baseline.pp_pct:.1f}%, ATP {baseline.atp_pct:.4f}%"
)

for head, name in (("binary", "binary buy threshold"), ("multiclass3", "3-class + threshold")):
    rows = sweeps[head]
    traded = [r for r in rows if r.n_trades > 0]
    best_pp = max(traded, key=lambda r: r.pp_pct)
    best_atp = max(traded, key=lambda r: r.atp_pct)
    print(f"\n{name}:")
    print(f"  best PP  {best_pp.pp_pct:.1f}% at t={best_pp.t:.2f} ({best_pp.n_trades} trades)")
    print(f"  best ATP {best_atp.atp_pct:.4f}% at t={best_atp.t:.2f} ({best_atp.n_trades} trades)")

write_text_atomic(OUT / "binary_threshold_sweep.csv", sweep_csv(sweeps["binary"]))
write_text_atomic(OUT / "multiclass_threshold_sweep.csv", sweep_csv(sweeps["multiclass3"]))
print(f"\nwrote sweep CSVs to {OUT.relative_to(ROOT)}/ (plot PP and ATP against t)")
