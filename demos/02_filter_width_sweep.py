#!/usr/bin/env python3
"""Grid search over single filter widths h = 2..9.

Trains one model per width on a noisy synthetic corpus and tabulates
accuracy and F1 on a held-out validation slice of the training dates, the
procedure used to pick widths before touching the test split. Writes a
plot-ready CSV next to this script.
"""

import functools
from dataclasses import asdict
from pathlib import Path

from newsvane import (
    GridAxes,
    ModelConfig,
    PriceIndex,
    generate_synthetic,
    init_self_learnt,
    prepare_dataset,
    to_pairs,
)
from newsvane.fileio import json_text, write_text_atomic
from newsvane.pipeline import validation_slice
from newsvane.training import grid_csv, grid_search

SEED = 7
ROOT = Path(__file__).resolve().parent.parent  # paths are printed relative to it
OUT = ROOT / "demos" / "output"


def make_table(vocab, mode, seed):
    assert mode == "self_learnt"
    return init_self_learnt(vocab, 16, mean=0.0, std=0.1, seed=seed)


headlines, bars = generate_synthetic(
    seed=SEED, n_assets=2, n_days=200, headlines_per_day=5, signal_strength=0.85
)
prepared = prepare_dataset(headlines, PriceIndex(bars), {"SYN0", "SYN1"}, max_len=16)
fit, selection = validation_slice(prepared.train, fraction=0.25, seed=SEED)
print(
    f"corpus: {len(prepared.train)} training headlines; grid fits on {len(fit)}, "
    f"selects on a {len(selection)}-headline validation slice"
)

base = ModelConfig(
    p=16, m=16, filter_widths=(3,), filters_per_width=8,
    hidden_sizes=(24, 12), dropout_rate=0.2, head="binary",
)
axes = GridAxes(
    epochs=(6,), dropout=(0.2,),
    width_sets=tuple((h,) for h in range(2, 10)),
    modes=("self_learnt",),
)
results = grid_search(
    to_pairs(fit, "binary"), to_pairs(selection, "binary"),
    base, axes, functools.partial(make_table, prepared.vocab),
    seed=SEED, batch_size=32, lr=1e-3, parallel=False,
)

print("\nwidth   accuracy     F1   (ranked by F1)")
for r in results:
    print(f"  h={r.widths[0]}   {r.accuracy:.4f}   {r.f1:.4f}")

OUT.mkdir(exist_ok=True)
write_text_atomic(OUT / "width_sweep.csv", grid_csv(results))
write_text_atomic(OUT / "width_sweep_best.json",
                  json_text({"best": asdict(results[0]), "n_cells": len(results)}))
print(f"\nwrote {(OUT / 'width_sweep.csv').relative_to(ROOT)} "
      "(one row per width, plot accuracy/F1 vs h)")
print(
    "note: synthetic sentiment lives in short phrases, so every width >= 2 can\n"
    "recover it and the curve is flat at the corpus signal ceiling; on real\n"
    "headlines the trade-off between phrase length and filter count shows up here"
)
