#!/usr/bin/env python3
"""How training reshapes word embeddings.

Loads toy pretrained vectors in which sentiment words are deliberately NOT
clustered, fine-tunes them (non-static mode) on a strong-signal corpus, and
prints each probe word's nearest cosine neighbors before and after. Fine
tuning pulls words that predict the same price direction toward each other;
the static table is shown unchanged for contrast.
"""

import tempfile
from pathlib import Path

import numpy as np

from newsvane import (
    ModelConfig,
    generate_synthetic,
    init_parameters,
    load_pretrained,
    nearest_neighbors,
    prepare_dataset,
    to_pairs,
    train,
)
from newsvane.seeding import derive_seed

SEED = 3

headlines, prices = generate_synthetic(
    seed=SEED, n_assets=2, n_days=250, headlines_per_day=5, signal_strength=1.0
)
prepared = prepare_dataset(headlines, prices, {"SYN0", "SYN1"}, max_len=12)
vocab = prepared.vocab

# toy "pretrained" vectors: random directions, no sentiment structure
rng = np.random.default_rng(0)
with tempfile.TemporaryDirectory() as tmp:
    vec_path = Path(tmp) / "pretrained.txt"
    lines = [f"{vocab.size} 16"]
    for token in vocab.tokens:
        lines.append(token + " " + " ".join(f"{x:.6f}" for x in rng.normal(0, 0.1, 16)))
    vec_path.write_text("\n".join(lines) + "\n")

    static = load_pretrained(vocab, vec_path, "static", seed=1, expected_p=16)
    tuned = load_pretrained(vocab, vec_path, "non_static", seed=1, expected_p=16)

config = ModelConfig(
    p=16, m=vocab.max_len, filter_widths=(3, 4), filters_per_width=6,
    hidden_sizes=(32, 16), dropout_rate=0.2, head="binary",
)
params = init_parameters(config, np.random.default_rng(derive_seed(SEED, "params-init")))
train(
    to_pairs(prepared.train, "binary"), tuned, params, config,
    epochs=10, batch_size=32, seed=derive_seed(SEED, "train"),
)

probes = [w for w in ("surge", "slump", "beat", "miss", "profit") if w in vocab.word_to_index]
print(f"{'word':10s} {'static (initial vectors)':34s} fine-tuned (non-static)")
print("-" * 80)
for word in probes:
    before = ", ".join(t for t, _ in nearest_neighbors(word, 3, static, vocab))
    after = ", ".join(t for t, _ in nearest_neighbors(word, 3, tuned, vocab))
    print(f"{word:10s} {before:34s} {after}")

print(
    "\nStatic neighbors are the random initial geometry; after fine-tuning,"
    "\nwords from the same sentiment family rank each other highly."
)
