"""Embedding table management, pretrained-vector loading and similarity queries.

The table holds one p-dimensional row per vocabulary token plus the frozen
zero row 0 for padding. Three modes are supported: ``self_learnt`` rows are
random-normal initialized and trained from scratch; ``static`` rows come from
a pretrained file and are never updated; ``non_static`` rows start pretrained
and are fine-tuned during training.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .seeding import derive_seed
from .text import EncodedHeadline, Vocabulary

MODE_SELF_LEARNT = "self_learnt"
MODE_STATIC = "static"
MODE_NON_STATIC = "non_static"
MODES = (MODE_SELF_LEARNT, MODE_STATIC, MODE_NON_STATIC)


@dataclass(eq=False)
class EmbeddingTable:
    """(vocab_size + 1) x p matrix of token feature vectors.

    Row 0 is the padding vector: initialized to zero and kept at zero by the
    training loop in every mode. In ``static`` mode the whole matrix is
    frozen, including rows that were random-filled because the pretrained
    file lacked the token.
    """

    matrix: np.ndarray
    mode: str
    p: int
    pretrained_hit_count: int = 0

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown embedding mode {self.mode!r}")

    @property
    def trainable(self) -> bool:
        return self.mode != MODE_STATIC


def init_self_learnt(
    vocab: Vocabulary, p: int, mean: float = 0.0, std: float = 0.1, seed: int = 0
) -> EmbeddingTable:
    """Random-normal table for training embeddings from scratch.

    The defaults mirror typical element statistics of published pretrained
    vectors; pass the measured mean/std of a reference collection to match
    it exactly.
    """
    if p < 1:
        raise ValueError("embedding dimension p must be >= 1")
    if std <= 0:
        raise ValueError("std must be > 0")
    rng = np.random.default_rng(derive_seed(seed, "embedding-init"))
    matrix = np.zeros((vocab.size + 1, p), dtype=np.float64)
    matrix[1:] = rng.normal(mean, std, size=(vocab.size, p))
    return EmbeddingTable(matrix=matrix, mode=MODE_SELF_LEARNT, p=p)


def _vector_fields(lines: Iterable[str], tokens: list[str]) -> Iterator[str]:
    """The text after the token on each non-blank line; each token is
    appended to ``tokens`` as its line is read."""
    for line in lines:
        parts = line.split(maxsplit=1)
        if parts:
            tokens.append(parts[0])
            yield parts[1] if len(parts) == 2 else ""


def _parse_vector_lines(lines: Iterable[str], path: Path, dim: int) -> tuple[list[str], np.ndarray]:
    """Line-by-line parse with ``float()``: the reference that names the
    first bad line, and the parse for the inputs ``np.loadtxt`` rejects."""
    tokens: list[str] = []
    rows: list[np.ndarray] = []
    for lineno, line in enumerate(lines, start=2):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != dim + 1:
            raise ValueError(
                f"{path}: line {lineno}: expected token plus {dim} floats, got {len(parts) - 1}"
            )
        try:
            vec = np.array([float(x) for x in parts[1:]], dtype=np.float64)
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: malformed float") from exc
        if not np.isfinite(vec).all():
            raise ValueError(f"{path}: line {lineno}: non-finite value")
        tokens.append(parts[0])
        rows.append(vec)
    return tokens, np.array(rows).reshape(len(rows), dim)


def _parse_vector_file(path: Path) -> tuple[int, dict[str, np.ndarray], np.ndarray]:
    """Parse a word2vec-style text file: header '<count> <dim>', then one
    '<token> <v1> ... <v_dim>' line per vector; blank lines are skipped.
    Returns (dim, token->vector, all file vectors stacked in file order).

    The body is streamed once: Python splits off each line's token and
    ``np.loadtxt`` converts the floats, which it parses exactly as
    ``float()`` does. When that fails, or yields the wrong shape or a
    non-finite value, the body is read again line by line with ``float()``:
    that parse raises the error naming the line, or reads what ``loadtxt``
    rejects and ``float()`` accepts (``1_0``, non-ASCII digits). Non-finite
    values are rejected, since they would make every fallback row NaN.
    """
    with open(path, encoding="utf-8") as fh:
        header = fh.readline()
        parts = header.split()
        if len(parts) != 2:
            raise ValueError(f"{path}: line 1: expected '<count> <dim>' header")
        try:
            _, dim = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ValueError(f"{path}: line 1: expected integer count and dim") from exc
        if dim < 1:
            raise ValueError(f"{path}: line 1: dimension must be >= 1")
        body = fh.tell()
        tokens: list[str] = []
        fields = _vector_fields(fh, tokens)
        first = next(fields, None)  # loadtxt warns on an empty body
        values = None
        if first is not None:
            try:
                values = np.loadtxt(itertools.chain([first], fields), dtype=np.float64,
                                    ndmin=2, comments=None)
            except ValueError:
                pass
        if values is None or values.shape != (len(tokens), dim) or not np.isfinite(values).all():
            fh.seek(body)
            tokens, values = _parse_vector_lines(fh, path, dim)
    if not tokens:
        raise ValueError(f"{path}: no vectors in file")
    vectors: dict[str, np.ndarray] = {}
    for token, row in zip(tokens, values):
        vectors.setdefault(token, row)
    return dim, vectors, values


def load_pretrained(
    vocab: Vocabulary,
    path: str | Path,
    mode: str,
    seed: int = 0,
    expected_p: int | None = None,
) -> EmbeddingTable:
    """Build a table from pretrained vectors in word2vec text format.

    Vocabulary tokens found in the file get their file vectors; missing
    tokens are filled with per-dimension normal draws whose mean and std are
    measured over all vectors in the file (not only the hits, for stability
    with small vocabularies). ``expected_p`` guards against loading a file
    whose dimension disagrees with the configured model.
    """
    if mode not in (MODE_STATIC, MODE_NON_STATIC):
        raise ValueError(f"pretrained tables must be static or non_static, got {mode!r}")
    dim, vectors, all_rows = _parse_vector_file(Path(path))
    if expected_p is not None and dim != expected_p:
        raise ValueError(f"{path}: file dimension {dim} != configured p {expected_p}")
    mu = all_rows.mean(axis=0)
    sigma = all_rows.std(axis=0)
    rng = np.random.default_rng(derive_seed(seed, "embedding-fallback"))
    matrix = np.zeros((vocab.size + 1, dim), dtype=np.float64)
    hits = 0
    for token, index in vocab.word_to_index.items():
        vec = vectors.get(token)
        if vec is not None:
            matrix[index] = vec
            hits += 1
        else:
            matrix[index] = rng.normal(mu, sigma)
    return EmbeddingTable(matrix=matrix, mode=mode, p=dim, pretrained_hit_count=hits)


def lookup_concat(enc: EncodedHeadline, table: EmbeddingTable) -> np.ndarray:
    """Concatenate the embedding rows of an encoded headline into one vector.

    Output length is max_len * p; padding positions contribute zero blocks.
    """
    idx = enc.indices
    if idx.min() >= 0:
        try:
            return table.matrix[idx].reshape(-1)
        except IndexError:  # an index past the last row
            pass
    raise ValueError("encoded index out of range for embedding table (corrupt input)")


def nearest_neighbors(
    token: str, k: int, table: EmbeddingTable, vocab: Vocabulary
) -> list[tuple[str, float]]:
    """The k most cosine-similar vocabulary tokens to ``token``.

    Returned in descending similarity, ties broken by ascending vocabulary
    index; the query itself and the padding row are excluded. Zero-norm
    candidate rows (no direction to compare) are skipped.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if token not in vocab.word_to_index:
        raise KeyError(f"token {token!r} not in vocabulary")
    qi = vocab.word_to_index[token]
    q = table.matrix[qi]
    qnorm = float(np.linalg.norm(q))
    if qnorm == 0.0:
        raise ValueError(f"token {token!r} has a zero embedding vector")

    rows = table.matrix[1:]
    norms = np.linalg.norm(rows, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        sims = rows @ q / (norms * qnorm)
    inverse = vocab.index_to_word()
    candidates = [
        (inverse[i + 1], float(sims[i]))
        for i in range(rows.shape[0])
        if i + 1 != qi and norms[i] > 0.0
    ]
    candidates.sort(key=lambda item: (-item[1], vocab.word_to_index[item[0]]))
    return candidates[:k]
