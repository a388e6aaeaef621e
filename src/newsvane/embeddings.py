"""Embedding table management, pretrained-vector loading and similarity queries.

The table holds one p-dimensional row per vocabulary token plus the frozen
zero row 0 for padding. Three modes are supported: ``self_learnt`` rows are
random-normal initialized and trained from scratch; ``static`` rows come from
a pretrained file and are never updated; ``non_static`` rows start pretrained
and are fine-tuned during training.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .fileio import open_text
from .seeding import derive_seed
from .text import Vocabulary

MODE_SELF_LEARNT = "self_learnt"
MODE_STATIC = "static"
MODE_NON_STATIC = "non_static"
MODES = (MODE_SELF_LEARNT, MODE_STATIC, MODE_NON_STATIC)


@dataclass(eq=False, kw_only=True)
class EmbeddingTable:
    """(vocab_size + 1) x p matrix of token feature vectors; its fields are
    keyword-only, and ``p`` is read from the matrix, ``matrix.shape[1]``.

    Row 0 is the padding vector: initialized to zero and kept at zero by the
    training loop in every mode. In ``static`` mode the whole matrix is
    frozen, including rows that were random-filled because the pretrained
    file lacked the token.
    """

    matrix: np.ndarray
    mode: str
    pretrained_hit_count: int = 0

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown embedding mode {self.mode!r}")

    @property
    def p(self) -> int:
        return self.matrix.shape[1]

    @property
    def trainable(self) -> bool:
        return self.mode != MODE_STATIC


def init_self_learnt(
    vocab: Vocabulary, p: int, mean: float, std: float, seed: int
) -> EmbeddingTable:
    """Random-normal table for training embeddings from scratch.

    Every row but the padding row is drawn from normal(``mean``, ``std``). A
    run passes its config's ``model.embedding_init_mean`` and
    ``model.embedding_init_std``; the measured mean/std of a collection of
    pretrained vectors gives rows with that collection's statistics.
    """
    if p < 1:
        raise ValueError("embedding dimension p must be >= 1")
    if not math.isfinite(mean):
        raise ValueError(f"mean must be finite, got {mean!r}")
    if not 0 < std < math.inf:
        raise ValueError(f"std must be finite and > 0, got {std!r}")
    rng = np.random.default_rng(derive_seed(seed, "embedding-init"))
    matrix = np.zeros((vocab.size + 1, p), dtype=np.float64)
    matrix[1:] = rng.normal(mean, std, size=(vocab.size, p))
    return EmbeddingTable(matrix=matrix, mode=MODE_SELF_LEARNT)


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


def _parse_vector_file(path: Path, expected_p: int) -> tuple[list[str], np.ndarray]:
    """Parse a word2vec-style text file: header '<count> <dim>', then one
    '<token> <v1> ... <v_dim>' line per vector; blank lines are skipped.
    Returns (tokens, rows): the tokens in file order, repeats included, and
    their vectors as one contiguous (count, expected_p) array.

    The body is read by one ``np.loadtxt`` call, which splits fields as
    ``str.split`` does and parses floats exactly as ``float()`` does. When it
    fails or yields a non-finite value, the body is read again line by line
    with ``float()``: that parse raises the error naming the line, or reads
    what ``loadtxt`` rejects and ``float()`` accepts (``1_0``, non-ASCII
    digits). Non-finite values are rejected, since they would make every
    fallback row NaN. A ``dim`` other than ``expected_p`` is rejected before
    the body is read; a ``count`` other than the number of vectors, after.
    """
    with open_text(path) as fh:
        parts = fh.readline().split()
        if len(parts) != 2:
            raise ValueError(f"{path}: line 1: expected '<count> <dim>' header")
        try:
            count, dim = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ValueError(f"{path}: line 1: expected integer count and dim") from exc
        if dim < 1:
            raise ValueError(f"{path}: line 1: dimension must be >= 1")
        if dim != expected_p:
            raise ValueError(f"{path}: file dimension {dim} != configured p {expected_p}")
        body = fh.tell()
        rows = None
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # loadtxt warns on an empty body
                records = np.loadtxt(fh, dtype=[("token", object), ("vector", np.float64, (dim,))],
                                     ndmin=1, comments=None)
            tokens, rows = records["token"].tolist(), records["vector"].copy()
            del records  # before the finite check's mask adds to the peak
        except ValueError:
            pass
        if rows is None or not np.isfinite(rows).all():
            fh.seek(body)
            tokens, rows = _parse_vector_lines(fh, path, dim)
    if not tokens:
        raise ValueError(f"{path}: no vectors in file")
    if len(tokens) != count:
        raise ValueError(f"{path}: line 1: header count {count} != {len(tokens)} vectors in file")
    return tokens, rows


def load_pretrained(
    vocab: Vocabulary,
    path: str | Path,
    mode: str,
    seed: int,
    expected_p: int,
) -> EmbeddingTable:
    """Build a table from pretrained vectors in word2vec text format.

    Vocabulary tokens found in the file get their file vectors (a token
    repeated in the file keeps its first one); missing tokens are filled
    with per-dimension normal draws whose mean and std are measured over all
    vectors in the file (not only the hits, for stability with small
    vocabularies), drawn in vocabulary order. ``expected_p`` guards against
    loading a file whose dimension disagrees with the configured model.
    """
    if mode not in (MODE_STATIC, MODE_NON_STATIC):
        raise ValueError(f"pretrained tables must be static or non_static, got {mode!r}")
    tokens, rows = _parse_vector_file(Path(path), expected_p)
    first_row: dict[str, int] = {}
    for row, token in enumerate(tokens):
        first_row.setdefault(token, row)
    # table row i + 1 is the file row of vocab.tokens[i], or -1 where the file lacks it
    source = np.array([first_row.get(token, -1) for token in vocab.tokens], dtype=np.intp)
    matrix = np.zeros((vocab.size + 1, expected_p), dtype=np.float64)
    np.take(rows, source, axis=0, out=matrix[1:], mode="clip")
    missing = source < 0
    n_missing = int(missing.sum())
    if n_missing:
        rng = np.random.default_rng(derive_seed(seed, "embedding-fallback"))
        matrix[1:][missing] = rng.normal(rows.mean(axis=0), rows.std(axis=0),
                                         size=(n_missing, expected_p))
    return EmbeddingTable(matrix=matrix, mode=mode, pretrained_hit_count=vocab.size - n_missing)


def lookup_concat(enc: np.ndarray, table: EmbeddingTable) -> np.ndarray:
    """Concatenate the embedding rows of an encoded headline, its integer
    array of table row indices, into one vector.

    Output length is max_len * p; padding positions contribute zero blocks.
    """
    if enc[enc.argmin()] >= 0:  # take would read index -k as the k-th row from the end
        try:
            return table.matrix.take(enc, axis=0).reshape(-1)
        except (IndexError, TypeError):  # an index past the last row, or not an integer
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
    qi = vocab.word_to_index.get(token)
    if qi is None:
        raise KeyError(f"token {token!r} not in vocabulary")
    q = table.matrix[qi]
    qnorm = float(np.linalg.norm(q))
    if qnorm == 0.0:
        raise ValueError(f"token {token!r} has a zero embedding vector")

    rows = table.matrix[1:]
    norms = np.linalg.norm(rows, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        sims = rows @ q / (norms * qnorm)
    # positions into vocab.tokens; a stable sort keeps ties in index order
    candidates = np.flatnonzero(norms > 0.0)
    candidates = candidates[candidates != qi - 1]
    best = candidates[np.argsort(-sims[candidates], kind="stable")[:k]]
    return [(vocab.tokens[i], float(sims[i])) for i in best.tolist()]
