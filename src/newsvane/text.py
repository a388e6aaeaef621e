"""Headline tokenization, vocabulary construction and ordinal encoding.

A headline becomes a fixed-length integer vector in three steps: tokenize
(lowercase, strip punctuation, drop stop-words), map each kept token to its
vocabulary index, and post-pad with the reserved index 0 up to the uniform
length ``max_len``. Index 0 never maps to a real token; it is the padding
dummy whose embedding stays a frozen zero vector.
"""

from __future__ import annotations

import hashlib
import itertools
import unicodedata
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .fileio import write_text_atomic

PAD_TOKEN = "<pad>"

# Fixed English stop-word list, embedded for reproducibility. Edits here
# change every downstream vocabulary, so treat it as frozen.
STOP_WORDS: frozenset[str] = frozenset(
    """
    a about above after again against all am an and any are as at be because
    been before being below between both but by can cannot could did do does
    doing down during each few for from further had has have having he her
    here hers herself him himself his how i if in into is it its itself just
    me more most my myself no nor not now of off on once only or other our
    ours ourselves out over own same she should so some such than that the
    their theirs them themselves then there these they this those through to
    too under until up very was we were what when where which while who whom
    why will with would you your yours yourself yourselves
    """.split()
)

# Characters treated as punctuation on top of the Unicode P* categories.
_EXTRA_PUNCTUATION = frozenset("$%&+<=>|~")


def _is_punctuation(ch: str) -> bool:
    return ch in _EXTRA_PUNCTUATION or unicodedata.category(ch).startswith("P")


class _PunctuationTable(dict):
    """A ``str.translate`` table that deletes punctuation: each code point's
    entry (None to delete it, else itself) is filled in when first seen."""

    def __missing__(self, code: int) -> int | None:
        self[code] = entry = None if _is_punctuation(chr(code)) else code
        return entry


_DELETE_PUNCTUATION = _PunctuationTable()
# The same deletion for ASCII text, as a ``bytes.translate`` argument.
_ASCII_PUNCTUATION = bytes(c for c in range(128) if _is_punctuation(chr(c)))


def tokenize(text: str) -> list[str]:
    """Split a raw headline into lowercase tokens.

    Punctuation characters are deleted (not replaced by spaces), the result
    is split on whitespace, and stop-words are removed. The output may be
    empty; downstream encoding handles that.
    """
    lowered = text.lower()
    if lowered.isascii():  # the bytes path deletes the same characters, faster
        cleaned = lowered.encode().translate(None, _ASCII_PUNCTUATION).decode()
    else:
        cleaned = lowered.translate(_DELETE_PUNCTUATION)
    return [tok for tok in cleaned.split() if tok not in STOP_WORDS]


@dataclass(frozen=True)
class Vocabulary:
    """Token-to-index map built from the training collection.

    Indices are contiguous from 1; index 0 is reserved for padding.
    ``max_len`` is the uniform encoded length, by default the longest
    tokenized training sentence.
    """

    word_to_index: dict[str, int]
    max_len: int

    @property
    def size(self) -> int:
        return len(self.word_to_index)

    def index_to_word(self) -> dict[int, str]:
        return {i: w for w, i in self.word_to_index.items()}

    def with_max_len(self, max_len: int) -> "Vocabulary":
        if max_len < 1:
            raise ValueError("max_len must be >= 1")
        return replace(self, max_len=max_len)


def build_vocabulary(training_texts: list[list[str]]) -> Vocabulary:
    """Assign indices >= 1 in first-occurrence order over the training tokens."""
    first_seen = dict.fromkeys(itertools.chain.from_iterable(training_texts))
    if not first_seen:
        raise ValueError("cannot build a vocabulary: every token list is empty")
    word_to_index = {tok: i for i, tok in enumerate(first_seen, 1)}
    return Vocabulary(word_to_index=word_to_index, max_len=max(map(len, training_texts)))


class EncodedHeadline(NamedTuple):
    """A headline as a length-``max_len`` index vector plus its true length.

    Positions >= true_len hold the padding index 0; positions before it hold
    real token indices >= 1. It is a named tuple: ``==`` between two
    encodings compares their index arrays and raises for arrays longer than
    one, and it is unhashable; compare ``indices`` with ``np.array_equal``.
    """

    indices: np.ndarray  # int64, shape (max_len,)
    true_len: int


def encode_and_pad(tokens: list[str], vocab: Vocabulary) -> EncodedHeadline:
    """Encode kept tokens and post-pad with zeros to ``vocab.max_len``.

    Tokens absent from the vocabulary are dropped (no trained representation
    exists for them); sentences longer than ``max_len`` keep their first
    ``max_len`` tokens.
    """
    m = vocab.max_len
    word_to_index = vocab.word_to_index
    kept = [word_to_index[t] for t in tokens if t in word_to_index][:m]
    return EncodedHeadline(np.array(kept + [0] * (m - len(kept)), dtype=np.int64), len(kept))


def tokens_by_index(vocab: Vocabulary) -> list[str]:
    """The vocabulary's tokens in index order: index i holds element i - 1."""
    return sorted(vocab.word_to_index, key=vocab.word_to_index.__getitem__)


def _vocabulary_text(tokens: Sequence[str], max_len: int) -> str:
    return f"max_len={max_len}\n" + "".join([f"{tok}\t{i}\n" for i, tok in enumerate(tokens, 1)])


def vocabulary_to_text(vocab: Vocabulary) -> str:
    """Serialize as a header line ``max_len=<m>`` plus ``token<TAB>index`` rows."""
    return _vocabulary_text(tokens_by_index(vocab), vocab.max_len)


def save_vocabulary(vocab: Vocabulary, path: str | Path) -> None:
    write_text_atomic(path, vocabulary_to_text(vocab))


def tokens_hash(tokens: Sequence[str], max_len: int) -> str:
    """The ``vocabulary_hash`` of the vocabulary whose ``tokens_by_index`` are
    ``tokens``, for a caller that holds them already (checkpoint save and load)."""
    return hashlib.sha256(_vocabulary_text(tokens, max_len).encode()).hexdigest()


def vocabulary_hash(vocab: Vocabulary) -> str:
    """Stable content hash used to pair checkpoints with their vocabulary:
    the sha256 of its ``vocabulary_to_text``."""
    return tokens_hash(tokens_by_index(vocab), vocab.max_len)
