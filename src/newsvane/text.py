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
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

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
    """The training collection's tokens in index order: ``tokens[i]`` has
    index ``i + 1``; index 0 is reserved for padding. ``max_len`` is the
    uniform encoded length, by default the longest tokenized training sentence.
    The attribute ``word_to_index`` is the inverse map, built once here.

    Construction rejects a repeated token, an empty token, a token holding a
    newline (a checkpoint stores the tokens newline-joined) and ``max_len <
    1``, as a ValueError that starts with ``tokens:`` or ``max_len:``.
    """

    tokens: tuple[str, ...]
    max_len: int

    def __post_init__(self) -> None:
        tokens = tuple(self.tokens)
        word_to_index = {tok: i for i, tok in enumerate(tokens, 1)}
        if "" in word_to_index:
            raise ValueError("tokens: empty token")
        if len(word_to_index) != len(tokens):
            raise ValueError("tokens: repeated token")
        if "\n" in "".join(tokens):
            raise ValueError("tokens: a token holds a newline")
        if self.max_len < 1:
            raise ValueError(f"max_len: expected an integer >= 1, got {self.max_len!r}")
        object.__setattr__(self, "tokens", tokens)
        object.__setattr__(self, "word_to_index", word_to_index)  # not a field: eq and repr skip it

    @property
    def size(self) -> int:
        return len(self.tokens)


def build_vocabulary(training_texts: list[list[str]], max_len: int | None) -> Vocabulary:
    """The training tokens in first-occurrence order; a ``max_len`` of None
    takes the length of the longest training text."""
    tokens = tuple(dict.fromkeys(itertools.chain.from_iterable(training_texts)))
    if not tokens:
        raise ValueError("cannot build a vocabulary: every token list is empty")
    return Vocabulary(tokens, max(map(len, training_texts)) if max_len is None else max_len)


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


def vocabulary_to_text(vocab: Vocabulary) -> str:
    """Serialize as a header line ``max_len=<m>`` plus ``token<TAB>index`` rows."""
    return f"max_len={vocab.max_len}\n" + "".join(
        [f"{tok}\t{i}\n" for i, tok in enumerate(vocab.tokens, 1)])


def save_vocabulary(vocab: Vocabulary, path: str | Path) -> None:
    write_text_atomic(path, vocabulary_to_text(vocab))


def vocabulary_hash(vocab: Vocabulary) -> str:
    """Stable content hash used to pair checkpoints with their vocabulary:
    the sha256 of its ``vocabulary_to_text``."""
    return hashlib.sha256(vocabulary_to_text(vocab).encode()).hexdigest()
