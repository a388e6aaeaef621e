"""End-to-end dataset preparation: label, split, tokenize, encode.

Ties the corpus and text layers together into the sample lists the trainer
and the backtester consume. The vocabulary is built from training headlines
only; test headlines are encoded against it, dropping out-of-vocabulary
tokens.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .allocation import collector_paused
from .corpus import (
    TRI_CLASSES,
    DatasetSplit,
    HeadlineRecord,
    PriceIndex,
    label_all,
    split_half_hourly_unique,
)
from .network import HEAD_BINARY, HEADS
from .seeding import derive_seed
from .text import EncodedHeadline, Vocabulary, build_vocabulary, encode_and_pad, tokenize

TRI_INDEX = {name: i for i, name in enumerate(TRI_CLASSES)}
_ID = attrgetter("id")


class Sample(NamedTuple):
    """One model-ready headline: encoding plus labels and trade metadata, as a
    named tuple (``==`` reaches the encoding's array, see ``EncodedHeadline``)."""

    headline_id: int
    asset: str
    date: dt.date
    trade_date: dt.date
    next_day_return: float
    binary_label: int
    tri_label: str
    enc: EncodedHeadline


@dataclass(frozen=True, eq=False)
class PreparedData:
    vocab: Vocabulary
    train: tuple[Sample, ...]
    test: tuple[Sample, ...]
    split: DatasetSplit
    n_unlabeled: int  # headlines dropped because the price history ended


@collector_paused
def prepare_dataset(
    headlines: list[HeadlineRecord],
    prices: PriceIndex,
    portfolio: set[str] | frozenset[str],
    max_len: int | None,
) -> PreparedData:
    """Label, split and encode a corpus, labeled on the ``PriceIndex`` that
    ``load_prices`` or ``PriceIndex(bars)`` builds.

    Headlines whose next trading day is beyond the price history are dropped
    before splitting (their count is reported). ``max_len`` optionally
    overrides the encoded length; otherwise the longest tokenized training
    sentence defines it. Each role's samples are in headline id order.
    """
    labels, skipped = label_all(headlines, prices)
    labeled = [h for h in headlines if h.id in labels] if skipped else headlines
    split = split_half_hourly_unique(labeled, portfolio)

    in_id_order = sorted(labeled, key=_ID)
    train_rows = [h for h in in_id_order if h.id in split.train_ids]
    train_tokens = [tokenize(h.text) for h in train_rows]
    vocab = build_vocabulary(train_tokens, max_len)

    def to_sample(h: HeadlineRecord, tokens: list[str]) -> Sample:
        _, trade_date, ret, binary, tri = labels[h.id]
        return Sample(h.id, h.asset, h.date, trade_date, ret, binary, tri,
                      encode_and_pad(tokens, vocab))

    train = tuple(map(to_sample, train_rows, train_tokens))
    test = tuple(to_sample(h, tokenize(h.text)) for h in in_id_order if h.id in split.test_ids)
    return PreparedData(vocab=vocab, train=train, test=test, split=split, n_unlabeled=len(skipped))


def to_pairs(samples: tuple[Sample, ...], head: str) -> list[tuple[EncodedHeadline, int]]:
    """Project samples onto (encoding, class index) pairs for the given head,
    one of ``network.HEADS``; any other head is a ValueError."""
    if head not in HEADS:
        raise ValueError(f"unknown head {head!r}, expected one of {', '.join(HEADS)}")
    if head == HEAD_BINARY:
        return [(s.enc, s.binary_label) for s in samples]
    return [(s.enc, TRI_INDEX[s.tri_label]) for s in samples]


def validation_slice(
    samples: tuple[Sample, ...], fraction: float, seed: int
) -> tuple[tuple[Sample, ...], tuple[Sample, ...]]:
    """Split training samples into (fit, selection) parts by whole dates.

    Slicing by date rather than by headline keeps same-day rewrites of one
    event on the same side of the split.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must lie in (0, 1)")
    dates = sorted({s.date for s in samples})
    if len(dates) < 2:
        raise ValueError("need at least two distinct dates to carve a validation slice")
    rng = np.random.default_rng(derive_seed(seed, "validation-slice"))
    n_val = min(max(1, int(round(fraction * len(dates)))), len(dates) - 1)
    val_dates = {dates[i] for i in rng.permutation(len(dates))[:n_val].tolist()}
    fit = tuple(s for s in samples if s.date not in val_dates)
    val = tuple(s for s in samples if s.date in val_dates)
    return fit, val
