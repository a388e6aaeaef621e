"""End-to-end dataset preparation: label, split, tokenize, encode.

Ties the corpus and text layers together into the sample lists the trainer
and the backtester consume. The vocabulary is built from training headlines
only; test headlines are encoded against it, dropping out-of-vocabulary
tokens.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, replace
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
    tri_label_of,
)
from .network import HEAD_BINARY, HEADS
from .seeding import derive_seed
from .text import Vocabulary, build_vocabulary, encode_and_pad, tokenize

TRI_INDEX = {name: i for i, name in enumerate(TRI_CLASSES)}
_ID = attrgetter("id")


class Sample(NamedTuple):
    """One model-ready headline: its encoding (``encode_and_pad``'s int64
    ``(max_len,)`` index array) and trade metadata, as a named tuple (``==``
    reaches the array and raises for more than one index; compare encodings
    with ``np.array_equal``). The return of the bar on ``trade_date``, its
    next trading day, determines both labels: ``binary_label`` is 1 iff it is
    positive, ``tri_label`` is its ``corpus.tri_label_of``."""

    headline_id: int
    asset: str
    date: dt.date
    trade_date: dt.date
    next_day_return: float
    enc: np.ndarray

    @property
    def binary_label(self) -> int:
        return 1 if self.next_day_return > 0 else 0

    @property
    def tri_label(self) -> str:
        return tri_label_of(self.next_day_return)


@dataclass(frozen=True, eq=False)
class PreparedData:
    vocab: Vocabulary
    train: tuple[Sample, ...]
    test: tuple[Sample, ...]
    split: DatasetSplit
    n_unlabeled: int  # headlines dropped because the price history ended
    n_purged: int  # training headlines dropped because a test headline shares their label bar


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
    before splitting (their count is reported). After the split, a training
    headline whose label bar (its asset's next trading day) is also a test
    headline's is purged, so no test outcome is a training label: a weekend or
    holiday headline shares the next bar with the trading day before it. Its
    id leaves ``split.train_ids``, its tokens stay out of the vocabulary, and
    the purged count is reported. ``max_len`` optionally
    overrides the encoded length; otherwise the longest tokenized training
    sentence defines it. Each role's samples are in headline id order.
    """
    labels, skipped = label_all(headlines, prices)
    labeled = [h for h in headlines if h.id in labels] if skipped else headlines
    split = split_half_hourly_unique(labeled, portfolio)
    test_bars = {labels[i] for i in split.test_ids}
    purged = {i for i in split.train_ids if labels[i] in test_bars}
    split = replace(split, train_ids=split.train_ids - purged)

    in_id_order = sorted(labeled, key=_ID)
    train_rows = [h for h in in_id_order if h.id in split.train_ids]
    train_tokens = [tokenize(h.text) for h in train_rows]
    vocab = build_vocabulary(train_tokens, max_len)

    bars, returns = prices.bars, prices.returns.tolist()

    def to_sample(h: HeadlineRecord, tokens: list[str]) -> Sample:
        pos = labels[h.id]
        return Sample(h.id, h.asset, h.date, bars[pos].date, returns[pos],
                      encode_and_pad(tokens, vocab))

    train = tuple(map(to_sample, train_rows, train_tokens))
    test = tuple(to_sample(h, tokenize(h.text)) for h in in_id_order if h.id in split.test_ids)
    return PreparedData(vocab=vocab, train=train, test=test, split=split,
                        n_unlabeled=len(skipped), n_purged=len(purged))


def to_pairs(samples: tuple[Sample, ...], head: str) -> list[tuple[np.ndarray, int]]:
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
    event on the same side of the split. A fit sample whose (asset, trade
    date), its label bar, is also a selection sample's is dropped, as
    ``prepare_dataset`` purges training headlines against the test set.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must lie in (0, 1)")
    dates = sorted({s.date for s in samples})
    if len(dates) < 2:
        raise ValueError("need at least two distinct dates to carve a validation slice")
    rng = np.random.default_rng(derive_seed(seed, "validation-slice"))
    n_val = min(max(1, int(round(fraction * len(dates)))), len(dates) - 1)
    val_dates = {dates[i] for i in rng.permutation(len(dates))[:n_val].tolist()}
    val = tuple(s for s in samples if s.date in val_dates)
    val_bars = {(s.asset, s.trade_date) for s in val}
    # each selection sample's own bar is in val_bars, so this also keeps it out of fit
    fit = tuple(s for s in samples if (s.asset, s.trade_date) not in val_bars)
    return fit, val
