"""Headline and price ingestion, next-day labeling, and the leakage-free split.

Raw inputs are two CSV files: timestamped per-asset headlines and daily
open/close price bars. Each headline is labeled with the return of the next
trading day after its calendar date, both as a binary up/down label and as a
three-way avoid / inconsequential / buy label with a +-0.5% significance
band. The test split keeps only "half-hourly unique" headlines: if an asset
has a single headline within a fixed wall-clock half-hour bucket, the event
it describes is assumed unique to that headline, so it cannot leak into
training through a same-event rewrite from another source.

A deterministic synthetic generator produces desk-scale corpora with a
controllable amount of real signal, used by the self-tests and demos.
"""

from __future__ import annotations

import datetime as dt
import functools
import math
import operator
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import accumulate, repeat
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .fileio import csv_text, read_csv, write_text_atomic
from .seeding import derive_seed

TRI_AVOID = "avoid"
TRI_INCONSEQUENTIAL = "inconsequential"
TRI_BUY = "buy"
TRI_CLASSES = (TRI_AVOID, TRI_INCONSEQUENTIAL, TRI_BUY)

# Next-day returns inside (-SIGNIFICANT_RETURN, +SIGNIFICANT_RETURN) are
# considered inconsequential for the three-class labeling; the boundaries
# themselves are inconsequential too (both outer rules are strict).
SIGNIFICANT_RETURN = 0.005

HEADLINE_CSV_HEADER = ["id", "asset", "date", "time", "relevance", "text"]
PRICE_CSV_HEADER = ["asset", "date", "open", "close"]


_HeadlineFields = NamedTuple("_HeadlineFields", [
    ("id", int), ("asset", str), ("date", dt.date), ("time", dt.time), ("text", str),
    ("relevance", float)])


class HeadlineRecord(_HeadlineFields):
    """One ingested headline row, a named tuple. Construction rejects empty
    text and a relevance outside [0, 1]; ``_make`` and ``_replace`` do not."""

    __slots__ = ()

    def __new__(cls, id: int, asset: str, date: dt.date, time: dt.time, text: str,
                relevance: float) -> HeadlineRecord:
        if not text:
            raise ValueError("headline text must be non-empty")
        if not 0.0 <= relevance <= 1.0:
            raise ValueError("relevance must lie in [0, 1]")
        return _HeadlineFields.__new__(cls, id, asset, date, time, text, relevance)


_PriceFields = NamedTuple("_PriceFields", [
    ("asset", str), ("date", dt.date), ("open", float), ("close", float)])


class PriceBar(_PriceFields):
    """Daily open/close prices for one asset, a named tuple whose
    construction rejects prices that are not positive and finite."""

    __slots__ = ()

    def __new__(cls, asset: str, date: dt.date, open: float, close: float) -> PriceBar:
        if not (0 < open < math.inf and 0 < close < math.inf):
            raise ValueError("prices must be positive and finite")
        return _PriceFields.__new__(cls, asset, date, open, close)


class LabeledSample(NamedTuple):
    """The label of one price bar, which ``label_all`` shares among the headlines
    whose next trading day it is: the bar's return and its binary and 3-way labels."""

    asset: str
    trade_date: dt.date
    next_day_return: float
    binary_label: int
    tri_label: str


@dataclass(frozen=True)
class DatasetSplit:
    """Disjoint train/test headline id sets plus the retained test dates."""

    train_ids: frozenset[int]
    test_ids: frozenset[int]
    test_dates: tuple[dt.date, ...]


# Memoized per distinct string: a corpus repeats a few thousand dates and
# times across its rows, and date and time objects are immutable, so the
# rows can share them. The bound keeps a long-lived process from growing.
@functools.lru_cache(maxsize=1 << 16)
def parse_date(text: str) -> dt.date:
    return dt.datetime.strptime(text, "%Y-%m-%d").date()


@functools.lru_cache(maxsize=1 << 16)
def _parse_time(text: str) -> dt.time:
    return dt.datetime.strptime(text, "%H:%M").time()


def parse_asset(text: str) -> str:
    """An asset name read from a CSV field: stripped of surrounding blanks, never empty."""
    asset = text.strip()
    if not asset:
        raise ValueError("empty asset")
    return asset


def load_headlines(path: str | Path, min_relevance: float = 1.0) -> list[HeadlineRecord]:
    """Read a headline CSV, keeping rows with relevance >= ``min_relevance``.

    Ids are (re)assigned sequentially over the kept rows in file order; the
    file's own id column is validated as an integer but not used as identity.
    Raises ``ValueError`` naming the offending line for malformed rows, and
    when no row qualifies.
    """
    records: list[HeadlineRecord] = []

    def parse(_line: int, row: list[str]) -> None:
        file_id, asset, date, time, relevance, text = row
        int(file_id)
        relevance = float(relevance)
        record = HeadlineRecord(len(records), parse_asset(asset), parse_date(date),
                                _parse_time(time), text, relevance)
        if relevance >= min_relevance:
            records.append(record)
    read_csv(path, [HEADLINE_CSV_HEADER], parse)
    if not records:
        raise ValueError(f"{path}: no qualifying headlines at min_relevance={min_relevance}")
    return records


def load_prices(path: str | Path) -> PriceIndex:
    """Read a price CSV into one ``PriceIndex``, to share with every labelling
    and backtest call; rejects a file without bars, blank assets, duplicate
    (asset, date) bars and non-positive prices."""
    bars: list[PriceBar] = []
    seen: set[tuple[str, dt.date]] = set()

    def parse(_line: int, row: list[str]) -> None:
        asset, date, open_, close = row
        bar = PriceBar(parse_asset(asset), parse_date(date), float(open_), float(close))
        key = (bar.asset, bar.date)
        if key in seen:
            raise ValueError(f"duplicate bar for {bar.asset} {bar.date}")
        seen.add(key)
        bars.append(bar)
    read_csv(path, [PRICE_CSV_HEADER], parse)
    if not bars:
        raise ValueError(f"{path}: no price bars")
    return PriceIndex(bars)


def write_headlines_csv(records: list[HeadlineRecord], path: str | Path) -> None:
    write_text_atomic(path, csv_text(HEADLINE_CSV_HEADER, (
        [r.id, r.asset, r.date.isoformat(), r.time.strftime("%H:%M"), repr(float(r.relevance)), r.text]
        for r in records
    )))


def write_prices_csv(bars: list[PriceBar], path: str | Path) -> None:
    write_text_atomic(path, csv_text(PRICE_CSV_HEADER, (
        [b.asset, b.date.isoformat(), f"{b.open:.6f}", f"{b.close:.6f}"] for b in bars
    )))


_BAR_DATE = operator.itemgetter(PriceBar._fields.index("date"))  # faster than attrgetter
_BAR_OPEN = operator.itemgetter(PriceBar._fields.index("open"))
_BAR_CLOSE = operator.itemgetter(PriceBar._fields.index("close"))
_DAY_BITS = 22  # every date.toordinal() is below 2**22 (date.max is 3,652,059)


class PriceIndex:
    """Price bars sorted by asset name and then date, for next-trading-day lookups.

    Build it once per price list and share it; ``load_prices`` returns one.
    ``bars`` holds every bar in that order, ``days`` their day ordinals
    (int64) and ``returns`` their open-to-close returns ``(close - open) /
    open`` (float64, the bits of that Python expression). One key per bar packs
    its asset's rank above its day ordinal, so the keys are sorted too, and
    ``positions_after`` answers any number of (asset rank, day ordinal) queries
    with one ``np.searchsorted`` over them; ``next_positions`` asks it by asset
    name and date.
    """

    def __init__(self, prices: Iterable[PriceBar]) -> None:
        by_asset: defaultdict[str, list[PriceBar]] = defaultdict(list)
        for bar in prices:
            by_asset[bar.asset].append(bar)
        assets = sorted(by_asset)
        self._rank = {asset: rank for rank, asset in enumerate(assets)}
        bars: list[PriceBar] = []
        for asset in assets:
            bars += sorted(by_asset[asset], key=_BAR_DATE)
        self.bars: tuple[PriceBar, ...] = tuple(bars)
        self.days = np.fromiter(map(dt.date.toordinal, map(_BAR_DATE, bars)), np.int64, len(bars))
        opens = np.fromiter(map(_BAR_OPEN, bars), np.float64, len(bars))
        self.returns = (np.fromiter(map(_BAR_CLOSE, bars), np.float64, len(bars)) - opens) / opens
        sizes = [len(by_asset[asset]) for asset in assets]
        # each asset's end in ``bars``; the trailing 0 is the end of rank -1, an unknown asset
        self._ends = np.array([*accumulate(sizes), 0], dtype=np.int64)
        ranks = np.repeat(np.arange(len(assets), dtype=np.int64), sizes)
        self._keys = ranks << _DAY_BITS | self.days

    def __len__(self) -> int:
        return len(self.bars)

    def has_asset(self, asset: str) -> bool:
        """True if the index holds a bar of ``asset``."""
        return asset in self._rank

    def ranks(self, assets: Sequence[str]) -> np.ndarray:
        """Each asset's rank in the index's sorted assets (int64), -1 if it has no bars."""
        return np.fromiter(map(self._rank.get, assets, repeat(-1)), np.int64, len(assets))

    def positions_after(self, ranks: np.ndarray, days: np.ndarray) -> np.ndarray:
        """For each (asset rank, day ordinal) pair, the position in ``bars`` of the
        asset's first bar strictly after the day (int64); -1 past the asset's
        history or for rank -1."""
        positions = np.searchsorted(self._keys, ranks << _DAY_BITS | days, side="right")
        return np.where(positions < self._ends[ranks], positions, -1)

    def next_positions(self, assets: Sequence[str], dates: Sequence[dt.date]) -> np.ndarray:
        """``positions_after`` for each (asset, date) pair."""
        days = np.fromiter(map(dt.date.toordinal, dates), np.int64, len(dates))
        return self.positions_after(self.ranks(assets), days)


def _bar_label(bar: PriceBar, ret: float) -> LabeledSample:
    """The label of ``bar``, whose open-to-close return is ``ret``."""
    if ret > SIGNIFICANT_RETURN:
        tri = TRI_BUY
    elif ret < -SIGNIFICANT_RETURN:
        tri = TRI_AVOID
    else:
        tri = TRI_INCONSEQUENTIAL
    return LabeledSample(bar.asset, bar.date, ret, 1 if ret > 0 else 0, tri)


def label_all(
    headlines: list[HeadlineRecord], prices: PriceIndex
) -> tuple[dict[int, LabeledSample], list[int]]:
    """Label every headline with the next trading day's open-to-close return.

    Binary label 1 means the close exceeded the open (a positive one-day
    return); unchanged or falling prices are class 0. The three-class label
    is 'buy' above +0.5%, 'avoid' below -0.5%, else 'inconsequential'.
    Returns (labels by id, ids skipped at the end of their asset's history),
    both in headline order. ``prices`` is the ``PriceIndex`` that
    ``load_prices`` or ``PriceIndex(bars)`` builds; one ``next_positions``
    call on it finds every headline's next bar, and headlines with one next
    bar share its label. Raises ``ValueError`` if two headlines share an id.
    """
    positions = prices.next_positions([h.asset for h in headlines], [h.date for h in headlines])
    positions, returns = positions.tolist(), prices.returns.tolist()
    bar_labels = {pos: _bar_label(prices.bars[pos], returns[pos])
                  for pos in set(positions) if pos >= 0}
    label_of_row = list(map(bar_labels.get, positions))  # None past the asset's history
    labels = {h.id: label for h, label in zip(headlines, label_of_row) if label is not None}
    skipped = [h.id for h, label in zip(headlines, label_of_row) if label is None]
    if len(labels.keys() | skipped) != len(headlines):
        raise ValueError("headline ids must be unique")
    return labels, skipped


def split_half_hourly_unique(
    headlines: list[HeadlineRecord], portfolio: set[str] | frozenset[str]
) -> DatasetSplit:
    """Build the time-uniqueness train/test split over the portfolio assets.

    A headline is time-unique when no other headline for the same asset falls
    in the same half-hour wall-clock bucket (:00/:30 aligned). A date is
    retained for testing only if every portfolio asset has at least one
    time-unique headline on it, which keeps the testing date range identical
    across the portfolio. Test set: time-unique headlines on retained dates.
    Training set: all headlines on non-retained dates. Headlines that share a
    retained date but are not time-unique are dropped entirely, so a same-day
    rewrite of a test event can never appear in training. Headlines for
    assets outside the portfolio are ignored.
    """
    if not portfolio:
        raise ValueError("portfolio must be non-empty")
    scoped = [h for h in headlines if h.asset in portfolio]
    buckets = [(h.asset, h.date, h.time.hour, h.time.minute // 30) for h in scoped]
    counts = Counter(buckets)

    unique = [h for h, bucket in zip(scoped, buckets) if counts[bucket] == 1]
    unique_assets_by_date: dict[dt.date, set[str]] = {}
    for h in unique:
        unique_assets_by_date.setdefault(h.date, set()).add(h.asset)

    retained = {d for d, assets in unique_assets_by_date.items() if assets >= set(portfolio)}
    if not retained:
        raise ValueError(
            "no test dates: no date has a half-hourly unique headline for every "
            "portfolio asset; provide more data or a smaller portfolio"
        )
    test_ids = frozenset(h.id for h in unique if h.date in retained)
    train_ids = frozenset(h.id for h in scoped if h.date not in retained)
    return DatasetSplit(
        train_ids=train_ids, test_ids=test_ids, test_dates=tuple(sorted(retained))
    )


# --- synthetic corpus ----------------------------------------------------

_BULLISH_PHRASES = (
    "shares surge record profit",
    "earnings beat forecasts strongly",
    "wins major supply contract",
    "raises guidance robust demand",
    "announces buyback dividend boost",
    "posts stellar quarterly growth",
    "upgrade analysts bullish outlook",
    "expands rapidly new markets",
    "revenue jumps customers flock",
    "margin gains cost discipline",
)

_BEARISH_PHRASES = (
    "shares slump weak outlook",
    "earnings miss shrinking sales",
    "loses key customer contract",
    "cuts guidance soft demand",
    "faces probe accounting scandal",
    "posts dismal quarterly slide",
    "downgrade analysts bearish view",
    "retreats struggling core unit",
    "revenue drops churn rises",
    "margin squeeze rising costs",
)

_NEUTRAL_TAILS = (
    "traders react",
    "report says",
    "sources indicate",
    "filing shows",
    "wire update",
    "desk note",
)

# Burst-size distribution for headline arrival: most events are reported by
# more than one outlet inside the same half hour, so most headlines are not
# time-unique and the retained test dates stay a minority of the calendar.
_BURST_SIZES = (1, 2, 3)
_BURST_WEIGHTS = (0.3, 0.4, 0.3)


def _trading_days(start: dt.date, count: int) -> list[dt.date]:
    days: list[dt.date] = []
    d = start
    while len(days) < count:
        if d.weekday() < 5:
            days.append(d)
        d += dt.timedelta(days=1)
    return days


def generate_synthetic(
    seed: int,
    n_assets: int,
    n_days: int,
    headlines_per_day: int,
    signal_strength: float,
) -> tuple[list[HeadlineRecord], list[PriceBar]]:
    """Generate a deterministic corpus with a tunable headline/price link.

    Each asset-day gets a sentiment family (bullish or bearish); all of that
    day's headlines are drawn from the family's phrase pool. The next trading
    day's close-open sign matches the family with probability exactly
    ``signal_strength``: 1.0 gives perfectly predictable labels, 0.5 makes
    labels independent of the text, and 0.0 inverts the relationship.
    Headlines arrive in bursts sharing one half-hour bucket, so only a
    fraction of them are time-unique.
    """
    if min(n_assets, n_days, headlines_per_day) < 1:
        raise ValueError("n_assets, n_days and headlines_per_day must all be >= 1")
    if not 0.0 <= signal_strength <= 1.0:
        raise ValueError("signal_strength must lie in [0, 1]")

    rng_family = np.random.default_rng(derive_seed(seed, "synthetic-family"))
    rng_agree = np.random.default_rng(derive_seed(seed, "synthetic-agreement"))
    rng_ret = np.random.default_rng(derive_seed(seed, "synthetic-returns"))
    rng_time = np.random.default_rng(derive_seed(seed, "synthetic-times"))
    rng_text = np.random.default_rng(derive_seed(seed, "synthetic-text"))
    rng_price = np.random.default_rng(derive_seed(seed, "synthetic-prices"))

    assets = [f"SYN{i}" for i in range(n_assets)]
    days = _trading_days(dt.date(2015, 1, 5), n_days + 1)
    headline_days = days[:n_days]

    # Day d's family drives the sign of bar d+1; bar 0 is unconditioned
    # noise. Signs are an exactly balanced shuffled array per asset and the
    # family/sign agreement holds with exact frequency signal_strength, so
    # label balance and agreement rate carry no sampling noise.
    signs = np.empty((n_assets, n_days))
    agree = np.empty((n_assets, n_days), dtype=bool)
    for ai in range(n_assets):
        sign_row = np.array([1.0] * ((n_days + 1) // 2) + [-1.0] * (n_days // 2))
        rng_family.shuffle(sign_row)
        signs[ai] = sign_row
        n_agree = int(round(signal_strength * n_days))
        agree_row = np.array([True] * n_agree + [False] * (n_days - n_agree))
        rng_agree.shuffle(agree_row)
        agree[ai] = agree_row
    family_bullish = np.where(agree, signs > 0, signs < 0)
    magnitudes = rng_ret.uniform(0.001, 0.03, size=(n_assets, n_days + 1))

    prices: list[PriceBar] = []
    for ai, asset in enumerate(assets):
        open_price = float(rng_price.uniform(20.0, 200.0))
        for di, day in enumerate(days):
            if di == 0:
                direction = 1.0 if rng_price.random() < 0.5 else -1.0
            else:
                direction = signs[ai, di - 1]
            ret = direction * magnitudes[ai, di]
            close_price = open_price * (1.0 + ret)
            prices.append(PriceBar(asset=asset, date=day, open=open_price, close=close_price))
            gap = float(rng_price.uniform(-0.002, 0.002))
            open_price = close_price * (1.0 + gap)

    buckets = [(h, mm) for h in range(9, 16) for mm in (0, 30)]
    raw: list[tuple[dt.date, dt.time, str, str]] = []
    for ai, asset in enumerate(assets):
        name = asset.lower()
        for di, day in enumerate(headline_days):
            phrases = _BULLISH_PHRASES if family_bullish[ai, di] else _BEARISH_PHRASES
            remaining = headlines_per_day
            while remaining > 0:
                size = min(int(rng_time.choice(_BURST_SIZES, p=_BURST_WEIGHTS)), remaining)
                hour, base_minute = buckets[int(rng_time.integers(len(buckets)))]
                minutes = rng_time.choice(30, size=size, replace=False)
                for minute in sorted(int(x) for x in minutes):
                    phrase = phrases[int(rng_text.integers(len(phrases)))]
                    text = f"{name} {phrase}"
                    if rng_text.random() < 0.5:
                        text += f" {_NEUTRAL_TAILS[int(rng_text.integers(len(_NEUTRAL_TAILS)))]}"
                    raw.append((day, dt.time(hour, base_minute + minute), asset, text))
                remaining -= size

    raw.sort(key=lambda item: (item[0], item[1], item[2], item[3]))
    headlines = [
        HeadlineRecord(id=i, asset=asset, date=day, time=t, text=text, relevance=1.0)
        for i, (day, t, asset, text) in enumerate(raw)
    ]
    return headlines, prices
