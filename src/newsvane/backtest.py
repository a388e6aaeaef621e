"""Trading simulation on day-averaged model predictions.

For every (asset, date) in the test range the per-headline model outputs are
averaged into a single day prediction. A strategy turns that prediction into
a buy / no-action decision; each buy purchases the asset at the next trading
day's open and sells at its close. Capital is fully deployed every trading
day and split equally across that day's buys, and day returns compound
multiplicatively across the simulation.

``aggregate_daily`` returns a ``DayPredictions``, columns that build each
``DayPrediction`` row when it is read; ``buy_scores`` and ``threshold_sweep``
read the columns, so a sweep call builds no per-day tuple or list. Both
score by the predictions' own head, ``DayPredictions.binary``.

Reported metrics: PP (percent profitable, the share of trades with positive
return), ATP (average trade profit, the mean percentage return per trade),
the compounded total return, the worst one-day trade loss, and the average
return of the winning trades.

A report holds its trades as positions into the ``PriceIndex`` they traded
on, so it keeps a reference to that index. ``BacktestReport.trades`` builds
the ``Trade`` tuples from the index's bars each time it is read; a threshold
sweep reads none. Report ``==`` and ``hash`` compare the metrics only, not
the trades.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass, field
from itertools import repeat
from typing import NamedTuple, Sequence

import numpy as np

from .allocation import collector_paused
from .corpus import TRI_BUY, TRI_CLASSES, PriceIndex
from .fileio import csv_text

BUY = "buy"
NO_ACTION = "no_action"

# index of the 'buy' class in the 3-way head's probability vector
BUY_CLASS = TRI_CLASSES.index(TRI_BUY)

# smallest threshold grid step (strategy.sweep_step): a sweep simulates once per
# threshold, so this caps a grid at 5,701 thresholds
MIN_GRID_STEP = 1e-4


_DayFields = NamedTuple("_DayFields", [
    ("asset", str), ("date", dt.date), ("n_headlines", int), ("sigma_mean", float | None),
    ("class_means", tuple[float, float, float] | None)])


class DayPrediction(_DayFields):
    """Mean model output over one asset's headlines on one day, a named tuple.

    Exactly one of ``sigma_mean`` (binary head) and ``class_means``
    (3-way head) is set; construction rejects anything else, and
    ``_make`` and ``_replace`` skip that check.
    """

    __slots__ = ()

    def __new__(cls, asset: str, date: dt.date, n_headlines: int,
                sigma_mean: float | None = None,
                class_means: tuple[float, float, float] | None = None) -> DayPrediction:
        if (sigma_mean is None) == (class_means is None):
            raise ValueError("exactly one of sigma_mean / class_means must be set")
        if n_headlines < 1:
            raise ValueError("n_headlines must be >= 1")
        return _DayFields.__new__(cls, asset, date, n_headlines, sigma_mean, class_means)


@dataclass(frozen=True, eq=False)
class DayPredictions(Sequence[DayPrediction]):
    """An immutable sequence of ``DayPrediction`` rows, held as columns.

    ``asset_names`` holds the rows' assets, sorted. Per row, ``assets`` holds
    the code of its asset in ``asset_names``, ``days`` its date ordinal and
    ``n_headlines`` its headline count (int64), and ``means`` its sigma mean,
    ``(n,)``, or its class means, ``(n, 3)`` (float64). The arrays are
    read-only. ``aggregate_daily`` builds one. Indexing and iteration build
    the rows from the columns on each read; a slice gives a tuple of rows.
    """

    asset_names: tuple[str, ...]
    assets: np.ndarray
    days: np.ndarray
    n_headlines: np.ndarray
    means: np.ndarray

    def __post_init__(self) -> None:
        for column in (self.assets, self.days, self.n_headlines, self.means):
            column.flags.writeable = False

    def __reduce__(self):  # so that a copy's arrays are read-only too
        return type(self), (self.asset_names, self.assets, self.days, self.n_headlines, self.means)

    @property
    def binary(self) -> bool:
        """False for the 3-way head, True for the binary head and for no rows."""
        return self.means.ndim == 1

    def __len__(self) -> int:
        return len(self.means)

    def __getitem__(self, i):  # an IndexError past either end
        rows = self._rows(i if isinstance(i, slice) else [range(len(self))[i]])
        return tuple(rows) if isinstance(i, slice) else rows[0]

    def __iter__(self):
        return iter(self._rows(slice(None)))

    def _rows(self, at) -> list[DayPrediction]:
        """The rows at ``at``, positions or a slice that indexes the columns."""
        means = self.means[at].tolist()
        sigma_means, class_means = (
            (means, repeat(None)) if self.binary else (repeat(None), map(tuple, means)))
        return list(map(DayPrediction._make, zip(
            map(self.asset_names.__getitem__, self.assets[at].tolist()),
            map(dt.date.fromordinal, self.days[at].tolist()), self.n_headlines[at].tolist(),
            sigma_means, class_means)))


class Trade(NamedTuple):
    asset: str
    trade_date: dt.date
    entry: float
    exit: float

    @property
    def return_frac(self) -> float:
        return (self.exit - self.entry) / self.entry


@dataclass(frozen=True)
class BacktestReport:
    n_trades: int
    total_return_pct: float
    pp_pct: float
    atp_pct: float
    max_single_day_loss_pct: float
    avg_correct_buy_return_pct: float
    _book: _TradeBook = field(repr=False, compare=False)

    @property
    def trades(self) -> tuple[Trade, ...]:
        """The trades in execution order, built from the price index's bars on each read."""
        book = self._book
        return tuple(map(Trade._make, map(book.index.bars.__getitem__, book.positions.tolist())))

    def to_dict(self) -> dict:
        return {
            "n_trades": self.n_trades,
            "total_return_pct": self.total_return_pct,
            # final/initial reading of the same number, for easy comparison
            # with "capital multiplied by X" style statements
            "final_over_initial_pct": self.total_return_pct + 100.0,
            "pp_pct": self.pp_pct,
            "atp_pct": self.atp_pct,
            "max_single_day_loss_pct": self.max_single_day_loss_pct,
            "avg_correct_buy_return_pct": self.avg_correct_buy_return_pct,
            "trades": [{**t._asdict(), "trade_date": t.trade_date.isoformat(),
                        "return_frac": t.return_frac} for t in self.trades],
        }


@collector_paused
def aggregate_daily(
    predictions: Sequence[tuple[int, str, dt.date, float | np.ndarray | Sequence[float]]],
) -> DayPredictions:
    """Average per-headline outputs into one prediction per (asset, date).

    Input rows are (headline_id, asset, date, output) where the output is a
    finite scalar sigmoid probability or a length-3 vector of finite class
    probabilities; mixing the two kinds, or any other output, is an error.
    Results are sorted by (date, asset), and their columns are the codes and
    means computed here. The rows are grouped by one stable sort, so each day
    keeps its outputs in input order, and ``_day_means`` averages them with
    the bits of ``np.mean`` over the day (``mean(axis=0)`` for class vectors).
    """
    if not predictions:
        raise ValueError("no predictions to aggregate")
    _, assets, dates, outputs = zip(*predictions)
    try:
        values = np.array(outputs, dtype=np.float64)
    except ValueError:  # a mix of kinds, or vectors of different lengths
        values = None
    if (values is None or values.shape not in ((len(outputs),), (len(outputs), 3))
            or not np.isfinite(values).all()):
        raise ValueError("each output must be a finite scalar or a finite vector of length 3, "
                         "and the two kinds cannot mix")

    day_names, asset_names = sorted(set(dates)), sorted(set(assets))
    day_code = {d: i for i, d in enumerate(day_names)}
    asset_code = {a: i for i, a in enumerate(asset_names)}
    key = (np.fromiter(map(day_code.__getitem__, dates), np.int64, len(dates)) * len(asset_names)
           + np.fromiter(map(asset_code.__getitem__, assets), np.int64, len(assets)))
    order = np.argsort(key, kind="stable")
    key = key[order]
    sizes = _run_sizes(key)
    means = _day_means(values[order], sizes)
    day_of, asset_of = np.divmod(key[np.cumsum(sizes) - 1], len(asset_names))
    ordinals = np.fromiter(map(dt.date.toordinal, day_names), np.int64, len(day_names))
    return DayPredictions(tuple(asset_names), asset_of, ordinals[day_of], sizes, means)


def _run_sizes(keys: np.ndarray) -> np.ndarray:
    """The lengths of the runs of equal values in a non-empty ``keys``, in order."""
    return np.diff(np.flatnonzero(np.r_[True, keys[1:] != keys[:-1], True]))


def _day_means(values: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The mean of each run of ``values``, the runs ``sizes`` long and in order.

    Each mean has the bits of ``np.mean`` over its run (``axis=0`` for rows).
    NumPy adds rows, and fewer than 8 float64 values, one after another from
    0.0, and so does a weighted ``np.bincount`` within each run. 1-D runs of 8
    or more values, which NumPy sums pairwise, call ``np.mean``.
    """
    run = np.repeat(np.arange(len(sizes)), sizes)
    if values.ndim == 2:
        return np.column_stack(
            [np.bincount(run, column, len(sizes)) for column in values.T]) / sizes[:, None]
    means = np.bincount(run, values, len(sizes)) / sizes
    ends = np.cumsum(sizes)
    for g in np.flatnonzero(sizes > 7).tolist():
        means[g] = np.mean(values[ends[g] - sizes[g]:ends[g]])
    return means


def buy_scores(day_predictions: DayPredictions) -> np.ndarray:
    """The values a buy threshold is compared with: a day buys iff its score exceeds t.

    Scores follow the predictions' head, ``DayPredictions.binary``, read from
    the columns that ``aggregate_daily`` returns. For the binary head a score
    is the day-mean sigmoid output; for the 3-way head it is the buy-class mean
    when 'buy' is the strict argmax of the class means, else -inf.
    """
    return _scores(day_predictions.means)


def _scores(means: np.ndarray) -> np.ndarray:
    """``buy_scores`` of sigma means ``(n,)`` or class means ``(n, 3)``."""
    if means.ndim == 1:
        return means.copy()
    buy = means[:, BUY_CLASS]
    return np.where((buy > means[:, 0]) & (buy > means[:, 1]), buy, -np.inf)


def _wrong_head(call: str, binary: bool) -> ValueError:
    """The error of ``call``, which needs the binary head's predictions iff ``binary``."""
    want = "binary-head day predictions (sigma_mean), not 3-way" if binary else (
        "3-way-head day predictions (class_means), not binary")
    return ValueError(f"{call} needs {want} ones")


def decide_binary(dp: DayPrediction, t: float) -> str:
    """Buy iff the day-mean sigmoid output strictly exceeds the threshold."""
    if dp.sigma_mean is None:
        raise _wrong_head("decide_binary", True)
    return BUY if dp.sigma_mean > t else NO_ACTION


def decide_multiclass(dp: DayPrediction, t: float) -> str:
    """Buy iff 'buy' is the unique argmax of the class means and exceeds t.

    An argmax tie is treated as no-action: without a strictly dominant buy
    probability the day's evidence is ambiguous.
    """
    if dp.class_means is None:
        raise _wrong_head("decide_multiclass", False)
    return BUY if _scores(np.array([dp.class_means], dtype=np.float64))[0] > t else NO_ACTION


class _TradeBook(NamedTuple):
    """Resolved buys in execution order: the positions of their bars in
    ``index.bars`` (int64), their returns (float64) and their trade days as
    day ordinals (int64)."""

    index: PriceIndex
    positions: np.ndarray
    returns: np.ndarray
    days: np.ndarray

    @classmethod
    def of(cls, decisions: Sequence[tuple[str, dt.date, str]] | _TradeBook,
           index: PriceIndex) -> _TradeBook:
        """``decisions`` itself if it is already a book, else the book of its
        buys; an action other than ``BUY`` or ``NO_ACTION`` is a ValueError."""
        if isinstance(decisions, cls):
            return decisions
        assets, days = [], []
        for asset, date, action in decisions:
            if action == BUY:
                assets.append(asset)
                days.append(dt.date.toordinal(date))
            elif action != NO_ACTION:
                raise ValueError(f"unknown action {action!r} for ({asset}, {date}): "
                                 f"expected {BUY!r} or {NO_ACTION!r}")
        return cls.resolve(index, assets, np.arange(len(assets)), np.array(days, dtype=np.int64))[0]

    @classmethod
    def resolve(cls, index: PriceIndex, asset_names: Sequence[str], assets: np.ndarray,
                days: np.ndarray) -> tuple[_TradeBook, np.ndarray]:
        """The book of the buys whose assets are ``asset_names[assets]`` (int64
        codes) and whose decision days are the ordinals ``days``, and, per
        trade, the position of its buy in them.

        Each buy trades on its asset's first bar after the decision day, found
        for every buy by one ``PriceIndex.positions_after`` query. Trades are
        sorted by (trade date, asset), stably, so ties keep the order of the
        buys: within a day the index positions already sort by asset. A buy
        with no later bar is a ValueError that lists every such buy, sorted by
        (asset, date).
        """
        positions = index.positions_after(index.ranks(asset_names)[assets], days)
        if len(positions) and positions.min() < 0:
            late = positions < 0
            missing = sorted(zip(map(asset_names.__getitem__, assets[late].tolist()),
                                 map(dt.date.fromordinal, days[late].tolist())))
            listed = ", ".join(f"({asset}, {date.isoformat()})" for asset, date in missing)
            raise ValueError(f"no next-day price bar for: {listed}")

        days = index.days[positions]
        order = np.lexsort((positions, days))
        positions = positions[order]
        return cls(index, positions, index.returns[positions], days[order]), order

    def where(self, mask: np.ndarray) -> _TradeBook:
        """The trades at the true entries of ``mask``, in book order."""
        return _TradeBook(self.index, self.positions[mask], self.returns[mask], self.days[mask])


def _report(book: _TradeBook) -> BacktestReport:
    """The report of a book's trades: each trading day's return is the mean of
    its trades' returns (``_day_means``), and days compound in date order."""
    returns = book.returns
    if not len(returns):
        return BacktestReport(
            n_trades=0, total_return_pct=0.0, pp_pct=0.0, atp_pct=0.0,
            max_single_day_loss_pct=0.0, avg_correct_buy_return_pct=0.0, _book=book,
        )
    capital = math.prod((1.0 + _day_means(returns, _run_sizes(book.days))).tolist(), start=1.0)
    wins = returns[returns > 0]
    return BacktestReport(
        n_trades=len(returns),
        total_return_pct=100.0 * (capital - 1.0),
        pp_pct=100.0 * len(wins) / len(returns),
        atp_pct=100.0 * float(np.mean(returns)),
        max_single_day_loss_pct=100.0 * max(0.0, -float(returns.min())),
        avg_correct_buy_return_pct=100.0 * float(np.mean(wins)) if len(wins) else 0.0,
        _book=book,
    )


def simulate(
    decisions: Sequence[tuple[str, dt.date, str]] | _TradeBook, prices: PriceIndex
) -> BacktestReport:
    """Execute buy decisions and compound the daily returns.

    Each buy is filled at the open and closed at the close of the first
    trading day after the decision date. Same-day buys split capital
    equally, so the day's return is the mean of its trade returns; days
    compound in date order. An empty decision list yields a zero report,
    and an action other than ``BUY`` or ``NO_ACTION`` is a ValueError.
    ``prices`` is the ``PriceIndex`` that ``load_prices`` or
    ``PriceIndex(bars)`` builds. ``threshold_sweep`` passes a resolved trade
    book as ``decisions``, which is reported as it is.
    """
    return _report(_TradeBook.of(decisions, prices))


@dataclass(frozen=True)
class SweepRow:
    t: float
    pp_pct: float
    atp_pct: float
    total_return_pct: float
    n_trades: int


def threshold_sweep(
    day_predictions: DayPredictions, prices: PriceIndex, t_grid: Sequence[float]
) -> list[SweepRow]:
    """One ``SweepRow`` per threshold in ``t_grid``, for the head of the predictions.

    ``day_predictions`` is what ``aggregate_daily`` returns and ``prices`` the
    ``PriceIndex`` that ``load_prices`` or ``PriceIndex(bars)`` builds. Each
    day prediction is scored once from its columns (see ``buy_scores``), and
    the buys at the lowest threshold are resolved into one trade book: every
    later threshold buys a subset of them, so a missing next bar raises here
    as it would at the first threshold. Each threshold then calls
    ``simulate`` on the book's trades whose score exceeds it, which are the
    trades the ``decide_*`` rule would make; no ``Trade`` is built. A
    threshold that is not finite is a ValueError.
    """
    if len(t_grid) == 0:
        raise ValueError("t_grid must be non-empty")
    for t in t_grid:
        if not math.isfinite(t):
            raise ValueError(f"thresholds must be finite, got {float(t)!r}")
    if sorted(t_grid) != list(t_grid):
        raise ValueError("t_grid must be sorted ascending")
    if not day_predictions:
        raise ValueError("no day predictions to sweep")
    score = buy_scores(day_predictions)
    first = np.flatnonzero(score > t_grid[0])
    book, order = _TradeBook.resolve(prices, day_predictions.asset_names,
                                     day_predictions.assets[first], day_predictions.days[first])
    score = score[first][order]  # in book order
    rows = []
    for t in t_grid:
        r = simulate(book.where(score > t), prices)
        rows.append(SweepRow(float(t), r.pp_pct, r.atp_pct, r.total_return_pct, r.n_trades))
    return rows


def default_threshold_grid(head_binary: bool, step: float = 0.01) -> list[float]:
    """Threshold grids used by the sweeps: [0.5, 0.9] binary, [0.33, 0.9] 3-way, never past 0.9."""
    if not step >= MIN_GRID_STEP:
        raise ValueError(f"threshold grid step (strategy.sweep_step) must be >= {MIN_GRID_STEP}, "
                         f"got {step!r}")
    start = 0.5 if head_binary else 0.33
    # rounded down; the tolerance keeps (0.9 - 0.33) / 0.01 = 56.999... at 57
    count = math.floor((0.9 - start) / step + 1e-9)
    return [round(start + i * step, 10) for i in range(count + 1)]


def sweep_csv(rows: Sequence[SweepRow]) -> str:
    return csv_text(["t", "pp", "atp", "total_return", "n_trades"], (
        [repr(r.t), repr(r.pp_pct), repr(r.atp_pct), repr(r.total_return_pct), r.n_trades]
        for r in rows
    ))
