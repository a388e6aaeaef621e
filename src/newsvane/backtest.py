"""Trading simulation on day-averaged model predictions.

For every (asset, date) in the test range the per-headline model outputs are
averaged into a single day prediction. A strategy turns that prediction into
a buy / no-action decision; each buy purchases the asset at the next trading
day's open and sells at its close. Capital is fully deployed every trading
day and split equally across that day's buys, and day returns compound
multiplicatively across the simulation.

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
from itertools import chain, repeat
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .allocation import collector_paused
from .corpus import PriceBar, PriceIndex
from .fileio import csv_text, write_text_atomic

BUY = "buy"
NO_ACTION = "no_action"

# index of the 'buy' class in the 3-way head's probability vector
BUY_CLASS = 2


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
            "trades": [
                {
                    "asset": t.asset,
                    "trade_date": t.trade_date.isoformat(),
                    "entry": t.entry,
                    "exit": t.exit,
                    "return_frac": t.return_frac,
                }
                for t in self.trades
            ],
        }


@collector_paused
def aggregate_daily(
    predictions: Sequence[tuple[int, str, dt.date, float | np.ndarray | Sequence[float]]],
) -> list[DayPrediction]:
    """Average per-headline outputs into one prediction per (asset, date).

    Input rows are (headline_id, asset, date, output) where the output is a
    scalar sigmoid probability or a length-3 probability vector; mixing the
    two kinds is an error. Results are sorted by (date, asset). The rows are
    grouped by one stable sort, so each day keeps its outputs in input order,
    and ``_day_means`` averages them with the bits of ``np.mean`` over the day
    (``mean(axis=0)`` for class vectors).
    """
    if not predictions:
        raise ValueError("no predictions to aggregate")
    _, assets, dates, outputs = zip(*predictions)
    kinds = set(map(_is_scalar_output, outputs))
    if len(kinds) > 1:
        raise ValueError("cannot mix scalar and 3-class outputs in one aggregation")
    scalar = kinds.pop()
    if scalar:
        values = np.fromiter(map(float, outputs), np.float64, len(outputs))
    else:
        try:
            values = np.array(outputs, dtype=np.float64)
        except ValueError:  # outputs of different lengths
            values = None
        if values is None or values.ndim != 2 or values.shape[1] != 3:
            raise ValueError("3-class outputs must have length 3")

    day_names, asset_names = sorted(set(dates)), sorted(set(assets))
    day_code = {d: i for i, d in enumerate(day_names)}
    asset_code = {a: i for i, a in enumerate(asset_names)}
    key = (np.fromiter(map(day_code.__getitem__, dates), np.int64, len(dates)) * len(asset_names)
           + np.fromiter(map(asset_code.__getitem__, assets), np.int64, len(assets)))
    order = np.argsort(key, kind="stable")
    key = key[order]
    sizes = _run_sizes(key)
    means = _day_means(values[order], sizes).tolist()
    day_of, asset_of = np.divmod(key[np.cumsum(sizes) - 1], len(asset_names))
    sigma_means, class_means = (means, repeat(None)) if scalar else (repeat(None), map(tuple, means))
    return [
        DayPrediction._make((asset_names[a], day_names[d], k, sigma, classes))
        for d, a, k, sigma, classes in zip(day_of.tolist(), asset_of.tolist(), sizes.tolist(),
                                           sigma_means, class_means)
    ]


def _is_scalar_output(output) -> bool:
    """True for one sigmoid probability, False for a class vector."""
    if isinstance(output, float):  # np.float64 too
        return True
    if isinstance(output, np.ndarray):
        return output.ndim == 0
    return np.isscalar(output) or getattr(output, "shape", None) == ()


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


def buy_scores(day_predictions: Sequence[DayPrediction], binary: bool) -> np.ndarray:
    """The values a buy threshold is compared with: a day buys iff its score exceeds t.

    For the binary head a score is the day-mean sigmoid output. For the 3-way
    head it is the buy-class mean when 'buy' is the strict argmax of the class
    means, else -inf, so no threshold buys it. ``binary`` names the head the
    strategy expects; a prediction from the other head is a ValueError.
    """
    if binary:
        sigma = [dp.sigma_mean for dp in day_predictions]
        if None in sigma:
            raise ValueError("decide_binary needs a sigma_mean prediction")
        return np.array(sigma, dtype=np.float64)
    class_means = [dp.class_means for dp in day_predictions]
    if None in class_means:
        raise ValueError("decide_multiclass needs class_means predictions")
    cm = np.fromiter(chain.from_iterable(class_means), np.float64, 3 * len(class_means))
    cm = cm.reshape(-1, 3)
    buy = cm[:, BUY_CLASS]
    return np.where((buy > cm[:, 0]) & (buy > cm[:, 1]), buy, -np.inf)


def decide_binary(dp: DayPrediction, t: float) -> str:
    """Buy iff the day-mean sigmoid output strictly exceeds the threshold."""
    return BUY if buy_scores([dp], binary=True)[0] > t else NO_ACTION


def decide_multiclass(dp: DayPrediction, t: float) -> str:
    """Buy iff 'buy' is the unique argmax of the class means and exceeds t.

    An argmax tie is treated as no-action: without a strictly dominant buy
    probability the day's evidence is ambiguous.
    """
    return BUY if buy_scores([dp], binary=False)[0] > t else NO_ACTION


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
        buys = []
        for asset, date, action in decisions:
            if action == BUY:
                buys.append((asset, date))
            elif action != NO_ACTION:
                raise ValueError(f"unknown action {action!r} for ({asset}, {date}): "
                                 f"expected {BUY!r} or {NO_ACTION!r}")
        return cls.resolve(buys, index)[0]

    @classmethod
    def resolve(cls, buys: Sequence[tuple[str, dt.date]],
                index: PriceIndex) -> tuple[_TradeBook, np.ndarray]:
        """The book of ``buys`` (asset, decision date) and, per trade, the
        position of its buy in ``buys``.

        Each buy trades on its asset's first bar after the decision date, found
        for every buy by one ``PriceIndex.next_positions`` call. Trades are
        sorted by (trade date, asset), stably, so ties keep the order of
        ``buys``: within a day the index positions already sort by asset. A
        buy with no later bar is a ValueError that lists every such buy.
        """
        positions = index.next_positions([asset for asset, _ in buys], [date for _, date in buys])
        if len(positions) and positions.min() < 0:
            missing = sorted(buy for buy, pos in zip(buys, positions.tolist()) if pos < 0)
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
    decisions: Sequence[tuple[str, dt.date, str]] | _TradeBook,
    prices: Sequence[PriceBar] | PriceIndex,
) -> BacktestReport:
    """Execute buy decisions and compound the daily returns.

    Each buy is filled at the open and closed at the close of the first
    trading day after the decision date. Same-day buys split capital
    equally, so the day's return is the mean of its trade returns; days
    compound in date order. An empty decision list yields a zero report,
    and an action other than ``BUY`` or ``NO_ACTION`` is a ValueError.
    ``prices`` is best the ``PriceIndex`` that ``load_prices`` returns; a
    list of bars is indexed on each call. ``threshold_sweep`` passes a
    resolved trade book as ``decisions``, which is reported as it is.
    """
    return _report(_TradeBook.of(decisions, PriceIndex.of(prices)))


@dataclass(frozen=True)
class SweepRow:
    t: float
    pp_pct: float
    atp_pct: float
    total_return_pct: float
    n_trades: int


@collector_paused
def threshold_sweep(
    day_predictions: Sequence[DayPrediction],
    prices: Sequence[PriceBar] | PriceIndex,
    t_grid: Sequence[float],
) -> list[SweepRow]:
    """One ``SweepRow`` per threshold in ``t_grid``, for the head of the predictions.

    Each day prediction is scored once (see ``buy_scores``), and the buys at
    the lowest threshold are resolved into one trade book: every later
    threshold buys a subset of them, so a missing next bar raises here as it
    would at the first threshold. Each threshold then calls ``simulate`` on
    the book's trades whose score exceeds it, which are the trades the
    ``decide_*`` rule would make; no ``Trade`` is built. A threshold that is
    not finite is a ValueError.
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
    score = buy_scores(day_predictions, binary=day_predictions[0].sigma_mean is not None)
    index = PriceIndex.of(prices)
    first = np.flatnonzero(score > t_grid[0])
    book, order = _TradeBook.resolve(
        [(dp.asset, dp.date) for dp in map(day_predictions.__getitem__, first.tolist())], index)
    score = score[first][order]  # in book order
    rows: list[SweepRow] = []
    for t in t_grid:
        report = simulate(book.where(score > t), index)
        rows.append(
            SweepRow(
                t=float(t), pp_pct=report.pp_pct, atp_pct=report.atp_pct,
                total_return_pct=report.total_return_pct, n_trades=report.n_trades,
            )
        )
    return rows


def default_threshold_grid(head_binary: bool, step: float = 0.01) -> list[float]:
    """Threshold grids used by the sweeps: [0.5, 0.9] binary, [0.33, 0.9] 3-way."""
    if not step > 0:
        raise ValueError(f"threshold grid step must be > 0, got {step!r}")
    start = 0.5 if head_binary else 0.33
    count = int(round((0.9 - start) / step))
    return [round(start + i * step, 10) for i in range(count + 1)]


def sweep_csv(rows: Sequence[SweepRow]) -> str:
    return csv_text(["t", "pp", "atp", "total_return", "n_trades"], (
        [repr(r.t), repr(r.pp_pct), repr(r.atp_pct), repr(r.total_return_pct), r.n_trades]
        for r in rows
    ))


def write_sweep_csv(rows: Sequence[SweepRow], path: str | Path) -> None:
    write_text_atomic(path, sweep_csv(rows))
