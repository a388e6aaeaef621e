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
"""

from __future__ import annotations

import datetime as dt
import math
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .corpus import PriceBar, PriceIndex
from .fileio import csv_text, write_json_atomic, write_text_atomic

BUY = "buy"
NO_ACTION = "no_action"

# index of the 'buy' class in the 3-way head's probability vector
BUY_CLASS = 2


@dataclass(frozen=True)
class DayPrediction:
    """Mean model output over one asset's headlines on one day.

    Exactly one of ``sigma_mean`` (binary head) and ``class_means``
    (3-way head) is set.
    """

    asset: str
    date: dt.date
    n_headlines: int
    sigma_mean: float | None = None
    class_means: tuple[float, float, float] | None = None

    def __post_init__(self) -> None:
        if (self.sigma_mean is None) == (self.class_means is None):
            raise ValueError("exactly one of sigma_mean / class_means must be set")
        if self.n_headlines < 1:
            raise ValueError("n_headlines must be >= 1")


class Trade(NamedTuple):
    asset: str
    trade_date: dt.date
    entry: float
    exit: float

    @property
    def return_frac(self) -> float:
        return (self.exit - self.entry) / self.entry


_BY_DATE_THEN_ASSET = operator.attrgetter("trade_date", "asset")


@dataclass(frozen=True)
class BacktestReport:
    trades: tuple[Trade, ...]
    n_trades: int
    total_return_pct: float
    pp_pct: float
    atp_pct: float
    max_single_day_loss_pct: float
    avg_correct_buy_return_pct: float

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


def aggregate_daily(
    predictions: Sequence[tuple[int, str, dt.date, float | np.ndarray | Sequence[float]]],
) -> list[DayPrediction]:
    """Average per-headline outputs into one prediction per (asset, date).

    Input rows are (headline_id, asset, date, output) where the output is a
    scalar sigmoid probability or a length-3 probability vector; mixing the
    two kinds is an error. Results are sorted by (date, asset). A day's
    sigmoid outputs are averaged by ``_day_mean`` and its class vectors by
    one ``mean(axis=0)``, which give the bits of ``np.mean`` over the day.
    """
    if not predictions:
        raise ValueError("no predictions to aggregate")
    groups: dict[tuple[dt.date, str], list] = {}
    scalar: bool | None = None
    for _, asset, date, output in predictions:
        kind = _is_scalar_output(output)
        if kind is not scalar:
            if scalar is not None:
                raise ValueError("cannot mix scalar and 3-class outputs in one aggregation")
            scalar = kind
        groups.setdefault((date, asset), []).append(output)

    out: list[DayPrediction] = []
    for (date, asset), outputs in sorted(groups.items()):
        if scalar:
            out.append(
                DayPrediction(
                    asset=asset, date=date, n_headlines=len(outputs),
                    sigma_mean=_day_mean([float(o) for o in outputs]),
                )
            )
        else:
            try:
                arr = np.array(outputs, dtype=np.float64)
            except ValueError:  # outputs of different lengths
                arr = None
            if arr is None or arr.ndim != 2 or arr.shape[1] != 3:
                raise ValueError("3-class outputs must have length 3")
            mean = arr.mean(axis=0)
            out.append(
                DayPrediction(
                    asset=asset, date=date, n_headlines=len(outputs),
                    class_means=(float(mean[0]), float(mean[1]), float(mean[2])),
                )
            )
    return out


def _is_scalar_output(output) -> bool:
    """True for one sigmoid probability, False for a class vector."""
    if isinstance(output, float):  # np.float64 too
        return True
    if isinstance(output, np.ndarray):
        return output.ndim == 0
    return np.isscalar(output) or getattr(output, "shape", None) == ()


def _buy_score(dp: DayPrediction, binary: bool) -> float:
    """The value a buy threshold is compared with: a buy iff it exceeds t.

    For the binary head it is the day-mean sigmoid output. For the 3-way head
    it is the buy-class mean when 'buy' is the strict argmax of the class
    means, else -inf, so no threshold buys it. ``binary`` names the head the
    strategy expects; a prediction from the other head is a ValueError.
    """
    if binary:
        if dp.sigma_mean is None:
            raise ValueError("decide_binary needs a sigma_mean prediction")
        return dp.sigma_mean
    if dp.class_means is None:
        raise ValueError("decide_multiclass needs class_means predictions")
    means = dp.class_means
    buy_mean = means[BUY_CLASS]
    strictly_max = all(buy_mean > means[i] for i in range(3) if i != BUY_CLASS)
    return buy_mean if strictly_max else -math.inf


def decide_binary(dp: DayPrediction, t: float) -> str:
    """Buy iff the day-mean sigmoid output strictly exceeds the threshold."""
    return BUY if _buy_score(dp, binary=True) > t else NO_ACTION


def decide_multiclass(dp: DayPrediction, t: float) -> str:
    """Buy iff 'buy' is the unique argmax of the class means and exceeds t.

    An argmax tie is treated as no-action: without a strictly dominant buy
    probability the day's evidence is ambiguous.
    """
    return BUY if _buy_score(dp, binary=False) > t else NO_ACTION


def _day_mean(returns: list[float]) -> float:
    """``float(np.mean(returns))``, without building an array for small days.

    NumPy's pairwise summation adds fewer than 8 float64 values one after
    another, starting from 0.0, so this loop gives the same bits for them.
    It is a loop, not the builtin ``sum``: from Python 3.12 ``sum`` compensates
    float rounding and would differ.
    """
    k = len(returns)
    if k > 7:
        return float(np.mean(returns))
    total = 0.0
    for r in returns:
        total += r
    return total / k


def simulate(
    decisions: Sequence[tuple[str, dt.date, str]], prices: Sequence[PriceBar] | PriceIndex
) -> BacktestReport:
    """Execute buy decisions and compound the daily returns.

    Each buy is filled at the open and closed at the close of the first
    trading day after the decision date. Same-day buys split capital
    equally, so the day's return is the mean of its trade returns; days
    compound in date order. An empty decision list yields a zero report.
    ``prices`` may be a prebuilt ``PriceIndex``, as ``threshold_sweep`` passes.
    """
    index = PriceIndex.of(prices)
    next_bar = index.next_bar
    trades: list[Trade] = []
    missing: list[tuple[str, dt.date]] = []
    for asset, date, action in decisions:
        if action != BUY:
            continue
        try:
            bar = next_bar(asset, date)
        except ValueError:
            missing.append((asset, date))
            continue
        trades.append(Trade(asset, bar.date, bar.open, bar.close))
    if missing:
        listed = ", ".join(f"({asset}, {date.isoformat()})" for asset, date in sorted(missing))
        raise ValueError(f"no next-day price bar for: {listed}")

    trades.sort(key=_BY_DATE_THEN_ASSET)
    if not trades:
        return BacktestReport(
            trades=(), n_trades=0, total_return_pct=0.0, pp_pct=0.0, atp_pct=0.0,
            max_single_day_loss_pct=0.0, avg_correct_buy_return_pct=0.0,
        )

    returns = [t.return_frac for t in trades]
    # after the sort, each trading day's trades are one run of the list
    capital = 1.0
    start = 0
    for end in range(1, len(trades) + 1):
        if end == len(trades) or trades[end].trade_date != trades[start].trade_date:
            capital *= 1.0 + _day_mean(returns[start:end])
            start = end

    wins = [r for r in returns if r > 0]
    worst = min(returns)
    return BacktestReport(
        trades=tuple(trades),
        n_trades=len(trades),
        total_return_pct=100.0 * (capital - 1.0),
        pp_pct=100.0 * len(wins) / len(trades),
        atp_pct=100.0 * float(np.mean(returns)),
        max_single_day_loss_pct=100.0 * max(0.0, -worst),
        avg_correct_buy_return_pct=100.0 * float(np.mean(wins)) if wins else 0.0,
    )


@dataclass(frozen=True)
class SweepRow:
    t: float
    pp_pct: float
    atp_pct: float
    total_return_pct: float
    n_trades: int


def threshold_sweep(
    day_predictions: Sequence[DayPrediction],
    prices: Sequence[PriceBar] | PriceIndex,
    t_grid: Sequence[float],
) -> list[SweepRow]:
    """One ``SweepRow`` per threshold in ``t_grid``, for the head of the predictions.

    Each day prediction is scored once (see ``_buy_score``); each threshold
    then calls ``simulate`` on the buys whose score exceeds it, in the order
    of ``day_predictions``, which is what the ``decide_*`` rule would buy.
    """
    if not t_grid:
        raise ValueError("t_grid must be non-empty")
    if sorted(t_grid) != list(t_grid):
        raise ValueError("t_grid must be sorted ascending")
    if not day_predictions:
        raise ValueError("no day predictions to sweep")
    binary = day_predictions[0].sigma_mean is not None
    score = np.array([_buy_score(dp, binary) for dp in day_predictions], dtype=np.float64)
    buys = [(dp.asset, dp.date, BUY) for dp in day_predictions]
    index = PriceIndex.of(prices)
    rows: list[SweepRow] = []
    for t in t_grid:
        decisions = [buys[i] for i in np.flatnonzero(score > t).tolist()]
        report = simulate(decisions, index)
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


def write_report_json(report: BacktestReport, path: str | Path) -> None:
    write_json_atomic(path, report.to_dict())
