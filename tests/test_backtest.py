"""Trading-simulation tests: aggregation, decisions, compounding, sweeps."""

import datetime as dt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newsvane.backtest import (
    BUY,
    NO_ACTION,
    DayPrediction,
    aggregate_daily,
    decide_binary,
    decide_multiclass,
    default_threshold_grid,
    simulate,
    threshold_sweep,
)
from newsvane.corpus import PriceBar

D0 = dt.date(2016, 6, 1)


def _day(offset):
    return D0 + dt.timedelta(days=offset)


class TestAggregateDaily:
    def test_scalar_mean(self):
        preds = [(0, "A", D0, 0.4), (1, "A", D0, 0.8)]
        out = aggregate_daily(preds)
        assert len(out) == 1
        assert out[0].sigma_mean == pytest.approx(0.6)
        assert out[0].n_headlines == 2

    def test_single_headline(self):
        out = aggregate_daily([(0, "A", D0, 0.73)])
        assert out[0].sigma_mean == pytest.approx(0.73)

    def test_class_means(self):
        preds = [
            (0, "A", D0, np.array([0.2, 0.3, 0.5])),
            (1, "A", D0, np.array([0.4, 0.3, 0.3])),
        ]
        out = aggregate_daily(preds)
        assert out[0].class_means == pytest.approx((0.3, 0.3, 0.4))

    def test_mixed_heads_rejected(self):
        preds = [(0, "A", D0, 0.5), (1, "A", D0, np.array([0.2, 0.3, 0.5]))]
        with pytest.raises(ValueError, match="mix"):
            aggregate_daily(preds)

    def test_sorted_by_date_then_asset(self):
        preds = [(0, "B", _day(1), 0.5), (1, "A", _day(1), 0.5), (2, "A", D0, 0.5)]
        out = aggregate_daily(preds)
        assert [(dp.date, dp.asset) for dp in out] == [(D0, "A"), (_day(1), "A"), (_day(1), "B")]


class TestDecisions:
    def test_binary_strict_at_threshold(self):
        dp = DayPrediction(asset="A", date=D0, n_headlines=1, sigma_mean=0.5)
        assert decide_binary(dp, 0.5) == NO_ACTION

    def test_binary_above(self):
        dp = DayPrediction(asset="A", date=D0, n_headlines=1, sigma_mean=0.51)
        assert decide_binary(dp, 0.5) == BUY
        dp = DayPrediction(asset="A", date=D0, n_headlines=1, sigma_mean=0.9)
        assert decide_binary(dp, 0.67) == BUY

    def test_multiclass_buy_wins(self):
        dp = DayPrediction(asset="A", date=D0, n_headlines=1, class_means=(0.2, 0.3, 0.5))
        assert decide_multiclass(dp, 0.45) == BUY

    def test_multiclass_argmax_not_buy(self):
        dp = DayPrediction(asset="A", date=D0, n_headlines=1, class_means=(0.5, 0.1, 0.4))
        assert decide_multiclass(dp, 0.3) == NO_ACTION

    def test_multiclass_threshold_fails(self):
        dp = DayPrediction(asset="A", date=D0, n_headlines=1, class_means=(0.1, 0.2, 0.7))
        assert decide_multiclass(dp, 0.75) == NO_ACTION

    def test_multiclass_tie_is_no_action(self):
        dp = DayPrediction(asset="A", date=D0, n_headlines=1, class_means=(0.4, 0.2, 0.4))
        assert decide_multiclass(dp, 0.1) == NO_ACTION

    def test_wrong_head_rejected(self):
        dp = DayPrediction(asset="A", date=D0, n_headlines=1, sigma_mean=0.7)
        with pytest.raises(ValueError):
            decide_multiclass(dp, 0.5)


def _bars_for(returns_by_day):
    """Price bars with chosen open->close returns; decision day d trades on d+1."""
    bars = []
    for (asset, day_offset), ret in returns_by_day.items():
        bars.append(PriceBar(asset, _day(day_offset), 100.0, 100.0 * (1.0 + ret)))
    return bars


class TestSimulate:
    def test_two_sequential_days_compound(self):
        bars = _bars_for({("A", 1): 0.01, ("A", 2): 0.02})
        decisions = [("A", _day(0), BUY), ("A", _day(1), BUY)]
        report = simulate(decisions, bars)
        assert report.total_return_pct == pytest.approx(3.02, abs=1e-10)
        assert report.n_trades == 2
        assert report.pp_pct == 100.0
        assert report.atp_pct == pytest.approx(1.5, abs=1e-10)

    def test_same_day_trades_split_equally(self):
        bars = _bars_for({("A", 1): 0.02, ("B", 1): 0.0})
        decisions = [("A", _day(0), BUY), ("B", _day(0), BUY)]
        report = simulate(decisions, bars)
        assert report.total_return_pct == pytest.approx(1.0, abs=1e-10)
        assert report.pp_pct == 50.0

    def test_no_buys_zero_report(self):
        report = simulate([("A", D0, NO_ACTION)], _bars_for({("A", 1): 0.01}))
        assert report.n_trades == 0
        assert report.total_return_pct == 0.0
        assert report.pp_pct == 0.0
        assert report.atp_pct == 0.0

    def test_empty_decisions_never_error(self):
        report = simulate([], [])
        assert report.n_trades == 0

    def test_missing_bar_lists_asset_and_date(self):
        with pytest.raises(ValueError) as err:
            simulate([("A", _day(5), BUY)], _bars_for({("A", 1): 0.01}))
        assert "A" in str(err.value) and "2016-06-06" in str(err.value)

    def test_loss_extremes_and_winner_average(self):
        bars = _bars_for({("A", 1): 0.03, ("A", 2): -0.05, ("A", 3): 0.01})
        decisions = [("A", _day(0), BUY), ("A", _day(1), BUY), ("A", _day(2), BUY)]
        report = simulate(decisions, bars)
        assert report.max_single_day_loss_pct == pytest.approx(5.0, abs=1e-9)
        assert report.avg_correct_buy_return_pct == pytest.approx(2.0, abs=1e-9)
        assert report.pp_pct == pytest.approx(100.0 * 2 / 3)

    def test_report_recomputable_from_trades(self):
        bars = _bars_for({("A", 1): 0.01, ("B", 1): -0.02, ("A", 2): 0.015})
        decisions = [("A", _day(0), BUY), ("B", _day(0), BUY), ("A", _day(1), BUY)]
        report = simulate(decisions, bars)
        returns = [t.return_frac for t in report.trades]
        assert report.atp_pct == pytest.approx(100.0 * np.mean(returns), abs=1e-12)
        assert report.pp_pct == pytest.approx(100.0 * np.mean([r > 0 for r in returns]), abs=1e-12)


def _enumerate_backtest_binary(day_preds, returns_by_day, t):
    """Independent oracle: plain-python day-by-day enumeration."""
    trades = []
    for dp in day_preds:
        if dp.sigma_mean > t:
            ret = returns_by_day[(dp.asset, (dp.date - D0).days + 1)]
            trades.append(((dp.date - D0).days + 1, ret))
    if not trades:
        return dict(pp=0.0, atp=0.0, total=0.0, n=0)
    by_day = {}
    for day, ret in trades:
        by_day.setdefault(day, []).append(ret)
    capital = 1.0
    for day in sorted(by_day):
        rets = by_day[day]
        capital *= 1.0 + sum(rets) / len(rets)
    wins = sum(1 for _, r in trades if r > 0)
    atp = 100.0 * sum(r for _, r in trades) / len(trades)
    return dict(
        pp=100.0 * wins / len(trades), atp=atp, total=100.0 * (capital - 1.0), n=len(trades)
    )


@pytest.fixture(scope="module")
def crafted_fixture():
    """20 decision days with known means and returns for exact enumeration."""
    rng = np.random.default_rng(20)
    day_preds = []
    returns_by_day = {}
    for day in range(20):
        for asset in ("A", "B"):
            day_preds.append(
                DayPrediction(
                    asset=asset, date=_day(day), n_headlines=1,
                    sigma_mean=float(rng.uniform(0.3, 0.95)),
                )
            )
            returns_by_day[(asset, day + 1)] = float(rng.uniform(-0.04, 0.05))
    bars = _bars_for(returns_by_day)
    return day_preds, returns_by_day, bars


class TestThresholdSweep:
    def test_baseline_threshold_equals_direct_simulate(self, crafted_fixture):
        day_preds, _, bars = crafted_fixture
        rows = threshold_sweep(day_preds, bars, [0.5])
        decisions = [(dp.asset, dp.date, decide_binary(dp, 0.5)) for dp in day_preds]
        report = simulate(decisions, bars)
        assert rows[0].pp_pct == report.pp_pct
        assert rows[0].atp_pct == report.atp_pct
        assert rows[0].total_return_pct == report.total_return_pct
        assert rows[0].n_trades == report.n_trades

    def test_matches_enumeration_at_every_threshold(self, crafted_fixture):
        day_preds, returns_by_day, bars = crafted_fixture
        grid = default_threshold_grid(head_binary=True)
        rows = threshold_sweep(day_preds, bars, grid)
        for row in rows:
            expected = _enumerate_backtest_binary(day_preds, returns_by_day, row.t)
            assert row.n_trades == expected["n"]
            assert row.pp_pct == pytest.approx(expected["pp"], abs=1e-10)
            assert row.atp_pct == pytest.approx(expected["atp"], abs=1e-10)
            assert row.total_return_pct == pytest.approx(expected["total"], abs=1e-10)

    def test_trade_count_monotone_in_threshold(self, crafted_fixture):
        day_preds, _, bars = crafted_fixture
        rows = threshold_sweep(day_preds, bars, default_threshold_grid(head_binary=True))
        counts = [r.n_trades for r in rows]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_multiclass_monotone(self):
        rng = np.random.default_rng(4)
        day_preds = []
        returns_by_day = {}
        for day in range(12):
            probs = rng.dirichlet(np.ones(3))
            day_preds.append(
                DayPrediction(asset="A", date=_day(day), n_headlines=1,
                              class_means=tuple(float(x) for x in probs))
            )
            returns_by_day[("A", day + 1)] = float(rng.uniform(-0.03, 0.03))
        bars = _bars_for(returns_by_day)
        rows = threshold_sweep(day_preds, bars, default_threshold_grid(head_binary=False))
        counts = [r.n_trades for r in rows]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_unsorted_grid_rejected(self, crafted_fixture):
        day_preds, _, bars = crafted_fixture
        with pytest.raises(ValueError):
            threshold_sweep(day_preds, bars, [0.9, 0.5])

    @pytest.mark.parametrize("step", [0.0, -0.01])
    def test_grid_step_must_be_positive(self, step):
        for head_binary in (True, False):
            with pytest.raises(ValueError, match="step must be > 0"):
                default_threshold_grid(head_binary, step=step)

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_monotonicity_property(self, sigmas):
        day_preds = [
            DayPrediction(asset="A", date=_day(i), n_headlines=1, sigma_mean=s)
            for i, s in enumerate(sigmas)
        ]
        returns_by_day = {("A", i + 1): 0.01 for i in range(len(sigmas))}
        bars = _bars_for(returns_by_day)
        rows = threshold_sweep(day_preds, bars, [0.2, 0.4, 0.6, 0.8])
        counts = [r.n_trades for r in rows]
        assert all(a >= b for a, b in zip(counts, counts[1:]))
