"""Trading-simulation tests: aggregation, decisions, compounding, sweeps."""

import bisect
import copy
import dataclasses
import datetime as dt
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newsvane import backtest, corpus
from newsvane.backtest import (
    BUY,
    BUY_CLASS,
    NO_ACTION,
    DayPrediction,
    Trade,
    _day_means,
    aggregate_daily,
    buy_scores,
    decide_binary,
    decide_multiclass,
    default_threshold_grid,
    simulate,
    sweep_csv,
    threshold_sweep,
)
from newsvane.corpus import PriceBar, PriceIndex
from newsvane.pipeline import prepare_dataset

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

    def test_day_prediction_checks_its_fields(self):
        for kwargs in (dict(), dict(sigma_mean=0.5, class_means=(0.2, 0.3, 0.5))):
            with pytest.raises(ValueError, match="exactly one of sigma_mean / class_means"):
                DayPrediction(asset="A", date=D0, n_headlines=1, **kwargs)
        with pytest.raises(ValueError, match="n_headlines must be >= 1"):
            DayPrediction("A", D0, 0, 0.5)
        dp = DayPrediction("A", D0, 2, class_means=(0.2, 0.3, 0.5))
        assert dp == ("A", D0, 2, None, (0.2, 0.3, 0.5))
        assert list(aggregate_daily([(0, "A", D0, 0.25), (1, "A", D0, 0.75)])) == [
            DayPrediction(asset="A", date=D0, n_headlines=2, sigma_mean=0.5)]


def _column_bits(day_predictions):
    """``_day_bits`` of the rows that the columns of ``day_predictions`` spell."""
    dps = day_predictions
    return [(dps.asset_names[a], dt.date.fromordinal(d), k,
             mean.hex() if dps.binary else None,
             None if dps.binary else tuple(v.hex() for v in mean))
            for a, d, k, mean in zip(dps.assets.tolist(), dps.days.tolist(),
                                     dps.n_headlines.tolist(), dps.means.tolist())]


class TestDayPredictions:
    @pytest.mark.parametrize("binary", [True, False], ids=["binary", "multiclass3"])
    def test_the_columns_agree_with_the_rows(self, binary):
        rng = np.random.default_rng(23)
        preds = [(i, f"S{rng.integers(5)}", _day(int(rng.integers(9))),
                  float(rng.random()) if binary else rng.dirichlet((1.0, 1.0, 1.0)))
                 for i in range(400)]
        dps = aggregate_daily(preds)
        rows = list(dps)
        assert dps.binary is binary and len(dps) == len(rows) == 45
        assert dps[3] == rows[3]
        assert _column_bits(dps) == _day_bits(rows)
        assert dps.asset_names == tuple(f"S{i}" for i in range(5))
        assert dps.assets.dtype == dps.days.dtype == dps.n_headlines.dtype == np.int64
        assert dps.means.dtype == np.float64
        assert dps.means.shape == ((45,) if binary else (45, 3))
        # days reach both paths of ``_day_means``
        assert min(dps.n_headlines) < 8 <= max(dps.n_headlines)

    @pytest.mark.parametrize("binary", [True, False], ids=["binary", "multiclass3"])
    def test_rows_are_built_from_the_columns_on_each_read(self, binary):
        rng = np.random.default_rng(29)
        preds = [(i, f"S{rng.integers(3)}", _day(int(rng.integers(4))),
                  float(rng.random()) if binary else rng.dirichlet((1.0, 1.0, 1.0)))
                 for i in range(60)]
        dps = aggregate_daily(preds)
        rows = list(dps)
        n = len(rows)
        assert _day_bits(rows) == _day_bits(_former_aggregate_daily(preds))
        assert dps[-1] == rows[-1] and dps[-n] == rows[0] and dps[np.int64(2)] == rows[2]
        assert dps[1:5] == tuple(rows[1:5]) and dps[::-3] == tuple(rows[::-3])
        assert dps[n:] == () and dps[:] == tuple(rows)
        assert list(reversed(dps)) == rows[::-1]
        assert dps[0] is not dps[0]  # a new row on each read
        for past in (n, -n - 1):
            with pytest.raises(IndexError):
                dps[past]
        for copied in (copy.deepcopy(dps), pickle.loads(pickle.dumps(dps))):
            assert list(copied) == rows and _day_bits(copied) == _day_bits(rows)
        row = dps[0]
        assert type(row) is DayPrediction and type(row.date) is dt.date
        assert type(row.n_headlines) is int
        assert type(row.sigma_mean if binary else row.class_means[0]) is float

    def test_neither_the_sequence_nor_its_columns_can_be_changed(self):
        for made in (aggregate_daily([(0, "A", D0, 0.25), (1, "B", D0, 0.75)]),
                     aggregate_daily([(0, "A", D0, np.array([0.2, 0.3, 0.5])),
                                      (1, "B", D0, np.array([0.6, 0.3, 0.1]))])):
            for dps in (made, copy.deepcopy(made), pickle.loads(pickle.dumps(made))):
                assert list(dps) == list(made)
                for column in (dps.assets, dps.days, dps.n_headlines, dps.means):
                    with pytest.raises(ValueError, match="read-only"):
                        column[0] = 0
                with pytest.raises(TypeError):
                    dps[0] = dps[1]
                with pytest.raises(dataclasses.FrozenInstanceError):
                    dps.means = np.zeros(2)


def _former_aggregate_daily(predictions):
    """``aggregate_daily`` as it was before its per-row fast paths."""
    if not predictions:
        raise ValueError("no predictions to aggregate")
    groups, kinds = {}, set()
    for _, asset, date, output in predictions:
        kinds.add(np.isscalar(output) or getattr(output, "shape", None) == ())
        if len(kinds) > 1:
            raise ValueError("cannot mix scalar and 3-class outputs in one aggregation")
        groups.setdefault((date, asset), []).append(output)
    scalar = kinds.pop()
    out = []
    for (date, asset), outputs in sorted(groups.items()):
        if scalar:
            out.append(DayPrediction(asset=asset, date=date, n_headlines=len(outputs),
                                     sigma_mean=float(np.mean([float(o) for o in outputs]))))
        else:
            arr = np.asarray([np.asarray(o, dtype=np.float64) for o in outputs])
            if arr.shape[1] != 3:
                raise ValueError("3-class outputs must have length 3")
            mean = arr.mean(axis=0)
            out.append(DayPrediction(asset=asset, date=date, n_headlines=len(outputs),
                                     class_means=(float(mean[0]), float(mean[1]), float(mean[2]))))
    return out


def _day_bits(days):
    return [(dp.asset, dp.date, dp.n_headlines,
             None if dp.sigma_mean is None else dp.sigma_mean.hex(),
             None if dp.class_means is None else tuple(v.hex() for v in dp.class_means))
            for dp in days]


_SCALAR_FORMS = (float, np.float64, np.float32, lambda v: np.array(v), lambda v: np.array([v])[0])
_VECTOR_FORMS = (lambda v: np.array(v), lambda v: np.array(v, dtype=np.float32), list, tuple)


class TestAggregateDailyExactness:
    """Bit-for-bit equality with the former implementation."""

    @settings(max_examples=150, deadline=None)
    @given(sizes=st.lists(st.integers(1, 12), min_size=1, max_size=8),
           scalar=st.booleans(), form=st.integers(0, 3), seed=st.integers(0, 2**16))
    def test_matches_former_code(self, sizes, scalar, form, seed):
        rng = np.random.default_rng(seed)
        forms = _SCALAR_FORMS if scalar else _VECTOR_FORMS
        rows = []
        for group, size in enumerate(sizes):
            asset, date = "ABC"[group % 3], _day(group // 3)
            for _ in range(size):
                value = rng.random() if scalar else rng.dirichlet(np.ones(3)).tolist()
                # one form per case, or a mix of forms when form == 0
                make = forms[int(rng.integers(len(forms)))] if form == 0 else forms[form]
                rows.append((len(rows), asset, date, make(value)))
        order = rng.permutation(len(rows))
        rows = [rows[i] for i in order]
        assert _day_bits(aggregate_daily(rows)) == _day_bits(_former_aggregate_daily(rows))

    @pytest.mark.parametrize("outputs", [
        [0.5, np.array([0.2, 0.3, 0.5])],
        [np.float64(0.5), [0.2, 0.3, 0.5]],
        [np.array([0.2, 0.3, 0.5]), np.array(0.5)],
        [np.array([0.2, 0.3, 0.5]), np.float32(0.5)],
        [0.5, None],
        [float("nan"), np.array([0.2, 0.3, 0.5])],
        [np.array([0.2, 0.3, 0.5]), np.inf],
    ])
    def test_mixed_kinds_rejected_like_former_code(self, outputs):
        rows = [(i, "A", D0, o) for i, o in enumerate(outputs)]
        for fn in (aggregate_daily, _former_aggregate_daily):
            with pytest.raises(ValueError, match="mix"):
                fn(rows)

    @pytest.mark.parametrize("outputs", [
        [np.array([0.5, 0.5])],
        [np.array([0.2, 0.3, 0.5]), np.array([0.1, 0.2, 0.3, 0.4])],
        [[0.25, 0.25, 0.25, 0.25]],
        [[0.2, None, 0.5, 0.3]],
        [np.array([0.5, np.nan])],
        [np.array([0.2, 0.3, 0.5]), np.array([0.1, np.inf])],
    ])
    def test_wrong_length_rejected_like_former_code(self, outputs):
        rows = [(i, "A", D0, o) for i, o in enumerate(outputs)]
        with pytest.raises(ValueError, match="length 3"):
            aggregate_daily(rows)
        with pytest.raises(ValueError):
            _former_aggregate_daily(rows)

    @pytest.mark.parametrize("outputs", [
        [None],
        [None, None, None],
        [float("nan")],
        [0.25, np.float64("nan")],
        [np.inf],
        [0.5, -np.inf],
        [np.array([0.2, np.nan, 0.5])],
        [[0.2, 0.3, None]],
        [np.array([0.2, 0.3, 0.5]), (np.inf, 0.3, 0.5)],
    ])
    def test_missing_and_non_finite_outputs_rejected(self, outputs):
        """The former code averaged NaN and inf into the day means; a missing
        or non-finite output is now the one output error."""
        rows = [(i, "A", D0, o) for i, o in enumerate(outputs)]
        with pytest.raises(ValueError, match="mix") as raised:
            aggregate_daily(rows)
        assert "length 3" in str(raised.value)

    def test_class_mean_is_the_sequential_row_sum_over_k(self):
        """``mean(axis=0)`` of a (k, 3) array adds the rows one after another
        from 0.0 and divides by k; a NumPy that changes this fails here."""
        rng = np.random.default_rng(13)
        for k in range(1, 41):
            for _ in range(50):
                arr = rng.dirichlet(np.ones(3), size=k)
                total = np.zeros(3)
                for row in arr:
                    total += row
                assert arr.mean(axis=0).tobytes() == (total / k).tobytes()


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
        with pytest.raises(ValueError, match=r"^decide_multiclass needs 3-way-head day "
                                             r"predictions \(class_means\), not binary ones$"):
            decide_multiclass(dp, 0.5)
        # buy_scores takes the head of the predictions, so it has no head to mismatch
        assert buy_scores(aggregate_daily([(0, "A", D0, 0.7)])).tolist() == [0.7]
        dp = DayPrediction(asset="A", date=D0, n_headlines=1, class_means=(0.2, 0.3, 0.5))
        with pytest.raises(ValueError, match=r"^decide_binary needs binary-head day "
                                             r"predictions \(sigma_mean\), not 3-way ones$"):
            decide_binary(dp, 0.5)
        assert buy_scores(aggregate_daily([(0, "A", D0, np.array([0.2, 0.3, 0.5]))])).tolist() == [0.5]
        with pytest.raises(TypeError):
            buy_scores(aggregate_daily([(0, "A", D0, 0.7)]), binary=True)

    @pytest.mark.parametrize("binary", [True, False], ids=["binary", "multiclass3"])
    def test_buy_scores_follow_the_head_of_the_predictions(self, binary):
        """A day's score exceeds t exactly when the ``decide_*`` rule of the
        predictions' own head buys it at t."""
        rng = np.random.default_rng(31)
        preds = [(i, f"S{rng.integers(4)}", _day(int(rng.integers(6))),
                  float(rng.random()) if binary else rng.dirichlet((1.0, 1.0, 1.0)))
                 for i in range(120)]
        preds.append((120, "S9", _day(9), 0.5 if binary else np.array([0.4, 0.2, 0.4])))  # a tie
        dps = aggregate_daily(preds)
        score = buy_scores(dps)
        assert score.shape == (len(dps),) and score.dtype == np.float64
        decide = decide_binary if binary else decide_multiclass
        for t in (0.0, 0.2, 0.33, 0.4, 0.5, 0.7, 0.9):
            assert (score > t).tolist() == [decide(dp, t) == BUY for dp in dps]
        if binary:
            assert score.tolist() == dps.means.tolist()
        else:
            assert score[-1] == -np.inf  # no threshold buys an argmax tie


def _prices_for(returns_by_day):
    """The index of price bars with chosen open->close returns; decision day d trades on d+1."""
    return PriceIndex(PriceBar(asset, _day(day_offset), 100.0, 100.0 * (1.0 + ret))
                      for (asset, day_offset), ret in returns_by_day.items())


class TestSimulate:
    def test_two_sequential_days_compound(self):
        prices = _prices_for({("A", 1): 0.01, ("A", 2): 0.02})
        decisions = [("A", _day(0), BUY), ("A", _day(1), BUY)]
        report = simulate(decisions, prices)
        assert report.total_return_pct == pytest.approx(3.02, abs=1e-10)
        assert report.n_trades == 2
        assert report.pp_pct == 100.0
        assert report.atp_pct == pytest.approx(1.5, abs=1e-10)

    def test_same_day_trades_split_equally(self):
        prices = _prices_for({("A", 1): 0.02, ("B", 1): 0.0})
        decisions = [("A", _day(0), BUY), ("B", _day(0), BUY)]
        report = simulate(decisions, prices)
        assert report.total_return_pct == pytest.approx(1.0, abs=1e-10)
        assert report.pp_pct == 50.0

    def test_no_buys_zero_report(self):
        report = simulate([("A", D0, NO_ACTION)], _prices_for({("A", 1): 0.01}))
        assert report.n_trades == 0
        assert report.total_return_pct == 0.0
        assert report.pp_pct == 0.0
        assert report.atp_pct == 0.0

    def test_empty_decisions_never_error(self):
        report = simulate([], PriceIndex([]))
        assert report.n_trades == 0

    def test_missing_bar_lists_asset_and_date(self):
        with pytest.raises(ValueError) as err:
            simulate([("A", _day(5), BUY)], _prices_for({("A", 1): 0.01}))
        assert "A" in str(err.value) and "2016-06-06" in str(err.value)

    def test_loss_extremes_and_winner_average(self):
        prices = _prices_for({("A", 1): 0.03, ("A", 2): -0.05, ("A", 3): 0.01})
        decisions = [("A", _day(0), BUY), ("A", _day(1), BUY), ("A", _day(2), BUY)]
        report = simulate(decisions, prices)
        assert report.max_single_day_loss_pct == pytest.approx(5.0, abs=1e-9)
        assert report.avg_correct_buy_return_pct == pytest.approx(2.0, abs=1e-9)
        assert report.pp_pct == pytest.approx(100.0 * 2 / 3)

    @pytest.mark.parametrize("action", ["BUY", "Buy ", "Buy", " buy", "", "hold"])
    def test_misspelt_action_rejected(self, action):
        """An action that is neither BUY nor NO_ACTION is an error, not a day
        without a trade; the message names it and its (asset, date)."""
        prices = _prices_for({("A", 1): 0.01, ("B", 1): 0.02})
        decisions = [("A", _day(0), BUY), ("B", _day(0), action)]
        with pytest.raises(ValueError) as err:
            simulate(decisions, prices)
        assert str(err.value) == (
            f"unknown action {action!r} for (B, 2016-06-01): expected 'buy' or 'no_action'")

    def test_report_recomputable_from_trades(self):
        prices = _prices_for({("A", 1): 0.01, ("B", 1): -0.02, ("A", 2): 0.015})
        decisions = [("A", _day(0), BUY), ("B", _day(0), BUY), ("A", _day(1), BUY)]
        report = simulate(decisions, prices)
        returns = [t.return_frac for t in report.trades]
        assert report.atp_pct == pytest.approx(100.0 * np.mean(returns), abs=1e-12)
        assert report.pp_pct == pytest.approx(100.0 * np.mean([r > 0 for r in returns]), abs=1e-12)

    def test_reports_compare_and_hash_by_their_metrics(self):
        """Two reports with equal metrics are equal and hash alike whatever
        their trades; the trades are read from each report's own book."""
        prices = _prices_for({("A", 1): 0.01, ("B", 1): 0.01})
        on_a, on_b = (simulate([(asset, _day(0), BUY)], prices) for asset in ("A", "B"))
        assert on_a == on_b and hash(on_a) == hash(on_b)
        assert [t.asset for t in on_a.trades] == ["A"] and [t.asset for t in on_b.trades] == ["B"]
        assert on_a.to_dict() != on_b.to_dict()


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
    rows = []
    returns_by_day = {}
    for day in range(20):
        for asset in ("A", "B"):
            rows.append((len(rows), asset, _day(day), float(rng.uniform(0.3, 0.95))))
            returns_by_day[(asset, day + 1)] = float(rng.uniform(-0.04, 0.05))
    return aggregate_daily(rows), returns_by_day, _prices_for(returns_by_day)


class TestThresholdSweep:
    def test_baseline_threshold_equals_direct_simulate(self, crafted_fixture):
        day_preds, _, prices = crafted_fixture
        rows = threshold_sweep(day_preds, prices, [0.5])
        decisions = [(dp.asset, dp.date, decide_binary(dp, 0.5)) for dp in day_preds]
        report = simulate(decisions, prices)
        assert rows[0].pp_pct == report.pp_pct
        assert rows[0].atp_pct == report.atp_pct
        assert rows[0].total_return_pct == report.total_return_pct
        assert rows[0].n_trades == report.n_trades

    def test_matches_enumeration_at_every_threshold(self, crafted_fixture):
        day_preds, returns_by_day, prices = crafted_fixture
        grid = default_threshold_grid(head_binary=True)
        rows = threshold_sweep(day_preds, prices, grid)
        for row in rows:
            expected = _enumerate_backtest_binary(day_preds, returns_by_day, row.t)
            assert row.n_trades == expected["n"]
            assert row.pp_pct == pytest.approx(expected["pp"], abs=1e-10)
            assert row.atp_pct == pytest.approx(expected["atp"], abs=1e-10)
            assert row.total_return_pct == pytest.approx(expected["total"], abs=1e-10)

    def test_trade_count_monotone_in_threshold(self, crafted_fixture):
        day_preds, _, prices = crafted_fixture
        rows = threshold_sweep(day_preds, prices, default_threshold_grid(head_binary=True))
        counts = [r.n_trades for r in rows]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_multiclass_monotone(self):
        rng = np.random.default_rng(4)
        outputs = []
        returns_by_day = {}
        for day in range(12):
            outputs.append((day, "A", _day(day), rng.dirichlet(np.ones(3))))
            returns_by_day[("A", day + 1)] = float(rng.uniform(-0.03, 0.03))
        prices = _prices_for(returns_by_day)
        rows = threshold_sweep(aggregate_daily(outputs), prices,
                               default_threshold_grid(head_binary=False))
        counts = [r.n_trades for r in rows]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_numpy_prices_give_the_same_csv(self, crafted_fixture):
        """``np.float64`` prices (as ``generate_synthetic`` makes) once left
        ``np.float64(...)`` reprs in the total-return column."""
        day_preds, _, prices = crafted_fixture
        numpy_prices = PriceIndex(PriceBar(b.asset, b.date, np.float64(b.open), np.float64(b.close))
                                  for b in prices.bars)
        grid = default_threshold_grid(head_binary=True)
        text = sweep_csv(threshold_sweep(day_preds, numpy_prices, grid))
        assert text == sweep_csv(threshold_sweep(day_preds, prices, grid))
        assert "np." not in text

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), np.float64("nan")])
    def test_non_finite_threshold_rejected(self, crafted_fixture, bad):
        """A NaN first threshold would resolve the book at NaN, so every later
        threshold would report no trades without an error."""
        day_preds, _, prices = crafted_fixture
        assert threshold_sweep(day_preds, prices, [0.5])[0].n_trades > 0
        for grid in ([bad, 0.5], [0.5, bad], [bad]):
            with pytest.raises(ValueError) as err:
                threshold_sweep(day_preds, prices, grid)
            assert str(err.value) == f"thresholds must be finite, got {float(bad)!r}"

    def test_numpy_grid_sweeps_like_the_equal_list(self, crafted_fixture):
        day_preds, _, prices = crafted_fixture
        grid = default_threshold_grid(head_binary=True)
        assert (threshold_sweep(day_preds, prices, np.array(grid))
                == threshold_sweep(day_preds, prices, grid))
        for empty in ([], np.array([])):
            with pytest.raises(ValueError, match="^t_grid must be non-empty$"):
                threshold_sweep(day_preds, prices, empty)

    def test_unsorted_grid_rejected(self, crafted_fixture):
        day_preds, _, prices = crafted_fixture
        with pytest.raises(ValueError):
            threshold_sweep(day_preds, prices, [0.9, 0.5])

    # below 1e-4 a grid would simulate up to 400,001 thresholds (1e-6) or more
    @pytest.mark.parametrize("step", [0.0, -0.01, 1e-6, 9.99e-5, float("nan")])
    def test_grid_step_must_be_positive(self, step):
        for head_binary in (True, False):
            with pytest.raises(ValueError, match=r"\(strategy\.sweep_step\) must be >= 0\.0001"):
                default_threshold_grid(head_binary, step=step)

    def test_smallest_grid_step_is_accepted(self):
        assert len(default_threshold_grid(True, step=1e-4)) == 4001
        assert len(default_threshold_grid(False, step=1e-4)) == 5701

    @pytest.mark.parametrize("head_binary, step, grid", [
        (True, 0.07, [0.5, 0.57, 0.64, 0.71, 0.78, 0.85]),
        (False, 0.3, [0.33, 0.63]),
        (True, 0.5, [0.5]),
        (True, 0.01, [round(0.5 + i * 0.01, 10) for i in range(41)]),
        (False, 0.01, [round(0.33 + i * 0.01, 10) for i in range(58)]),
    ])
    def test_grid_ends_at_its_last_threshold_not_past_0_9(self, head_binary, step, grid):
        assert default_threshold_grid(head_binary, step=step) == grid

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_monotonicity_property(self, sigmas):
        day_preds = aggregate_daily([(i, "A", _day(i), s) for i, s in enumerate(sigmas)])
        returns_by_day = {("A", i + 1): 0.01 for i in range(len(sigmas))}
        prices = _prices_for(returns_by_day)
        rows = threshold_sweep(day_preds, prices, [0.2, 0.4, 0.6, 0.8])
        counts = [r.n_trades for r in rows]
        assert all(a >= b for a, b in zip(counts, counts[1:]))


# --- exactness of the sweep against a straightforward reference -----------
#
# The sweep scores each day once and hands ``simulate`` only the buys, and
# ``simulate`` groups trades by day in one pass and averages small days with
# a loop. Both must give the bits of the plain reference below: a decision
# per day at every threshold, a dict of per-day returns, ``np.mean`` for
# every day and its own next-bar search.


@dataclasses.dataclass(frozen=True)
class _RefTrade:
    asset: str
    trade_date: dt.date
    entry: float
    exit: float

    @property
    def return_frac(self) -> float:
        return (self.exit - self.entry) / self.entry


def _ref_decide_binary(dp, t):
    if dp.sigma_mean is None:
        raise ValueError("the binary head needs a sigma_mean prediction")
    return BUY if dp.sigma_mean > t else NO_ACTION


def _ref_decide_multiclass(dp, t):
    if dp.class_means is None:
        raise ValueError("the 3-way head needs class_means predictions")
    means = dp.class_means
    buy_mean = means[BUY_CLASS]
    strictly_max = all(buy_mean > means[i] for i in range(3) if i != BUY_CLASS)
    return BUY if strictly_max and buy_mean > t else NO_ACTION


def _ref_simulate(decisions, bars):
    by_asset = {}
    for bar in sorted(bars, key=lambda b: b.date):
        by_asset.setdefault(bar.asset, []).append(bar)
    trades, missing = [], []
    for asset, date, action in decisions:
        if action != BUY:
            continue
        series = by_asset.get(asset, [])
        pos = bisect.bisect_right([b.date for b in series], date)
        if pos == len(series):
            missing.append((asset, date))
            continue
        bar = series[pos]
        trades.append(_RefTrade(asset=asset, trade_date=bar.date, entry=bar.open, exit=bar.close))
    if missing:
        listed = ", ".join(f"({asset}, {date.isoformat()})" for asset, date in sorted(missing))
        raise ValueError(f"no next-day price bar for: {listed}")
    trades.sort(key=lambda t: (t.trade_date, t.asset))
    if not trades:
        return dict(trades=(), n_trades=0, total_return_pct=0.0, pp_pct=0.0, atp_pct=0.0,
                    max_single_day_loss_pct=0.0, avg_correct_buy_return_pct=0.0)
    by_day = {}
    for t in trades:
        by_day.setdefault(t.trade_date, []).append(t.return_frac)
    capital = 1.0
    for day in sorted(by_day):
        capital *= 1.0 + float(np.mean(by_day[day]))
    returns = [t.return_frac for t in trades]
    wins = [r for r in returns if r > 0]
    return dict(
        trades=tuple(trades), n_trades=len(trades), total_return_pct=100.0 * (capital - 1.0),
        pp_pct=100.0 * len(wins) / len(trades), atp_pct=100.0 * float(np.mean(returns)),
        max_single_day_loss_pct=100.0 * max(0.0, -min(returns)),
        avg_correct_buy_return_pct=100.0 * float(np.mean(wins)) if wins else 0.0,
    )


def _ref_decisions(day_preds, t):
    decide = _ref_decide_binary if day_preds[0].sigma_mean is not None else _ref_decide_multiclass
    return [(dp.asset, dp.date, decide(dp, t)) for dp in day_preds]


def _bits(x):
    """A float as its exact bits (-0.0 differs from 0.0); other values as they are."""
    return x.hex() if isinstance(x, float) else x


def _report_bits(report):
    """Every number of a report, trades included, as bits."""
    get = report.get if isinstance(report, dict) else lambda key: getattr(report, key)
    head = tuple(_bits(get(k)) for k in ("n_trades", "total_return_pct", "pp_pct", "atp_pct",
                                         "max_single_day_loss_pct", "avg_correct_buy_return_pct"))
    return head, tuple((t.asset, t.trade_date, _bits(t.entry), _bits(t.exit), _bits(t.return_frac))
                       for t in get("trades"))


def _ref_row_bits(day_preds, bars, t):
    report = _ref_simulate(_ref_decisions(day_preds, t), bars)
    return tuple(_bits(v) for v in (float(t), report["pp_pct"], report["atp_pct"],
                                    report["total_return_pct"], report["n_trades"]))


def _row_bits(row):
    return tuple(_bits(v) for v in (row.t, row.pp_pct, row.atp_pct, row.total_return_pct,
                                    row.n_trades))


DESK_ASSETS = tuple(f"S{i:02d}" for i in range(12))


def _desk(seed, binary, late=()):
    """Weekday bars for 12 assets over 8 weeks and day predictions on every
    calendar day, weekends included, so Friday to Sunday trade on Monday.

    About 1 in 8 scores equals a grid threshold exactly; the 3-way head also
    gets argmax ties. Trading days hold from 1 to well over 8 trades. The
    predictions come from ``aggregate_daily`` over one output per (asset,
    day), and the (asset, date, output) rows of ``late`` add theirs.
    """
    rng = np.random.default_rng(seed)
    grid = default_threshold_grid(binary)
    calendar = [_day(i) for i in range(56)]
    bars = []
    for d in calendar:
        if d.weekday() < 5:
            for asset in DESK_ASSETS:
                open_ = float(rng.uniform(20.0, 200.0))
                # returns this wide keep a one-ulp change of a day mean in 1 + mean
                bars.append(PriceBar(asset, d, open_, open_ * float(rng.uniform(0.3, 2.5))))
    outputs = []
    for d in calendar[:-3]:  # the last decision day still has a next bar
        for asset in DESK_ASSETS:
            if rng.random() < 0.35:
                continue
            exact = float(grid[rng.integers(len(grid))])
            if binary:
                sigma = exact if rng.random() < 0.125 else float(rng.uniform(0.45, 0.95))
                outputs.append((asset, d, sigma))
                continue
            kind = rng.integers(8)
            if kind == 0:  # buy mean exactly on a threshold, strictly the largest
                means = ((1.0 - exact) / 2, (1.0 - exact) / 2, exact)
            elif kind == 1:  # buy ties with avoid for the argmax
                x = float(rng.uniform(0.34, 0.5))
                means = (x, 1.0 - 2 * x, x)
            elif kind == 2:  # buy ties with inconsequential for the argmax
                x = float(rng.uniform(0.34, 0.5))
                means = (1.0 - 2 * x, x, x)
            else:
                means = rng.dirichlet((1.0, 1.0, 3.0))
            outputs.append((asset, d, np.array(means)))
    return aggregate_daily([(i, *row) for i, row in enumerate([*outputs, *late])]), bars


class TestSweepExactness:
    @pytest.mark.parametrize("binary", [True, False], ids=["binary", "multiclass3"])
    def test_every_threshold_matches_the_reference(self, binary):
        day_preds, bars = _desk(11, binary)
        index = PriceIndex(bars)
        grid = default_threshold_grid(binary)
        rows = threshold_sweep(day_preds, index, grid)
        assert [_row_bits(r) for r in rows] == [_ref_row_bits(day_preds, bars, t) for t in grid]

        decide = decide_binary if binary else decide_multiclass
        sizes, ties_on_t = set(), 0
        for t in grid:
            reference = _ref_simulate(_ref_decisions(day_preds, t), bars)
            direct = simulate([(dp.asset, dp.date, decide(dp, t)) for dp in day_preds], index)
            assert _report_bits(direct) == _report_bits(reference)
            assert [decide(dp, t) for dp in day_preds] == [a for _, _, a in _ref_decisions(day_preds, t)]
            days = [tr.trade_date for tr in reference["trades"]]
            sizes.update(days.count(d) for d in set(days))
            ties_on_t += sum((dp.sigma_mean if binary else dp.class_means[BUY_CLASS]) == t
                             for dp in day_preds)
        # the inputs reach both day-mean paths and scores that equal t
        assert sizes >= set(range(1, 9)) and max(sizes) >= 12
        assert ties_on_t > 0
        # Friday, Saturday and Sunday decisions of one asset trade on the same Monday
        assert any(d.weekday() == 5 for d in (dp.date for dp in day_preds))

    @pytest.mark.parametrize("binary", [True, False], ids=["binary", "multiclass3"])
    def test_missing_next_bar_raises_the_same_error(self, binary):
        last = max(b.date for b in _desk(12, binary)[1])
        strong = 0.97 if binary else np.array([0.01, 0.02, 0.97])
        weak = 0.2 if binary else np.array([0.5, 0.3, 0.2])
        day_preds, bars = _desk(12, binary, late=[("S03", last, strong), ("S01", last, strong),
                                                  ("S05", last, weak)])
        grid = default_threshold_grid(binary)
        with pytest.raises(ValueError) as ref_err:
            _ref_simulate(_ref_decisions(day_preds, grid[0]), bars)
        index = PriceIndex(bars)
        with pytest.raises(ValueError) as err:
            threshold_sweep(day_preds, index, grid)
        assert str(err.value) == str(ref_err.value)
        assert str(err.value) == (f"no next-day price bar for: (S01, {last.isoformat()}), "
                                  f"(S03, {last.isoformat()})")
        for _ in range(2):  # the index does not remember a failed lookup
            with pytest.raises(ValueError) as again:
                threshold_sweep(day_preds, index, grid[-1:])
            assert str(again.value) == str(ref_err.value)

    @pytest.mark.parametrize("binary", [True, False], ids=["binary", "multiclass3"])
    def test_a_buy_of_an_asset_without_bars_is_listed_as_missing(self, binary):
        last = max(b.date for b in _desk(18, binary)[1])
        strong = 0.97 if binary else np.array([0.01, 0.02, 0.97])
        day_preds, bars = _desk(18, binary, late=[("ZZZ", D0, strong), ("S07", last, strong)])
        expected = f"no next-day price bar for: (S07, {last.isoformat()}), (ZZZ, {D0.isoformat()})"
        decisions = _ref_decisions(day_preds, 0.9)
        with pytest.raises(ValueError) as ref_err:
            _ref_simulate(decisions, bars)
        assert str(ref_err.value) == expected
        prices = PriceIndex(bars)
        with pytest.raises(ValueError) as err:
            simulate(decisions, prices)
        assert str(err.value) == expected
        with pytest.raises(ValueError) as err:
            threshold_sweep(day_preds, prices, default_threshold_grid(binary))
        assert str(err.value) == expected

    @pytest.mark.parametrize("binary", [True, False], ids=["binary", "multiclass3"])
    def test_shuffled_decisions_and_bars_give_the_reference_report(self, binary):
        """Trades run in (trade date, asset) order whatever the order of the
        decisions and of the bars."""
        day_preds, bars = _desk(19, binary)
        rng = np.random.default_rng(19)
        index = PriceIndex([bars[i] for i in rng.permutation(len(bars)).tolist()])
        n_trades = []
        for t in default_threshold_grid(binary)[::6]:
            decisions = _ref_decisions(day_preds, t)
            shuffled = [decisions[i] for i in rng.permutation(len(decisions)).tolist()]
            reference = _ref_simulate(shuffled, bars)
            assert _report_bits(simulate(shuffled, index)) == _report_bits(reference)
            assert _report_bits(simulate(shuffled, PriceIndex(bars))) == _report_bits(reference)
            n_trades.append(reference["n_trades"])
        assert min(n_trades[:4]) > 50

    @pytest.mark.parametrize("binary", [True, False], ids=["binary", "multiclass3"])
    def test_grid_slices_give_the_rows_of_one_sweep(self, binary):
        day_preds, bars = _desk(14, binary)
        index = PriceIndex(bars)
        grid = default_threshold_grid(binary)
        whole = [_row_bits(r) for r in threshold_sweep(day_preds, index, grid)]
        assert whole == [_ref_row_bits(day_preds, bars, t) for t in grid]
        for size in (1, 10):
            got = [r for start in range(0, len(grid), size)
                   for r in threshold_sweep(day_preds, index, grid[start:start + size])]
            assert [_row_bits(r) for r in got] == whole, size

    @pytest.mark.parametrize("binary", [True, False], ids=["binary", "multiclass3"])
    def test_a_missing_bar_fails_the_slices_whose_first_threshold_buys_it(self, binary):
        """A slice raises iff its first threshold buys the day with no next bar,
        whichever of its later thresholds would not; the other slices give the
        reference rows."""
        last = max(b.date for b in _desk(15, binary)[1])
        grid = default_threshold_grid(binary)
        score = grid[len(grid) // 2] + 0.005
        late = score if binary else np.array([(1 - score) / 2, (1 - score) / 2, score])
        day_preds, bars = _desk(15, binary, late=[("S02", last, late)])
        index = PriceIndex(bars)
        raised = set()
        for size in (1, 10, len(grid)):
            for start in range(0, len(grid), size):
                part = grid[start:start + size]
                if part[0] < score:
                    with pytest.raises(ValueError) as err:
                        threshold_sweep(day_preds, index, part)
                    assert str(err.value) == f"no next-day price bar for: (S02, {last.isoformat()})"
                    raised.add(size)
                else:
                    rows = threshold_sweep(day_preds, index, part)
                    assert [_row_bits(r) for r in rows] == [
                        _ref_row_bits(day_preds, bars, t) for t in part]
        assert raised == {1, 10, len(grid)}

    def test_one_simulate_call_per_threshold(self, monkeypatch):
        """The benchmark counts ``simulate`` calls and the bars each is handed:
        a sweep makes one call per threshold, each with every price bar."""
        calls = []
        real = backtest.simulate
        monkeypatch.setattr(backtest, "simulate",
                            lambda decisions, prices: calls.append(len(prices))
                            or real(decisions, prices))
        for binary in (True, False):
            day_preds, bars = _desk(16, binary)
            prices = PriceIndex(bars)
            grid = default_threshold_grid(binary)
            for size in (1, 10, len(grid)):
                calls.clear()
                for start in range(0, len(grid), size):
                    threshold_sweep(day_preds, prices, grid[start:start + size])
                assert calls == [len(bars)] * len(grid)

    @pytest.mark.parametrize("binary", [True, False], ids=["binary", "multiclass3"])
    def test_a_sweep_builds_no_trade(self, binary, monkeypatch):
        """A sweep reads counts and returns, so it builds no ``Trade``; a report
        builds its trades when they are read, with the reference's bits."""
        made = []

        class CountingTrade(Trade):
            __slots__ = ()

            def __new__(cls, *args, **kwargs):
                made.append(1)
                return super().__new__(cls, *args, **kwargs)

            @classmethod
            def _make(cls, iterable):
                made.append(1)
                return super()._make(iterable)

        monkeypatch.setattr(backtest, "Trade", CountingTrade)
        day_preds, bars = _desk(17, binary)
        index = PriceIndex(bars)
        grid = default_threshold_grid(binary)
        rows = threshold_sweep(day_preds, index, grid)
        assert made == [] and rows[0].n_trades > 50
        for t in grid[::8]:
            report = simulate(_ref_decisions(day_preds, t), index)
            assert made == []
            reference = _ref_simulate(_ref_decisions(day_preds, t), bars)
            assert _report_bits(report) == _report_bits(reference)
            assert len(made) == reference["n_trades"]
            made.clear()
            text = repr(report)
            assert text.startswith("BacktestReport(n_trades=")
            assert "array" not in text and "Trade" not in text and "Index" not in text

    def test_trade_repr_equality_and_return(self):
        trade = Trade("A", D0, 100.0, 103.0)
        assert repr(trade) == (
            "Trade(asset='A', trade_date=datetime.date(2016, 6, 1), entry=100.0, exit=103.0)")
        assert trade.return_frac == (103.0 - 100.0) / 100.0
        assert trade == Trade(asset="A", trade_date=D0, entry=100.0, exit=103.0)


class TestLoadedPriceIndex:
    """``load_prices`` returns the one index that labelling, ``simulate`` and
    every sweep slice share."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        headlines, bars = corpus.generate_synthetic(
            seed=21, n_assets=2, n_days=90, headlines_per_day=4, signal_strength=0.7)
        out = tmp_path_factory.mktemp("corpus")
        corpus.write_headlines_csv(headlines, out / "headlines.csv")
        corpus.write_prices_csv(bars, out / "prices.csv")
        # the bars as the price file holds them, in file order
        written = [PriceBar(b.asset, b.date, float(f"{b.open:.6f}"), float(f"{b.close:.6f}"))
                   for b in bars]
        return out, written

    @staticmethod
    def _day_predictions(prepared, binary):
        rng = np.random.default_rng(22)
        rows = []
        for s in prepared.train + prepared.test:
            output = float(rng.uniform(0.3, 0.95)) if binary else rng.dirichlet((1.0, 1.0, 2.0))
            rows.append((s.headline_id, s.asset, s.date, output))
        return aggregate_daily(rows)

    def _backtest(self, headlines, prices):
        """Labels, then per head one ``simulate`` at t=0.5 and the sweep in
        10-threshold slices, as the benchmark round calls them."""
        prepared = prepare_dataset(headlines, prices, {"SYN0", "SYN1"}, max_len=None)
        results = [corpus.label_all(headlines, prices)]
        for binary in (True, False):
            day_preds = self._day_predictions(prepared, binary)
            decide = decide_binary if binary else decide_multiclass
            report = simulate([(dp.asset, dp.date, decide(dp, 0.5)) for dp in day_preds], prices)
            grid = default_threshold_grid(binary)
            rows = [_row_bits(r) for start in range(0, len(grid), 10)
                    for r in threshold_sweep(day_preds, prices, grid[start:start + 10])]
            results += [_report_bits(report), rows]
        return results

    def test_one_index_per_round(self, files, monkeypatch):
        out, _ = files
        built = []
        real_init = PriceIndex.__init__
        monkeypatch.setattr(PriceIndex, "__init__",
                            lambda self, prices: built.append(1) or real_init(self, prices))
        headlines = corpus.load_headlines(out / "headlines.csv")
        _, binary_report, _, tri_report, _ = self._backtest(
            headlines, corpus.load_prices(out / "prices.csv"))
        assert binary_report[0][0] > 0 and tri_report[0][0] > 0  # n_trades
        assert len(built) == 1

    def test_the_index_gives_the_results_of_the_bar_list(self, files):
        out, written = files
        headlines = corpus.load_headlines(out / "headlines.csv")
        index = corpus.load_prices(out / "prices.csv")
        assert sorted(index.bars) == sorted(written)
        assert self._backtest(headlines, index) == self._backtest(headlines,
                                                                  PriceIndex(written[::-1]))


class TestDayMean:
    def test_sequential_sum_is_numpys_mean_below_eight_values(self):
        """NumPy adds fewer than 8 float64 values one after another from 0.0;
        ``simulate`` relies on it. A NumPy that changes this fails here."""
        rng = np.random.default_rng(8)
        for k in range(1, 8):
            for _ in range(2000):
                values = rng.normal(0.0, 0.03, size=k).tolist()
                total = 0.0
                for v in values:
                    total += v
                assert (total / k).hex() == float(np.mean(values)).hex(), values

    def test_day_mean_is_numpys_mean_at_every_size(self):
        rng = np.random.default_rng(9)
        for k in range(1, 20):
            for _ in range(300):
                values = rng.normal(0.0, 0.03, size=k).tolist()
                (mean,) = _day_means(np.array(values), np.array([len(values)])).tolist()
                assert mean.hex() == float(np.mean(values)).hex(), values
