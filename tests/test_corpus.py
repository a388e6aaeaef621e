"""Ingestion, labeling, split and synthetic-corpus tests."""

import datetime as dt
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newsvane import corpus
from newsvane.corpus import (
    HeadlineRecord,
    PriceBar,
    PriceIndex,
    generate_synthetic,
    label_all,
    load_headlines,
    load_prices,
    split_half_hourly_unique,
    write_headlines_csv,
    write_prices_csv,
)


def _headline(hid, asset, date, time, text="syn0 shares rally", relevance=1.0):
    return HeadlineRecord(id=hid, asset=asset, date=date, time=time, text=text, relevance=relevance)


HEADLINE_CSV = """id,asset,date,time,relevance,text
0,AAA,2016-01-08,09:05,1.0,"aaa shares rally, analysts cheer"
1,AAA,2016-01-08,09:20,0.4,aaa mentioned in passing
2,BBB,2016-01-08,11:02,1.0,bbb beats expectations
"""


class TestLoadHeadlines:
    def test_relevance_filter(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text(HEADLINE_CSV)
        records = load_headlines(path, min_relevance=1.0)
        assert len(records) == 2
        assert [r.asset for r in records] == ["AAA", "BBB"]

    def test_min_relevance_zero_keeps_all(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text(HEADLINE_CSV)
        assert len(load_headlines(path, min_relevance=0.0)) == 3

    def test_ids_sequential_over_kept_rows(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text(HEADLINE_CSV)
        records = load_headlines(path, min_relevance=1.0)
        assert [r.id for r in records] == [0, 1]

    def test_empty_text_is_parse_error(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text('id,asset,date,time,relevance,text\n0,AAA,2016-01-08,09:05,1.0,""\n')
        with pytest.raises(ValueError, match="line 2"):
            load_headlines(path)

    def test_bad_relevance_is_parse_error(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("id,asset,date,time,relevance,text\n0,AAA,2016-01-08,09:05,1.5,'x'\n")
        with pytest.raises(ValueError, match="line 2"):
            load_headlines(path)

    def test_no_qualifying_rows(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("id,asset,date,time,relevance,text\n0,AAA,2016-01-08,09:05,0.3,x\n")
        with pytest.raises(ValueError, match="no qualifying"):
            load_headlines(path, min_relevance=1.0)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("asset,date\nAAA,2016-01-08\n")
        with pytest.raises(ValueError, match="header"):
            load_headlines(path)


    def test_error_names_the_physical_line(self, tmp_path):
        """Line numbers count the file's lines, so a quoted multi-line headline
        does not shift the lines of the rows after it."""
        path = tmp_path / "h.csv"
        path.write_text('id,asset,date,time,relevance,text\n'
                        '0,AAA,2016-01-08,09:05,1.0,"two\nlines"\n'
                        '\n'
                        '1,AAA,2016-01-08,09:20,2.0,x\n')
        with pytest.raises(ValueError, match=f"^{path}: line 5: relevance must lie in"):
            load_headlines(path)

    def test_non_utf8_file_names_the_file(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_bytes(b"id,asset,date,time,relevance,text\n0,AAA,2016-01-08,09:05,1.0,caf\xe9\n")
        with pytest.raises(ValueError, match=f"^{path}: not UTF-8 text"):
            load_headlines(path)

    def test_text_with_bare_cr_round_trips(self, tmp_path):
        records = [_headline(0, "AAA", dt.date(2016, 1, 8), dt.time(9, 5), text="a\rb", relevance=0.35),
                   _headline(1, "AAA", dt.date(2016, 1, 8), dt.time(9, 6))]
        path = tmp_path / "h.csv"
        write_headlines_csv(records, path)
        assert load_headlines(path, min_relevance=0.0) == records
        # a synthetic corpus's rows are written as before: relevance 1.0 as "1.0", nothing quoted
        assert path.read_text().splitlines()[-1] == "1,AAA,2016-01-08,09:06,1.0,syn0 shares rally"


_HEADLINE_ROWS = st.lists(st.tuples(
    st.text(min_size=1).map(str.strip).filter(bool),
    st.dates(),
    st.builds(dt.time, st.integers(0, 23), st.integers(0, 59)),
    st.text(min_size=1),
    st.floats(0.0, 1.0),
), min_size=1, max_size=5)


@settings(max_examples=200, deadline=None)
@given(rows=_HEADLINE_ROWS)
def test_written_headlines_load_back_equal(rows):
    """``load_headlines`` reads back every record ``write_headlines_csv``
    writes: any text (quotes, commas, CR and LF included), any relevance."""
    records = [HeadlineRecord(i, *row) for i, row in enumerate(rows)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "h.csv"
        write_headlines_csv(records, path)
        assert load_headlines(path, min_relevance=0.0) == records


class TestLoadPrices:
    def test_roundtrip(self, tmp_path):
        bars = [
            PriceBar("AAA", dt.date(2016, 1, 8), 100.0, 101.5),
            PriceBar("AAA", dt.date(2016, 1, 11), 101.0, 100.0),
        ]
        path = tmp_path / "p.csv"
        write_prices_csv(bars, path)
        loaded = load_prices(path)
        assert [b.asset for b in loaded.bars] == ["AAA", "AAA"]
        assert loaded.bars[0].open == pytest.approx(100.0)

    def test_duplicate_bar_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(
            "asset,date,open,close\nAAA,2016-01-08,100,101\nAAA,2016-01-08,100,102\n"
        )
        with pytest.raises(ValueError, match="line 3"):
            load_prices(path)

    def test_header_only_file_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("asset,date,open,close\n")
        with pytest.raises(ValueError, match=f"{path}: no price bars"):
            load_prices(path)

    def test_blank_asset_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("asset,date,open,close\nAAA,2016-01-07,100,101\n  ,2016-01-08,100,101\n")
        with pytest.raises(ValueError, match=f"{path}: line 3: empty asset"):
            load_prices(path)

    def test_nonpositive_price_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("asset,date,open,close\nAAA,2016-01-08,0,101\n")
        with pytest.raises(ValueError, match="line 2"):
            load_prices(path)

    @pytest.mark.parametrize("bar", ["nan,101", "100,nan", "inf,101", "100,inf", "100,-inf"])
    def test_non_finite_price_rejected(self, tmp_path, bar):
        path = tmp_path / "p.csv"
        path.write_text(f"asset,date,open,close\nAAA,2016-01-07,100,101\nAAA,2016-01-08,{bar}\n")
        with pytest.raises(ValueError, match=f"{path}: line 3: prices must be positive and finite"):
            load_prices(path)


class TestRowTypes:
    """The row types are named tuples; their constructors still check their fields."""

    @pytest.mark.parametrize("text,relevance,message", [
        ("", 1.0, "headline text must be non-empty"),
        ("x", -0.1, "relevance must lie in"),
        ("x", 1.5, "relevance must lie in"),
        ("x", math.nan, "relevance must lie in"),
    ])
    def test_headline_record_checks(self, text, relevance, message):
        args = (0, "AAA", dt.date(2016, 1, 8), dt.time(9, 5), text, relevance)
        with pytest.raises(ValueError, match=message):
            HeadlineRecord(*args)
        with pytest.raises(ValueError, match=message):
            HeadlineRecord(**dict(zip(HeadlineRecord._fields, args)))

    @pytest.mark.parametrize("open_,close", [(0.0, 1.0), (1.0, -1.0), (math.inf, 1.0), (1.0, math.nan)])
    def test_price_bar_checks(self, open_, close):
        with pytest.raises(ValueError, match="prices must be positive and finite"):
            PriceBar("AAA", dt.date(2016, 1, 8), open_, close)
        with pytest.raises(ValueError, match="prices must be positive and finite"):
            PriceBar(asset="AAA", date=dt.date(2016, 1, 8), open=open_, close=close)

    def test_fields_and_equality(self):
        h = _headline(3, "AAA", dt.date(2016, 1, 8), dt.time(9, 5))
        assert tuple(h) == (3, "AAA", dt.date(2016, 1, 8), dt.time(9, 5), "syn0 shares rally", 1.0)
        assert h == _headline(3, "AAA", dt.date(2016, 1, 8), dt.time(9, 5))
        assert repr(h).startswith("HeadlineRecord(id=3, asset='AAA'")
        bar = PriceBar("AAA", dt.date(2016, 1, 8), 100.0, 101.0)
        assert (bar.asset, bar.date, bar.open, bar.close) == tuple(bar)

    @pytest.mark.parametrize("row,message", [
        ("0,AAA,2016-01-08,09:05,1.0,", "headline text must be non-empty"),
        ("0,AAA,2016-01-08,09:05,1.5,x", "relevance must lie in"),
        ("0,AAA,2016-01-08,09:05,one,x", "could not convert"),
        ("0,AAA,2016-13-08,09:05,1.0,x", "does not match format"),
        ("0,AAA,2016-01-08,09:05,1.0", "expected 6 fields, got 5"),
    ])
    def test_bad_headline_row_names_file_and_line(self, tmp_path, row, message):
        path = tmp_path / "h.csv"
        path.write_text(f"id,asset,date,time,relevance,text\n0,AAA,2016-01-08,09:05,1.0,ok\n{row}\n")
        with pytest.raises(ValueError, match=f"{path}: line 3: .*{message}"):
            load_headlines(path, min_relevance=0.0)


class TestNextTradingDay:
    BARS = [
        PriceBar("AAA", dt.date(2016, 1, 8), 100.0, 101.0),   # Friday
        PriceBar("AAA", dt.date(2016, 1, 11), 100.0, 101.0),  # Monday
        PriceBar("AAA", dt.date(2016, 1, 12), 100.0, 101.0),
        PriceBar("BBB", dt.date(2016, 1, 9), 100.0, 101.0),
    ]

    @staticmethod
    def _next(index, asset, after):
        """The asset's first bar after ``after`` by a one-query ``next_positions``;
        None past its history."""
        (pos,) = index.next_positions([asset], [after]).tolist()
        return None if pos < 0 else index.bars[pos]

    def test_weekend_skipped_via_bar_presence(self):
        assert self._next(PriceIndex(self.BARS), "AAA", dt.date(2016, 1, 8)).date == dt.date(2016, 1, 11)

    def test_plain_next_day(self):
        assert self._next(PriceIndex(self.BARS), "AAA", dt.date(2016, 1, 11)).date == dt.date(2016, 1, 12)

    def test_end_of_history(self):
        # AAA's last bar is followed in ``bars`` by BBB's first; it must not be returned
        assert PriceIndex(self.BARS).next_positions(["AAA"], [dt.date(2016, 1, 12)]).tolist() == [-1]

    def test_price_index_next_positions(self):
        index = PriceIndex(reversed(self.BARS))  # input order does not matter
        assert len(index) == 4
        assert index.bars == tuple(self.BARS)
        assert self._next(index, "AAA", dt.date(2016, 1, 1)) == self.BARS[0]
        assert self._next(index, "AAA", dt.date(2016, 1, 8)) == self.BARS[1]
        for asset, after in (("AAA", dt.date(2016, 1, 12)), ("ZZZ", dt.date(2016, 1, 1))):
            assert self._next(index, asset, after) is None
        assert self._next(index, "BBB", dt.date(2016, 1, 1)).date == dt.date(2016, 1, 9)
        assert (index.has_asset("BBB"), index.has_asset("ZZZ")) == (True, False)

    def test_membership_test_is_a_type_error(self):
        """``len()`` and ``.bars`` count bars, so ``in`` on the index would
        read as bar membership; it raises rather than answer for asset names."""
        index = PriceIndex(self.BARS)
        for item in (self.BARS[0], "AAA"):
            with pytest.raises(TypeError):
                item in index

    def test_assets_listed_out_of_order_and_days_before_the_first_bar(self):
        bars = [PriceBar("B", dt.date(2016, 1, 4), 10.0, 11.0),
                PriceBar("B", dt.date(2016, 1, 6), 12.0, 13.0),
                PriceBar("A", dt.date(2016, 1, 7), 20.0, 21.0),
                PriceBar("A", dt.date(2016, 1, 5), 22.0, 23.0)]
        index = PriceIndex(bars)
        assert index.bars == (bars[3], bars[2], bars[0], bars[1])
        assert index.days.tolist() == [b.date.toordinal() for b in index.bars]
        queries = [("B", dt.date(2015, 12, 31)), ("A", dt.date(2015, 12, 31)),
                   ("A", dt.date(2016, 1, 5)), ("B", dt.date(2016, 1, 5)),
                   ("A", dt.date(2016, 1, 7)), ("B", dt.date(2016, 1, 6)), ("C", dt.date(2016, 1, 1))]
        positions = index.next_positions([a for a, _ in queries], [d for _, d in queries])
        assert positions.dtype == np.int64
        assert positions.tolist() == [2, 0, 1, 3, -1, -1, -1]

    def test_no_bars_and_no_queries(self):
        assert PriceIndex([]).next_positions(["AAA"], [dt.date(2016, 1, 1)]).tolist() == [-1]
        assert len(PriceIndex([])) == 0
        assert PriceIndex(self.BARS).next_positions([], []).tolist() == []

    def test_repeated_query_returns_the_identical_bar(self):
        index = PriceIndex(self.BARS)
        # Friday twice, then Saturday and Sunday: all resolve to the same Monday bar object
        days = [dt.date(2016, 1, 8), dt.date(2016, 1, 8), dt.date(2016, 1, 9), dt.date(2016, 1, 10)]
        positions = index.next_positions(["AAA"] * 4, days).tolist()
        assert len(set(positions)) == 1
        assert index.bars[positions[0]] is self.BARS[1]
        assert PriceIndex(self.BARS).next_positions(["AAA"], days[:1]).tolist() == positions[:1]

    def test_past_history_is_minus_one_on_every_call(self):
        index = PriceIndex(self.BARS)
        assets, days = ["AAA", "ZZZ"], [dt.date(2016, 1, 12), dt.date(2016, 1, 1)]
        for _ in range(2):
            assert index.next_positions(assets, days).tolist() == [-1, -1]

    def test_label_all_unchanged_with_a_shared_index(self):
        headlines, prices = generate_synthetic(
            seed=4, n_assets=3, n_days=20, headlines_per_day=3, signal_strength=0.5)
        last = max(b.date for b in prices)
        headlines = headlines + [_headline(10_000, "SYN0", last, dt.time(9, 5))]
        index = PriceIndex(prices)
        first = label_all(headlines, index)
        assert label_all(headlines, index) == first  # the same index again
        assert label_all(headlines, PriceIndex(prices)) == first  # a fresh index
        assert first[1] == [10_000]
        for h in headlines[:-1]:  # the next bar by a plain scan
            bar = min((b for b in prices if b.asset == h.asset and b.date > h.date),
                      key=lambda b: b.date)
            assert first[0][h.id].trade_date == bar.date
            assert first[0][h.id].next_day_return == (bar.close - bar.open) / bar.open

    def test_returns_have_the_bits_of_the_python_expression(self):
        _, prices = generate_synthetic(
            seed=5, n_assets=3, n_days=40, headlines_per_day=1, signal_strength=0.5)
        rng = np.random.default_rng(5)
        prices += [PriceBar("WIDE", dt.date(2016, 1, 1) + dt.timedelta(days=i),
                            float(o), float(c))
                   for i, (o, c) in enumerate(10.0 ** rng.uniform(-6, 6, size=(200, 2)))]
        index = PriceIndex(prices)
        assert index.returns.dtype == np.float64
        expected = np.array([(b.close - b.open) / b.open for b in index.bars])
        assert np.array_equal(index.returns.view(np.int64), expected.view(np.int64))

    def test_strictly_later_and_no_gap(self):
        # property: result > query date and no bar strictly between them
        rng = np.random.default_rng(0)
        dates = sorted({dt.date(2016, 1, 1) + dt.timedelta(days=int(d)) for d in rng.integers(0, 60, 30)})
        bars = [PriceBar("AAA", d, 100.0, 101.0) for d in dates]
        index = PriceIndex(bars)
        positions = index.next_positions(["AAA"] * len(dates), dates).tolist()
        assert positions[-1] == -1
        for d, pos in zip(dates[:-1], positions):
            nxt = index.bars[pos].date
            assert nxt > d
            assert not any(d < b.date < nxt for b in bars)


class TestLabeling:
    def _prices(self, open_, close):
        return PriceIndex([
            PriceBar("AAA", dt.date(2016, 1, 8), 100.0, 100.0),
            PriceBar("AAA", dt.date(2016, 1, 11), open_, close),
        ])

    def _headline(self):
        return _headline(0, "AAA", dt.date(2016, 1, 8), dt.time(9, 5))

    def _label(self, open_, close):
        labels, skipped = label_all([self._headline()], self._prices(open_, close))
        assert skipped == []
        return labels[0]

    def test_positive_return_buy(self):
        lab = self._label(100.0, 101.0)
        assert lab.next_day_return == pytest.approx(0.01)
        assert lab.binary_label == 1
        assert lab.tri_label == "buy"
        assert lab.trade_date == dt.date(2016, 1, 11)

    def test_unchanged_price_is_class_zero(self):
        lab = self._label(100.0, 100.0)
        assert lab.next_day_return == 0.0
        assert lab.binary_label == 0
        assert lab.tri_label == "inconsequential"

    def test_small_loss_inside_band_is_inconsequential(self):
        lab = self._label(100.0, 99.6)
        assert lab.next_day_return == pytest.approx(-0.004)
        assert lab.binary_label == 0
        assert lab.tri_label == "inconsequential"

    def test_big_loss_is_avoid(self):
        lab = self._label(100.0, 99.0)
        assert lab.tri_label == "avoid"

    def test_exact_band_boundaries_are_inconsequential(self):
        assert self._label(1000.0, 1005.0).tri_label == "inconsequential"
        assert self._label(1000.0, 995.0).tri_label == "inconsequential"

    def test_binary_label_iff_positive_return(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            close = float(rng.uniform(90, 110))
            lab = self._label(100.0, close)
            assert (lab.binary_label == 1) == (lab.next_day_return > 0)
            bands = [lab.next_day_return > 0.005, abs(lab.next_day_return) <= 0.005,
                     lab.next_day_return < -0.005]
            assert sum(bands) == 1  # tri partition exhaustive and exclusive

    def test_label_all_skips_tail(self):
        heads = [
            _headline(0, "AAA", dt.date(2016, 1, 8), dt.time(9, 5)),
            _headline(1, "AAA", dt.date(2016, 1, 11), dt.time(9, 5)),  # beyond history
        ]
        labels, skipped = label_all(heads, self._prices(100.0, 101.0))
        assert skipped == [1]
        assert list(labels) == [0]
        assert (labels[0].asset, labels[0].trade_date, labels[0].binary_label) == (
            "AAA", dt.date(2016, 1, 11), 1)


def _reference_label_all(headlines, prices):
    """label_all by a plain scan: each headline's next bar is the earliest of
    its asset's bars dated after it."""
    labels, skipped = {}, []
    for h in headlines:
        later = [b for b in prices if b.asset == h.asset and b.date > h.date]
        if not later:
            skipped.append(h.id)
            continue
        bar = min(later, key=lambda b: b.date)
        ret = (bar.close - bar.open) / bar.open
        tri = "buy" if ret > 0.005 else "avoid" if ret < -0.005 else "inconsequential"
        labels[h.id] = (h.asset, bar.date, ret, 1 if ret > 0 else 0, tri)
    return labels, skipped


_DAY0 = dt.date(2016, 1, 4)  # a Monday
_bar_strategy = st.tuples(st.sampled_from("ABC"), st.integers(0, 20),
                          st.floats(1.0, 200.0), st.floats(1.0, 200.0))
_headline_strategy = st.tuples(st.sampled_from("ABCZ"), st.integers(-3, 24),
                               st.integers(9, 16), st.integers(0, 59))


class TestLabelAllOracle:
    """label_all resolves every headline with one ``next_positions`` call; it
    must give a plain scan's labels, in its order, every time."""

    @settings(max_examples=200, deadline=None)
    @given(bars=st.lists(_bar_strategy, max_size=40), heads=st.lists(_headline_strategy, max_size=40),
           order=st.randoms(use_true_random=False))
    def test_matches_a_plain_scan(self, bars, heads, order):
        # asset C may have no bars and Z never has any; days run from before
        # the first possible bar to after the last, weekends included
        unique_bars = {(a, d): (o, c) for a, d, o, c in bars}
        prices = [PriceBar(a, _DAY0 + dt.timedelta(days=d), o, c) for (a, d), (o, c) in unique_bars.items()]
        order.shuffle(prices)
        headlines = [
            _headline(i, asset, _DAY0 + dt.timedelta(days=day), dt.time(hour, minute))
            for i, (asset, day, hour, minute) in enumerate(heads)
        ]
        order.shuffle(headlines)  # ids out of order too
        labels, skipped = label_all(headlines, PriceIndex(prices))
        expected, expected_skipped = _reference_label_all(headlines, prices)
        assert labels == expected
        assert list(labels) == list(expected)
        assert skipped == expected_skipped

    def test_headlines_with_one_next_bar_share_its_label(self):
        bars = [PriceBar("AAA", dt.date(2016, 1, 8), 100.0, 101.0),
                PriceBar("AAA", dt.date(2016, 1, 11), 100.0, 99.0)]
        heads = [_headline(i, "AAA", dt.date(2016, 1, 8 + i), dt.time(9, 5)) for i in range(3)]
        labels, skipped = label_all(heads, PriceIndex(bars))
        assert labels[0] is labels[1] is labels[2]
        assert labels[0] == ("AAA", dt.date(2016, 1, 11), -0.01, 0, "avoid")
        assert skipped == []

    def test_duplicate_ids_rejected(self):
        prices = PriceIndex([PriceBar("AAA", dt.date(2016, 1, 11), 100.0, 101.0)])
        for second_day in (8, 11):  # a labeled and a skipped duplicate
            heads = [_headline(0, "AAA", dt.date(2016, 1, 8), dt.time(9, 5)),
                     _headline(0, "AAA", dt.date(2016, 1, second_day), dt.time(9, 5))]
            with pytest.raises(ValueError, match="headline ids must be unique"):
                label_all(heads, prices)


class TestSplit:
    D = dt.date(2016, 3, 14)

    def test_same_bucket_pair_not_unique(self):
        heads = [
            _headline(0, "A", self.D, dt.time(9, 5)),
            _headline(1, "A", self.D, dt.time(9, 20)),
            _headline(2, "A", self.D + dt.timedelta(days=1), dt.time(10, 45)),
        ]
        split = split_half_hourly_unique(heads, {"A"})
        # 09:05 and 09:20 share the 09:00-09:30 bucket: day one is not retained
        assert split.test_dates == (self.D + dt.timedelta(days=1),)
        assert split.test_ids == frozenset({2})
        assert split.train_ids == frozenset({0, 1})

    def test_two_assets_same_date_retained(self):
        heads = [
            _headline(0, "A", self.D, dt.time(10, 45)),
            _headline(1, "B", self.D, dt.time(11, 2)),
        ]
        split = split_half_hourly_unique(heads, {"A", "B"})
        assert split.test_dates == (self.D,)
        assert split.test_ids == frozenset({0, 1})

    def test_date_needs_every_portfolio_asset(self):
        heads = [
            _headline(0, "A", self.D, dt.time(10, 45)),
            _headline(1, "B", self.D, dt.time(11, 2)),
            _headline(2, "B", self.D, dt.time(11, 20)),  # collides with 1
            _headline(3, "A", self.D + dt.timedelta(days=1), dt.time(9, 0)),
            _headline(4, "B", self.D + dt.timedelta(days=1), dt.time(9, 40)),
        ]
        split = split_half_hourly_unique(heads, {"A", "B"})
        # on day one only A has a time-unique headline, so it is not retained
        assert split.test_dates == (self.D + dt.timedelta(days=1),)
        assert split.test_ids == frozenset({3, 4})
        assert split.train_ids == frozenset({0, 1, 2})

    def test_leak_exclusion_on_retained_dates(self):
        heads = [
            _headline(0, "A", self.D, dt.time(10, 45)),
            _headline(1, "A", self.D, dt.time(12, 1)),
            _headline(2, "A", self.D, dt.time(12, 20)),  # 1 and 2 collide
        ]
        split = split_half_hourly_unique(heads, {"A"})
        assert split.test_ids == frozenset({0})
        # the colliding pair shares the retained date: dropped, not trained on
        assert split.train_ids == frozenset()

    def test_disjoint_and_deterministic(self):
        rng = np.random.default_rng(3)
        heads = []
        for i in range(300):
            heads.append(
                _headline(
                    i,
                    "AB"[int(rng.integers(2))],
                    self.D + dt.timedelta(days=int(rng.integers(10))),
                    dt.time(int(rng.integers(9, 16)), int(rng.integers(60))),
                )
            )
        s1 = split_half_hourly_unique(heads, {"A", "B"})
        s2 = split_half_hourly_unique(heads, {"A", "B"})
        assert s1 == s2
        assert not (s1.train_ids & s1.test_ids)

    def test_no_retained_dates_errors(self):
        heads = [
            _headline(0, "A", self.D, dt.time(9, 5)),
            _headline(1, "A", self.D, dt.time(9, 10)),
        ]
        with pytest.raises(ValueError, match="more data"):
            split_half_hourly_unique(heads, {"A"})

    def test_empty_portfolio_errors(self):
        with pytest.raises(ValueError):
            split_half_hourly_unique([], set())


def _reference_split(headlines, portfolio):
    """split_half_hourly_unique as it was: the bucket key computed in each pass."""
    def bucket(t):
        return (t.hour, 0 if t.minute < 30 else 30)

    scoped = [h for h in headlines if h.asset in portfolio]
    counts = {}
    for h in scoped:
        key = (h.asset, h.date, bucket(h.time))
        counts[key] = counts.get(key, 0) + 1
    unique_ids, unique_assets_by_date = set(), {}
    for h in scoped:
        if counts[(h.asset, h.date, bucket(h.time))] == 1:
            unique_ids.add(h.id)
            unique_assets_by_date.setdefault(h.date, set()).add(h.asset)
    retained = {d for d, assets in unique_assets_by_date.items() if assets >= set(portfolio)}
    if not retained:
        return None
    return corpus.DatasetSplit(
        train_ids=frozenset(h.id for h in scoped if h.date not in retained),
        test_ids=frozenset(h.id for h in scoped if h.date in retained and h.id in unique_ids),
        test_dates=tuple(sorted(retained)),
    )


class TestSplitOracle:
    @settings(max_examples=200, deadline=None)
    @given(heads=st.lists(st.tuples(st.sampled_from("ABC"), st.integers(0, 4), st.integers(9, 11),
                                    st.sampled_from((0, 1, 29, 30, 31, 59))), max_size=40),
           portfolio=st.sets(st.sampled_from("AB"), min_size=1))
    def test_matches_two_pass_reference(self, heads, portfolio):
        # asset C is never in the portfolio; minutes 29/30 and 59/0 straddle bucket edges
        headlines = [
            _headline(i, asset, TestSplit.D + dt.timedelta(days=day), dt.time(hour, minute))
            for i, (asset, day, hour, minute) in enumerate(heads)
        ]
        expected = _reference_split(headlines, portfolio)
        if expected is None:
            with pytest.raises(ValueError, match="no test dates"):
                split_half_hourly_unique(headlines, portfolio)
        else:
            assert split_half_hourly_unique(headlines, portfolio) == expected


class TestSyntheticGenerator:
    def test_deterministic_output(self, tmp_path):
        a = generate_synthetic(seed=5, n_assets=2, n_days=20, headlines_per_day=4, signal_strength=0.8)
        b = generate_synthetic(seed=5, n_assets=2, n_days=20, headlines_per_day=4, signal_strength=0.8)
        assert a == b
        # byte-identical CSV output for the same seed
        for run in ("one", "two"):
            write_headlines_csv(a[0], tmp_path / run / "h.csv")
            write_prices_csv(a[1], tmp_path / run / "p.csv")
        assert (tmp_path / "one" / "h.csv").read_bytes() == (tmp_path / "two" / "h.csv").read_bytes()
        assert (tmp_path / "one" / "p.csv").read_bytes() == (tmp_path / "two" / "p.csv").read_bytes()

    def test_counts_and_invariants(self):
        headlines, prices = generate_synthetic(
            seed=1, n_assets=3, n_days=15, headlines_per_day=4, signal_strength=0.7
        )
        assert len(headlines) == 3 * 15 * 4
        assert len(prices) == 3 * 16  # one extra bar so every headline is labelable
        assert all(b.open > 0 and b.close > 0 for b in prices)
        assert [h.id for h in headlines] == list(range(len(headlines)))

    @staticmethod
    def _agreement(headlines, prices):
        labels, skipped = label_all(headlines, PriceIndex(prices))
        assert not skipped
        bullish = set(corpus._BULLISH_PHRASES)
        hits = sum(
            int(any(ph in h.text for ph in bullish) == (labels[h.id].binary_label == 1))
            for h in headlines
        )
        return hits / len(headlines)

    def test_full_signal_is_perfectly_predictable(self):
        headlines, prices = generate_synthetic(
            seed=9, n_assets=2, n_days=60, headlines_per_day=4, signal_strength=1.0
        )
        assert self._agreement(headlines, prices) == 1.0

    def test_half_signal_agreement_near_chance(self):
        headlines, prices = generate_synthetic(
            seed=9, n_assets=2, n_days=250, headlines_per_day=5, signal_strength=0.5
        )
        assert len(headlines) >= 2000
        assert abs(self._agreement(headlines, prices) - 0.5) <= 0.05

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            generate_synthetic(seed=0, n_assets=0, n_days=5, headlines_per_day=1, signal_strength=0.5)
        with pytest.raises(ValueError):
            generate_synthetic(seed=0, n_assets=1, n_days=5, headlines_per_day=1, signal_strength=1.5)
