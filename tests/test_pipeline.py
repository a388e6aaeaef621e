"""Dataset-preparation glue tests."""

import datetime as dt
import random
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from newsvane.corpus import (
    HeadlineRecord,
    PriceBar,
    PriceIndex,
    generate_synthetic,
    label_all,
    split_half_hourly_unique,
    tri_label_of,
)
from newsvane.pipeline import Sample, prepare_dataset, to_pairs, validation_slice
from newsvane.text import Vocabulary, build_vocabulary, encode_and_pad, tokenize


@pytest.fixture(scope="module")
def prepared():
    headlines, prices = generate_synthetic(
        seed=21, n_assets=2, n_days=40, headlines_per_day=4, signal_strength=0.9
    )
    return prepare_dataset(headlines, PriceIndex(prices), {"SYN0", "SYN1"}, max_len=None)


class TestPrepareDataset:
    def test_roles_and_encoding(self, prepared):
        assert prepared.train and prepared.test
        assert prepared.n_unlabeled == 0  # generator provides the extra bar
        assert prepared.n_purged == 0  # it dates every headline on a bar day
        train_ids = {s.headline_id for s in prepared.train}
        test_ids = {s.headline_id for s in prepared.test}
        assert not train_ids & test_ids
        assert train_ids == set(prepared.split.train_ids)
        m = prepared.vocab.max_len
        for s in list(prepared.train) + list(prepared.test):
            assert s.enc.shape == (m,)
            assert s.trade_date > s.date
            assert (s.binary_label == 1) == (s.next_day_return > 0)

    def test_vocabulary_from_training_only(self, prepared):
        # test-side tokens unseen in training are dropped; indices stay valid
        size = prepared.vocab.size
        for s in prepared.test:
            assert s.enc.max() <= size

    def test_max_len_override(self):
        headlines, prices = generate_synthetic(
            seed=21, n_assets=1, n_days=20, headlines_per_day=4, signal_strength=0.9
        )
        prepared = prepare_dataset(headlines, PriceIndex(prices), {"SYN0"}, max_len=12)
        assert prepared.vocab.max_len == 12
        assert all(s.enc.shape == (12,) for s in prepared.train)

    def test_to_pairs_heads(self, prepared):
        binary = to_pairs(prepared.train, "binary")
        tri = to_pairs(prepared.train, "multiclass3")
        assert {y for _, y in binary} <= {0, 1}
        assert {y for _, y in tri} <= {0, 1, 2}
        assert len(binary) == len(tri) == len(prepared.train)

    @pytest.mark.parametrize("head", ["binry", "Binary", "multiclass", ""])
    def test_to_pairs_rejects_an_unknown_head(self, prepared, head):
        """A misspelt head once fell through to the 3-way labels."""
        with pytest.raises(ValueError) as err:
            to_pairs(prepared.train, head)
        assert str(err.value) == f"unknown head {head!r}, expected one of binary, multiclass3"


def _former_bar_labels(ret):
    """The binary and 3-way labels the former per-bar rule gave a bar of return ``ret``."""
    if ret > 0.005:
        tri = "buy"
    elif ret < -0.005:
        tri = "avoid"
    else:
        tri = "inconsequential"
    return 1 if ret > 0 else 0, tri


class TestSampleLabels:
    @pytest.mark.parametrize("ret", [0.005, -0.005, 0.0, -0.0, 1e-12, -1e-12,
                                     0.005000000000000001, -0.005000000000000001, 0.25, -0.25])
    def test_labels_are_the_former_per_bar_rule_of_the_return(self, ret):
        day = dt.date(2016, 1, 8)
        sample = Sample(0, "A", day, day + dt.timedelta(days=3), ret, None)
        assert (sample.binary_label, sample.tri_label) == _former_bar_labels(ret)
        assert type(sample.binary_label) is int
        assert sample.tri_label == tri_label_of(ret)

    def test_labels_cannot_be_set_apart_from_the_return(self):
        day = dt.date(2016, 1, 8)
        with pytest.raises(TypeError):
            Sample(0, "A", day, day, 0.01, None, 0, "avoid")
        sample = Sample(0, "A", day, day, 0.01, None)
        with pytest.raises(ValueError):
            sample._replace(binary_label=0)
        with pytest.raises(AttributeError):
            sample.tri_label = "avoid"
        assert sample._replace(next_day_return=-0.01).tri_label == "avoid"


def _reference_rows(headlines, prices, portfolio, max_len):
    """prepare_dataset's rows as it built them before: a by-id map of the
    labeled headlines, read in sorted id order per role. A row is its sample's
    fields with its count of kept tokens, and its encoding."""
    labels, skipped = label_all(headlines, prices)
    labeled = [h for h in headlines if h.id in labels]
    split = split_half_hourly_unique(labeled, portfolio)
    by_id = {h.id: h for h in labeled}
    train_tokens = {hid: tokenize(by_id[hid].text) for hid in sorted(split.train_ids)}
    vocab = build_vocabulary(list(train_tokens.values()), None)
    if max_len is not None:
        vocab = Vocabulary(vocab.tokens, max_len)

    def row(hid, tokens):
        h, bar = by_id[hid], prices.bars[labels[hid]]
        ret = (bar.close - bar.open) / bar.open
        tri = "buy" if ret > 0.005 else "avoid" if ret < -0.005 else "inconsequential"
        n_kept = len([t for t in tokens if t in vocab.word_to_index][: vocab.max_len])
        return ((hid, h.asset, h.date, bar.date, ret, 1 if ret > 0 else 0, tri, n_kept),
                encode_and_pad(tokens, vocab))

    train = [row(hid, toks) for hid, toks in train_tokens.items()]
    test = [row(hid, tokenize(by_id[hid].text)) for hid in sorted(split.test_ids)]
    return vocab, train, test, len(skipped)


class TestPrepareOracle:
    @pytest.mark.parametrize("max_len", [None, 5])
    def test_shuffled_ids_and_skipped_tail_match_the_by_id_reference(self, max_len):
        headlines, prices = generate_synthetic(
            seed=8, n_assets=3, n_days=30, headlines_per_day=4, signal_strength=0.7
        )
        last = max(b.date for b in prices)
        headlines += [HeadlineRecord(1000 + i, "SYN1", last + dt.timedelta(days=i), dt.time(10, 5),
                                     "late syn1 news", 1.0) for i in range(3)]
        random.Random(2).shuffle(headlines)
        portfolio = {"SYN0", "SYN1"}  # SYN2 is outside it
        index = PriceIndex(prices)
        prepared = prepare_dataset(headlines, index, portfolio, max_len=max_len)
        vocab, train, test, n_unlabeled = _reference_rows(headlines, index, portfolio, max_len)

        def assert_rows(samples, reference):
            assert [(*s[:5], s.binary_label, s.tri_label, np.count_nonzero(s.enc))
                    for s in samples] == [row for row, _ in reference]
            for s, (_, enc) in zip(samples, reference, strict=True):
                assert s.enc.dtype == np.int64 and np.array_equal(s.enc, enc)

        assert prepared.vocab == vocab
        assert_rows(prepared.train, train)
        assert_rows(prepared.test, test)
        assert prepared.n_unlabeled == n_unlabeled == 3


class TestValidationSlice:
    def test_splits_by_whole_dates(self, prepared):
        fit, val = validation_slice(prepared.train, fraction=0.25, seed=3)
        assert len(fit) + len(val) == len(prepared.train)
        assert {s.date for s in fit}.isdisjoint({s.date for s in val})
        assert val and fit

    def test_deterministic(self, prepared):
        a = validation_slice(prepared.train, fraction=0.25, seed=3)
        b = validation_slice(prepared.train, fraction=0.25, seed=3)
        assert [s.headline_id for s in a[1]] == [s.headline_id for s in b[1]]

    def test_bad_fraction(self, prepared):
        with pytest.raises(ValueError):
            validation_slice(prepared.train, fraction=0.0, seed=3)


THU, FRI, SAT, MON = dt.date(2015, 1, 8), dt.date(2015, 1, 9), dt.date(2015, 1, 10), dt.date(2015, 1, 12)


def _at(hid, asset, date, hhmm, text):
    return HeadlineRecord(hid, asset, date, dt.time(*divmod(hhmm, 100)), text, 1.0)


def _bars(asset, *dates):
    return [PriceBar(asset, d, 10.0, 10.0 + 0.1 * k) for k, d in enumerate(dates)]


class TestPurge:
    """A training headline whose label bar is a test headline's is purged."""

    def test_weekend_headlines_share_the_friday_test_label(self):
        """Bars on Thu, Fri, Mon and Tue: Friday is a test date, and the Saturday
        pair (one half-hour, so not time-unique) is labelled with Monday's bar too."""
        headlines = [
            _at(0, "A", THU, 1005, "thursday alpha"), _at(1, "A", THU, 1010, "thursday beta"),
            _at(2, "A", FRI, 1005, "friday gamma"),
            _at(3, "A", SAT, 1100, "saturday delta"), _at(4, "A", SAT, 1115, "saturday epsilon"),
        ]
        prices = PriceIndex(_bars("A", THU, FRI, MON, dt.date(2015, 1, 13)))
        labels, _ = label_all(headlines, prices)
        split = split_half_hourly_unique(headlines, {"A"})
        assert split.train_ids == {0, 1, 3, 4} and split.test_ids == {2}
        assert {prices.bars[labels[i]].date for i in (2, 3, 4)} == {MON}  # the leak

        prepared = prepare_dataset(headlines, prices, {"A"}, max_len=None)
        assert prepared.n_purged == 2
        assert prepared.split.train_ids == {0, 1} and prepared.split.test_ids == {2}
        assert prepared.split.test_dates == (FRI,)
        assert [s.headline_id for s in prepared.train] == [0, 1]
        assert [(s.headline_id, s.trade_date) for s in prepared.test] == [(2, MON)]
        assert prepared.vocab.tokens == ("thursday", "alpha", "beta")

    def test_holiday_headlines_share_the_test_label_after_it(self):
        """No bar on Christmas Day: the Friday pair is labelled with Monday's bar,
        as the Thursday test headline is."""
        wed, thu, fri, mon = (dt.date(2015, 12, d) for d in (23, 24, 25, 28))
        headlines = [
            _at(0, "A", wed, 930, "wednesday alpha"), _at(1, "A", wed, 945, "wednesday beta"),
            _at(2, "A", thu, 930, "thursday gamma"),
            _at(3, "A", fri, 1400, "holiday delta"), _at(4, "A", fri, 1420, "holiday epsilon"),
        ]
        prices = PriceIndex(_bars("A", dt.date(2015, 12, 22), wed, thu, mon))
        prepared = prepare_dataset(headlines, prices, {"A"}, max_len=None)
        assert prepared.n_purged == 2
        assert [s.headline_id for s in prepared.train] == [0, 1]
        assert [(s.headline_id, s.trade_date) for s in prepared.test] == [(2, mon)]
        assert "holiday" not in prepared.vocab.word_to_index

    def test_leak_exclusion_on_shared_label_bars(self):
        """The label-bar twin of the split's same-day rule: only a test headline of the
        same asset and bar purges. B has no Monday bar, so its Friday test headline
        and its Monday headline are both labelled with B's Tuesday bar, while A's
        Monday headlines, labelled with A's Tuesday bar, stay in training."""
        tue, wed = dt.date(2015, 1, 13), dt.date(2015, 1, 14)
        headlines = [
            _at(0, "A", FRI, 1005, "a friday"), _at(1, "B", FRI, 1005, "b friday"),
            _at(2, "A", MON, 1005, "a monday one"), _at(3, "A", MON, 1010, "a monday two"),
            _at(4, "B", MON, 1005, "b monday"),
            _at(5, "A", SAT, 1100, "a saturday one"), _at(6, "A", SAT, 1110, "a saturday two"),
        ]
        prices = PriceIndex(_bars("A", FRI, MON, tue) + _bars("B", FRI, tue, wed))
        prepared = prepare_dataset(headlines, prices, {"A", "B"}, max_len=None)
        assert prepared.split.test_ids == {0, 1}
        assert [(s.asset, s.trade_date) for s in prepared.test] == [("A", MON), ("B", tue)]
        assert prepared.split.train_ids == {2, 3} and prepared.n_purged == 3
        assert [(s.asset, s.trade_date) for s in prepared.train] == [("A", tue), ("A", tue)]

    def test_validation_slice_drops_fit_samples_on_a_selection_label_bar(self):
        """Friday's and Saturday's samples share Monday's bar: whichever of the two
        dates the slice selects, the other leaves the fit part."""
        enc = np.zeros(2, dtype=np.int64)
        trade = {THU: FRI, FRI: MON, SAT: MON, MON: dt.date(2015, 1, 13)}
        samples = tuple(Sample(k, "A", d, trade[d], 0.01, enc) for k, d in enumerate(trade))
        fit_dates = {THU: [FRI, SAT, MON], FRI: [THU, MON], SAT: [THU, MON], MON: [THU, FRI, SAT]}
        seen = set()
        for seed in range(16):
            fit, val = validation_slice(samples, fraction=0.25, seed=seed)
            (selected,) = {s.date for s in val}
            assert [s.date for s in fit] == fit_dates[selected]
            seen.add(selected)
        assert {FRI, SAT} <= seen


_TOKENS = ("surge", "slump", "deal", "probe", "beat", "miss", "merger")


@st.composite
def _weekend_desks(draw):
    """Headlines of assets A and B on any day of two weeks, at minutes that often share
    a half-hour, and bars on weekdays only, through the Monday after."""
    start = dt.date(2015, 1, 5)  # a Monday
    bar_days = [start + dt.timedelta(days=k) for k in range(15) if k % 7 < 5]
    bars = [PriceBar(asset, d, 10.0, 10.0 + 0.01 * (k % 5 - 2))
            for asset in "AB" for k, d in enumerate(bar_days)]
    headlines = [
        HeadlineRecord(i, draw(st.sampled_from("AB")),
                       start + dt.timedelta(days=draw(st.integers(0, 13))),
                       dt.time(9 + draw(st.integers(0, 1)), draw(st.integers(0, 59))),
                       " ".join(draw(st.lists(st.sampled_from(_TOKENS), min_size=1, max_size=3))),
                       1.0)
        for i in range(draw(st.integers(4, 40)))
    ]
    return headlines, PriceIndex(bars)


@settings(max_examples=60, deadline=None)
@given(desk=_weekend_desks(), seed=st.integers(0, 2**16))
def test_no_training_label_bar_is_a_test_label_bar(desk, seed):
    headlines, prices = desk
    try:
        prepared = prepare_dataset(headlines, prices, {"A", "B"}, max_len=None)
    except ValueError as exc:  # no test date, or no training headline left
        if not re.search("no test dates|every token list is empty", str(exc)):
            raise
        assume(False)
    test_bars = {(s.asset, s.trade_date) for s in prepared.test}
    assert not {(s.asset, s.trade_date) for s in prepared.train} & test_bars
    unpurged = split_half_hourly_unique(headlines, {"A", "B"})
    assert prepared.split.test_ids == unpurged.test_ids
    assert prepared.split.train_ids <= unpurged.train_ids
    assert len(unpurged.train_ids - prepared.split.train_ids) == prepared.n_purged
    # a purged headline's label bar is a test headline's; a kept one's is not
    labels, _ = label_all(headlines, prices)
    for i in unpurged.train_ids:
        h, bar = headlines[i], prices.bars[labels[i]]
        assert ((h.asset, bar.date) in test_bars) == (i not in prepared.split.train_ids)
    if len({s.date for s in prepared.train}) >= 2:
        fit, val = validation_slice(prepared.train, fraction=0.5, seed=seed)
        assert not {(s.asset, s.trade_date) for s in fit} & {(s.asset, s.trade_date) for s in val}
