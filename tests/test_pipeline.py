"""Dataset-preparation glue tests."""

import datetime as dt
import random

import numpy as np
import pytest

from newsvane.corpus import HeadlineRecord, generate_synthetic, label_all, split_half_hourly_unique
from newsvane.pipeline import prepare_dataset, to_pairs, validation_slice
from newsvane.text import build_vocabulary, encode_and_pad, tokenize


@pytest.fixture(scope="module")
def prepared():
    headlines, prices = generate_synthetic(
        seed=21, n_assets=2, n_days=40, headlines_per_day=4, signal_strength=0.9
    )
    return prepare_dataset(headlines, prices, {"SYN0", "SYN1"})


class TestPrepareDataset:
    def test_roles_and_encoding(self, prepared):
        assert prepared.train and prepared.test
        assert prepared.n_unlabeled == 0  # generator provides the extra bar
        train_ids = {s.headline_id for s in prepared.train}
        test_ids = {s.headline_id for s in prepared.test}
        assert not train_ids & test_ids
        assert train_ids == set(prepared.split.train_ids)
        m = prepared.vocab.max_len
        for s in list(prepared.train) + list(prepared.test):
            assert s.enc.indices.shape == (m,)
            assert s.trade_date > s.date
            assert (s.binary_label == 1) == (s.next_day_return > 0)

    def test_vocabulary_from_training_only(self, prepared):
        # test-side tokens unseen in training are dropped; indices stay valid
        size = prepared.vocab.size
        for s in prepared.test:
            assert s.enc.indices.max() <= size

    def test_max_len_override(self):
        headlines, prices = generate_synthetic(
            seed=21, n_assets=1, n_days=20, headlines_per_day=4, signal_strength=0.9
        )
        prepared = prepare_dataset(headlines, prices, {"SYN0"}, max_len=12)
        assert prepared.vocab.max_len == 12
        assert all(s.enc.indices.shape == (12,) for s in prepared.train)

    def test_to_pairs_heads(self, prepared):
        binary = to_pairs(prepared.train, "binary")
        tri = to_pairs(prepared.train, "multiclass3")
        assert {y for _, y in binary} <= {0, 1}
        assert {y for _, y in tri} <= {0, 1, 2}
        assert len(binary) == len(tri) == len(prepared.train)


def _reference_rows(headlines, prices, portfolio, max_len=None):
    """prepare_dataset's rows as it built them before: a by-id map of the
    labeled headlines, read in sorted id order per role."""
    labels, skipped = label_all(headlines, prices)
    labeled = [h for h in headlines if h.id in labels]
    split = split_half_hourly_unique(labeled, portfolio)
    by_id = {h.id: h for h in labeled}
    train_tokens = {hid: tokenize(by_id[hid].text) for hid in sorted(split.train_ids)}
    vocab = build_vocabulary(list(train_tokens.values()))
    if max_len is not None:
        vocab = vocab.with_max_len(max_len)

    def row(hid, tokens):
        h, lab = by_id[hid], labels[hid]
        enc = encode_and_pad(tokens, vocab)
        return (hid, h.asset, h.date, lab.trade_date, lab.next_day_return, lab.binary_label,
                lab.tri_label, enc.true_len, enc.indices.tolist())

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
        prepared = prepare_dataset(headlines, prices, portfolio, max_len=max_len)
        vocab, train, test, n_unlabeled = _reference_rows(headlines, prices, portfolio, max_len)

        def rows(samples):
            for s in samples:
                assert s.enc.indices.dtype == np.int64
            return [(*s[:7], s.enc.true_len, s.enc.indices.tolist()) for s in samples]

        assert prepared.vocab == vocab
        assert rows(prepared.train) == train
        assert rows(prepared.test) == test
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
