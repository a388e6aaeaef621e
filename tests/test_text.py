"""Tokenizer, vocabulary and encoding tests."""

import dataclasses
import string
import unicodedata

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newsvane.text import (
    _DELETE_PUNCTUATION,
    STOP_WORDS,
    Vocabulary,
    build_vocabulary,
    encode_and_pad,
    tokenize,
    vocabulary_to_text,
)


class TestTokenize:
    def test_punctuation_and_case(self):
        assert tokenize("Apple shares fall sharply: report") == [
            "apple", "shares", "fall", "sharply", "report",
        ]

    def test_stop_words_removed(self):
        assert tokenize("Stocks and bonds or gold") == ["stocks", "bonds", "gold"]

    def test_all_stop_words_gives_empty(self):
        assert tokenize("And the of") == []

    def test_symbols_stripped(self):
        assert tokenize("profit $5% gains >10 q2") == ["profit", "5", "gains", "10", "q2"]

    def test_punctuation_deleted_not_spaced(self):
        assert tokenize("don't panic-sell") == ["dont", "panicsell"]

    @given(st.text(max_size=80))
    @settings(max_examples=200, deadline=None)
    def test_token_properties(self, text):
        for tok in tokenize(text):
            assert tok
            assert tok == tok.lower()
            assert tok not in STOP_WORDS
            assert not any(ch.isspace() for ch in tok)


    @settings(max_examples=300, deadline=None)
    @given(st.text(max_size=60)
           | st.text(alphabet=st.characters(categories=("P", "S", "Z", "Lu", "Ll", "Nd")),
                     max_size=60)
           | st.lists(st.sampled_from(sorted(STOP_WORDS) + ["$", "%", "U.S.", "Dow—Jones", "é"]))
           .map(" ".join))
    def test_matches_per_character_reference(self, text):
        """The translate-table tokenizer equals the per-character generator it replaced."""
        def is_punctuation(ch):
            return ch in "$%&+<=>|~" or unicodedata.category(ch).startswith("P")
        cleaned = "".join(ch for ch in text.lower() if not is_punctuation(ch))
        assert tokenize(text) == [tok for tok in cleaned.split() if tok not in STOP_WORDS]

    @settings(max_examples=400, deadline=None)
    @given(st.text(alphabet=st.characters(codec="ascii"), max_size=60)
           | st.text(alphabet=st.sampled_from(
               list(string.printable) + list("$%&+<=>|~«»—…¡¿“”‘’·、。")
               + list("\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2028\u3000")
               + ["é", "ß", "\u212a", "İ", "Ω"]), max_size=60))
    def test_ascii_path_matches_str_translate(self, text):
        """ASCII text takes a bytes.translate path; it must equal the
        str.translate tokenizer it bypasses. U+212A (Kelvin) lowers to ASCII k."""
        cleaned = text.lower().translate(_DELETE_PUNCTUATION)
        assert tokenize(text) == [tok for tok in cleaned.split() if tok not in STOP_WORDS]


class TestVocabulary:
    def test_first_occurrence_order(self):
        vocab = build_vocabulary([["a", "b"], ["b", "c"]], max_len=None)
        assert vocab.tokens == ("a", "b", "c")
        assert vocab.word_to_index == {"a": 1, "b": 2, "c": 3}
        assert vocab.max_len == 2

    def test_single_token(self):
        vocab = build_vocabulary([["x"]], max_len=None)
        assert vocab.word_to_index == {"x": 1}
        assert vocab.max_len == 1

    def test_max_len_override(self):
        vocab = build_vocabulary([["a", "b"], ["b", "c", "a"]], max_len=7)
        assert vocab == Vocabulary(("a", "b", "c"), 7)
        with pytest.raises(ValueError, match="^max_len: "):
            build_vocabulary([["a"]], max_len=0)

    def test_all_empty_errors(self):
        with pytest.raises(ValueError):
            build_vocabulary([[], []], max_len=None)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.sampled_from("abcdefg"), max_size=6), min_size=1, max_size=10))
    def test_matches_per_token_loop(self, texts):
        """The vocabulary built in one pass over the chained tokens equals the
        per-token loop it replaced."""
        word_to_index, max_len = {}, 0
        for tokens in texts:
            max_len = max(max_len, len(tokens))
            for tok in tokens:
                if tok not in word_to_index:
                    word_to_index[tok] = len(word_to_index) + 1
        if not word_to_index:
            with pytest.raises(ValueError, match="every token list is empty"):
                build_vocabulary(texts, max_len=None)
            return
        vocab = build_vocabulary(texts, max_len=None)
        assert list(vocab.word_to_index.items()) == list(word_to_index.items())
        assert vocab.tokens == tuple(word_to_index)
        assert vocab.max_len == max_len

    def test_serialization_format(self):
        vocab = build_vocabulary([["alpha", "beta"], ["beta", "gamma", "alpha"]], max_len=None)
        text = vocabulary_to_text(vocab)
        assert text == "max_len=3\nalpha\t1\nbeta\t2\ngamma\t3\n"

    def test_non_ascii_tokens_serialize_in_index_order(self):
        vocab = Vocabulary(("surge", "slump", "café", "q4"), max_len=12)
        assert vocab.word_to_index == {"surge": 1, "slump": 2, "café": 3, "q4": 4}
        assert vocabulary_to_text(vocab) == "max_len=12\nsurge\t1\nslump\t2\ncafé\t3\nq4\t4\n"

    @pytest.mark.parametrize("tokens, max_len, message", [
        (("a", "b", "a"), 2, "^tokens: repeated token$"),
        (("a", "", "c"), 2, "^tokens: empty token$"),
        (("a", "two\nlines"), 2, "^tokens: a token holds a newline$"),
        (("a\n",), 2, "^tokens: a token holds a newline$"),
        (("a", "b"), 0, "^max_len: expected an integer >= 1, got 0$"),
    ], ids=["repeated", "empty", "newline", "trailing-newline", "max-len-0"])
    def test_construction_rejects(self, tokens, max_len, message):
        with pytest.raises(ValueError, match=message):
            Vocabulary(tokens, max_len)

    def test_tokens_are_a_tuple_and_the_map_is_derived(self):
        vocab = Vocabulary(["b", "a"], 3)
        assert vocab.tokens == ("b", "a") and vocab.size == 2
        assert vocab.word_to_index == {"b": 1, "a": 2}
        assert vocab == Vocabulary(("b", "a"), 3) and hash(vocab) == hash(Vocabulary(("b", "a"), 3))
        assert "word_to_index" not in {f.name for f in dataclasses.fields(Vocabulary)}
        with pytest.raises(AttributeError):
            vocab.word_to_index = {}
        assert Vocabulary((), 1).size == 0


class TestEncodeAndPad:
    VOCAB = Vocabulary(("a", "b", "c"), max_len=4)

    def test_padding(self):
        enc = encode_and_pad(["a", "c"], self.VOCAB)
        assert enc.tolist() == [1, 3, 0, 0]
        assert np.count_nonzero(enc) == 2

    def test_unknown_tokens_dropped(self):
        vocab = Vocabulary(self.VOCAB.tokens, 3)
        enc = encode_and_pad(["z"], vocab)
        assert enc.tolist() == [0, 0, 0]
        assert np.count_nonzero(enc) == 0

    def test_truncation(self):
        vocab = Vocabulary(self.VOCAB.tokens, 3)
        enc = encode_and_pad(["a", "b", "c", "a", "b"], vocab)
        assert enc.tolist() == [1, 2, 3]
        assert np.count_nonzero(enc) == 3

    def test_roundtrip_decode(self):
        enc = encode_and_pad(["b", "z", "a"], self.VOCAB)
        assert enc.tolist() == [2, 1, 0, 0]
        assert [self.VOCAB.tokens[i - 1] for i in enc[enc > 0]] == ["b", "a"]

    @given(
        st.lists(st.sampled_from(["a", "b", "c", "zz", "qq"]), max_size=12),
        st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=200, deadline=None)
    def test_shape_and_order_properties(self, tokens, max_len):
        vocab = Vocabulary(self.VOCAB.tokens, max_len)
        enc = encode_and_pad(tokens, vocab)
        assert type(enc) is np.ndarray and enc.shape == (max_len,) and enc.dtype == np.int64
        kept = [vocab.word_to_index[t] for t in tokens if t in vocab.word_to_index][:max_len]
        # word order of kept tokens preserved, zeros after them, and only there
        assert enc[: len(kept)].tolist() == kept
        assert not enc[len(kept) :].any()
        assert np.count_nonzero(enc) == len(kept)
        again = encode_and_pad(tokens, vocab)
        assert np.array_equal(enc, again)
