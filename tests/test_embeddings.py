"""Embedding table, pretrained loader, lookup and similarity tests."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newsvane import embeddings
from newsvane.embeddings import (
    EmbeddingTable,
    _parse_vector_file,
    init_self_learnt,
    load_pretrained,
    lookup_concat,
    nearest_neighbors,
)
from newsvane.seeding import derive_seed
from newsvane.text import Vocabulary


def _vocab(*tokens, max_len=4):
    return Vocabulary(tokens, max_len=max_len)


def _write_w2v(path, vectors):
    dim = len(next(iter(vectors.values())))
    lines = [f"{len(vectors)} {dim}"]
    for token, vec in vectors.items():
        lines.append(token + " " + " ".join(str(x) for x in vec))
    path.write_text("\n".join(lines) + "\n")


class TestSelfLearnt:
    def test_deterministic(self):
        vocab = _vocab("a", "b", "c")
        t1 = init_self_learnt(vocab, p=8, mean=0.0, std=0.1, seed=11)
        t2 = init_self_learnt(vocab, p=8, mean=0.0, std=0.1, seed=11)
        assert np.array_equal(t1.matrix, t2.matrix)
        t3 = init_self_learnt(vocab, p=8, mean=0.0, std=0.1, seed=12)
        assert not np.array_equal(t1.matrix, t3.matrix)

    def test_sample_statistics(self):
        # 10^4 entries drawn from Normal(0, 1): check sample mean and std
        vocab = _vocab(*[f"t{i}" for i in range(1000)])
        table = init_self_learnt(vocab, p=10, mean=0.0, std=1.0, seed=0)
        body = table.matrix[1:]
        assert body.size == 10_000
        assert -0.05 <= body.mean() <= 0.05
        assert 0.95 <= body.std() <= 1.05

    def test_padding_row_zero(self):
        table = init_self_learnt(_vocab("a", "b"), p=5, mean=0.0, std=0.1, seed=3)
        assert not table.matrix[0].any()
        assert table.mode == "self_learnt"
        assert table.trainable

    def test_bad_std(self):
        with pytest.raises(ValueError):
            init_self_learnt(_vocab("a"), p=4, std=0.0, mean=0.0, seed=0)
        # a non-finite mean or std would fill every row but the padding row with NaN or inf
        for mean, std, message in ((0.0, float("inf"), "std"), (0.0, float("nan"), "std"),
                                   (float("nan"), 0.1, "mean"), (float("inf"), 0.1, "mean"),
                                   (float("-inf"), 0.1, "mean"), (0.0, -1.0, "std")):
            with pytest.raises(ValueError, match=f"^{message} must be finite"):
                init_self_learnt(_vocab("a"), p=4, std=std, mean=mean, seed=0)


class TestEmbeddingTable:
    def test_p_is_the_width_of_the_matrix(self):
        table = EmbeddingTable(matrix=np.zeros((4, 8)), mode="self_learnt")
        assert table.p == 8 and type(table.p) is int
        table.matrix = np.zeros((4, 3))
        assert table.p == 3
        with pytest.raises(AttributeError):
            table.p = 16
        assert init_self_learnt(_vocab("a", "b"), p=5, mean=0.0, std=0.1, seed=3).p == 5

    def test_p_cannot_be_passed(self):
        with pytest.raises(TypeError):
            EmbeddingTable(matrix=np.zeros((4, 8)), mode="self_learnt", p=16)
        with pytest.raises(TypeError):  # once p, now it would land in pretrained_hit_count
            EmbeddingTable(np.zeros((4, 8)), "self_learnt", 16)
        with pytest.raises(TypeError):
            EmbeddingTable(np.zeros((4, 8)), mode="self_learnt")
        table = EmbeddingTable(matrix=np.zeros((4, 8)), mode="static", pretrained_hit_count=2)
        assert (table.p, table.pretrained_hit_count, table.trainable) == (8, 2, False)


class TestLoadPretrained:
    def test_hits_and_fallback(self, tmp_path):
        path = tmp_path / "vecs.txt"
        _write_w2v(path, {"a": [1.0, 2.0], "x": [3.0, 4.0]})
        vocab = _vocab("a", "b")
        table = load_pretrained(vocab, path, mode="non_static", seed=0, expected_p=2)
        assert table.pretrained_hit_count == 1
        assert table.matrix[1].tolist() == [1.0, 2.0]
        assert table.matrix[2].any()  # random fallback row
        assert not table.matrix[0].any()

    def test_fallback_statistics_per_dimension(self, tmp_path):
        path = tmp_path / "vecs.txt"
        rng = np.random.default_rng(0)
        vectors = {f"w{i}": (rng.normal([5.0, -3.0], [0.5, 2.0])).tolist() for i in range(400)}
        _write_w2v(path, vectors)
        vocab = _vocab(*[f"miss{i}" for i in range(400)])
        table = load_pretrained(vocab, path, mode="static", seed=1, expected_p=2)
        body = table.matrix[1:]
        assert abs(body[:, 0].mean() - 5.0) < 0.2
        assert abs(body[:, 1].mean() + 3.0) < 0.6
        assert abs(body[:, 1].std() - 2.0) < 0.4

    def test_rows_follow_the_vocabulary_not_the_file(self, tmp_path):
        """Table row i + 1 holds the vector of ``vocab.tokens[i]``, whatever
        order the file lists the tokens in."""
        path = tmp_path / "vecs.txt"
        _write_w2v(path, {"c": [3.0, 3.5], "a": [1.0, 1.5], "b": [2.0, 2.5]})
        table = load_pretrained(_vocab("b", "zzz", "a", "c"), path, mode="static", seed=0,
                                expected_p=2)
        assert table.matrix[[1, 3, 4]].tolist() == [[2.0, 2.5], [1.0, 1.5], [3.0, 3.5]]
        assert table.pretrained_hit_count == 3

    def test_expected_dimension_accepted(self, tmp_path):
        path = tmp_path / "vecs.txt"
        _write_w2v(path, {"a": [0.1] * 300})
        table = load_pretrained(_vocab("a"), path, mode="static", seed=0, expected_p=300)
        assert table.p == 300

    def test_dimension_mismatch_rejected(self, tmp_path):
        path = tmp_path / "vecs.txt"
        _write_w2v(path, {"a": [0.1] * 300})
        with pytest.raises(ValueError, match="dimension"):
            load_pretrained(_vocab("a"), path, mode="static", seed=0, expected_p=50)

    def test_dimension_mismatch_rejected_before_the_body_is_read(self, tmp_path, monkeypatch):
        path = tmp_path / "vecs.txt"
        _write_w2v(path, {"a": [0.1] * 300})

        def parse(*args, **kwargs):
            raise AssertionError("the body of a file of the wrong dimension must not be parsed")
        monkeypatch.setattr(np, "loadtxt", parse)
        monkeypatch.setattr(embeddings, "_parse_vector_lines", parse)
        with pytest.raises(ValueError, match=f"^{path}: file dimension 300 != configured p 50$"):
            load_pretrained(_vocab("a"), path, mode="static", seed=0, expected_p=50)

    def test_short_line_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("2 3\na 1.0 2.0 3.0\nb 1.0 2.0\n")
        with pytest.raises(ValueError, match="line 3"):
            load_pretrained(_vocab("a", "b"), path, mode="static", seed=0, expected_p=3)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("not a header\n")
        with pytest.raises(ValueError, match="line 1"):
            load_pretrained(_vocab("a"), path, mode="static", seed=0, expected_p=1)

    def test_extra_whitespace_tolerated(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("1  2\na   1.0\t 2.0\n")
        table = load_pretrained(_vocab("a"), path, mode="non_static", seed=0, expected_p=2)
        assert table.matrix[1].tolist() == [1.0, 2.0]

    def test_self_learnt_mode_rejected(self, tmp_path):
        path = tmp_path / "vecs.txt"
        _write_w2v(path, {"a": [1.0]})
        with pytest.raises(ValueError):
            load_pretrained(_vocab("a"), path, mode="self_learnt", seed=0, expected_p=1)


def _float_per_token(text):
    """The reference parse: ``float()`` of every field of every non-blank body line."""
    rows = [line.split() for line in text.split("\n")[1:] if line.split()]
    return [r[0] for r in rows], [[float(x) for x in r[1:]] for r in rows]


class TestVectorParser:
    """The one-call parser gives ``float()``'s values bit for bit, and the
    errors of a line-by-line parse, with their line numbers."""

    @pytest.mark.parametrize("fmt, wide", [("{:.6f}", False), ("{!r}", False), ("{!r}", True),
                                           ("{:.17g}", True), ("{:.3e}", True)],
                             ids=["bench", "repr", "repr-wide", "17g-wide", "3e-wide"])
    def test_values_equal_float_per_token(self, tmp_path, monkeypatch, fmt, wide):
        rng = np.random.default_rng(7)
        # the benchmark writes normal(0, 0.3) values with %.6f
        values = rng.normal(0.0, 0.3, 6000)
        if wide:
            values = np.concatenate([values * 10.0 ** rng.integers(-300, 300, values.size),
                                     [0.0, -0.0, 5e-324, 1e308, 1e-320, -1e-310]])
        rows = values.reshape(-1, 6)
        text = f"{len(rows)} 6\n" + "".join(
            f"w{i} " + " ".join(fmt.format(v) for v in row.tolist()) + "\n"
            for i, row in enumerate(rows))
        path = tmp_path / "vecs.txt"
        path.write_text(text)

        def line_by_line(*args):
            raise AssertionError("a well-formed file must not need the line-by-line parse")
        monkeypatch.setattr(embeddings, "_parse_vector_lines", line_by_line)
        tokens, parsed = _parse_vector_file(path, 6)
        expected_tokens, expected = _float_per_token(text)
        assert parsed.dtype == np.float64 and parsed.flags.c_contiguous
        assert parsed.shape == (len(rows), 6)
        assert parsed.tobytes() == np.array(expected).tobytes()
        assert tokens == expected_tokens

    @pytest.mark.parametrize("body", [
        "a 1_0 2\nb 3 4\n",            # float() reads underscores, loadtxt does not
        "a \u0661 2\nb 3 \u0968\n",   # non-ASCII digits
        "a 1\x1c2\nb\u20283 4\n",      # separators str.split knows
        "a 1 2\na 3 4\n",             # a repeated token keeps its first vector
    ], ids=["underscore", "non-ascii-digits", "unicode-whitespace", "repeated-token"])
    def test_float_only_inputs_load_as_float_reads_them(self, tmp_path, body):
        path = tmp_path / "vecs.txt"
        path.write_text("2 2\n" + body, encoding="utf-8")
        tokens, parsed = _parse_vector_file(path, 2)
        expected_tokens, expected = _float_per_token("2 2\n" + body)
        assert parsed.tolist() == expected
        assert tokens == expected_tokens
        table = load_pretrained(_vocab("a"), path, mode="static", seed=0, expected_p=2)
        assert table.matrix[1].tolist() == expected[0]

    @pytest.mark.parametrize("body, message", [
        ("a 1 2\n\nb 1\n", "line 4: expected token plus 2 floats, got 1"),
        ("a 1 2\n\nb 1 2 3\n", "line 4: expected token plus 2 floats, got 3"),
        ("a 1 2\nb\n", "line 3: expected token plus 2 floats, got 0"),
        ("a 1 2\n\n\nb 1 x\n", "line 5: malformed float"),
        ("a 1 2\nb 1 0x10\n", "line 3: malformed float"),
        ("a 1 nan\n", "line 2: non-finite value"),
        ("a 1 2\nb inf 2\n", "line 3: non-finite value"),
        ("a 1 2\n\nb -Infinity 2\n", "line 4: non-finite value"),
        ("a 1 2\nb 1e999 2\n", "line 3: non-finite value"),
        ("\n  \n", "no vectors in file"),
    ], ids=["short", "long", "token-only", "malformed", "hex", "nan", "inf", "minus-infinity",
            "overflow", "blank-body"])
    def test_errors_name_the_line(self, tmp_path, body, message):
        path = tmp_path / "vecs.txt"
        path.write_text("2 2\n" + body)
        with pytest.raises(ValueError, match=f"^{path}: {message}$"):
            _parse_vector_file(path, 2)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("2 2\n\n a 1 2 \n\t\n\nb 3 4\n\n")
        tokens, parsed = _parse_vector_file(path, 2)
        assert parsed.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert tokens == ["a", "b"]

    @pytest.mark.parametrize("count", [999, -5, 1, 3, 0])
    def test_header_count_must_match_the_vectors(self, tmp_path, count):
        path = tmp_path / "vecs.txt"
        path.write_text(f"{count} 2\na 1 2\n\nb 3 4\n")
        message = f"^{path}: line 1: header count {count} != 2 vectors in file$"
        with pytest.raises(ValueError, match=message):
            _parse_vector_file(path, 2)

    def test_non_finite_vector_never_reaches_the_table(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("3 2\na 1 2\nb nan 1\nc inf 2\n")
        with pytest.raises(ValueError, match="line 3: non-finite"):
            load_pretrained(_vocab("a", "zzz"), path, mode="static", seed=0, expected_p=2)


def _per_token_load_pretrained(vocab, text, mode, seed):
    """The loader as a per-token loop with one fallback draw per missing token:
    the oracle ``load_pretrained`` is compared against."""
    tokens, rows = _float_per_token(text)
    all_rows = np.array(rows)
    vectors = {}
    for token, row in zip(tokens, all_rows):
        vectors.setdefault(token, row)
    mu, sigma = all_rows.mean(axis=0), all_rows.std(axis=0)
    rng = np.random.default_rng(derive_seed(seed, "embedding-fallback"))
    matrix = np.zeros((vocab.size + 1, all_rows.shape[1]))
    hits = 0
    for index, token in enumerate(vocab.tokens, 1):
        vec = vectors.get(token)
        if vec is not None:
            matrix[index] = vec
            hits += 1
        else:
            matrix[index] = rng.normal(mu, sigma)
    return EmbeddingTable(matrix=matrix, mode=mode, pretrained_hit_count=hits)


_NAMES = st.sampled_from(["a", "b", "c", "d", "e", "f", "g"])


@st.composite
def _vector_files(draw):
    """A word2vec text (repeated tokens and blank lines included) and a vocabulary
    in another order that holds some of its tokens and some it lacks."""
    dim = draw(st.integers(1, 4))
    value = st.floats(-1e6, 1e6, allow_nan=False, width=64)
    lines = [draw(_NAMES) + "".join(f" {draw(value)!r}" for _ in range(dim))
             for _ in range(draw(st.integers(1, 8)))]
    body = []
    for line in lines:
        body += [" " * draw(st.integers(0, 2))] * draw(st.integers(0, 1)) + [line]
    text = f"{len(lines)} {dim}\n" + "\n".join(body) + "\n"
    return text, _vocab(*draw(st.lists(_NAMES, min_size=1, unique=True)))


@settings(max_examples=300, deadline=None)
@given(file=_vector_files(), mode=st.sampled_from(["static", "non_static"]),
       seed=st.integers(0, 2**32 - 1))
def test_load_pretrained_matches_the_per_token_oracle(file, mode, seed):
    text, vocab = file
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "vecs.txt"
        path.write_text(text)
        table = load_pretrained(vocab, path, mode, seed=seed, expected_p=int(text.split()[1]))
    expected = _per_token_load_pretrained(vocab, text, mode, seed)
    assert table.matrix.tobytes() == expected.matrix.tobytes()
    assert (table.pretrained_hit_count, table.mode, table.p) == (
        expected.pretrained_hit_count, expected.mode, expected.p)


@settings(max_examples=200, deadline=None)
@given(file_tokens=st.lists(_NAMES, min_size=1, unique=True),
       vocab_tokens=st.lists(st.sampled_from("abcdefgxyz"), min_size=1, unique=True),
       data=st.data())
def test_each_token_gets_its_own_vector_in_any_order(file_tokens, vocab_tokens, data):
    """Across shuffled vocabulary orders, a hit's row is its own file vector and
    the hit count is the number of vocabulary tokens the file holds."""
    vectors = {tok: [k + 1.0, -0.5 * k] for k, tok in enumerate(file_tokens)}
    shuffled = data.draw(st.permutations(vocab_tokens))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "vecs.txt"
        _write_w2v(path, vectors)
        tables = [load_pretrained(_vocab(*tokens), path, "non_static", seed=5, expected_p=2)
                  for tokens in (vocab_tokens, shuffled)]
    for tokens, table in zip((vocab_tokens, shuffled), tables):
        assert table.pretrained_hit_count == len(set(tokens) & set(file_tokens))
        assert not table.matrix[0].any()
        for i, token in enumerate(tokens):
            if token in vectors:
                assert table.matrix[i + 1].tolist() == vectors[token]


def test_one_normal_call_draws_as_successive_row_calls():
    """``load_pretrained`` draws every missing row with one ``normal`` call; it
    gives the bits of one call per row, in row order."""
    mu, sigma = np.array([0.5, -2.0, 3e-3, 7.0]), np.array([0.1, 2.0, 0.0, 1e3])
    together = np.random.default_rng(3).normal(mu, sigma, size=(50, 4))
    rng = np.random.default_rng(3)
    assert together.tobytes() == np.array([rng.normal(mu, sigma) for _ in range(50)]).tobytes()


class TestLookupConcat:
    def test_concatenation(self):
        table = EmbeddingTable(matrix=np.array([[0.0, 0.0], [3.0, 4.0]]), mode="self_learnt")
        enc = np.array([1, 0])
        assert lookup_concat(enc, table).tolist() == [3.0, 4.0, 0.0, 0.0]

    def test_all_padding_gives_zero_vector(self):
        table = EmbeddingTable(matrix=np.ones((3, 2)), mode="self_learnt")
        table.matrix[0] = 0.0
        enc = np.zeros(4, dtype=np.int64)
        x = lookup_concat(enc, table)
        assert x.shape == (8,)
        assert not x.any()

    def test_repeated_token(self):
        table = EmbeddingTable(matrix=np.array([[0.0], [5.0], [7.0]]), mode="self_learnt")
        enc = np.array([2, 2, 0])
        assert lookup_concat(enc, table).tolist() == [7.0, 7.0, 0.0]

    def test_out_of_range_index(self):
        table = EmbeddingTable(matrix=np.zeros((2, 1)), mode="self_learnt")
        enc = np.array([5])
        with pytest.raises(ValueError, match="corrupt"):
            lookup_concat(enc, table)

    @pytest.mark.parametrize("dtype", [np.int64, np.int32])
    def test_negative_index(self, dtype):
        # numpy would read index -1 as the last row
        table = EmbeddingTable(matrix=np.arange(3.0)[:, None], mode="self_learnt")
        enc = np.array([1, -1, 0], dtype=dtype)
        with pytest.raises(ValueError, match="corrupt"):
            lookup_concat(enc, table)


def _similarity(u, v):
    """The cosine similarity nearest_neighbors reports between two tokens."""
    table = EmbeddingTable(matrix=np.vstack([np.zeros(len(u)), u, v]), mode="self_learnt")
    [(token, sim)] = nearest_neighbors("u", 1, table, _vocab("u", "v"))
    assert token == "v"
    return sim


class TestCosineSimilarity:
    def test_identical(self):
        assert _similarity(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert _similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_colinear(self):
        assert _similarity(np.array([1.0, 2.0]), np.array([2.0, 4.0])) == pytest.approx(1.0)

    def test_zero_norm_rejected(self):
        table = EmbeddingTable(matrix=np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]]),
                               mode="self_learnt")
        with pytest.raises(ValueError, match="zero embedding vector"):
            nearest_neighbors("u", 1, table, _vocab("u", "v"))
        assert nearest_neighbors("v", 1, table, _vocab("u", "v")) == []  # zero row skipped

    def test_range(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            u, v = rng.normal(size=(2, 6))
            assert -1.0 - 1e-12 <= _similarity(u, v) <= 1.0 + 1e-12


def _brute_force_neighbors(token, k, table, vocab):
    """Independent oracle: plain loop, python sort."""
    qi = vocab.word_to_index[token]
    q = table.matrix[qi]
    rows = []
    for idx, other in enumerate(vocab.tokens, 1):
        if idx == qi:
            continue
        v = table.matrix[idx]
        norm = float(np.linalg.norm(v))
        if norm == 0.0:
            continue
        sim = float(np.dot(v, q)) / (norm * float(np.linalg.norm(q)))
        rows.append((other, sim, idx))
    rows.sort(key=lambda r: (-r[1], r[2]))
    return [(t, s) for t, s, _ in rows[:k]]


def assert_neighbors_match(result, expected):
    """Same ranked tokens; similarities equal up to float summation order."""
    assert [t for t, _ in result] == [t for t, _ in expected]
    np.testing.assert_allclose(
        [s for _, s in result], [s for _, s in expected], rtol=0, atol=1e-12
    )


class TestNearestNeighbors:
    def test_two_candidate_example(self):
        vocab = _vocab("a", "b", "c")
        table = EmbeddingTable(
            matrix=np.array([[0.0, 0.0], [1.0, 0.0], [0.9, 0.1], [0.0, 1.0]]),
            mode="self_learnt",
        )
        result = nearest_neighbors("a", 1, table, vocab)
        assert_neighbors_match(result, _brute_force_neighbors("a", 1, table, vocab))
        assert result[0][0] == "b"

    def test_k_exceeding_vocab_returns_all_sorted(self):
        vocab = _vocab("a", "b", "c", "d")
        rng = np.random.default_rng(4)
        matrix = rng.normal(size=(5, 3))
        matrix[0] = 0.0
        table = EmbeddingTable(matrix=matrix, mode="self_learnt")
        result = nearest_neighbors("b", 99, table, vocab)
        assert len(result) == 3
        assert_neighbors_match(result, _brute_force_neighbors("b", 99, table, vocab))

    def test_singleton_vocab_gives_empty(self):
        vocab = _vocab("only")
        table = EmbeddingTable(matrix=np.array([[0.0], [1.0]]), mode="self_learnt")
        assert nearest_neighbors("only", 3, table, vocab) == []

    def test_unknown_token(self):
        vocab = _vocab("a")
        table = EmbeddingTable(matrix=np.ones((2, 2)), mode="self_learnt")
        with pytest.raises(KeyError):
            nearest_neighbors("zzz", 1, table, vocab)

    @pytest.mark.parametrize("size", [5, 37, 200, 1000])
    def test_matches_brute_force(self, size):
        vocab = _vocab(*[f"t{i}" for i in range(size)], max_len=4)
        rng = np.random.default_rng(size)
        matrix = rng.normal(size=(size + 1, 8))
        matrix[0] = 0.0
        table = EmbeddingTable(matrix=matrix, mode="self_learnt")
        for token in ("t0", f"t{size // 2}", f"t{size - 1}"):
            k = int(rng.integers(1, size))
            assert_neighbors_match(
                nearest_neighbors(token, k, table, vocab),
                _brute_force_neighbors(token, k, table, vocab),
            )
