"""Unit oracles for every network primitive plus a fully hand-traced forward."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from newsvane import network
from newsvane.embeddings import EmbeddingTable, lookup_concat
from newsvane.network import (
    LOG_EPS,
    ModelConfig,
    ModelParameters,
    apply_dropout,
    backward,
    conv_forward,
    dense_forward,
    forward,
    init_parameters,
    param_layout,
    predict,
    sample_loss,
    sigmoid,
    softmax3,
)
from newsvane.training import _batch_sum
from test_checkpoint import _model_configs


def _conv1(x, filt, bias, h):
    """One filter's relu feature map, through forward's filter-bank conv."""
    windows, pre = conv_forward(x, filt[None, :], np.array([bias]), p=filt.size // h)
    assert windows.shape == (pre.shape[0], filt.size)
    return np.maximum(0.0, pre[:, 0])


class TestConvForward:
    def test_hand_oracle(self):
        # p=1, m=3, X=[1,2,3], filter [1,1], bias 0, h=2 -> [1+2, 2+3]
        out = _conv1(np.array([1.0, 2.0, 3.0]), np.array([1.0, 1.0]), 0.0, h=2)
        assert out.tolist() == [3.0, 5.0]

    def test_relu_clamps(self):
        out = _conv1(np.array([1.0, 2.0, 3.0]), np.zeros(2), -1.0, h=2)
        assert out.tolist() == [0.0, 0.0]

    def test_filter_as_wide_as_sentence(self):
        out = _conv1(np.array([1.0, 2.0, 3.0]), np.array([1.0, 1.0, 1.0]), 0.5, h=3)
        assert out.tolist() == [6.5]

    def test_word_alignment_with_p2(self):
        # m=3, p=2: windows are word-aligned, not element-aligned
        x = np.array([1.0, 10.0, 2.0, 20.0, 3.0, 30.0])
        filt = np.array([1.0, 0.0, 1.0, 0.0])
        out = _conv1(x, filt, 0.0, h=2)
        assert out.tolist() == [3.0, 5.0]

    def test_length_property(self):
        rng = np.random.default_rng(0)
        for m, p, h in [(4, 1, 2), (7, 3, 2), (9, 2, 5), (6, 4, 6)]:
            out = _conv1(rng.normal(size=m * p), rng.normal(size=h * p), 0.1, h=h)
            assert out.shape == (m - h + 1,)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            conv_forward(np.ones(5), np.ones((1, 4)), np.zeros(1), p=2)  # 5 not divisible by p=2


def _naive_pool(c, w):
    out, pos = [], []
    for start in range(0, len(c), w):
        window = list(c[start : start + w])
        best = max(window)
        out.append(best)
        pos.append(start + window.index(best))
    return out, pos


def forward_pools(words, w):
    """Pool feature maps of ``words`` through a train-mode forward.

    p = 1 and one filter per width (2, 3, 4), each [1, 0, ...] with bias 0,
    so width h's map is relu of the first len(words) - h + 1 words: a
    wider map is a shorter prefix, which can end in windows of padding only.
    Returns (map, pooled values, pool positions) per width, the last two
    taken from the cache's ``z`` and ``positions``.
    """
    m = len(words)
    config = ModelConfig(p=1, m=m, filter_widths=(2, 3, 4), filters_per_width=1,
                         hidden_sizes=(2, 1), pool_w=w, dropout_rate=0.0, head="binary")
    table = EmbeddingTable(matrix=np.array([0.0, *words])[:, None], mode="static")
    layout = param_layout(config)
    params = ModelParameters.from_flat(np.zeros(layout.size), layout)
    for h in config.filter_widths:
        params.filters[h][0, 0] = 1.0
    _, cache = forward(np.arange(1, m + 1), table, params, config, mode="train")
    pools, start = [], 0
    for width in cache.plan.widths:
        n = config.pooled_len(width.h)
        post = [max(0.0, v) for v in words[: width.length]]
        pools.append((post, cache.z[start : start + n].tolist(),
                      cache.positions[:n, width.cols][:, 0].tolist()))
        start += n
    return pools


def _pool1(c, w):
    """Pool the map ``c`` (as width 4's map, with three more words) through
    forward; every width's pool, those ending in windows of padding only
    too, must match the naive one."""
    pools = forward_pools([*c, 0.5, 2.0, 0.5], w)
    for post, pooled, positions in pools:
        assert (pooled, positions) == _naive_pool(post, w)
    return pools[-1][1:]


class TestMaxpool:
    def test_even_windows(self):
        pooled, pos = _pool1([3.0, 5.0, 1.0, 4.0], 2)
        assert pooled == [5.0, 4.0]
        assert pos == [1, 3]
        assert _pool1([3.0, 5.0, 1.0], 1) == ([3.0, 5.0, 1.0], [0, 1, 2])

    def test_partial_final_window(self):
        pooled, pos = _pool1([3.0, 5.0, 1.0], 2)
        assert pooled == [5.0, 1.0]
        assert pos == [1, 2]
        pooled, pos = _pool1([3.0, 5.0, 1.0, 4.0], 3)
        assert (pooled, pos) == ([5.0, 4.0], [1, 3])

    def test_single_element(self):
        pooled, _ = _pool1([7.0], 2)
        assert pooled == [7.0]

    def test_tie_takes_leftmost(self):
        _, pos = _pool1([2.0, 2.0, 1.0, 5.0, 5.0], 2)
        assert pos == [0, 3, 4]
        _, pos = _pool1([1.0, 2.0, 2.0, 0.0, 0.0, 0.0], 3)
        assert pos == [1, 3]

    def test_empty_rejected(self):
        # a map is empty only under a filter wider than the sentence, which no config allows
        with pytest.raises(ValueError):
            _pool1([], 2)

    @given(
        st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=40),
        st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_naive(self, values, w):
        pooled, pos = _pool1(values, w)
        assert (pooled, pos) == _naive_pool([max(0.0, v) for v in values], w)
        assert len(pooled) == math.ceil(len(values) / w)


class TestDenseForward:
    def test_identity_relu(self):
        out = dense_forward(np.array([-1.0, 2.0]), np.eye(2), np.zeros(2), "relu")
        assert out.tolist() == [0.0, 2.0]

    def test_zero_input_gives_activated_bias(self):
        out = dense_forward(np.zeros(3), np.ones((2, 3)), np.array([-0.5, 0.5]), "relu")
        assert out.tolist() == [0.0, 0.5]

    def test_hand_oracle_no_activation(self):
        out = dense_forward(np.array([1.0, 2.0]), np.array([[1.0, 1.0]]), np.array([0.5]), "none")
        assert out.tolist() == [3.5]

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            dense_forward(np.ones(3), np.ones((2, 2)), np.zeros(2), "relu")

    @pytest.mark.parametrize("activation", ["relu", "none"])
    def test_inputs_unchanged_and_output_fresh(self, activation):
        rng = np.random.default_rng(3)
        zprev, w, b = rng.normal(size=5), rng.normal(size=(4, 5)), rng.normal(size=4)
        before = [a.tobytes() for a in (zprev, w, b)]
        out = dense_forward(zprev, w, b, activation)
        assert [a.tobytes() for a in (zprev, w, b)] == before
        assert not any(np.shares_memory(out, a) for a in (zprev, w, b))


class TestDropout:
    def test_rate_zero_train_is_identity(self):
        v = np.array([1.0, -2.0, 3.0])
        for rng in (np.random.default_rng(0), None):
            out = apply_dropout(v, 0.0, "train", rng)
            assert out.tolist() == v.tolist() and out is not v

    def test_test_mode_scales(self):
        out = apply_dropout(np.array([2.0, 4.0]), 0.5, "test")
        assert out.tolist() == [1.0, 2.0]

    @pytest.mark.parametrize("rate", [0.0, 0.25])
    def test_test_mode_leaves_its_input_unchanged(self, rate):
        v = np.array([2.0, -4.0, 0.5])
        out = apply_dropout(v, rate, "test")
        assert v.tolist() == [2.0, -4.0, 0.5] and not np.shares_memory(out, v)

    def test_zeroed_fraction(self):
        rng = np.random.default_rng(7)
        v = np.random.default_rng(8).normal(size=10_000)
        out = apply_dropout(v, 0.5, "train", rng)
        kept = np.random.default_rng(7).random(v.shape) >= 0.5  # the same draws
        assert 0.47 <= 1.0 - kept.mean() <= 0.53
        assert out.tobytes() == (v * kept.astype(np.float64)).tobytes()

    def test_deterministic_per_stream(self):
        a = apply_dropout(np.ones(100), 0.3, "train", np.random.default_rng(5))
        b = apply_dropout(np.ones(100), 0.3, "train", np.random.default_rng(5))
        assert a.tolist() == b.tolist()


class TestSigmoid:
    def test_zero(self):
        assert sigmoid(0.0) == 0.5

    def test_symmetry(self):
        for z in (-3.7, -0.2, 1.1, 8.0):
            assert sigmoid(z) == pytest.approx(1.0 - sigmoid(-z), abs=1e-15)

    def test_saturation_no_overflow(self):
        assert sigmoid(40.0) == pytest.approx(1.0, abs=1e-15)
        assert sigmoid(-745.0) >= 0.0
        assert sigmoid(1e4) == 1.0


class TestSoftmax3:
    def test_uniform(self):
        np.testing.assert_allclose(softmax3(np.zeros(3)), [1 / 3] * 3, atol=1e-15)

    def test_hand_oracle(self):
        e = math.e
        np.testing.assert_allclose(
            softmax3(np.array([1.0, 1.0, 0.0])),
            [e / (2 * e + 1), e / (2 * e + 1), 1 / (2 * e + 1)],
            atol=1e-15,
        )

    def test_shift_invariance_and_sum(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            z = rng.normal(size=3) * 10
            s = softmax3(z)
            assert abs(s.sum() - 1.0) < 1e-12
            np.testing.assert_allclose(s, softmax3(z + 123.456), atol=1e-12)


def _old_loss_binary(sigma, y):
    """The former separate binary cross-entropy, kept as an exact oracle."""
    s = min(max(sigma, LOG_EPS), 1.0 - LOG_EPS)
    return -(y * math.log(s) + (1 - y) * math.log(1.0 - s))


def _old_loss_categorical(probs, y_onehot):
    """The former separate categorical cross-entropy, kept as an exact oracle."""
    s = min(max(float(probs[int(np.argmax(y_onehot))]), LOG_EPS), 1.0 - LOG_EPS)
    return -math.log(s)


class TestLosses:
    def test_binary_values(self):
        assert sample_loss(0.5, 1, "binary") == pytest.approx(math.log(2.0), abs=1e-12)
        assert sample_loss(1.0 - 1e-12, 1, "binary") == pytest.approx(0.0, abs=1e-6)
        assert sample_loss(0.9, 0, "binary") == pytest.approx(-math.log(0.1), abs=1e-12)

    def test_binary_clamped_no_infinity(self):
        assert math.isfinite(sample_loss(0.0, 1, "binary"))
        assert math.isfinite(sample_loss(1.0, 0, "binary"))

    def test_categorical_values(self):
        uniform = np.full(3, 1 / 3)
        for cls in range(3):
            assert sample_loss(uniform, cls, "multiclass3") == pytest.approx(math.log(3.0), abs=1e-12)
        assert sample_loss(np.array([0.0, 1.0, 0.0]), 1, "multiclass3") == pytest.approx(0.0, abs=1e-6)
        assert sample_loss(np.array([0.7, 0.2, 0.1]), 1, "multiclass3") == pytest.approx(
            -math.log(0.2), abs=1e-12
        )

    def test_matches_former_formulas_bit_for_bit(self):
        # the clamp edges, values just inside and outside them, and random
        # probabilities, for every class of both heads
        edges = [0.0, LOG_EPS / 2, LOG_EPS, 2 * LOG_EPS, 0.5, 1.0 - 2 * LOG_EPS, 1.0 - LOG_EPS,
                 1.0 - LOG_EPS / 2, 1.0, 1.0 + LOG_EPS, -LOG_EPS]
        rng = np.random.default_rng(11)
        for sigma in edges + rng.random(500).tolist():
            for y in (0, 1):
                assert sample_loss(sigma, y, "binary") == _old_loss_binary(sigma, y)
        probs = [np.array(row) for row in
                 [(0.0, 0.0, 1.0), (LOG_EPS, 1.0 - LOG_EPS, 0.0), (1.0, 0.0, 0.0)]]
        probs += list(rng.dirichlet(np.full(3, 0.3), size=300))
        for row in probs:
            for y in range(3):
                assert sample_loss(row, y, "multiclass3") == _old_loss_categorical(row, np.eye(3)[y])


def _toy_setup():
    """Hand-traced instance: p=1, m=3, one width h=2, four filters."""
    config = ModelConfig(
        p=1, m=3, filter_widths=(2,), filters_per_width=4,
        hidden_sizes=(3, 2), dropout_rate=0.0, pool_w=2, head="binary",
    )
    table = EmbeddingTable(matrix=np.array([[0.0], [2.0], [-1.0]]), mode="non_static")
    enc = np.array([1, 2, 1])
    layout = param_layout(config)
    params = ModelParameters.from_flat(np.zeros(layout.size), layout)
    params.filters[2][:] = [[1.0, 0.5], [-1.0, 1.0], [0.0, 1.0], [1.0, 1.0]]
    params.filter_biases[2][:] = [0.0, 0.5, -0.5, 0.0]
    params.w1[:] = [[1.0, 0.0, 0.0, 0.0], [0.0, 0.5, -1.0, 0.0], [0.0, 0.0, 1.0, -2.0]]
    params.b1[:] = [0.0, 0.25, 0.0]
    params.w2[:] = [[1.0, 1.0, 1.0], [0.5, -1.0, 0.0]]
    params.b2[:] = [0.0, -0.25]
    params.w_out[:] = [[0.5, 1.0]]
    params.b_out[:] = [-0.6]
    return config, table, enc, params


class TestParamLayout:
    CONFIG = ModelConfig(
        p=2, m=6, filter_widths=(4, 3), filters_per_width=2,
        hidden_sizes=(5, 3), dropout_rate=0.0, head="multiclass3",
    )

    def test_storage_order_and_offsets(self):
        layout = param_layout(self.CONFIG)
        assert layout.names == (
            "filters[3]", "filters[4]", "filter_biases[3]", "filter_biases[4]",
            "w1", "b1", "w2", "b2", "w_out", "b_out",
        )
        params = init_parameters(self.CONFIG, np.random.default_rng(0))
        assert params.flat.shape == (layout.size,)
        assert [a.shape for _, a in params.tensors()] == [
            (2, 6), (2, 8), (2,), (2,), (5, self.CONFIG.z_len), (5,), (3, 5), (3,), (3, 3), (3,),
        ]
        start = layout.starts[layout.names.index("w1")]
        assert layout.name_at(start - 1) == "filter_biases[4]"
        assert layout.name_at(start) == "w1"
        assert layout.name_at(layout.size - 1) == "b_out"

    def test_init_draws_in_config_width_order(self):
        params = init_parameters(self.CONFIG, np.random.default_rng(7))
        rng = np.random.default_rng(7)
        expected = {h: rng.normal(0.0, 1.0 / math.sqrt(2 * h), size=(2, 2 * h)) for h in (4, 3)}
        for h in (4, 3):
            assert params.filters[h].tobytes() == expected[h].tobytes()
        z = self.CONFIG.z_len
        assert params.w1.tobytes() == rng.normal(0.0, 1.0 / math.sqrt(z), size=(5, z)).tobytes()
        assert not params.b1.any()

    def test_keyword_construction_packs_one_vector(self):
        _, _, _, params = _toy_setup()
        assert params.flat.size == sum(a.size for _, a in params.tensors())
        params.w1[0, 0] = 9.0
        assert params.flat[params.layout.starts[params.layout.names.index("w1")]] == 9.0


class TestForward:
    def test_zero_everything_gives_half(self):
        config = ModelConfig(
            p=2, m=4, filter_widths=(2,), filters_per_width=4,
            hidden_sizes=(3, 2), dropout_rate=0.0, head="binary",
        )
        table = EmbeddingTable(matrix=np.zeros((3, 2)), mode="self_learnt")
        enc = np.zeros(4, dtype=np.int64)
        params = init_parameters(config, np.random.default_rng(0))
        for name, arr in params.tensors():
            arr[:] = 0.0
        output, cache = forward(enc, table, params, config, mode="test")
        assert output == 0.5
        assert cache is None

    def test_hand_traced_values(self):
        config, table, enc, params = _toy_setup()
        output, cache = forward(enc, table, params, config, mode="train")
        assert list(cache.windows) == [2]
        assert cache.windows[2].tolist() == [[2.0, -1.0], [-1.0, 2.0]]
        np.testing.assert_array_equal(
            cache.pre, [[1.5, -2.5, -1.5, 1.0], [0.0, 3.5, 1.5, 1.0]]
        )
        assert cache.positions.tolist() == [[0, 1, 1, 0]]
        assert cache.z.tolist() == [1.5, 3.5, 1.5, 1.0]
        assert cache.drop1.tolist() == [1.5, 0.5, 0.0]  # dropout 0: the relu outputs
        assert cache.drop2.tolist() == [2.0, 0.0]
        assert cache.logits.tolist() == [0.4]
        assert output == pytest.approx(1.0 / (1.0 + math.exp(-0.4)), abs=1e-15)

    def test_test_mode_is_pure(self):
        config, table, enc, params = _toy_setup()
        a, _ = forward(enc, table, params, config, mode="test")
        b, _ = forward(enc, table, params, config, mode="test")
        assert a == b

    @pytest.mark.parametrize("head", ["binary", "multiclass3"])
    def test_test_mode_leaves_table_and_parameters_unchanged(self, head):
        config = ModelConfig(p=3, m=7, filter_widths=(4, 2), filters_per_width=2,
                             hidden_sizes=(6, 3), dropout_rate=0.3, pool_w=2, head=head)
        rng = np.random.default_rng(4)
        table = EmbeddingTable(matrix=rng.normal(size=(5, 3)), mode="non_static")
        table.matrix[0] = 0.0
        params = init_parameters(config, rng)
        params.flat[:] += rng.normal(0.0, 0.3, size=params.flat.size)
        before = table.matrix.tobytes(), params.flat.tobytes()
        for indices in ([1, 2, 3, 4, 1, 0, 0], [4, 4, 4, 4, 4, 4, 4], [0] * 7):
            forward(np.array(indices), table, params, config, mode="test")
            assert (table.matrix.tobytes(), params.flat.tobytes()) == before

    def test_dropout_scaling_applies_in_test_mode(self):
        import dataclasses

        config, table, enc, params = _toy_setup()
        dropped_cfg = dataclasses.replace(config, dropout_rate=0.5)
        base, _ = forward(enc, table, params, config, mode="test")
        scaled, _ = forward(enc, table, params, dropped_cfg, mode="test")
        # scaling shrinks both hidden activations: logit moves toward b_out
        assert scaled != base

    def test_multiclass_head_probabilities(self):
        config, table, enc, params = _toy_setup()
        import dataclasses

        config3 = dataclasses.replace(config, head="multiclass3")
        layout3 = param_layout(config3)
        params3 = ModelParameters.from_flat(np.zeros(layout3.size), layout3)
        for name in ("w1", "b1", "w2", "b2"):
            getattr(params3, name)[:] = getattr(params, name)
        params3.filters[2][:] = params.filters[2]
        params3.filter_biases[2][:] = params.filter_biases[2]
        params3.w_out[:] = [[0.5, 1.0], [0.0, 0.0], [-0.5, 2.0]]
        params3.b_out[:] = [-0.6, 0.0, 0.1]
        output, _ = forward(enc, table, params3, config3, mode="test")
        np.testing.assert_allclose(output, softmax3(np.array([0.4, 0.0, -0.9])), atol=1e-15)
        assert output.sum() == pytest.approx(1.0, abs=1e-12)


def _random_encodings(config, n, rng, vocab_size=5):
    """``n`` encodings of ``config.m`` indices below ``vocab_size``, each a random
    number of word indices followed by padding."""
    encodings = []
    for _ in range(n):
        n_words = int(rng.integers(0, config.m + 1))
        enc = np.zeros(config.m, dtype=np.int64)
        enc[:n_words] = rng.integers(1, vocab_size, size=n_words)
        encodings.append(enc)
    return encodings


class TestPredict:
    @settings(max_examples=30, deadline=None)
    @given(config=_model_configs(), n=st.integers(0, 6), seed=st.integers(0, 2**16))
    def test_matches_per_headline_forward_bit_for_bit(self, config, n, seed):
        rng = np.random.default_rng(seed)
        table = EmbeddingTable(matrix=rng.normal(size=(5, config.p)), mode="non_static")
        table.matrix[0] = 0.0
        params = init_parameters(config, rng)
        encodings = _random_encodings(config, n, rng)
        outputs = predict(encodings, table, params, config)
        shape = (n,) if config.head == "binary" else (n, 3)
        expected = [forward(enc, table, params, config, mode="test")[0] for enc in encodings]
        assert outputs.dtype == np.float64 and outputs.shape == shape
        assert outputs.tobytes() == np.array(expected, dtype=np.float64).reshape(shape).tobytes()
        # the rows of an (N, m) matrix are encodings too, and so are lists of indices
        matrix = np.array(encodings, dtype=np.int64).reshape(n, config.m)
        assert predict(matrix, table, params, config).tobytes() == outputs.tobytes()
        lists = [enc.tolist() for enc in encodings]
        assert predict(lists, table, params, config).tobytes() == outputs.tobytes()

    @pytest.mark.parametrize("head, shape", [("binary", (0,)), ("multiclass3", (0, 3))])
    def test_no_encodings_give_an_empty_array_of_the_head(self, head, shape):
        config = ModelConfig(p=2, m=5, filter_widths=(2, 3), filters_per_width=2,
                             hidden_sizes=(4, 2), dropout_rate=0.25, head=head)
        table = EmbeddingTable(matrix=np.zeros((3, 2)), mode="static")
        outputs = predict([], table, init_parameters(config, np.random.default_rng(0)), config)
        assert outputs.shape == shape and outputs.dtype == np.float64

    def test_scores_each_headline_through_the_module_forward(self, monkeypatch):
        """One test-mode ``network.forward`` call per headline, in order: the
        name a profiler that wraps that global counts."""
        config, table, enc, params = _toy_setup()
        calls = []

        def counting(enc, *args, mode, **kwargs):
            calls.append((enc, mode))
            return forward(enc, *args, mode=mode, **kwargs)

        monkeypatch.setattr(network, "forward", counting)
        other = np.array([2, 2, 0])
        predict([enc, other, enc], table, params, config)
        assert [mode for _, mode in calls] == ["test"] * 3
        assert all(np.array_equal(got, want)
                   for (got, _), want in zip(calls, [enc, other, enc], strict=True))

    @pytest.mark.parametrize("encodings", [[[1, 2, 0], [1, 2]], [[1, 2]], [[1, 2, 0, 0]], [1, 2, 0]],
                             ids=["ragged", "short-row", "long-row", "one-flat-row"])
    def test_rows_that_are_not_m_indices_raise(self, encodings):
        config, table, _, params = _toy_setup()
        assert config.m == 3
        with pytest.raises(ValueError):
            predict(encodings, table, params, config)


def _naive_feature_maps(x, filt, bias, h, p, w):
    """Per-window relu conv of one filter, then its pool: plain loops."""
    post = []
    for k in range(x.size // p - h + 1):
        acc = bias
        for j in range(h * p):
            acc += filt[j] * x[k * p + j]
        post.append(max(0.0, acc))
    return post, _naive_pool(post, w)


@settings(max_examples=60, deadline=None)
@given(config=_model_configs(), seed=st.integers(0, 2**16))
def test_forward_feature_maps_match_naive_conv_and_pool(config, seed):
    # the conv and pool forward runs, checked on its own cache for random shapes
    rng = np.random.default_rng(seed)
    matrix = rng.normal(size=(6, config.p))
    matrix[0] = 0.0
    table = EmbeddingTable(matrix=matrix, mode="non_static")
    n_words = int(rng.integers(0, config.m + 1))
    enc = np.zeros(config.m, dtype=np.int64)
    enc[:n_words] = rng.integers(1, 6, size=n_words)
    params = init_parameters(config, rng)
    params.flat[:] += rng.normal(0.0, 0.3, size=params.flat.size)  # non-zero biases too

    _, cache = forward(enc, table, params, config, mode="train", rng=rng)
    x = lookup_concat(enc, table)
    plan, z = cache.plan, []
    assert cache.pre.shape == (plan.rows, config.total_filters)
    assert (cache.pre[plan.pad] == -np.inf).all()
    for width in plan.widths:
        h, n_pooled = width.h, config.pooled_len(width.h)
        pre, positions = cache.pre[: width.length, width.cols], cache.positions[:, width.cols]
        for f in range(config.filters_per_width):
            post, (pooled, _) = _naive_feature_maps(
                x, params.filters[h][f], params.filter_biases[h][f], h, config.p, config.pool_w)
            np.testing.assert_allclose(np.maximum(pre[:, f], 0.0), post, rtol=1e-12, atol=1e-12)
            # pooling picks exactly, so it is checked on forward's own map
            assert _naive_pool(np.maximum(0.0, pre[:, f]).tolist(), config.pool_w) == (
                cache.z[len(z):len(z) + n_pooled].tolist(), positions[:n_pooled, f].tolist())
            z.extend(pooled)
    np.testing.assert_allclose(cache.z, z, rtol=1e-12, atol=1e-12)


class TestShapes:
    def test_map_and_z_lengths(self):
        config = ModelConfig(
            p=3, m=11, filter_widths=(2, 4, 5), filters_per_width=3,
            hidden_sizes=(8, 4), dropout_rate=0.0, pool_w=2, head="binary",
        )
        table = EmbeddingTable(matrix=np.random.default_rng(0).normal(size=(6, 3)),
                               mode="self_learnt")
        enc = np.array([1, 2, 3, 4, 5, 1, 2, 0, 0, 0, 0])
        params = init_parameters(config, np.random.default_rng(1))
        _, cache = forward(enc, table, params, config, mode="train")
        # the longest map, 10 rows, as 5 pool windows; the wider maps end in padding
        assert cache.pre.shape == (10, 9) and cache.positions.shape == (5, 9)
        for width in cache.plan.widths:
            assert width.length == 11 - width.h + 1
            assert cache.plan.pad[:, width.cols].sum(axis=0).tolist() == [width.h - 2] * 3
        expected_z = sum(3 * math.ceil((11 - h + 1) / 2) for h in config.filter_widths)
        assert cache.z.shape == (expected_z,)
        assert config.z_len == expected_z

    def test_encoding_of_another_length_rejected(self):
        # under m=12: one index short, one too many, and twelve in a column
        config = ModelConfig(p=2, m=12, filter_widths=(3, 4), filters_per_width=2,
                             hidden_sizes=(6, 3), dropout_rate=0.0, head="binary")
        table = EmbeddingTable(matrix=np.random.default_rng(2).normal(size=(5, 2)),
                               mode="non_static")
        params = init_parameters(config, np.random.default_rng(3))
        for shape in ((11,), (13,), (12, 1)):
            enc = np.ones(shape, dtype=np.int64)
            for mode in ("train", "test"):
                with pytest.raises(ValueError, match=rf"shape \({shape[0]},.*m=12"):
                    forward(enc, table, params, config, mode=mode)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ModelConfig(p=2, m=3, filter_widths=(4,), filters_per_width=1, hidden_sizes=(2, 1),
                        dropout_rate=0.0, head="binary")
        with pytest.raises(ValueError):
            ModelConfig(p=2, m=6, filter_widths=(2,), filters_per_width=1, hidden_sizes=(9, 1),
                        dropout_rate=0.0, head="binary")
        with pytest.raises(ValueError):
            ModelConfig(p=2, m=6, filter_widths=(2, 2), filters_per_width=1, hidden_sizes=(2, 1),
                        dropout_rate=0.0, head="binary")
        with pytest.raises(ValueError):
            ModelConfig(p=2, m=6, filter_widths=(2,), filters_per_width=2, hidden_sizes=(2, 2),
                        dropout_rate=0.0, head="binary")


def _backward(cache, y, params, config, table):
    """One sample's gradient: (params in zeroed accumulators, the table-shaped
    embedding gradient or None, its rows or None)."""
    acc = ModelParameters.from_flat(np.zeros(params.layout.size), params.layout)
    emb_grad = backward(cache, y, params, config, table, acc)
    if emb_grad is None:
        return acc, None, None
    summed = _batch_sum([emb_grad], table.p, 1.0)
    acc_emb = np.zeros(table.matrix.shape)
    acc_emb[summed.rows] += summed.values
    return acc, acc_emb, summed.rows


class TestBackwardContracts:
    def test_static_mode_embedding_block_zero(self):
        config, table, enc, params = _toy_setup()
        static_table = EmbeddingTable(matrix=table.matrix.copy(), mode="static")
        _, cache = forward(enc, static_table, params, config, mode="train")
        acc, acc_emb, rows = _backward(cache, 1, params, config, static_table)
        assert acc_emb is None and rows is None
        assert acc.flat.any()

    def test_padding_row_gradient_always_zero(self):
        config, table, _, params = _toy_setup()
        enc = np.array([2, 1, 0])
        _, cache = forward(enc, table, params, config, mode="train")
        _, acc_emb, rows = _backward(cache, 0, params, config, table)
        assert rows.tolist() == [1, 2] and rows.dtype == np.int64  # sorted, padding row 0 left out
        assert not acc_emb[0].any()
        assert np.all(acc_emb[1:] != 0.0)  # trainable rows do receive gradient

    def test_repeated_rows_sum_like_dense_add_at(self):
        # Two headlines with bit-identical embedding vectors X: one repeats
        # rows, the other looks every position up in its own row, so its row
        # gradients are the per-position gradients. Summing those with
        # np.add.at into a zeroed table must give the first one's rows.
        rng = np.random.default_rng(5)
        config = ModelConfig(p=6, m=9, filter_widths=(2, 3), filters_per_width=2,
                             hidden_sizes=(5, 3), dropout_rate=0.0, head="multiclass3")
        indices = np.array([3, 1, 3, 3, 2, 1, 3, 0, 0])
        matrix = rng.normal(size=(4, 6))
        matrix[0] = 0.0
        distinct = np.zeros((10, 6))
        distinct[1:8] = matrix[indices[:7]]
        params = init_parameters(config, rng)
        grads = {}
        for name, idx, mat in (("repeated", indices, matrix),
                               ("distinct", np.array([1, 2, 3, 4, 5, 6, 7, 0, 0]), distinct)):
            table = EmbeddingTable(matrix=mat, mode="self_learnt")
            _, cache = forward(idx, table, params, config, mode="train")
            grads[name] = _backward(cache, 2, params, config, table)
        assert grads["distinct"][2].tolist() == [1, 2, 3, 4, 5, 6, 7]
        dense = np.zeros_like(matrix)
        np.add.at(dense, indices[:7], grads["distinct"][1][1:8])
        assert grads["repeated"][2].tolist() == [1, 2, 3]
        assert grads["repeated"][1].tobytes() == dense.tobytes()
        assert grads["repeated"][0].flat.tobytes() == grads["distinct"][0].flat.tobytes()

    def test_zero_loss_sample_has_vanishing_gradients(self):
        config, table, enc, params = _toy_setup()
        params.b_out[:] = 40.0  # saturate sigmoid at ~1 for target y=1
        output, cache = forward(enc, table, params, config, mode="train")
        assert sample_loss(output, 1, config.head) < 1e-6
        acc, _, _ = _backward(cache, 1, params, config, table)
        worst = max(np.abs(arr).max() for _, arr in acc.tensors())
        assert worst < 1e-12

    def test_backward_adds_never_overwrites(self):
        # From accumulators pre-filled with a known value, one call adds one
        # sample's gradient and a second call on the same cache adds it again:
        # the result is exactly the known value plus twice one call's gradient
        # in every tensor. The embedding gradient is returned, not added: each
        # call returns the same rows and values, and adding them twice into a
        # table pre-filled with the known value leaves untouched rows at it.
        rng = np.random.default_rng(6)
        config = ModelConfig(p=3, m=7, filter_widths=(2, 4), filters_per_width=2,
                             hidden_sizes=(4, 2), dropout_rate=0.3, head="binary")
        matrix = rng.normal(size=(8, 3))
        matrix[0] = 0.0
        table = EmbeddingTable(matrix=matrix, mode="self_learnt")
        params = init_parameters(config, rng)
        for y, indices in ((1, [1, 2, 3, 4, 5, 0, 0]), (0, [5, 5, 4, 0, 0, 0, 0])):
            enc = np.array(indices)
            _, cache = forward(enc, table, params, config, mode="train",
                               rng=np.random.default_rng(y))
            once, once_emb, rows = _backward(cache, y, params, config, table)
            acc = ModelParameters.from_flat(np.full(params.layout.size, 0.375), params.layout)
            acc_emb = np.full(matrix.shape, 0.375)
            for _ in range(2):
                again = _batch_sum([backward(cache, y, params, config, table, acc)], 3, 1.0)
                assert again.rows.tolist() == rows.tolist()
                assert again.values.tobytes() == once_emb[rows].tobytes()
                acc_emb[again.rows] += again.values
            assert acc.flat.tobytes() == ((0.375 + once.flat) + once.flat).tobytes()
            assert acc_emb.tobytes() == ((0.375 + once_emb) + once_emb).tobytes()
            untouched = np.ones(len(matrix), dtype=bool)
            untouched[rows] = False
            assert np.all(acc_emb[untouched] == 0.375) and untouched[0]

    def test_backward_requires_cache(self):
        config, table, enc, params = _toy_setup()
        acc = ModelParameters.from_flat(np.zeros(params.layout.size), params.layout)
        with pytest.raises(ValueError):
            backward(None, 1, params, config, table, acc)


# --- exactness against the former per-width implementation -----------------
#
# In-test copies of forward, backward, maxpool, apply_dropout and _sum_rows
# as they were before the conv stage shared one buffer across widths. The
# shared-buffer code must reproduce every output, every field its cache
# keeps and every gradient bit for bit.


def _former_maxpool(maps, w):
    n, d = maps.shape
    n_out = -(-n // w)
    padded = np.full((n_out * w, d), -np.inf)
    padded[:n] = maps
    blocks = padded.reshape(n_out, w, d)
    within = blocks.argmax(axis=1)
    pooled = blocks.max(axis=1)
    positions = within + (np.arange(n_out) * w)[:, None]
    return pooled, positions


def _former_apply_dropout(v, rate, mode, rng):
    if mode == "test":
        return v * (1.0 - rate), None
    if rate == 0.0 and rng is None:
        mask = np.ones_like(v)
    else:
        mask = (rng.random(v.shape) >= rate).astype(np.float64)
    return v * mask, mask


def _former_forward(enc, table, params, config, mode, rng):
    x = lookup_concat(enc, table)
    fields = {"indices": enc, "x": x, "windows": {}, "conv_pre": {}, "conv_post": {},
              "pool_argmax": {}}
    pooled_parts = []
    for h in config.filter_widths:
        fields["windows"][h], pre = conv_forward(x, params.filters[h], params.filter_biases[h],
                                                 config.p)
        post = np.maximum(0.0, pre)
        pooled, positions = _former_maxpool(post, config.pool_w)
        fields["conv_pre"][h] = pre
        fields["conv_post"][h] = post
        fields["pool_argmax"][h] = positions
        pooled_parts.append(pooled.T.reshape(-1))
    z = np.concatenate(pooled_parts)
    act1 = dense_forward(z, params.w1, params.b1, "relu")
    drop1, mask1 = _former_apply_dropout(act1, config.dropout_rate, mode, rng)
    act2 = dense_forward(drop1, params.w2, params.b2, "relu")
    drop2, mask2 = _former_apply_dropout(act2, config.dropout_rate, mode, rng)
    logits = dense_forward(drop2, params.w_out, params.b_out, "none")
    if config.head == "binary":
        probs = np.array([sigmoid(float(logits[0]))])
        output = float(probs[0])
    else:
        probs = softmax3(logits)
        output = probs
    if mode == "test":
        return output, None
    fields.update(z=z, act1=act1, mask1=mask1, drop1=drop1, act2=act2, mask2=mask2,
                  drop2=drop2, logits=logits, output=probs)
    return output, fields


def _former_sum_rows(indices, dx):
    positions = {}
    for k, row in enumerate(indices.tolist()):
        if row:
            positions.setdefault(row, []).append(k)
    rows = sorted(positions)
    sums = dx[[positions[row][0] for row in rows]]
    for i, row in enumerate(rows):
        for k in positions[row][1:]:
            sums[i] += dx[k]
    return np.array(rows, dtype=np.int64), sums


def _former_backward(cache, y, params, config, acc, acc_emb):
    if config.head == "binary":
        dlogits = cache["output"] - np.array([float(y)])
    else:
        onehot = np.zeros(3)
        onehot[y] = 1.0
        dlogits = cache["output"] - onehot
    acc.w_out += np.outer(dlogits, cache["drop2"])
    acc.b_out += dlogits
    ddrop2 = params.w_out.T @ dlogits
    dact2 = ddrop2 * cache["mask2"]
    dpre2 = dact2 * (cache["act2"] > 0)
    acc.w2 += np.outer(dpre2, cache["drop1"])
    acc.b2 += dpre2
    ddrop1 = params.w2.T @ dpre2
    dact1 = ddrop1 * cache["mask1"]
    dpre1 = dact1 * (cache["act1"] > 0)
    acc.w1 += np.outer(dpre1, cache["z"])
    acc.b1 += dpre1
    dz = params.w1.T @ dpre1
    n_f, p = config.filters_per_width, config.p
    dx = None if acc_emb is None else np.zeros((config.m, p))
    offset = 0
    for h in config.filter_widths:
        pooled_len = config.pooled_len(h)
        seg = dz[offset : offset + n_f * pooled_len].reshape(n_f, pooled_len).T
        offset += n_f * pooled_len
        dpost = np.zeros(cache["conv_post"][h].shape)
        dpost[cache["pool_argmax"][h], np.arange(n_f)] = seg
        dpre = dpost * (cache["conv_pre"][h] > 0)
        acc.filters[h] += dpre.T @ cache["windows"][h]
        acc.filter_biases[h] += dpre.sum(axis=0)
        if dx is not None:
            dwindows = (dpre @ params.filters[h]).reshape(-1, h, p)
            for o in range(h - 1, -1, -1):
                dx[o : o + dwindows.shape[0]] += dwindows[:, o]
    if dx is None:
        return np.empty(0, dtype=np.int64)
    emb_rows, emb_grads = _former_sum_rows(cache["indices"], dx)
    acc_emb[emb_rows] += emb_grads
    return emb_rows


def _bits(a):
    a = np.asarray(a)
    return a.dtype.str, a.shape, a.tobytes()


@st.composite
def _exactness_cases(draw):
    m = draw(st.integers(2, 11))
    widths = tuple(draw(st.lists(st.integers(2, m), min_size=1, max_size=3, unique=True)))
    n_f = draw(st.integers(1, 3))
    pool_w = draw(st.integers(1, 3))
    z_len = sum(n_f * -(-(m - h + 1) // pool_w) for h in widths)
    assume(z_len >= 3)
    l1 = draw(st.integers(2, min(z_len - 1, 12)))
    config = ModelConfig(
        p=draw(st.integers(1, 4)), m=m, filter_widths=widths, filters_per_width=n_f,
        pool_w=pool_w, hidden_sizes=(l1, draw(st.integers(1, l1 - 1))),
        dropout_rate=draw(st.sampled_from([0.0, 0.3])),
        head=draw(st.sampled_from(["binary", "multiclass3"])),
    )
    return (config, draw(st.sampled_from(["static", "non_static"])),
            draw(st.integers(0, m)), draw(st.booleans()), draw(st.integers(0, 2**16)))


def _assert_exact_pass(config, mode, n_words, with_rng, seed):
    rng = np.random.default_rng(seed)
    matrix = rng.normal(size=(4, config.p))  # few rows, so tokens repeat
    matrix[0] = 0.0
    table = EmbeddingTable(matrix=matrix, mode=mode)
    enc = np.zeros(config.m, dtype=np.int64)
    enc[:n_words] = rng.integers(1, 4, size=n_words)
    params = init_parameters(config, rng)
    params.flat[:] += rng.normal(0.0, 0.3, size=params.flat.size)  # non-zero biases too
    y = int(rng.integers(0, config.out_dim + (config.out_dim == 1)))
    # dropout 0 runs without a generator (gradcheck's path) unless asked
    needs_rng = with_rng or config.dropout_rate > 0.0

    def stream():
        return np.random.default_rng(seed + 1) if needs_rng else None

    out_new, _ = forward(enc, table, params, config, mode="test")
    out_old, _ = _former_forward(enc, table, params, config, "test", None)
    assert _bits(out_new) == _bits(out_old) and type(out_new) is type(out_old)

    out_new, cache = forward(enc, table, params, config, mode="train", rng=stream())
    out_old, fields = _former_forward(enc, table, params, config, "train", stream())
    assert _bits(out_new) == _bits(out_old) and type(out_new) is type(out_old)
    # every field the cache keeps, per width where it holds all widths
    plan = cache.plan
    assert (cache.pre[plan.pad] == -np.inf).all()
    assert list(cache.windows) == list(fields["windows"])
    for width in plan.widths:
        h, n_pooled = width.h, config.pooled_len(width.h)
        assert _bits(cache.windows[h]) == _bits(fields["windows"][h]), h
        assert _bits(cache.pre[: width.length, width.cols]) == _bits(fields["conv_pre"][h]), h
        assert (_bits(cache.positions[:n_pooled, width.cols])
                == _bits(fields["pool_argmax"][h])), h
    for name in ("indices", "z", "drop1", "drop2", "logits", "output"):
        assert _bits(getattr(cache, name)) == _bits(fields[name]), name

    start = rng.normal(size=params.flat.size)
    start_emb = rng.normal(size=matrix.shape) if table.trainable else None
    results = []
    for step in (backward, None):
        acc = ModelParameters.from_flat(start.copy(), params.layout)
        acc_emb = None if start_emb is None else start_emb.copy()
        if step is None:
            rows = _former_backward(fields, y, params, config, acc, acc_emb)
        else:
            emb_grad = step(cache, y, params, config, table, acc)
            assert (emb_grad is None) == (acc_emb is None)
            rows = np.empty(0, dtype=np.int64)
            if emb_grad is not None:  # summed by row, then what the former code did with its sums
                indices, dx = emb_grad
                summed = _batch_sum([emb_grad], config.p, 1.0)
                former_rows, former_sums = _former_sum_rows(indices, dx)
                assert _bits(summed.rows) == _bits(former_rows)
                assert _bits(summed.values) == _bits(former_sums)
                rows = summed.rows
                acc_emb[summed.rows] += summed.values
        results.append((_bits(acc.flat), None if acc_emb is None else _bits(acc_emb), _bits(rows)))
    assert results[0] == results[1]


@settings(max_examples=300, deadline=None)
@given(case=_exactness_cases())
def test_forward_and_backward_match_former_code_bit_for_bit(case):
    _assert_exact_pass(*case)


@pytest.mark.parametrize("config", [
    # pooled lengths 5, 4 and 4 at m = 11, widths unsorted
    ModelConfig(p=3, m=11, filter_widths=(5, 2, 4), filters_per_width=3, hidden_sizes=(8, 4),
                dropout_rate=0.3, pool_w=2, head="binary"),
    # map lengths 10, 8, 7 against pool_w 3: none divides
    ModelConfig(p=2, m=11, filter_widths=(2, 4, 5), filters_per_width=2, hidden_sizes=(6, 3),
                pool_w=3, dropout_rate=0.0, head="multiclass3"),
    # one width as long as the sentence: a one-row map
    ModelConfig(p=2, m=6, filter_widths=(6, 3), filters_per_width=2, hidden_sizes=(5, 2),
                pool_w=1, dropout_rate=0.0, head="binary"),
    # a single filter per width
    ModelConfig(p=2, m=11, filter_widths=(4, 2), filters_per_width=1, hidden_sizes=(6, 2),
                dropout_rate=0.3, pool_w=1, head="multiclass3"),
    # the same with every map cell an argmax: numpy sums a lone column pairwise
    ModelConfig(p=1, m=9, filter_widths=(2, 4), filters_per_width=1, hidden_sizes=(3, 1),
                pool_w=1, dropout_rate=0.0, head="binary"),
])
@pytest.mark.parametrize("mode", ["static", "non_static"])
def test_named_shapes_match_former_code_bit_for_bit(config, mode):
    for seed in range(8):
        # all padding, partly padded and full encodings, with and without a generator
        for n_words in (0, config.m // 2, config.m):
            _assert_exact_pass(config, mode, n_words, seed % 2 == 0, seed)


class TestNumpyAssumptions:
    """The bit-exactness of forward and backward rests on these. A numpy
    release that changes one fails here, not in a digest."""

    def test_weighted_bincount_adds_in_input_order_from_zero(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n_bins = int(rng.integers(1, 30))
            index = rng.integers(0, n_bins, size=int(rng.integers(1, 200)))
            weights = rng.normal(size=index.size) * 10.0 ** rng.integers(-8, 8, size=index.size)
            expected = np.zeros(n_bins)
            for i, w in zip(index.tolist(), weights.tolist()):
                expected[i] += w
            got = np.bincount(index, weights=weights, minlength=n_bins)
            assert got.tobytes() == expected.tobytes()

    def test_outer_is_a_broadcast_multiply(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            a = rng.normal(size=int(rng.integers(1, 40)))
            b = rng.normal(size=int(rng.integers(1, 40)))
            assert np.outer(a, b).tobytes() == (a[:, None] * b).tobytes()
