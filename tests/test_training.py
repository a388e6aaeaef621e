"""Adam, training-loop, metrics and grid-search tests."""

import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from newsvane import network, training
from newsvane.embeddings import EmbeddingTable, init_self_learnt, load_pretrained
from newsvane.corpus import PriceIndex, generate_synthetic
from newsvane.network import (
    ModelConfig,
    ModelParameters,
    backward,
    forward,
    init_parameters,
    param_layout,
    predict,
)
from newsvane.pipeline import prepare_dataset, to_pairs
from newsvane.seeding import derive_seed
from newsvane.text import Vocabulary
from newsvane.training import (
    AdamState,
    GridAxes,
    NumericError,
    RowGradient,
    adam_step,
    cell_config,
    confusion_metrics,
    evaluate,
    grid_search,
    train,
)
from newsvane.training import _batch_sum
from newsvane.training import _cell_seeds  # noqa: F401  (used to mirror grid cells)


def _self_learnt_factory(vocab, mode, seed):
    """Module-level so ProcessPoolExecutor can pickle it."""
    assert mode == "self_learnt"
    return init_self_learnt(vocab, 8, mean=0.0, std=0.1, seed=seed)


def _scalar_adam(grads, lr=1e-3, b1=0.9, b2=0.999, eps=1e-8, theta0=0.0):
    """Independent scalar Adam recurrence."""
    m = v = 0.0
    theta = theta0
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        theta -= lr * m_hat / (math.sqrt(v_hat) + eps)
    return theta


def _textbook_adam(theta, grads, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Whole-array Adam written as the textbook expressions."""
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        theta = theta - lr * (m / (1.0 - b1 ** t)) / (np.sqrt(v / (1.0 - b2 ** t)) + eps)
    return theta


class TestAdam:
    def test_vector_step_bit_identical_to_textbook(self):
        rng = np.random.default_rng(4)
        theta0 = rng.normal(size=(50, 3))
        grads = []
        for _ in range(6):  # mostly-zero gradients, as for untouched table rows
            g = np.zeros((50, 3))
            rows = rng.choice(50, size=4, replace=False)
            g[rows] = rng.normal(size=(4, 3)) * 10.0 ** rng.integers(-6, 3, size=(4, 1))
            grads.append(g)
        tensors = {"w": theta0.copy()}
        state = AdamState.initialize(lr=0.01)
        for g in grads:
            adam_step(tensors, {"w": g}, state)
        assert tensors["w"].tobytes() == _textbook_adam(theta0, grads, lr=0.01).tobytes()

    @pytest.mark.parametrize("n_hot, chunked", [(20, True), (45, False)])
    def test_row_steps_match_textbook(self, n_hot, chunked, monkeypatch):
        # Each step gives a RowGradient on rows drawn from the first n_hot of
        # 50. Whether the update runs in one chunk or in chunks of two rows,
        # the result is the textbook whole-array step, the moments hold the
        # rows named so far and no others, and rows never named, -0.0 and
        # NaN included, keep their bytes.
        if chunked:
            monkeypatch.setattr(training, "_CHUNK_ELEMENTS", 6)
        rng = np.random.default_rng(8)
        theta0 = rng.normal(size=(50, 3))
        theta0[47:] = [[-0.0, np.nan, np.inf], [-np.inf, -0.0, 0.0], [np.nan, 1e300, -1e-300]]
        tensors = {"w": theta0.copy()}
        state = AdamState.initialize(lr=0.01)
        grads, named = [], np.zeros(50, dtype=bool)
        for _ in range(10):
            rows = np.sort(rng.choice(n_hot, size=6, replace=False))
            g = np.zeros((50, 3))
            g[rows] = rng.normal(size=(6, 3)) * 10.0 ** rng.integers(-6, 3, size=(6, 1))
            grads.append(g)
            named[rows] = True
            adam_step(tensors, {"w": RowGradient(rows, g[rows])}, state)
            assert sorted(state.rows["w"].tolist()) == np.flatnonzero(named).tolist()
        assert tensors["w"].tobytes() == _textbook_adam(theta0, grads, lr=0.01).tobytes()
        assert tensors["w"][~named].tobytes() == theta0[~named].tobytes()

    @pytest.mark.parametrize("rows", [None, np.array([3])])
    def test_nonfinite_embedding_gradient_names_tensor(self, rows):
        tensors = {"embeddings": np.ones((10, 2))}
        g = np.zeros((10, 2))
        g[3, 1] = np.inf
        grad = g if rows is None else RowGradient(rows, g[rows])
        with pytest.raises(NumericError, match="non-finite gradient for tensor 'embeddings'"):
            adam_step(tensors, {"embeddings": grad}, AdamState.initialize(lr=1e-3))

    def test_nonfinite_gradient_changes_nothing(self):
        # The embedding gradient is read after the finite params gradient,
        # and it also names a new row: neither tensor, moment, named row nor
        # the step count may change before it is found non-finite.
        tensors = {"params": np.ones(3), "embeddings": np.ones((10, 2))}
        state = AdamState.initialize(lr=0.1)
        adam_step(tensors, {"params": np.full(3, 0.5),
                            "embeddings": RowGradient(np.array([2, 5]), np.ones((2, 2)))}, state)

        def snapshot():
            arrays = [*tensors.values(), *state.m.values(), *state.v.values(),
                      *state.rows.values(), *state.slots.values()]
            return [a.tobytes() for a in arrays], state.t

        before = snapshot()
        bad = RowGradient(np.array([2, 7]), np.array([[1.0, np.nan], [1.0, 1.0]]))
        with pytest.raises(NumericError, match="non-finite gradient for tensor 'embeddings'"):
            adam_step(tensors, {"params": np.full(3, 0.5), "embeddings": bad}, state)
        assert snapshot() == before

    @pytest.mark.parametrize("rows, values", [
        (np.array([3, 1]), np.ones((2, 2))),   # not ascending
        (np.array([1, 1]), np.ones((2, 2))),   # repeated
        (np.array([-1]), np.ones((1, 2))),     # below the first row
        (np.array([10]), np.ones((1, 2))),     # past the last row
        (np.array([1, 2]), np.ones((1, 2))),   # one value row short
    ])
    def test_malformed_row_gradient_rejected(self, rows, values):
        tensors = {"embeddings": np.ones((10, 2))}
        state = AdamState.initialize(lr=1e-3)
        with pytest.raises(ValueError, match="distinct ascending rows below 10"):
            adam_step(tensors, {"embeddings": RowGradient(rows, values)}, state)
        assert state.t == 0 and not state.m

    @pytest.mark.parametrize("hyper", [{"lr": -1e-3}, {"lr": math.inf}, {"lr": math.nan},
                                       {"lr": -math.inf}, {"lr": -5e-324},
                                       {"lr": np.float64(math.nan)}])
    def test_hyperparameters_outside_exact_range_rejected(self, hyper):
        # outside these ranges an untouched row's step need not be +0.0
        with pytest.raises(ValueError, match="Adam needs"):
            AdamState.initialize(**hyper)

    def test_adam_constants_meet_the_exact_skip_condition(self):
        """Betas in [0, 1) and a finite eps > 0 keep an untouched row's step +0.0."""
        assert 0.0 <= training.ADAM_BETA1 < 1.0 and 0.0 <= training.ADAM_BETA2 < 1.0
        assert math.isfinite(training.ADAM_EPS) and training.ADAM_EPS > 0.0
        assert (training.ADAM_BETA1, training.ADAM_BETA2, training.ADAM_EPS) == (0.9, 0.999, 1e-8)

    def test_zero_gradient_keeps_parameters(self):
        tensors = {"w": np.array([1.0, -2.0])}
        state = AdamState.initialize(lr=1e-3)
        adam_step(tensors, {"w": np.zeros(2)}, state)
        assert tensors["w"].tolist() == [1.0, -2.0]
        assert state.t == 1

    def test_matches_scalar_recurrence(self):
        tensors = {"w": np.array([0.0])}
        state = AdamState.initialize(lr=0.01)
        grads = [0.3] * 25 + [-0.7] * 25
        for g in grads:
            adam_step(tensors, {"w": np.array([g])}, state)
        expected = _scalar_adam(grads, lr=0.01)
        assert tensors["w"][0] == pytest.approx(expected, abs=1e-12)

    def test_lr_zero_is_identity(self):
        tensors = {"w": np.array([3.0])}
        state = AdamState.initialize(lr=0.0)
        for _ in range(5):
            adam_step(tensors, {"w": np.array([1.0])}, state)
        assert tensors["w"][0] == 3.0

    def test_frozen_tensor_skipped(self):
        tensors = {"w": np.array([1.0]), "frozen": np.array([2.0])}
        state = AdamState.initialize(lr=1e-3, frozen=["frozen"])
        adam_step(tensors, {"w": np.array([1.0]), "frozen": np.array([1.0])}, state)
        assert tensors["frozen"][0] == 2.0
        assert tensors["w"][0] != 1.0

    def test_nonfinite_gradient_names_tensor(self):
        tensors = {"w1": np.array([1.0])}
        state = AdamState.initialize(lr=1e-3)
        with pytest.raises(ValueError, match="w1"):
            adam_step(tensors, {"w1": np.array([np.nan])}, state)

    def test_bitwise_deterministic(self):
        def run():
            tensors = {"w": np.linspace(-1, 1, 7)}
            state = AdamState.initialize(lr=0.05)
            rng = np.random.default_rng(0)
            for _ in range(50):
                adam_step(tensors, {"w": rng.normal(size=7)}, state)
            return tensors["w"].tobytes()

        assert run() == run()


@pytest.fixture(scope="module")
def tiny_corpus():
    headlines, prices = generate_synthetic(
        seed=11, n_assets=2, n_days=50, headlines_per_day=4, signal_strength=1.0
    )
    return prepare_dataset(headlines, PriceIndex(prices), {"SYN0", "SYN1"}, max_len=None)


def _tiny_config(prepared, head="binary", dropout=0.0):
    return ModelConfig(
        p=8, m=prepared.vocab.max_len, filter_widths=(2, 3), filters_per_width=3,
        hidden_sizes=(16, 8), dropout_rate=dropout, head=head,
    )


# outputs on a class boundary: sigmas at the 0.5 threshold and one step to either
# side of it, and 3-way vectors whose largest probability ties
_BOUNDARY_OUTPUTS = {
    "binary": [0.5, math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0), 0.0, 1.0],
    "multiclass3": [np.array(v) for v in ([0.4, 0.4, 0.2], [0.2, 0.4, 0.4], [0.4, 0.2, 0.4],
                                          [1 / 3] * 3, [0.1, 0.3, 0.6])],
}


def _former_class(output, head, threshold):
    """The class that ``train`` and ``evaluate`` once worked out per sample."""
    if head == "binary":
        return 1 if float(output) >= threshold else 0
    return int(np.argmax(np.asarray(output)))


def _with_boundary_outputs(real_forward, head):
    """``real_forward``, with every third call's output replaced by the head's
    next boundary output, and each call's (encoding, output) recorded."""
    calls = []

    def patched(enc, *args, **kwargs):
        output, cache = real_forward(enc, *args, **kwargs)
        if len(calls) % 3 == 0:
            boundary = _BOUNDARY_OUTPUTS[head]
            output = boundary[len(calls) // 3 % len(boundary)]
        calls.append((enc, output))
        return output, cache

    return patched, calls


class TestTrain:
    def test_epochs_zero_leaves_parameters_untouched(self, tiny_corpus):
        config = _tiny_config(tiny_corpus)
        table = init_self_learnt(tiny_corpus.vocab, config.p, mean=0.0, std=0.1, seed=1)
        params = init_parameters(config, np.random.default_rng(2))
        before = params.w1.copy()
        result = train(to_pairs(tiny_corpus.train, "binary"), table, params, config,
                       epochs=0, batch_size=8, seed=3, lr=1e-3)
        assert result.trace == []
        assert np.array_equal(params.w1, before)

    def test_empty_dataset_rejected(self, tiny_corpus):
        config = _tiny_config(tiny_corpus)
        table = init_self_learnt(tiny_corpus.vocab, config.p, mean=0.0, std=0.1, seed=1)
        params = init_parameters(config, np.random.default_rng(2))
        with pytest.raises(ValueError):
            train([], table, params, config, epochs=1, batch_size=8, seed=3, lr=1e-3)

    @pytest.mark.parametrize("head, bad", [("binary", 2), ("binary", -1), ("binary", 1.5),
                                           ("binary", True), ("multiclass3", -1),
                                           ("multiclass3", 3), ("multiclass3", np.bool_(False))])
    def test_label_outside_the_head_rejected_before_any_step(self, tiny_corpus, head, bad):
        # the former loop trained a binary 2, -1 or 1.5 and a 3-way -1 (as class 2)
        config = _tiny_config(tiny_corpus, head)
        table = init_self_learnt(tiny_corpus.vocab, config.p, mean=0.0, std=0.1, seed=1)
        params = init_parameters(config, np.random.default_rng(2))
        before = params.flat.tobytes() + table.matrix.tobytes()
        pairs = to_pairs(tiny_corpus.train, head)[:6]
        pairs[4] = (pairs[4][0], bad)
        with pytest.raises(ValueError, match=rf"sample 4 has label {bad!r}, .* {head} head"):
            train(pairs, table, params, config, epochs=1, batch_size=2, seed=3, lr=1e-3)
        assert params.flat.tobytes() + table.matrix.tobytes() == before

    def test_numpy_integer_labels_train_like_ints(self, tiny_corpus):
        config = _tiny_config(tiny_corpus, "multiclass3")
        runs = []
        for cast in (int, np.int64):
            table = init_self_learnt(tiny_corpus.vocab, config.p, mean=0.0, std=0.1, seed=1)
            params = init_parameters(config, np.random.default_rng(2))
            pairs = [(enc, cast(y)) for enc, y in to_pairs(tiny_corpus.train, "multiclass3")[:12]]
            train(pairs, table, params, config, epochs=1, batch_size=5, seed=3, lr=1e-3)
            runs.append(params.flat.tobytes() + table.matrix.tobytes())
        assert runs[0] == runs[1]

    def test_nonfinite_gradient_names_layout_tensor(self, tiny_corpus):
        # an infinite second-layer bias makes only the head weights' gradient
        # non-finite; the error names that tensor, not the flat vector
        config = _tiny_config(tiny_corpus)
        table = init_self_learnt(tiny_corpus.vocab, config.p, mean=0.0, std=0.1, seed=1)
        params = init_parameters(config, np.random.default_rng(2))
        params.b2[0] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(
            ValueError, match="non-finite gradient for tensor 'w_out'"
        ):
            train(to_pairs(tiny_corpus.train, "binary")[:8], table, params, config,
                  epochs=1, batch_size=8, seed=3, lr=1e-3)

    def test_loss_decreases_on_learnable_data(self, tiny_corpus):
        config = _tiny_config(tiny_corpus)
        table = init_self_learnt(tiny_corpus.vocab, config.p, mean=0.0, std=0.1, seed=1)
        params = init_parameters(config, np.random.default_rng(2))
        result = train(to_pairs(tiny_corpus.train, "binary"), table, params, config,
                       epochs=5, batch_size=16, seed=3, lr=1e-3)
        assert result.trace[-1].mean_loss < result.trace[0].mean_loss
        assert result.trace[-1].accuracy > 0.9

    def test_deterministic_end_state(self, tiny_corpus):
        def run():
            config = _tiny_config(tiny_corpus, dropout=0.3)
            table = init_self_learnt(tiny_corpus.vocab, config.p, mean=0.0, std=0.1, seed=5)
            params = init_parameters(config, np.random.default_rng(6))
            train(to_pairs(tiny_corpus.train, "binary"), table, params, config,
                  epochs=2, batch_size=16, seed=7, lr=1e-3)
            return params.w1.tobytes() + table.matrix.tobytes()

        assert run() == run()

    def test_multiclass_head_trains(self, tiny_corpus):
        config = _tiny_config(tiny_corpus, head="multiclass3")
        table = init_self_learnt(tiny_corpus.vocab, config.p, mean=0.0, std=0.1, seed=1)
        params = init_parameters(config, np.random.default_rng(2))
        result = train(to_pairs(tiny_corpus.train, "multiclass3"), table, params, config,
                       epochs=3, batch_size=16, seed=3, lr=1e-3)
        assert result.trace[-1].mean_loss < result.trace[0].mean_loss

    @pytest.mark.parametrize("head", ["binary", "multiclass3"])
    def test_epoch_accuracy_matches_the_former_per_sample_tally(self, tiny_corpus, head,
                                                                 monkeypatch):
        config = _tiny_config(tiny_corpus, head, dropout=0.25)
        table = init_self_learnt(tiny_corpus.vocab, config.p, mean=0.0, std=0.1, seed=1)
        params = init_parameters(config, np.random.default_rng(2))
        pairs = to_pairs(tiny_corpus.train, head)
        patched, calls = _with_boundary_outputs(forward, head)
        monkeypatch.setattr(training, "forward", patched)
        result = train(pairs, table, params, config, epochs=3, batch_size=16, seed=3, lr=1e-3)
        label = {id(enc): y for enc, y in pairs}
        n = len(pairs)
        assert len(label) == n and len(calls) == 3 * n
        expected = []
        for epoch in range(3):
            correct = 0
            for enc, output in calls[epoch * n : (epoch + 1) * n]:
                correct += int(_former_class(output, head, 0.5) == label[id(enc)])
            expected.append(correct / n)
        assert [stats.accuracy for stats in result.trace] == expected

    @pytest.mark.parametrize("head", ["binary", "multiclass3"])
    def test_trace_and_metrics_hold_plain_python_numbers(self, tiny_corpus, head):
        """trace.csv holds the repr of each trace number and metrics.json the
        report's numbers, so a numpy scalar there reads ``np.float64(...)``."""
        config = _tiny_config(tiny_corpus, head)
        table = init_self_learnt(tiny_corpus.vocab, config.p, mean=0.0, std=0.1, seed=1)
        params = init_parameters(config, np.random.default_rng(2))
        result = train(to_pairs(tiny_corpus.train, head)[:40], table, params, config,
                       epochs=2, batch_size=16, seed=3, lr=1e-3)
        assert [(type(s.epoch), type(s.mean_loss), type(s.accuracy)) for s in result.trace] == [
            (int, float, float)] * 2
        report = evaluate(to_pairs(tiny_corpus.test, head), table, params, config)
        for name in ("accuracy", "precision", "recall", "f1"):
            assert type(getattr(report, name)) is float, name
        for name in ("n_samples", "tp", "fp", "fn", "tn"):
            assert type(getattr(report, name)) is int, name
        assert {type(count) for row in report.confusion for count in row} == {int}

    def test_padding_row_stays_zero_after_training(self, tiny_corpus):
        config = _tiny_config(tiny_corpus)
        table = init_self_learnt(tiny_corpus.vocab, config.p, mean=0.0, std=0.1, seed=1)
        params = init_parameters(config, np.random.default_rng(2))
        train(to_pairs(tiny_corpus.train, "binary"), table, params, config,
              epochs=2, batch_size=16, seed=3, lr=1e-3)
        assert not table.matrix[0].any()


@pytest.fixture()
def pretrained_file(tmp_path, tiny_corpus):
    rng = np.random.default_rng(0)
    path = tmp_path / "vecs.txt"
    tokens = tiny_corpus.vocab.tokens[::2]  # half the vocab has vectors
    lines = [f"{len(tokens)} 8"]
    for tok in tokens:
        lines.append(tok + " " + " ".join(f"{x:.6f}" for x in rng.normal(0, 0.2, 8)))
    path.write_text("\n".join(lines) + "\n")
    return path


class TestEmbeddingModeContracts:
    def test_static_matrix_bit_identical_after_training(self, tiny_corpus, pretrained_file):
        config = _tiny_config(tiny_corpus)
        table = load_pretrained(tiny_corpus.vocab, pretrained_file, "static", seed=2, expected_p=8)
        initial = table.matrix.copy()
        params = init_parameters(config, np.random.default_rng(3))
        train(to_pairs(tiny_corpus.train, "binary"), table, params, config,
              epochs=2, batch_size=16, seed=4, lr=1e-3)
        assert table.matrix.tobytes() == initial.tobytes()

    def test_non_static_rows_move(self, tiny_corpus, pretrained_file):
        config = _tiny_config(tiny_corpus)
        table = load_pretrained(tiny_corpus.vocab, pretrained_file, "non_static", seed=2, expected_p=8)
        initial = table.matrix.copy()
        params = init_parameters(config, np.random.default_rng(3))
        train(to_pairs(tiny_corpus.train, "binary"), table, params, config,
              epochs=1, batch_size=16, seed=4, lr=1e-3)
        changed = np.any(table.matrix != initial, axis=1)
        assert changed[1:].any()
        assert not table.matrix[0].any()


def _dense_reference_train(dataset, table, params, config, epochs, batch_size, seed, lr=1e-3):
    """Per-sample dense accumulation: each sample's embedding gradient fills a
    table-sized matrix, the batch sum is scaled whole, and Adam is the
    textbook whole-array update of every tensor. Returns, per step, the
    table rows the batch looked up and the rows whose bytes the step changed."""
    shuffle_rng = np.random.default_rng(derive_seed(seed, "shuffle"))
    dropout_rng = np.random.default_rng(derive_seed(seed, "dropout"))
    tensors = {"params": params.flat, "embeddings": table.matrix}
    if not table.trainable:
        del tensors["embeddings"]
    moments = {k: (np.zeros_like(a), np.zeros_like(a)) for k, a in tensors.items()}
    t = 0
    history = []
    for _ in range(epochs):
        order = shuffle_rng.permutation(len(dataset))
        for start in range(0, len(dataset), batch_size):
            batch = order[start : start + batch_size]
            acc = {"params": np.zeros_like(params.flat), "embeddings": np.zeros_like(table.matrix)}
            looked_up = np.zeros(len(table.matrix), dtype=bool)
            for i in batch:
                enc, y = dataset[i]
                looked_up[enc] = True
                _, cache = forward(enc, table, params, config, mode="train", rng=dropout_rng)
                g = ModelParameters.from_flat(np.zeros_like(params.flat), params.layout)
                emb_grad = backward(cache, y, params, config, table, g)
                acc["params"] += g.flat
                if emb_grad is not None:
                    summed = _batch_sum([emb_grad], table.p, 1.0)
                    demb = np.zeros_like(table.matrix)
                    demb[summed.rows] += summed.values
                    acc["embeddings"] += demb
            before = table.matrix.copy()
            t += 1
            for name, theta in tensors.items():
                g = acc[name] * (1.0 / len(batch))
                m, v = moments[name]
                m *= 0.9
                m += (1.0 - 0.9) * g
                v *= 0.999
                v += (1.0 - 0.999) * g * g
                theta -= lr * (m / (1.0 - 0.9 ** t)) / (np.sqrt(v / (1.0 - 0.999 ** t)) + 1e-8)
            table.matrix[0] = 0.0
            looked_up[0] = False
            history.append((looked_up, (before != table.matrix).any(axis=1)))
    return history


class TestSparseEmbeddingEquivalence:
    @pytest.mark.parametrize("mode", ["self_learnt", "non_static", "static"])
    def test_train_matches_dense_reference(self, mode):
        # Two corpora of 21 samples in batches of 8, leaving a final partial
        # batch of 5. "shared": five tokens in six slots of a 6-row table, so
        # most headlines repeat a token and every batch touches nearly every
        # row. "disjoint": each headline owns two tokens of a 100-row table,
        # so consecutive batches touch disjoint rows, rows an earlier batch
        # touched must keep moving on their moments, and the 58 rows no
        # headline looks up must keep their bytes.
        rng = np.random.default_rng(9)
        config = ModelConfig(p=4, m=6, filter_widths=(2, 3), filters_per_width=2,
                             hidden_sizes=(5, 3), dropout_rate=0.25, head="multiclass3")
        for n_rows, tokens_per_sample, first_token in ((6, 5, lambda i: 1),
                                                       (100, 2, lambda i: 1 + 2 * i)):
            dataset = []
            for i in range(21):
                n_words = int(rng.integers(2, 7))
                enc = np.zeros(6, dtype=np.int64)
                enc[:n_words] = first_token(i) + rng.integers(tokens_per_sample, size=n_words)
                dataset.append((enc, int(rng.integers(3))))
            assert any(len(set(e[e > 0].tolist())) < np.count_nonzero(e) for e, _ in dataset)
            matrix = rng.normal(size=(n_rows, 4))
            matrix[0] = 0.0
            params = init_parameters(config, rng)
            runs = []
            for trainer in (train, _dense_reference_train):
                table = EmbeddingTable(matrix=matrix.copy(), mode=mode)
                run_params = ModelParameters.from_flat(params.flat.copy(), params.layout)
                trainer(dataset, table, run_params, config, epochs=2, batch_size=8, seed=3, lr=0.01)
                runs.append(run_params.flat.tobytes() + table.matrix.tobytes())
            assert runs[0] == runs[1]
            touched = np.zeros(n_rows, dtype=bool)
            touched[np.concatenate([e for e, _ in dataset])] = True
            touched[0] = False
            assert table.matrix[~touched].tobytes() == matrix[~touched].tobytes()
            if mode != "static":
                assert not np.array_equal(table.matrix[touched], matrix[touched])

    @pytest.mark.parametrize("mode", ["non_static", "static"])
    def test_rows_named_late_or_left_out_step_like_dense_adam(self, mode, monkeypatch):
        # One epoch of four batches of four over a 12-row table whose rows are
        # handed out by batch: rows 1-3 only in the first batch, so their
        # moments decay over three steps with a zero gradient and they must
        # still move on each; rows 7 and 8 first in the last batch; row 4 in
        # every batch; rows 9-11 never. Chunks of two rows put the rows a
        # batch names into several chunks of every step.
        monkeypatch.setattr(training, "_CHUNK_ELEMENTS", 8)
        rng = np.random.default_rng(21)
        config = ModelConfig(p=4, m=5, filter_widths=(2, 3), filters_per_width=2,
                             hidden_sizes=(5, 3), dropout_rate=0.3, head="binary")
        by_batch = ([1, 2, 3, 4], [4, 5, 6], [4, 5], [4, 7, 8])
        seed, batch_size = 13, 4
        order = np.random.default_rng(derive_seed(seed, "shuffle")).permutation(16)
        dataset = [None] * 16
        for position, i in enumerate(order):
            tokens = by_batch[position // batch_size]
            n_words = int(rng.integers(2, 6))
            enc = np.zeros(5, dtype=np.int64)
            enc[:n_words] = rng.choice(tokens, size=n_words)
            enc[0] = tokens[position % batch_size % len(tokens)]
            dataset[i] = (enc, int(rng.integers(2)))
        matrix = rng.normal(size=(12, 4))
        matrix[0] = 0.0
        params = init_parameters(config, rng)
        runs, history = [], None
        for trainer in (train, _dense_reference_train):
            table = EmbeddingTable(matrix=matrix.copy(), mode=mode)
            run_params = ModelParameters.from_flat(params.flat.copy(), params.layout)
            history = trainer(dataset, table, run_params, config, epochs=1,
                              batch_size=batch_size, seed=seed, lr=0.01)
            runs.append((run_params.flat.tobytes(), table.matrix.tobytes()))
        assert runs[0] == runs[1]
        assert len(history) == 4
        for step, (looked_up, moved) in enumerate(history):
            assert np.flatnonzero(looked_up).tolist() == sorted(set(by_batch[step]))
            assert not moved[[0, 9, 10, 11]].any()
            if mode == "static":
                assert not moved.any()
            else:
                assert moved[[1, 2, 3, 4]].all() and moved[5:7].all() == (step >= 1)
                assert moved[7:9].any() == (step == 3)
        if mode == "static":
            assert runs[0][1] == matrix.tobytes()


# --- exactness against the former per-sample row sums -------------------------
#
# In-test copies of network._sum_rows and training._batch_sum as they were
# when backward summed each sample's embedding gradient by row itself, and of
# the train() loop around them. train() must reproduce every bit they gave.


def _former_sum_rows(indices, dx):
    first: dict[int, int] = {}
    repeats: list[tuple[int, int]] = []
    for k, row in enumerate(indices.tolist()):
        if row:
            if row in first:
                repeats.append((row, k))
            else:
                first[row] = k
    rows = sorted(first)
    sums = dx[[first[row] for row in rows]]
    if repeats:
        slot = {row: i for i, row in enumerate(rows)}
        for row, k in repeats:
            sums[slot[row]] += dx[k]
    return np.array(rows, dtype=np.int64), sums


def _former_batch_sum(grads, p, scale):
    rows, inverse = np.unique(np.concatenate([g.rows for g in grads]), return_inverse=True)
    bins = (inverse[:, None] * p + np.arange(p)).ravel()
    values = np.concatenate([g.values for g in grads]).ravel()
    sums = np.bincount(bins, weights=values, minlength=rows.size * p).reshape(rows.size, p)
    sums *= scale
    return RowGradient(rows, sums)


def _former_train(dataset, table, params, config, epochs, batch_size, seed, lr):
    shuffle_rng = np.random.default_rng(derive_seed(seed, "shuffle"))
    dropout_rng = np.random.default_rng(derive_seed(seed, "dropout"))
    tensors = {"params": params.flat, "embeddings": table.matrix}
    state = AdamState.initialize(lr=lr, frozen={"embeddings"} if table.mode == "static" else ())
    acc = ModelParameters.from_flat(np.zeros(params.layout.size), params.layout)
    for _ in range(epochs):
        order = shuffle_rng.permutation(len(dataset))
        for start in range(0, len(dataset), batch_size):
            batch = order[start : start + batch_size]
            emb_grads = []
            for idx in batch:
                enc, y = dataset[idx]
                _, cache = forward(enc, table, params, config, mode="train", rng=dropout_rng)
                emb_grad = backward(cache, y, params, config, table, acc)
                if emb_grad is not None:
                    emb_grads.append(RowGradient(*_former_sum_rows(*emb_grad)))
            scale = 1.0 / len(batch)
            grads = {"params": acc.flat * scale}
            if table.trainable:
                if any(g.rows.size for g in emb_grads):
                    grads["embeddings"] = _former_batch_sum(emb_grads, table.p, scale)
                else:  # the former sum failed here: its empty bincount came back as int64
                    grads["embeddings"] = RowGradient(np.empty(0, dtype=np.int64),
                                                      np.empty((0, table.p)))
            training.adam_step(tensors, grads, state)
            table.matrix[0] = 0.0
            acc.flat[:] = 0.0


@pytest.mark.parametrize("config", [
    ModelConfig(p=3, m=7, filter_widths=(2, 4), filters_per_width=2, hidden_sizes=(6, 3),
                dropout_rate=0.25, head="binary"),
    ModelConfig(p=2, m=9, filter_widths=(3, 2), filters_per_width=3, hidden_sizes=(5, 2),
                dropout_rate=0.25, pool_w=3, head="multiclass3"),
])
@pytest.mark.parametrize("mode", ["static", "non_static"])
def test_train_matches_former_row_sums_bit_for_bit(config, mode, monkeypatch):
    # 41 samples in batches of 6, so the last batch holds 5. Headlines look
    # up rows 1 and 2 of a 6-row table alone, so rows repeat within headlines
    # and across them, and sums of a row differ in their last bits with the
    # order they are added in. The first epoch's first batch is all padding,
    # and so is every fifth headline after it. Adam's step is nearly blind
    # to the last bits of a gradient, so every step's gradients are compared
    # too, not just the trained weights.
    steps = []

    def recording_step(tensors, grads, state):
        steps[-1].append({name: (g.rows.tobytes(), g.values.tobytes())
                          if isinstance(g, RowGradient) else g.tobytes()
                          for name, g in grads.items()})
        adam_step(tensors, grads, state)

    monkeypatch.setattr(training, "adam_step", recording_step)
    rng = np.random.default_rng(31)
    seed, batch_size, n = 5, 6, 41
    order = np.random.default_rng(derive_seed(seed, "shuffle")).permutation(n)
    dataset = [None] * n
    for position, i in enumerate(order):
        n_words = 0 if position < batch_size or position % 5 == 0 else int(
            rng.integers(1, config.m + 1))
        enc = np.zeros(config.m, dtype=np.int64)
        enc[:n_words] = rng.integers(1, 3, size=n_words)
        dataset[i] = (enc, int(rng.integers(config.out_dim + (config.out_dim == 1))))
    assert any(len(set(e[e > 0].tolist())) < np.count_nonzero(e) for e, _ in dataset)
    matrix = rng.normal(size=(6, config.p))
    matrix[0] = 0.0
    params = init_parameters(config, rng)
    runs = []
    for trainer in (train, _former_train):
        steps.append([])
        table = EmbeddingTable(matrix=matrix.copy(), mode=mode)
        run_params = ModelParameters.from_flat(params.flat.copy(), params.layout)
        trainer(dataset, table, run_params, config, epochs=2, batch_size=batch_size, seed=seed,
                lr=0.01)
        runs.append((run_params.flat.tobytes(), table.matrix.tobytes()))
    assert len(steps[0]) == 2 * 7 and steps[0] == steps[1]
    assert runs[0] == runs[1]
    assert runs[0][0] != params.flat.tobytes()
    moved = (np.frombuffer(runs[0][1]).reshape(matrix.shape) != matrix).any(axis=1)
    assert not moved[[0, 3, 4, 5]].any() and moved[1:3].any() == (mode != "static")


class TestBatchSum:
    def test_each_sample_is_summed_by_row_before_samples_are_added(self):
        # Row 3 is looked up once by the first sample and twice by the second.
        # Added sample by sample it is 1 + (2**-53 + 2**-53) = 1 + 2**-52; one
        # sum over all positions in order would give (1 + 2**-53) + 2**-53 = 1.
        # Padding positions carry gradients too, and are left out.
        first = (np.array([3, 0, 0]), np.array([[1.0, 1.0], [5.0, 5.0], [6.0, 6.0]]))
        second = (np.array([3, 1, 3]), np.array([[2.0**-53, 0.5], [7.0, 8.0], [2.0**-53, 0.25]]))
        got = _batch_sum([first, second], 2, 0.5)
        assert got.rows.tolist() == [1, 3] and got.rows.dtype == np.int64
        assert got.values.tolist() == [[3.5, 4.0], [(1.0 + 2.0**-52) * 0.5, 0.875]]
        assert (1.0 + 2.0**-53) + 2.0**-53 == 1.0
        former = _former_batch_sum([RowGradient(*_former_sum_rows(*g)) for g in (first, second)],
                                   2, 0.5)
        assert got.rows.tobytes() == former.rows.tobytes()
        assert got.values.tobytes() == former.values.tobytes()

    def test_int32_rows_past_the_int32_range_times_the_batch_size(self):
        # a row near 2**30 times a batch of 3 passes 2**31: int32 keys would wrap
        big = 2**30 + 5
        grads = [(np.array([big, 0], dtype=np.int32), np.array([[1.0], [9.0]])),
                 (np.array([3, big], dtype=np.int32), np.array([[2.0], [4.0]])),
                 (np.array([big, big], dtype=np.int32), np.array([[8.0], [16.0]]))]
        got = _batch_sum(grads, 1, 1.0)
        assert got.rows.tolist() == [3, big] and got.rows.dtype == np.int64
        assert got.values.tolist() == [[2.0], [29.0]]

    def test_all_padding_batch_sums_to_no_rows(self):
        grads = [(np.zeros(4, dtype=np.int64), np.ones((4, 3)))] * 2
        got = _batch_sum(grads, 3, 0.5)
        assert got.rows.dtype == np.int64 and got.rows.shape == (0,)
        assert got.values.dtype == np.float64 and got.values.shape == (0, 3)

    def test_all_padding_batch_trains(self):
        # the former sum failed on such a batch with a trainable table
        config = ModelConfig(p=2, m=4, filter_widths=(2,), filters_per_width=2, hidden_sizes=(3, 1),
                             dropout_rate=0.0, head="binary")
        matrix = np.random.default_rng(6).normal(size=(5, 2))
        matrix[0] = 0.0
        table = EmbeddingTable(matrix=matrix.copy(), mode="non_static")
        params = init_parameters(config, np.random.default_rng(7))
        before = params.flat.copy()
        dataset = [(np.zeros(4, dtype=np.int64), 1)] * 3
        train(dataset, table, params, config, epochs=1, batch_size=2, seed=0, lr=1e-3)
        assert table.matrix.tobytes() == matrix.tobytes()
        assert not np.array_equal(params.flat, before)


def test_train_allocates_nothing_the_size_of_the_table():
    # Tracemalloc sees NumPy's buffers. One train() call on a 50,000-row
    # table must stay far below the table's own size: its gradient and Adam
    # state follow the rows the batches look up.
    rng = np.random.default_rng(17)
    config = ModelConfig(p=64, m=6, filter_widths=(2, 3), filters_per_width=2,
                         hidden_sizes=(5, 3), dropout_rate=0.25, head="binary")
    matrix = rng.normal(0.0, 0.1, size=(50_000, 64))
    matrix[0] = 0.0
    table = EmbeddingTable(matrix=matrix, mode="non_static")
    params = init_parameters(config, rng)
    dataset = []
    for _ in range(48):
        enc = np.zeros(6, dtype=np.int64)
        enc[:5] = rng.integers(1, 50_000, size=5)
        dataset.append((enc, int(rng.integers(2))))
    looked_up = np.unique([e for e, _ in dataset])[1:]
    before = matrix[looked_up]
    tracemalloc.start()
    try:
        train(dataset, table, params, config, epochs=2, batch_size=16, seed=1, lr=1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (table.matrix[looked_up] != before).any()
    assert peak < table.matrix.nbytes / 4


def _fixture_model():
    """Hand-built model that predicts 1 exactly when the first token is 'pos'."""
    vocab = Vocabulary(("pos", "neg"), max_len=2)
    table = EmbeddingTable(matrix=np.array([[0.0], [1.0], [-1.0]]), mode="self_learnt")
    config = ModelConfig(
        p=1, m=2, filter_widths=(2,), filters_per_width=4,
        hidden_sizes=(2, 1), dropout_rate=0.0, head="binary",
    )
    layout = param_layout(config)
    params = ModelParameters.from_flat(np.zeros(layout.size), layout)  # zero biases
    params.filters[2][:] = [[1.0, 0.0], [-1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
    params.w1[:] = [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]]
    params.w2[:] = [[1.0, -1.0]]
    params.w_out[:] = [[4.0]]
    params.b_out[:] = [-2.0]
    pos = np.array([1, 0])
    neg = np.array([2, 0])
    return vocab, table, config, params, pos, neg


class TestEvaluate:
    def test_confusion_fixture_metrics(self):
        _, table, config, params, pos, neg = _fixture_model()
        dataset = [(pos, 1)] * 3 + [(pos, 0)] * 1 + [(neg, 1)] * 2 + [(neg, 0)] * 4
        report = evaluate(dataset, table, params, config)
        assert (report.tp, report.fp, report.fn, report.tn) == (3, 1, 2, 4)
        assert report.precision == pytest.approx(0.75, abs=1e-12)
        assert report.recall == pytest.approx(0.6, abs=1e-12)
        assert report.f1 == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert report.accuracy == pytest.approx(0.7, abs=1e-12)

    def test_all_correct(self):
        _, table, config, params, pos, neg = _fixture_model()
        dataset = [(pos, 1)] * 3 + [(neg, 0)] * 3
        report = evaluate(dataset, table, params, config)
        assert report.accuracy == 1.0
        assert report.f1 == 1.0

    def test_zero_denominator_convention(self):
        _, table, config, params, pos, neg = _fixture_model()
        report = evaluate([(neg, 0)] * 4, table, params, config)
        assert report.precision == 0.0
        assert report.recall == 0.0
        assert report.f1 == 0.0
        assert report.accuracy == 1.0

    @pytest.mark.parametrize("head", ["binary", "multiclass3"])
    def test_confusion_matches_the_former_per_sample_tally(self, tiny_corpus, head, monkeypatch):
        """Thresholds at 0, 1 and at some of the model's own sigmas, so those
        samples sit exactly on it; every third output is a boundary one."""
        config = _tiny_config(tiny_corpus, head, dropout=0.25)
        table = init_self_learnt(tiny_corpus.vocab, config.p, mean=0.0, std=0.1, seed=1)
        params = init_parameters(config, np.random.default_rng(2))
        pairs = to_pairs(tiny_corpus.test, head)
        thresholds = [0.5]
        if head == "binary":
            sigmas = predict([enc for enc, _ in pairs], table, params, config)
            thresholds += [0.0, 1.0, *np.sort(sigmas)[:: len(sigmas) // 4].tolist()]
        patched, calls = _with_boundary_outputs(network.forward, head)
        monkeypatch.setattr(network, "forward", patched)
        k = 2 if head == "binary" else 3
        for t in thresholds:
            start = len(calls)
            report = evaluate(pairs, table, params, config, class_threshold=t)
            seen = calls[start:]
            assert len(seen) == len(pairs)
            assert all(np.array_equal(a, b) for (a, _), (b, _) in zip(seen, pairs))
            confusion = np.zeros((k, k), dtype=np.int64)
            for (_, output), (_, y) in zip(seen, pairs):
                confusion[y, _former_class(output, head, t)] += 1
            assert report == confusion_metrics(confusion)
            assert report.confusion == tuple(map(tuple, confusion.tolist()))

    def test_threshold_is_inclusive(self):
        _, table, config, params, pos, neg = _fixture_model()
        # pos sample yields sigma(2) ~= 0.8808
        sigma = 1.0 / (1.0 + math.exp(-2.0))
        report = evaluate([(pos, 1)], table, params, config, class_threshold=sigma)
        assert report.tp == 1  # predict 1 iff sigma >= threshold

    @pytest.mark.parametrize("threshold", [float("nan"), -0.01, 1.01])
    def test_threshold_outside_the_unit_interval_rejected(self, threshold):
        """NaN and thresholds above 1 once scored every sample as class 0, and
        thresholds below 0 every sample as class 1."""
        _, table, config, params, pos, neg = _fixture_model()
        with pytest.raises(ValueError, match=r"^class_threshold must be a number in \[0, 1\]"):
            evaluate([(pos, 1), (neg, 0)], table, params, config, class_threshold=threshold)

    def test_threshold_bounds_accepted(self):
        _, table, config, params, pos, neg = _fixture_model()
        dataset = [(pos, 1), (neg, 0)]
        assert evaluate(dataset, table, params, config, class_threshold=0.0).tp == 1
        assert evaluate(dataset, table, params, config, class_threshold=1.0).tp == 0

    def test_threshold_refused_for_the_3_way_head(self):
        """The 3-way head predicts the argmax class, so a threshold other than
        the default would be ignored; it is refused instead."""
        _, table, config, _, pos, neg = _fixture_model()
        config = replace(config, head="multiclass3")
        params = init_parameters(config, np.random.default_rng(0))
        dataset = [(pos, 2), (neg, 0)]
        with pytest.raises(ValueError, match=r"^class_threshold applies to the binary head only; "
                                             r"the 'multiclass3' head predicts the argmax class"):
            evaluate(dataset, table, params, config, class_threshold=0.7)
        assert evaluate(dataset, table, params, config, class_threshold=0.5).n_samples == 2

    def test_metrics_recomputable_from_counts(self):
        report = confusion_metrics(np.array([[4, 1], [2, 3]]))
        assert (report.tp, report.fp, report.fn, report.tn) == (3, 1, 2, 4)
        assert report.accuracy == pytest.approx(0.7)
        assert report.f1 == pytest.approx(2 / 3)
        assert report.to_dict().keys() == {"head", "n_samples", "accuracy", "precision",
                                           "recall", "f1", "tp", "fp", "fn", "tn"}
        m = confusion_metrics(np.array([[5, 0, 1], [1, 3, 2], [0, 1, 7]]))
        assert m.head == "multiclass3"
        assert (m.tp, m.fp, m.fn, m.tn) == (7, 3, 1, 9)
        assert m.accuracy == pytest.approx(15 / 20)
        assert m.precision == pytest.approx(7 / 10)
        assert m.recall == pytest.approx(7 / 8)
        assert m.to_dict()["confusion"] == [[5, 0, 1], [1, 3, 2], [0, 1, 7]]
        assert "tp" not in m.to_dict()

    def test_confusion_metrics_match_the_per_head_formulas(self):
        """Bit-equal to the formulas the binary and 3-way heads were scored
        with before one builder served both."""
        def prf(tp, fp, fn):
            precision = tp / (tp + fp) if tp + fp else 0.0
            recall = tp / (tp + fn) if tp + fn else 0.0
            f1 = 2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
            return precision, recall, f1

        rng = np.random.default_rng(12)
        for _ in range(500):
            (tn, fp), (fn, tp) = c2 = rng.integers(0, 6, (2, 2)).tolist()
            total = tp + fp + fn + tn
            report = confusion_metrics(np.array(c2))
            assert (report.accuracy, report.precision, report.recall, report.f1) == (
                (tp + tn) / total if total else 0.0, *prf(tp, fp, fn))
            c3 = rng.integers(0, 6, (3, 3))
            total = int(c3.sum())
            report = confusion_metrics(c3)
            assert (report.accuracy, report.precision, report.recall, report.f1) == (
                float(np.trace(c3)) / total if total else 0.0,
                *prf(int(c3[2, 2]), int(c3[0, 2] + c3[1, 2]), int(c3[2, 0] + c3[2, 1])))

    def test_empty_dataset_rejected(self):
        _, table, config, params, _, _ = _fixture_model()
        with pytest.raises(ValueError):
            evaluate([], table, params, config)

    @pytest.mark.parametrize("head, bad", [("binary", -1), ("binary", True), ("binary", 2),
                                           ("multiclass3", -1), ("multiclass3", 3)])
    def test_label_outside_the_head_rejected(self, head, bad):
        # the former loop counted a binary -1 as class 1, and a True label in
        # both rows of the confusion matrix (two samples gave n_samples 3)
        _, table, config, params, pos, neg = _fixture_model()
        if head == "multiclass3":
            config = replace(config, head=head)
            params = init_parameters(config, np.random.default_rng(4))
        with pytest.raises(ValueError, match=rf"sample 1 has label {bad!r}, .* {head} head"):
            evaluate([(pos, 1), (neg, bad)], table, params, config)


class TestGridSearch:
    def _factory(self, prepared):
        def factory(mode, seed):
            assert mode == "self_learnt"
            return init_self_learnt(prepared.vocab, 8, mean=0.0, std=0.1, seed=seed)

        return factory

    def test_single_cell_equals_direct_run(self, tiny_corpus):
        base = _tiny_config(tiny_corpus)
        axes = GridAxes(epochs=(2,), dropout=(0.0,), width_sets=((2, 3),), modes=("self_learnt",))
        train_pairs = to_pairs(tiny_corpus.train, "binary")
        test_pairs = to_pairs(tiny_corpus.test, "binary")
        results = grid_search(train_pairs, test_pairs, base, axes,
                              self._factory(tiny_corpus), seed=5, batch_size=16, lr=1e-3,
                              parallel=False)
        assert len(results) == 1

        table_seed, params_seed, train_seed = _cell_seeds(5, 0)
        table = init_self_learnt(tiny_corpus.vocab, 8, mean=0.0, std=0.1, seed=table_seed)
        params = init_parameters(
            base, np.random.default_rng(derive_seed(params_seed, "params-init"))
        )
        train(train_pairs, table, params, base, epochs=2, batch_size=16, seed=train_seed, lr=1e-3)
        direct = evaluate(test_pairs, table, params, base)
        assert results[0].accuracy == direct.accuracy
        assert results[0].f1 == direct.f1

    def test_width_sweep_emits_one_row_per_width(self):
        headlines, prices = generate_synthetic(
            seed=11, n_assets=2, n_days=50, headlines_per_day=4, signal_strength=1.0
        )
        prepared = prepare_dataset(headlines, PriceIndex(prices), {"SYN0", "SYN1"}, max_len=14)
        widths = tuple((h,) for h in range(2, 10))
        base = ModelConfig(
            p=8, m=14, filter_widths=(2,), filters_per_width=2,
            hidden_sizes=(3, 2), dropout_rate=0.0, head="binary",
        )
        axes = GridAxes(epochs=(1,), dropout=(0.0,), width_sets=widths, modes=("self_learnt",))
        results = grid_search(
            to_pairs(prepared.train, "binary")[:120],
            to_pairs(prepared.test, "binary")[:60],
            base, axes, self._factory(prepared), seed=5, batch_size=16, lr=1e-3, parallel=False,
        )
        assert len(results) == 8
        assert sorted(r.widths for r in results) == sorted(widths)
        # ranked by F1 descending, ties by accuracy
        f1s = [r.f1 for r in results]
        assert f1s == sorted(f1s, reverse=True)

    def test_duplicate_axis_values_warn_and_dedup(self, tiny_corpus):
        base = _tiny_config(tiny_corpus)
        axes = GridAxes(epochs=(1, 1), dropout=(0.0,), width_sets=((2, 3),), modes=("self_learnt",))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            results = grid_search(
                to_pairs(tiny_corpus.train, "binary")[:60],
                to_pairs(tiny_corpus.test, "binary")[:30],
                base, axes, self._factory(tiny_corpus), seed=5, batch_size=16, lr=1e-3,
                parallel=False,
            )
        assert len(results) == 1
        assert any("duplicate" in str(w.message) for w in caught)

    def test_total_filters_held_constant(self, tiny_corpus):
        base = _tiny_config(tiny_corpus)  # 2 widths x 3 filters = 6 total
        axes = GridAxes(epochs=(1,), dropout=(0.0,), width_sets=((2,), (2, 3)),
                        modes=("self_learnt",))
        results = grid_search(
            to_pairs(tiny_corpus.train, "binary")[:60],
            to_pairs(tiny_corpus.test, "binary")[:30],
            base, axes, self._factory(tiny_corpus), seed=5, batch_size=16, lr=1e-3, parallel=False,
        )
        assert len(results) == 2
        assert cell_config(base, (2,), 0.0).filters_per_width == 6
        assert cell_config(base, (2, 3), 0.0).filters_per_width == 3

    def test_indivisible_total_filters_rejected(self, tiny_corpus):
        base = replace(_tiny_config(tiny_corpus), filter_widths=(2,), filters_per_width=7)
        axes = GridAxes(epochs=(1,), dropout=(0.0,), width_sets=((2, 3),), modes=("self_learnt",))
        with pytest.raises(ValueError, match="divisible"):
            grid_search(
                to_pairs(tiny_corpus.train, "binary")[:40],
                to_pairs(tiny_corpus.test, "binary")[:20],
                base, axes, self._factory(tiny_corpus), seed=5, batch_size=32, lr=1e-3,
                parallel=False,
            )

    def test_a_bad_last_width_set_is_rejected_before_any_cell_trains(self, tiny_corpus):
        base = _tiny_config(tiny_corpus)  # 2 widths x 3 filters = 6 total
        axes = GridAxes(epochs=(1,), dropout=(0.0,), width_sets=((2,), (2, 3), (2, 3, 4, 5)),
                        modes=("self_learnt",))
        made = []
        factory = self._factory(tiny_corpus)
        with pytest.raises(ValueError, match=r"not divisible by len\(\(2, 3, 4, 5\)\)"):
            grid_search(
                to_pairs(tiny_corpus.train, "binary")[:40],
                to_pairs(tiny_corpus.test, "binary")[:20],
                base, axes, lambda mode, seed: made.append(seed) or factory(mode, seed), seed=5,
                batch_size=32, lr=1e-3, parallel=False,
            )
        assert made == []

    def test_parallel_matches_sequential(self, tiny_corpus):
        import functools

        base = _tiny_config(tiny_corpus)
        axes = GridAxes(epochs=(1,), dropout=(0.0, 0.2), width_sets=((2,), (2, 3)),
                        modes=("self_learnt",))
        kwargs = dict(
            train_set=to_pairs(tiny_corpus.train, "binary")[:80],
            selection_set=to_pairs(tiny_corpus.test, "binary")[:40],
            base_config=base, axes=axes,
            table_factory=functools.partial(_self_learnt_factory, tiny_corpus.vocab),
            seed=5, batch_size=16, lr=1e-3,
        )
        sequential = grid_search(parallel=False, **kwargs)
        parallel = grid_search(parallel=True, **kwargs)
        assert sequential == parallel
