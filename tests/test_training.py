"""Adam, training-loop, metrics and grid-search tests."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from newsvane.embeddings import EmbeddingTable, init_self_learnt, load_pretrained
from newsvane.corpus import generate_synthetic
from newsvane.network import (
    ModelConfig,
    ModelParameters,
    backward,
    forward,
    init_parameters,
    param_layout,
)
from newsvane.pipeline import prepare_dataset, to_pairs
from newsvane.seeding import derive_seed
from newsvane.text import EncodedHeadline, Vocabulary
from newsvane.training import (
    AdamState,
    GridAxes,
    NumericError,
    adam_step,
    cell_config,
    confusion_metrics,
    evaluate,
    grid_search,
    train,
)
from newsvane.training import _cell_seeds  # noqa: F401  (used to mirror grid cells)


def _self_learnt_factory(vocab, mode, seed):
    """Module-level so ProcessPoolExecutor can pickle it."""
    assert mode == "self_learnt"
    return init_self_learnt(vocab, 8, seed=seed)


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
        state = AdamState.initialize(tensors, lr=0.01)
        for g in grads:
            adam_step(tensors, {"w": g}, state)
        assert tensors["w"].tobytes() == _textbook_adam(theta0, grads, lr=0.01).tobytes()

    @pytest.mark.parametrize("n_hot, gathered", [(20, True), (45, False)])
    def test_row_steps_match_textbook(self, n_hot, gathered):
        # Each step names the rows it gives a gradient, drawn from the first
        # n_hot of 50. Their union stays below half the rows (the step gathers
        # them) or passes it (the step goes whole). Either way the result is
        # the textbook whole-array step, and rows never named, -0.0 and NaN
        # included, keep their bytes.
        rng = np.random.default_rng(8)
        theta0 = rng.normal(size=(50, 3))
        theta0[47:] = [[-0.0, np.nan, np.inf], [-np.inf, -0.0, 0.0], [np.nan, 1e300, -1e-300]]
        tensors = {"w": theta0.copy()}
        state = AdamState.initialize(tensors, lr=0.01)
        grads, named = [], np.zeros(50, dtype=bool)
        for _ in range(10):
            rows = np.sort(rng.choice(n_hot, size=6, replace=False))
            g = np.zeros((50, 3))
            g[rows] = rng.normal(size=(6, 3)) * 10.0 ** rng.integers(-6, 3, size=(6, 1))
            grads.append(g)
            named[rows] = True
            adam_step(tensors, {"w": g}, state, rows={"w": rows})
        assert ("w" in state.active) == gathered
        assert tensors["w"].tobytes() == _textbook_adam(theta0, grads, lr=0.01).tobytes()
        assert tensors["w"][~named].tobytes() == theta0[~named].tobytes()

    @pytest.mark.parametrize("rows", [None, {"embeddings": np.array([3])}])
    def test_nonfinite_embedding_gradient_names_tensor(self, rows):
        tensors = {"embeddings": np.ones((10, 2))}
        state = AdamState.initialize(tensors)
        g = np.zeros((10, 2))
        g[3, 1] = np.inf
        with pytest.raises(NumericError, match="non-finite gradient for tensor 'embeddings'"):
            adam_step(tensors, {"embeddings": g}, state, rows=rows)

    @pytest.mark.parametrize("hyper", [{"lr": -1e-3}, {"lr": math.inf}, {"beta1": 1.0},
                                       {"beta2": -0.5}, {"eps": 0.0}, {"eps": math.nan}])
    def test_hyperparameters_outside_exact_range_rejected(self, hyper):
        # outside these ranges an untouched row's step need not be +0.0
        with pytest.raises(ValueError, match="Adam needs"):
            AdamState.initialize({"w": np.zeros(2)}, **hyper)

    def test_zero_gradient_keeps_parameters(self):
        tensors = {"w": np.array([1.0, -2.0])}
        state = AdamState.initialize(tensors)
        adam_step(tensors, {"w": np.zeros(2)}, state)
        assert tensors["w"].tolist() == [1.0, -2.0]
        assert state.t == 1

    def test_matches_scalar_recurrence(self):
        tensors = {"w": np.array([0.0])}
        state = AdamState.initialize(tensors, lr=0.01)
        grads = [0.3] * 25 + [-0.7] * 25
        for g in grads:
            adam_step(tensors, {"w": np.array([g])}, state)
        expected = _scalar_adam(grads, lr=0.01)
        assert tensors["w"][0] == pytest.approx(expected, abs=1e-12)

    def test_lr_zero_is_identity(self):
        tensors = {"w": np.array([3.0])}
        state = AdamState.initialize(tensors, lr=0.0)
        for _ in range(5):
            adam_step(tensors, {"w": np.array([1.0])}, state)
        assert tensors["w"][0] == 3.0

    def test_frozen_tensor_skipped(self):
        tensors = {"w": np.array([1.0]), "frozen": np.array([2.0])}
        state = AdamState.initialize(tensors, frozen=["frozen"])
        adam_step(tensors, {"w": np.array([1.0]), "frozen": np.array([1.0])}, state)
        assert tensors["frozen"][0] == 2.0
        assert tensors["w"][0] != 1.0

    def test_nonfinite_gradient_names_tensor(self):
        tensors = {"w1": np.array([1.0])}
        state = AdamState.initialize(tensors)
        with pytest.raises(ValueError, match="w1"):
            adam_step(tensors, {"w1": np.array([np.nan])}, state)

    def test_bitwise_deterministic(self):
        def run():
            tensors = {"w": np.linspace(-1, 1, 7)}
            state = AdamState.initialize(tensors, lr=0.05)
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
    return prepare_dataset(headlines, prices, {"SYN0", "SYN1"})


def _tiny_config(prepared, head="binary", dropout=0.0):
    return ModelConfig(
        p=8, m=prepared.vocab.max_len, filter_widths=(2, 3), filters_per_width=3,
        hidden_sizes=(16, 8), dropout_rate=dropout, head=head,
    )


class TestTrain:
    def test_epochs_zero_leaves_parameters_untouched(self, tiny_corpus):
        config = _tiny_config(tiny_corpus)
        table = init_self_learnt(tiny_corpus.vocab, config.p, seed=1)
        params = init_parameters(config, np.random.default_rng(2))
        before = params.w1.copy()
        result = train(to_pairs(tiny_corpus.train, "binary"), table, params, config,
                       epochs=0, batch_size=8, seed=3)
        assert result.trace == []
        assert np.array_equal(params.w1, before)

    def test_empty_dataset_rejected(self, tiny_corpus):
        config = _tiny_config(tiny_corpus)
        table = init_self_learnt(tiny_corpus.vocab, config.p, seed=1)
        params = init_parameters(config, np.random.default_rng(2))
        with pytest.raises(ValueError):
            train([], table, params, config, epochs=1, batch_size=8, seed=3)

    def test_nonfinite_gradient_names_layout_tensor(self, tiny_corpus):
        # an infinite second-layer bias makes only the head weights' gradient
        # non-finite; the error names that tensor, not the flat vector
        config = _tiny_config(tiny_corpus)
        table = init_self_learnt(tiny_corpus.vocab, config.p, seed=1)
        params = init_parameters(config, np.random.default_rng(2))
        params.b2[0] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(
            ValueError, match="non-finite gradient for tensor 'w_out'"
        ):
            train(to_pairs(tiny_corpus.train, "binary")[:8], table, params, config,
                  epochs=1, batch_size=8, seed=3)

    def test_loss_decreases_on_learnable_data(self, tiny_corpus):
        config = _tiny_config(tiny_corpus)
        table = init_self_learnt(tiny_corpus.vocab, config.p, seed=1)
        params = init_parameters(config, np.random.default_rng(2))
        result = train(to_pairs(tiny_corpus.train, "binary"), table, params, config,
                       epochs=5, batch_size=16, seed=3)
        assert result.trace[-1].mean_loss < result.trace[0].mean_loss
        assert result.trace[-1].accuracy > 0.9

    def test_deterministic_end_state(self, tiny_corpus):
        def run():
            config = _tiny_config(tiny_corpus, dropout=0.3)
            table = init_self_learnt(tiny_corpus.vocab, config.p, seed=5)
            params = init_parameters(config, np.random.default_rng(6))
            train(to_pairs(tiny_corpus.train, "binary"), table, params, config,
                  epochs=2, batch_size=16, seed=7)
            return params.w1.tobytes() + table.matrix.tobytes()

        assert run() == run()

    def test_multiclass_head_trains(self, tiny_corpus):
        config = _tiny_config(tiny_corpus, head="multiclass3")
        table = init_self_learnt(tiny_corpus.vocab, config.p, seed=1)
        params = init_parameters(config, np.random.default_rng(2))
        result = train(to_pairs(tiny_corpus.train, "multiclass3"), table, params, config,
                       epochs=3, batch_size=16, seed=3)
        assert result.trace[-1].mean_loss < result.trace[0].mean_loss

    def test_padding_row_stays_zero_after_training(self, tiny_corpus):
        config = _tiny_config(tiny_corpus)
        table = init_self_learnt(tiny_corpus.vocab, config.p, seed=1)
        params = init_parameters(config, np.random.default_rng(2))
        train(to_pairs(tiny_corpus.train, "binary"), table, params, config,
              epochs=2, batch_size=16, seed=3)
        assert not table.matrix[0].any()


@pytest.fixture()
def pretrained_file(tmp_path, tiny_corpus):
    rng = np.random.default_rng(0)
    path = tmp_path / "vecs.txt"
    tokens = list(tiny_corpus.vocab.word_to_index)[::2]  # half the vocab has vectors
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
              epochs=2, batch_size=16, seed=4)
        assert table.matrix.tobytes() == initial.tobytes()

    def test_non_static_rows_move(self, tiny_corpus, pretrained_file):
        config = _tiny_config(tiny_corpus)
        table = load_pretrained(tiny_corpus.vocab, pretrained_file, "non_static", seed=2, expected_p=8)
        initial = table.matrix.copy()
        params = init_parameters(config, np.random.default_rng(3))
        train(to_pairs(tiny_corpus.train, "binary"), table, params, config,
              epochs=1, batch_size=16, seed=4)
        changed = np.any(table.matrix != initial, axis=1)
        assert changed[1:].any()
        assert not table.matrix[0].any()


def _dense_reference_train(dataset, table, params, config, epochs, batch_size, seed, lr=1e-3):
    """Per-sample dense accumulation: each sample's embedding gradient fills a
    table-sized matrix, the batch sum is scaled whole, and Adam is the
    textbook whole-array update of every tensor."""
    shuffle_rng = np.random.default_rng(derive_seed(seed, "shuffle"))
    dropout_rng = np.random.default_rng(derive_seed(seed, "dropout"))
    tensors = {"params": params.flat, "embeddings": table.matrix}
    if not table.trainable:
        del tensors["embeddings"]
    moments = {k: (np.zeros_like(a), np.zeros_like(a)) for k, a in tensors.items()}
    t = 0
    for _ in range(epochs):
        order = shuffle_rng.permutation(len(dataset))
        for start in range(0, len(dataset), batch_size):
            batch = order[start : start + batch_size]
            acc = {"params": np.zeros_like(params.flat), "embeddings": np.zeros_like(table.matrix)}
            for i in batch:
                enc, y = dataset[i]
                _, cache = forward(enc, table, params, config, mode="train", rng=dropout_rng)
                g = ModelParameters.from_flat(np.zeros_like(params.flat), params.layout)
                demb = np.zeros_like(table.matrix) if table.trainable else None
                backward(cache, y, params, config, table, g, demb)
                acc["params"] += g.flat
                if demb is not None:
                    acc["embeddings"] += demb
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


class TestSparseEmbeddingEquivalence:
    @pytest.mark.parametrize("mode", ["self_learnt", "non_static", "static"])
    def test_train_matches_dense_reference(self, mode):
        # Two corpora of 21 samples in batches of 8, leaving a final partial
        # batch of 5. "shared": five tokens in six slots of a 6-row table, so
        # most headlines repeat a token and every batch touches nearly every
        # row (Adam soon steps the whole table). "disjoint": each headline
        # owns two tokens of a 100-row table, so consecutive batches touch
        # disjoint rows, rows an earlier batch touched must keep moving on
        # their moments, the 42 touched rows stay below half the table (Adam
        # gathers them) and the other rows must keep their bytes.
        rng = np.random.default_rng(9)
        config = ModelConfig(p=4, m=6, filter_widths=(2, 3), filters_per_width=2,
                             hidden_sizes=(5, 3), dropout_rate=0.25, head="multiclass3")
        for n_rows, tokens_per_sample, first_token in ((6, 5, lambda i: 1),
                                                       (100, 2, lambda i: 1 + 2 * i)):
            dataset = []
            for i in range(21):
                true_len = int(rng.integers(2, 7))
                indices = np.zeros(6, dtype=np.int64)
                indices[:true_len] = first_token(i) + rng.integers(tokens_per_sample, size=true_len)
                dataset.append((EncodedHeadline(indices=indices, true_len=true_len),
                                int(rng.integers(3))))
            assert any(len(set(e.indices[:e.true_len].tolist())) < e.true_len for e, _ in dataset)
            matrix = rng.normal(size=(n_rows, 4))
            matrix[0] = 0.0
            params = init_parameters(config, rng)
            runs = []
            for trainer in (train, _dense_reference_train):
                table = EmbeddingTable(matrix=matrix.copy(), mode=mode, p=4)
                run_params = ModelParameters.from_flat(params.flat.copy(), params.layout)
                trainer(dataset, table, run_params, config, epochs=2, batch_size=8, seed=3, lr=0.01)
                runs.append(run_params.flat.tobytes() + table.matrix.tobytes())
            assert runs[0] == runs[1]
            touched = np.zeros(n_rows, dtype=bool)
            touched[np.concatenate([e.indices for e, _ in dataset])] = True
            touched[0] = False
            assert table.matrix[~touched].tobytes() == matrix[~touched].tobytes()
            if mode != "static":
                assert not np.array_equal(table.matrix[touched], matrix[touched])


def _fixture_model():
    """Hand-built model that predicts 1 exactly when the first token is 'pos'."""
    vocab = Vocabulary(word_to_index={"pos": 1, "neg": 2}, max_len=2)
    table = EmbeddingTable(matrix=np.array([[0.0], [1.0], [-1.0]]), mode="self_learnt", p=1)
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
    pos = EncodedHeadline(indices=np.array([1, 0]), true_len=1)
    neg = EncodedHeadline(indices=np.array([2, 0]), true_len=1)
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

    def test_threshold_is_inclusive(self):
        _, table, config, params, pos, neg = _fixture_model()
        # pos sample yields sigma(2) ~= 0.8808
        sigma = 1.0 / (1.0 + math.exp(-2.0))
        report = evaluate([(pos, 1)], table, params, config, class_threshold=sigma)
        assert report.tp == 1  # predict 1 iff sigma >= threshold

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


class TestGridSearch:
    def _factory(self, prepared):
        def factory(mode, seed):
            assert mode == "self_learnt"
            return init_self_learnt(prepared.vocab, 8, seed=seed)

        return factory

    def test_single_cell_equals_direct_run(self, tiny_corpus):
        base = _tiny_config(tiny_corpus)
        axes = GridAxes(epochs=(2,), dropout=(0.0,), width_sets=((2, 3),), modes=("self_learnt",))
        train_pairs = to_pairs(tiny_corpus.train, "binary")
        test_pairs = to_pairs(tiny_corpus.test, "binary")
        results = grid_search(train_pairs, test_pairs, base, axes,
                              self._factory(tiny_corpus), seed=5, batch_size=16)
        assert len(results) == 1

        table_seed, params_seed, train_seed = _cell_seeds(5, 0)
        table = init_self_learnt(tiny_corpus.vocab, 8, seed=table_seed)
        params = init_parameters(
            base, np.random.default_rng(derive_seed(params_seed, "params-init"))
        )
        train(train_pairs, table, params, base, epochs=2, batch_size=16, seed=train_seed)
        direct = evaluate(test_pairs, table, params, base)
        assert results[0].accuracy == direct.accuracy
        assert results[0].f1 == direct.f1

    def test_width_sweep_emits_one_row_per_width(self):
        headlines, prices = generate_synthetic(
            seed=11, n_assets=2, n_days=50, headlines_per_day=4, signal_strength=1.0
        )
        prepared = prepare_dataset(headlines, prices, {"SYN0", "SYN1"}, max_len=14)
        widths = tuple((h,) for h in range(2, 10))
        base = ModelConfig(
            p=8, m=14, filter_widths=(2,), filters_per_width=2,
            hidden_sizes=(3, 2), dropout_rate=0.0, head="binary",
        )
        axes = GridAxes(epochs=(1,), dropout=(0.0,), width_sets=widths, modes=("self_learnt",))
        results = grid_search(
            to_pairs(prepared.train, "binary")[:120],
            to_pairs(prepared.test, "binary")[:60],
            base, axes, self._factory(prepared), seed=5, batch_size=16,
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
                base, axes, self._factory(tiny_corpus), seed=5, batch_size=16,
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
            base, axes, self._factory(tiny_corpus), seed=5, batch_size=16,
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
                base, axes, self._factory(tiny_corpus), seed=5,
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
            seed=5, batch_size=16,
        )
        sequential = grid_search(parallel=False, **kwargs)
        parallel = grid_search(parallel=True, **kwargs)
        assert sequential == parallel
