"""Finite-difference verification of backpropagation."""

import numpy as np
import pytest

from newsvane import gradcheck
from newsvane.gradcheck import DEFAULT_TOLERANCE, _random_instance, check_instance, run_suite
from newsvane.seeding import derive_seed


def perturb_backward(monkeypatch, error):
    """Make the backward pass gradcheck calls add ``error`` to one filter entry."""
    real = gradcheck.backward

    def backward(cache, y, params, config, table, acc, acc_emb):
        rows = real(cache, y, params, config, table, acc, acc_emb)
        acc.filters[config.filter_widths[0]][0, 0] += error
        return rows

    monkeypatch.setattr(gradcheck, "backward", backward)


class TestSuite:
    def test_twenty_random_configs_pass(self):
        suite = run_suite(seed=0, n_configs=20)
        assert suite.passed
        assert suite.max_rel_error < DEFAULT_TOLERANCE
        assert len(suite.results) == 20

    def test_covers_both_heads_and_all_modes(self):
        suite = run_suite(seed=0, n_configs=20)
        descs = [r.description for r in suite.results]
        for needle in ("head=binary", "head=multiclass3", "mode=self_learnt",
                       "mode=static", "mode=non_static"):
            assert any(needle in d for d in descs)

    def test_deterministic_across_runs(self):
        a = run_suite(seed=3, n_configs=4)
        b = run_suite(seed=3, n_configs=4)
        assert [r.max_rel_error for r in a.results] == [r.max_rel_error for r in b.results]

    def test_perturbed_gradient_is_caught(self, monkeypatch):
        # negative control: a deliberate analytic error must fail the check
        perturb_backward(monkeypatch, 1e-2)
        suite = run_suite(seed=0, n_configs=3)
        assert not suite.passed
        assert suite.max_rel_error > DEFAULT_TOLERANCE


class TestInstances:
    def test_embedding_rows_checked_in_trainable_modes(self):
        rng = np.random.default_rng(derive_seed(1, "gradcheck"))
        config, enc, table, params, y, _ = _random_instance(rng, index=1)  # non_static
        assert table.mode == "non_static"
        result = check_instance(config, enc, table, params, y)
        # parameter scalars plus all non-padding embedding entries
        n_params = sum(a.size for _, a in params.tensors())
        assert result.n_checked == n_params + table.matrix[1:].size
        assert result.max_rel_error < DEFAULT_TOLERANCE

    def test_static_mode_skips_embeddings(self):
        rng = np.random.default_rng(derive_seed(1, "gradcheck"))
        config, enc, table, params, y, _ = _random_instance(rng, index=2)  # static
        assert table.mode == "static"
        result = check_instance(config, enc, table, params, y)
        assert result.n_checked == sum(a.size for _, a in params.tensors())

    @pytest.mark.parametrize("index", range(6))
    def test_individual_instances(self, index):
        rng = np.random.default_rng(derive_seed(99, "gradcheck"))
        config, enc, table, params, y, _ = _random_instance(rng, index)
        result = check_instance(config, enc, table, params, y)
        assert result.max_rel_error < DEFAULT_TOLERANCE, result
