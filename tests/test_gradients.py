"""Finite-difference verification of backpropagation."""

from types import SimpleNamespace

import numpy as np
import pytest

from newsvane import gradcheck, network
from newsvane.gradcheck import TOLERANCE, _random_instance, check_instance, run_suite
from newsvane.seeding import derive_seed


def perturb_backward(monkeypatch, error):
    """Make the backward pass gradcheck calls add ``error`` to one filter entry."""
    real = gradcheck.backward

    def backward(cache, y, params, config, table, acc):
        emb_grad = real(cache, y, params, config, table, acc)
        acc.filters[config.filter_widths[0]][0, 0] += error
        return emb_grad

    monkeypatch.setattr(gradcheck, "backward", backward)


class TestSuite:
    def test_twenty_random_configs_pass(self):
        suite = run_suite(seed=0, n_configs=20)
        assert suite.passed
        assert suite.max_rel_error < TOLERANCE
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
        assert suite.max_rel_error > TOLERANCE


class TestInstances:
    def test_embedding_rows_checked_in_trainable_modes(self):
        rng = np.random.default_rng(derive_seed(1, "gradcheck"))
        config, enc, table, params, y, seed = _random_instance(rng, index=1)  # non_static
        assert table.mode == "non_static"
        result = check_instance(config, enc, table, params, y, seed)
        # parameter scalars plus all non-padding embedding entries
        n_params = sum(a.size for _, a in params.tensors())
        assert result.n_checked == n_params + table.matrix[1:].size
        assert result.max_rel_error < TOLERANCE

    def test_static_mode_skips_embeddings(self):
        rng = np.random.default_rng(derive_seed(1, "gradcheck"))
        config, enc, table, params, y, seed = _random_instance(rng, index=2)  # static
        assert table.mode == "static"
        result = check_instance(config, enc, table, params, y, seed)
        assert result.n_checked == sum(a.size for _, a in params.tensors())

    @pytest.mark.parametrize("index", range(6))
    def test_individual_instances(self, index):
        rng = np.random.default_rng(derive_seed(99, "gradcheck"))
        result = check_instance(*_random_instance(rng, index))
        assert result.max_rel_error < TOLERANCE, result

    def test_suite_differences_every_pool_width_and_dropped_units(self):
        """The seed-0 suite runs pool widths 1, 2 and 3, and its dropout
        instances zero a unit whose relu output is positive."""
        rng = np.random.default_rng(derive_seed(0, "gradcheck"))
        pool_widths, dropped = set(), 0
        for index in range(20):
            config, enc, table, params, y, seed = _random_instance(rng, index)
            pool_widths.add(config.pool_w)
            _, cache = gradcheck._seeded_forward(enc, table, params, config, seed)
            act1 = np.maximum(0.0, params.w1 @ cache.z + params.b1)
            dropped += int(np.count_nonzero((act1 > 0) & (cache.drop1 == 0)))
        assert pool_widths == {1, 2, 3}
        assert dropped > 0


def _former_well_conditioned(cache, config):
    """The width-by-width check gradcheck made before it read the shared
    conv buffers: every pre-activation and every top-2 gap of a pool
    window with two or more map cells must clear the margin."""
    for width in cache.plan.widths:
        pre = cache.pre[: width.length, width.cols]
        if np.abs(pre).min() < gradcheck._KINK_MARGIN:
            return False
        post = np.maximum(0.0, pre)
        for start in range(0, post.shape[0], config.pool_w):
            block = post[start : start + config.pool_w]
            if block.shape[0] < 2:
                continue
            top2 = np.sort(block, axis=0)[-2:]
            if np.min(top2[1] - top2[0]) < gradcheck._KINK_MARGIN:
                return False
    return True


def test_well_conditioned_decides_like_the_per_width_loop():
    # Pre-activations on a grid of 0.004 steps, so values and window gaps land
    # on both sides of the 0.01 margin; the pad cells hold -inf, as forward leaves them.
    rng = np.random.default_rng(19)
    seen = {"accepted": 0, "rejected": 0, "one-cell window": 0, "padding-only window": 0}
    for _ in range(3000):
        m = int(rng.integers(2, 9))
        widths = tuple(rng.choice(np.arange(2, m + 1), size=min(m - 1, int(rng.integers(1, 4))),
                                  replace=False).tolist())
        n_f, pool_w = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        if sum(n_f * -(-(m - h + 1) // pool_w) for h in widths) < 3:
            continue
        config = network.ModelConfig(p=1, m=m, filter_widths=widths, filters_per_width=n_f,
                                     hidden_sizes=(2, 1), pool_w=pool_w, head="binary")
        plan = config._plan
        lowest = 0 if rng.random() < 0.3 else int(rng.integers(3, 6))  # |pre| >= 0.012 unless 0
        pre = rng.choice([-1, 1], size=plan.pad.shape) * rng.integers(lowest, lowest + 8,
                                                                      size=plan.pad.shape) * 0.004
        pre[plan.pad] = -np.inf
        cache = SimpleNamespace(pre=pre, plan=plan)
        decision = gradcheck._well_conditioned(cache, config)
        assert decision == _former_well_conditioned(cache, config), (config, pre)
        seen["accepted" if decision else "rejected"] += 1
        if decision and pool_w > 1:
            lengths = [config.map_len(h) for h in widths]
            seen["one-cell window"] += any(n % pool_w == 1 for n in lengths)
            seen["padding-only window"] += any(config.pooled_len(h) < plan.blocks for h in widths)
    assert min(seen.values()) >= 20, seen
