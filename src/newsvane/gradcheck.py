"""Finite-difference verification of the analytic gradients.

The suite builds small random model instances, computes the analytic
gradient of the per-sample loss via backpropagation, and compares every
trainable scalar against a central finite difference of the loss computed
through the forward pass alone. The two routes share no gradient code, so
agreement is strong evidence the backward pass is correct.

Relu and max-pool make the loss piecewise smooth; a finite difference taken
across a kink is meaningless. Candidate instances are therefore rejection
sampled (deterministically) until all pre-activations, pool-window margins
and output logits sit safely away from their kinks relative to the step
size.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .embeddings import MODE_NON_STATIC, MODE_SELF_LEARNT, MODE_STATIC, EmbeddingTable
from .network import (
    HEAD_BINARY,
    HEAD_MULTICLASS3,
    ForwardCache,
    ModelConfig,
    ModelParameters,
    backward,
    forward,
    init_parameters,
    sample_loss,
)
from .seeding import derive_seed
from .text import EncodedHeadline

DEFAULT_STEP = 1e-4
DEFAULT_TOLERANCE = 1e-4
# margin (in units of the step) that every kink must clear before an
# instance is accepted for differencing
_KINK_MARGIN = 1e-2
# relative error denominator floor: entries smaller than this are compared
# on an absolute scale, where finite differences are dominated by roundoff
_DENOM_FLOOR = 1e-4


@dataclass(frozen=True)
class CheckResult:
    description: str
    max_rel_error: float
    worst_tensor: str
    n_checked: int


@dataclass(frozen=True)
class SuiteResult:
    results: tuple[CheckResult, ...]
    max_rel_error: float
    tolerance: float
    elapsed_s: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance


def _loss_of(enc, table, params, config, y) -> float:
    output, _ = forward(enc, table, params, config, mode="train", rng=None)
    return sample_loss(output, y, config.head)


def _well_conditioned(cache: ForwardCache, config: ModelConfig) -> bool:
    for h in config.filter_widths:
        if np.abs(cache.conv_pre[h]).min() < _KINK_MARGIN:
            return False
        # top-2 gap inside every pool window must clear the margin, or the
        # argmax could flip inside the differencing interval
        post = cache.conv_post[h]
        n = post.shape[0]
        w = config.pool_w
        for start in range(0, n, w):
            block = post[start : start + w]
            if block.shape[0] < 2:
                continue
            top2 = np.sort(block, axis=0)[-2:]
            if np.min(top2[1] - top2[0]) < _KINK_MARGIN:
                return False
    return True


def _preactivation_margins(cache: ForwardCache, params: ModelParameters) -> float:
    pre1 = params.w1 @ cache.z + params.b1
    pre2 = params.w2 @ cache.drop1 + params.b2
    return min(np.abs(pre1).min(), np.abs(pre2).min())


def _random_instance(rng: np.random.Generator, index: int):
    """One random toy configuration with its sample, table and parameters."""
    head = HEAD_BINARY if index % 2 == 0 else HEAD_MULTICLASS3
    mode = (MODE_SELF_LEARNT, MODE_NON_STATIC, MODE_STATIC)[index % 3]
    for _ in range(200):
        m = int(rng.integers(4, 7))
        p = int(rng.integers(2, 5))
        widths = (2,) if rng.random() < 0.5 or m < 5 else (2, 3)
        filters_per_width = int(rng.integers(1, 3))
        if filters_per_width * len(widths) > 4:
            filters_per_width = 1
        config_try = dict(
            p=p, m=m, filter_widths=widths, filters_per_width=filters_per_width,
            pool_w=2, dropout_rate=0.0, head=head,
        )
        z_len = sum(
            filters_per_width * -(-(m - h + 1) // 2) for h in widths
        )
        if z_len < 3:
            continue
        l1 = int(rng.integers(2, z_len))
        l2 = int(rng.integers(1, l1))
        config = ModelConfig(hidden_sizes=(l1, l2), **config_try)

        vocab_size = int(rng.integers(3, 8))
        true_len = int(rng.integers(1, m + 1))
        indices = np.zeros(m, dtype=np.int64)
        indices[:true_len] = rng.integers(1, vocab_size + 1, size=true_len)
        enc = EncodedHeadline(indices=indices, true_len=true_len)

        matrix = rng.normal(0.0, 1.0, size=(vocab_size + 1, p))
        matrix[0] = 0.0
        table = EmbeddingTable(matrix=matrix, mode=mode, p=p)
        params = init_parameters(config, rng)
        # break the symmetry of zero biases so bias kinks are rare
        for h in config.filter_widths:
            params.filter_biases[h][:] = rng.normal(0.0, 0.3, size=filters_per_width)
        params.b1[:] = rng.normal(0.0, 0.3, size=l1)
        params.b2[:] = rng.normal(0.0, 0.3, size=l2)
        y = int(rng.integers(0, 2 if head == HEAD_BINARY else 3))

        output, cache = forward(enc, table, params, config, mode="train", rng=None)
        if not _well_conditioned(cache, config):
            continue
        if _preactivation_margins(cache, params) < _KINK_MARGIN:
            continue
        if np.abs(cache.logits).max() > 8.0:
            continue
        return config, enc, table, params, y, cache
    raise RuntimeError("could not sample a well-conditioned gradcheck instance")


def _numeric_tensor_grad(arr: np.ndarray, loss_fn, step: float) -> np.ndarray:
    out = np.zeros(arr.shape)
    flat = arr.reshape(-1)
    grad = out.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        up = loss_fn()
        flat[i] = orig - step
        down = loss_fn()
        flat[i] = orig
        grad[i] = (up - down) / (2.0 * step)
    return out


def _rel_errors(analytic: np.ndarray, numeric: np.ndarray) -> np.ndarray:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), _DENOM_FLOOR)
    return np.abs(analytic - numeric) / denom


def check_instance(
    config: ModelConfig,
    enc: EncodedHeadline,
    table: EmbeddingTable,
    params: ModelParameters,
    y: int,
    step: float = DEFAULT_STEP,
) -> CheckResult:
    """Compare analytic and central-difference gradients for one instance.

    Frozen tensors (static embedding tables, the padding row) are excluded:
    they are pinned by contract, not by a zero derivative of the loss.
    """
    _, cache = forward(enc, table, params, config, mode="train", rng=None)
    analytic = ModelParameters.from_flat(np.zeros(params.layout.size), params.layout)
    analytic_emb = np.zeros(table.matrix.shape) if table.trainable else None
    backward(cache, y, params, config, table, analytic, analytic_emb)

    def loss_fn() -> float:
        return _loss_of(enc, table, params, config, y)

    errors = _rel_errors(analytic.flat, _numeric_tensor_grad(params.flat, loss_fn, step))
    worst_index = int(np.argmax(errors))
    worst, worst_name = float(errors[worst_index]), params.layout.name_at(worst_index)
    n_checked = params.flat.size
    if analytic_emb is not None:
        rows = table.matrix[1:]
        numeric_rows = _numeric_tensor_grad(rows, loss_fn, step)
        n_checked += rows.size
        err = float(np.max(_rel_errors(analytic_emb[1:], numeric_rows)))
        if err > worst:
            worst, worst_name = err, "embeddings"
    desc = (
        f"head={config.head} mode={table.mode} m={config.m} p={config.p} "
        f"widths={config.filter_widths} f/w={config.filters_per_width} "
        f"hidden={config.hidden_sizes}"
    )
    return CheckResult(
        description=desc, max_rel_error=worst, worst_tensor=worst_name, n_checked=n_checked
    )


def run_suite(
    seed: int = 0,
    n_configs: int = 20,
    step: float = DEFAULT_STEP,
    tolerance: float = DEFAULT_TOLERANCE,
) -> SuiteResult:
    """Run the full randomized gradient check; deterministic per seed."""
    if n_configs < 1:
        raise ValueError(f"n_configs must be >= 1, got {n_configs}")
    rng = np.random.default_rng(derive_seed(seed, "gradcheck"))
    start = time.perf_counter()
    results = []
    for index in range(n_configs):
        config, enc, table, params, y, _ = _random_instance(rng, index)
        results.append(check_instance(config, enc, table, params, y, step=step))
    elapsed = time.perf_counter() - start
    return SuiteResult(
        results=tuple(results),
        max_rel_error=max(r.max_rel_error for r in results),
        tolerance=tolerance,
        elapsed_s=elapsed,
    )
