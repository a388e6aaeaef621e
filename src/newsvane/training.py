"""Mini-batch training with Adam, classification metrics, and grid search.

A training run is deterministic for a fixed (data, config, seed): the epoch
shuffle and the dropout masks draw from separate named seed streams, batch
gradients are accumulated in a fixed sample order and averaged, and Adam
updates are applied in a fixed tensor order.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import asdict, dataclass, field, replace
from itertools import product
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .embeddings import MODE_STATIC, EmbeddingTable
from .fileio import csv_text, write_json_atomic, write_text_atomic
from .network import (
    HEAD_BINARY,
    HEAD_MULTICLASS3,
    ModelConfig,
    ModelParameters,
    RowGradient,
    backward,
    forward,
    init_parameters,
    sample_loss,
)
from .seeding import derive_seed
from .text import EncodedHeadline

Dataset = Sequence[tuple[EncodedHeadline, int]]


class NumericError(ValueError):
    """A run produced a non-finite number (for example a diverging step)."""


# Adam's moment decay rates and denominator guard (Kingma and Ba, arXiv:1412.6980).
# Betas in [0, 1) and a finite eps > 0 make a zero-moment, zero-gradient row's
# step exactly +0.0, which is what lets adam_step leave unnamed rows out.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# Rows per chunk of a row-sparse Adam step are chosen so that each temporary
# holds about this many floats (128 KiB): a chunk's arrays then stay in a
# core's cache across the dozen passes the update makes over them.
_CHUNK_ELEMENTS = 1 << 14


@dataclass
class AdamState:
    """First/second moment accumulators and the learning rate for Adam, whose
    other hyperparameters are ``ADAM_BETA1``, ``ADAM_BETA2`` and ``ADAM_EPS``.

    ``m`` and ``v`` hold the moments of every tensor stepped so far; a
    tensor's are made on its first step, and frozen tensors get none. A
    tensor whose gradients are ``RowGradient``s (a row-sparse tensor; every
    gradient of a tensor must be of the kind its first was) has moments
    only for the rows a gradient has named since the state was created:
    moment row i belongs to tensor row ``rows[name][i]``, ``slots[name]``
    maps a tensor row back to its moment row (-1 if none), and the arrays
    keep spare zero rows past ``len(rows[name])``, doubling when they fill,
    so adding rows copies each moment row O(1) times on average.
    """

    lr: float
    t: int
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    frozen: frozenset[str]
    rows: dict[str, np.ndarray] = field(default_factory=dict, repr=False)
    slots: dict[str, np.ndarray] = field(default_factory=dict, repr=False)

    @classmethod
    def initialize(cls, lr: float, frozen: Sequence[str] = ()) -> "AdamState":
        # a finite lr >= 0 keeps a zero-moment row's step +0.0 as well
        if not (math.isfinite(lr) and lr >= 0.0):
            raise ValueError(f"Adam needs a finite lr >= 0, got lr={lr}")
        return cls(lr=lr, t=0, m={}, v={}, frozen=frozenset(frozen))


def adam_step(
    tensors: dict[str, np.ndarray],
    grads: dict[str, np.ndarray | RowGradient],
    state: AdamState,
) -> None:
    """One Adam update, in place, with bias correction.

    theta -= lr * m_hat / (sqrt(v_hat) + eps), evaluated as
    ``theta -= state.lr * (m / bias1) / (np.sqrt(v / bias2) + ADAM_EPS)``
    would be over the whole tensor, one operation at a time, so the result
    is bit-identical to that expression. Tensors listed in ``state.frozen``
    are skipped entirely; their gradients are not read. Every gradient that
    will be read is checked first: a non-finite one raises ``NumericError``
    naming its tensor before any tensor, moment or ``state.t`` changes.

    A ``RowGradient`` is zero outside its rows. A row that no step has
    named yet has zero moments, and with a zero gradient its update is the
    identity: m, v and the step stay +0.0, and theta - 0.0 leaves every
    float as it is, -0.0 and NaN included. So a row-sparse tensor is
    updated only on the rows named since ``state`` was created, each of
    them on every step, as the whole-tensor update would, in chunks of rows
    small enough for the temporaries to stay in cache.
    """
    stepped = [name for name in tensors if name not in state.frozen]
    for name in stepped:
        grad = grads[name]
        if isinstance(grad, RowGradient):
            rows, grad, n = grad.rows, grad.values, len(tensors[name])
            if grad.shape != (rows.size, *tensors[name].shape[1:]) or rows.size and (
                    rows[0] < 0 or rows[-1] >= n or (np.diff(rows) <= 0).any()):
                raise ValueError(f"the gradient of tensor {name!r} needs distinct ascending "
                                 f"rows below {n}, one value row each")
        if not np.isfinite(grad).all():
            raise NumericError(f"non-finite gradient for tensor {name!r}")
    state.t += 1
    hyper = (state.lr, 1.0 - ADAM_BETA1 ** state.t, 1.0 - ADAM_BETA2 ** state.t)
    for name in stepped:
        theta, grad = tensors[name], grads[name]
        if isinstance(grad, RowGradient):
            _step_named_rows(theta, grad, state, name, hyper)
            continue
        if name not in state.m:
            state.m[name], state.v[name] = np.zeros(theta.shape), np.zeros(theta.shape)
        _adam_update(theta, state.m[name], state.v[name], grad, hyper)


def _step_named_rows(theta: np.ndarray, grad: RowGradient, state: AdamState, name: str,
                     hyper: tuple[float, ...]) -> None:
    """Step every row of ``theta`` named since ``state`` was created, after
    naming ``grad.rows``; the gradient is zero on the rows it does not list."""
    if name not in state.slots:
        state.slots[name] = np.full(len(theta), -1, dtype=np.intp)
        state.rows[name] = np.empty(0, dtype=np.intp)
        state.m[name] = np.zeros((0, *theta.shape[1:]))
        state.v[name] = np.zeros((0, *theta.shape[1:]))
    slots = state.slots[name]
    new = grad.rows[slots[grad.rows] < 0]
    if new.size:
        count = len(state.rows[name])
        slots[new] = np.arange(count, count + new.size)
        state.rows[name] = np.concatenate((state.rows[name], new))
        if count + new.size > len(state.m[name]):
            capacity = min(len(theta), max(count + new.size, 2 * len(state.m[name])))
            for moments in (state.m, state.v):
                grown = np.zeros((capacity, *theta.shape[1:]))
                grown[:count] = moments[name][:count]
                moments[name] = grown
    rows = state.rows[name]
    m, v = state.m[name][: len(rows)], state.v[name][: len(rows)]
    # the gradient's rows by moment row, and where each chunk's share begins
    at = slots[grad.rows]
    order = np.argsort(at)
    at, values = at[order], grad.values[order]
    per = max(1, _CHUNK_ELEMENTS * len(theta) // max(theta.size, 1))
    starts = range(0, len(rows), per)
    bounds = np.searchsorted(at, [*starts, len(rows)]).tolist()
    for i, start in enumerate(starts):
        chunk = slice(start, start + per)
        g = np.zeros((len(rows[chunk]), *theta.shape[1:]))
        g[at[bounds[i] : bounds[i + 1]] - start] = values[bounds[i] : bounds[i + 1]]
        index = rows[chunk]
        th = theta[index]
        _adam_update(th, m[chunk], v[chunk], g, hyper)
        theta[index] = th


def _adam_update(th: np.ndarray, m: np.ndarray, v: np.ndarray, g: np.ndarray,
                 hyper: tuple[float, ...]) -> None:
    """The textbook update of ``th``, ``m`` and ``v`` in place, one operation at a time."""
    lr, bias1, bias2 = hyper
    step, denom = np.empty_like(g), np.empty_like(g)
    m *= ADAM_BETA1
    m += np.multiply(1.0 - ADAM_BETA1, g, out=step)
    v *= ADAM_BETA2
    np.multiply(1.0 - ADAM_BETA2, g, out=denom)
    v += np.multiply(denom, g, out=denom)
    np.divide(m, bias1, out=step)
    np.multiply(lr, step, out=step)
    np.divide(v, bias2, out=denom)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    th -= np.divide(step, denom, out=step)


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    mean_loss: float
    accuracy: float


@dataclass
class TrainResult:
    params: ModelParameters
    trace: list[EpochStats]


# A diverging run overflows before its gradient turns non-finite; the
# non-finite check below reports it, so numpy's warnings would only repeat it.
@np.errstate(over="ignore", invalid="ignore")
def train(
    dataset: Dataset,
    table: EmbeddingTable,
    params: ModelParameters,
    config: ModelConfig,
    epochs: int,
    batch_size: int,
    seed: int,
    lr: float,
) -> TrainResult:
    """Train in place for ``epochs`` passes of shuffled mini-batches.

    Batch gradients are the mean over the batch, so the learning rate does
    not depend on batch size; the final partial batch is processed. The
    embedding matrix is updated through the same optimizer unless the table
    is static, and its padding row is pinned back to zero after every step.
    Returns the (mutated) parameters plus a per-epoch loss/accuracy trace.
    """
    _checked_classes(dataset, config.head, "training")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if epochs < 0:
        raise ValueError("epochs must be >= 0")
    if epochs == 0:
        return TrainResult(params=params, trace=[])

    shuffle_rng = np.random.default_rng(derive_seed(seed, "shuffle"))
    dropout_rng = np.random.default_rng(derive_seed(seed, "dropout"))
    frozen = {"embeddings"} if table.mode == MODE_STATIC else set()
    tensors = {"params": params.flat, "embeddings": table.matrix}
    state = AdamState.initialize(lr=lr, frozen=frozen)
    # the batch sum that backward adds each sample's parameter gradient into
    acc = ModelParameters.from_flat(np.zeros(params.layout.size), params.layout)

    n = len(dataset)
    trace: list[EpochStats] = []
    for epoch in range(epochs):
        order = shuffle_rng.permutation(n)
        loss_sum = 0.0
        correct = 0
        for start in range(0, n, batch_size):
            batch = order[start : start + batch_size]
            emb_grads = []  # None for a static table
            for idx in batch.tolist():
                enc, y = dataset[idx]
                output, cache = forward(enc, table, params, config, mode="train", rng=dropout_rng)
                loss_sum += sample_loss(output, y, config.head)
                correct += int(_predicted_class(output, config.head, 0.5) == y)
                emb_grads.append(backward(cache, y, params, config, table, acc))
            scale = 1.0 / len(batch)
            grads: dict[str, np.ndarray | RowGradient] = {"params": acc.flat * scale}
            if table.trainable:
                grads["embeddings"] = _batch_sum(emb_grads, table.p, scale)
            try:
                adam_step(tensors, grads, state)
            except NumericError:  # name the tensor within the flat vector
                bad = ~np.isfinite(grads["params"])
                if not bad.any():
                    raise
                name = params.layout.name_at(int(bad.argmax()))
                raise NumericError(f"non-finite gradient for tensor {name!r}") from None
            table.matrix[0] = 0.0  # padding row stays frozen in every mode
            acc.flat[:] = 0.0
        trace.append(EpochStats(epoch=epoch, mean_loss=loss_sum / n, accuracy=correct / n))
    return TrainResult(params=params, trace=trace)


def _batch_sum(grads: list[tuple[np.ndarray, np.ndarray]], p: int, scale: float) -> RowGradient:
    """The scaled sum by table row, padding row left out, of a batch's
    ``(indices, dx)`` embedding gradients from ``backward``: from +0.0 over
    each sample's positions in order, then over the samples in order, each
    level one weighted ``np.bincount``, which adds in input order from 0.0."""
    # int64 keys: an int32 row times the batch size could wrap
    indices, n = np.concatenate([g[0] for g in grads]).astype(np.int64, copy=False), len(grads)
    looked_up = np.flatnonzero(indices)  # the empty bincount would come back as int64
    if not looked_up.size:
        return RowGradient(np.empty(0, dtype=np.int64), np.empty((0, p)))
    # (row, sample) pairs, in sample order within each row; every sample has m positions
    pairs, inverse = np.unique(indices[looked_up] * n + looked_up // len(grads[0][0]),
                               return_inverse=True)
    values = np.concatenate([g[1] for g in grads])[looked_up].ravel()
    per_sample = np.bincount((inverse[:, None] * p + np.arange(p)).ravel(), weights=values)
    rows, inverse = np.unique(pairs // n, return_inverse=True)
    sums = np.bincount((inverse[:, None] * p + np.arange(p)).ravel(), weights=per_sample)
    return RowGradient(rows, sums.reshape(rows.size, p) * scale)


def _checked_classes(dataset: Dataset, head: str, role: str) -> int:
    """The class count of ``head``, for a non-empty ``dataset`` of its class indices."""
    if not dataset:
        raise ValueError(f"{role} dataset is empty")
    n_classes = 2 if head == HEAD_BINARY else 3
    for i, (_, y) in enumerate(dataset):
        if isinstance(y, bool) or not isinstance(y, (int, np.integer)) or not 0 <= y < n_classes:
            raise ValueError(f"sample {i} has label {y!r}, not a class index of the {head} head")
    return n_classes


def _predicted_class(output: float | np.ndarray, head: str, threshold: float) -> int:
    if head == HEAD_BINARY:
        return 1 if float(output) >= threshold else 0
    return int(np.argmax(np.asarray(output)))


# --- metrics ----------------------------------------------------------------


@dataclass(frozen=True)
class MetricsReport:
    """Accuracy, precision, recall and F1 plus the raw confusion counts.

    ``confusion`` is the full matrix (rows true, columns predicted). tp/fp/fn/tn
    score the last class (up, or buy for the 3-way head) against the rest,
    matching how the predictions are consumed by the trading layer. Zero
    denominators yield 0 by convention.
    """

    head: str
    n_samples: int
    accuracy: float
    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    fn: int
    tn: int
    confusion: tuple[tuple[int, ...], ...]

    def to_dict(self) -> dict:
        d = {
            "head": self.head,
            "n_samples": self.n_samples,
            "accuracy": self.accuracy,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
        }
        if self.head == HEAD_BINARY:
            d.update(tp=self.tp, fp=self.fp, fn=self.fn, tn=self.tn)
        else:
            d["confusion"] = [list(row) for row in self.confusion]
        return d


def confusion_metrics(confusion: np.ndarray) -> MetricsReport:
    """Metrics from a 2x2 (binary head) or 3x3 (3-way head) confusion matrix."""
    confusion = np.asarray(confusion, dtype=np.int64)
    k = len(confusion) - 1
    total = int(confusion.sum())
    tp = int(confusion[k, k])
    fp = int(confusion[:, k].sum()) - tp
    fn = int(confusion[k].sum()) - tp
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return MetricsReport(
        head=HEAD_BINARY if k == 1 else HEAD_MULTICLASS3, n_samples=total,
        accuracy=int(np.trace(confusion)) / total if total else 0.0,
        precision=precision, recall=recall,
        f1=2.0 * precision * recall / (precision + recall) if precision + recall else 0.0,
        tp=tp, fp=fp, fn=fn, tn=total - tp - fp - fn,
        confusion=tuple(tuple(row) for row in confusion.tolist()),
    )


def evaluate(
    dataset: Dataset,
    table: EmbeddingTable,
    params: ModelParameters,
    config: ModelConfig,
    class_threshold: float = 0.5,
) -> MetricsReport:
    """Test-mode evaluation: binary predicts 1 iff sigma >= threshold,
    multiclass predicts the argmax class."""
    n_classes = _checked_classes(dataset, config.head, "evaluation")
    confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
    for enc, y in dataset:
        output, _ = forward(enc, table, params, config, mode="test")
        confusion[y, _predicted_class(output, config.head, class_threshold)] += 1
    return confusion_metrics(confusion)


# --- grid search ------------------------------------------------------------


@dataclass(frozen=True)
class GridAxes:
    """Axes of the exhaustive hyperparameter search."""

    epochs: tuple[int, ...]
    dropout: tuple[float, ...]
    width_sets: tuple[tuple[int, ...], ...]
    modes: tuple[str, ...]


@dataclass(frozen=True)
class GridResult:
    config_id: int
    widths: tuple[int, ...]
    mode: str
    dropout: float
    epochs: int
    accuracy: float
    f1: float


TableFactory = Callable[[str, int], EmbeddingTable]


def _dedup(values: tuple, axis_name: str) -> tuple:
    seen: list = []
    for v in values:
        if v in seen:
            warnings.warn(f"duplicate value {v!r} in grid axis {axis_name!r}; deduplicated")
        else:
            seen.append(v)
    return tuple(seen)


def _cell_seeds(seed: int, cell_id: int) -> tuple[int, int, int]:
    return (
        derive_seed(seed, f"grid-cell-{cell_id}-table"),
        derive_seed(seed, f"grid-cell-{cell_id}-params"),
        derive_seed(seed, f"grid-cell-{cell_id}-train"),
    )


def cell_config(base_config: ModelConfig, widths: tuple[int, ...], dropout: float) -> ModelConfig:
    """The model a grid cell trains: ``base_config`` with the cell's filter
    widths and dropout rate. Every cell shares the base's filter budget,
    ``base_config.total_filters``, split equally among its widths, so a
    three-width cell is not three times larger than a one-width cell."""
    if not widths:  # no budget to split; ModelConfig names the fault
        return replace(base_config, filter_widths=widths, dropout_rate=dropout)
    total = base_config.total_filters
    if total % len(widths) != 0:
        raise ValueError(
            f"filters_per_width x len(filter_widths) = {total} is not divisible by len({widths})"
        )
    return replace(base_config, filter_widths=widths, filters_per_width=total // len(widths),
                   dropout_rate=dropout)


def _run_grid_cell(
    cell_id: int, widths: tuple[int, ...], mode: str, dropout: float, epochs: int, *,
    base_config: ModelConfig, train_set: Dataset, selection_set: Dataset,
    table_factory: TableFactory, seed: int, batch_size: int, lr: float,
) -> GridResult:
    config = cell_config(base_config, widths, dropout)
    table_seed, params_seed, train_seed = _cell_seeds(seed, cell_id)
    table = table_factory(mode, table_seed)
    params = init_parameters(config, np.random.default_rng(derive_seed(params_seed, "params-init")))
    train(train_set, table, params, config, epochs=epochs, batch_size=batch_size,
          seed=train_seed, lr=lr)
    metrics = evaluate(selection_set, table, params, config)
    return GridResult(
        config_id=cell_id, widths=widths, mode=mode, dropout=dropout, epochs=epochs,
        accuracy=metrics.accuracy, f1=metrics.f1,
    )


def grid_search(
    train_set: Dataset,
    selection_set: Dataset,
    base_config: ModelConfig,
    axes: GridAxes,
    table_factory: TableFactory,
    seed: int,
    batch_size: int,
    lr: float,
    parallel: bool,
) -> list[GridResult]:
    """Exhaustively train and score every axis combination.

    Each cell starts from a fresh seeded table and parameter init, so cells
    are independent and may run in parallel. Each cell's model is
    ``cell_config(base_config, widths, dropout)``, which is checked for every
    cell before any cell trains. The result list is ranked
    by F1 descending, ties broken by accuracy then by the lexicographic
    (widths, mode, dropout, epochs) key.
    """
    epochs_axis = _dedup(tuple(axes.epochs), "epochs")
    dropout_axis = _dedup(tuple(axes.dropout), "dropout")
    width_axis = _dedup(tuple(tuple(w) for w in axes.width_sets), "width_sets")
    mode_axis = _dedup(tuple(axes.modes), "modes")
    if not (epochs_axis and dropout_axis and width_axis and mode_axis):
        raise ValueError("every grid axis must be non-empty")

    run_cell = functools.partial(
        _run_grid_cell, base_config=base_config, train_set=train_set,
        selection_set=selection_set, table_factory=table_factory, seed=seed,
        batch_size=batch_size, lr=lr,
    )
    cells = list(product(width_axis, mode_axis, dropout_axis, epochs_axis))
    for widths, _, dropout, _ in cells:  # reject a bad cell before the first one trains
        cell_config(base_config, widths, dropout)
    columns = (range(len(cells)), *zip(*cells))
    if parallel and len(cells) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor() as pool:
            results = list(pool.map(run_cell, *columns))
    else:
        results = list(map(run_cell, *columns))

    results.sort(key=lambda r: (-r.f1, -r.accuracy, (r.widths, r.mode, r.dropout, r.epochs)))
    return results


def write_grid_results(results: list[GridResult], csv_path: str | Path, summary_path: str | Path) -> None:
    write_text_atomic(csv_path, csv_text(
        ["config_id", "widths", "mode", "dropout", "epochs", "accuracy", "f1"],
        ([r.config_id, "|".join(str(h) for h in r.widths), r.mode, repr(r.dropout),
          r.epochs, repr(r.accuracy), repr(r.f1)] for r in results),
    ))
    write_json_atomic(summary_path, {"best": asdict(results[0]), "n_cells": len(results)})
