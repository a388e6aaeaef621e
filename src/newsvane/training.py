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


@dataclass
class AdamState:
    """First/second moment accumulators and hyperparameters for Adam.

    ``active`` maps a tensor name to a bool mask over the tensor's rows (its
    first axis) marking the rows whose moments may be non-zero; a tensor
    without a mask is stepped whole. ``scratch`` holds per-tensor work
    buffers, so a step allocates nothing the size of a tensor; they are
    created on a tensor's first step.
    """

    lr: float
    beta1: float
    beta2: float
    eps: float
    t: int
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    frozen: frozenset[str]
    active: dict[str, np.ndarray] = field(default_factory=dict, repr=False)
    scratch: dict[str, list[np.ndarray]] = field(default_factory=dict, repr=False)

    @classmethod
    def initialize(
        cls,
        tensors: dict[str, np.ndarray],
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        frozen: Sequence[str] = (),
    ) -> "AdamState":
        # These ranges make a zero-moment, zero-gradient row's step exactly
        # +0.0, which is what lets adam_step skip such rows.
        if not (math.isfinite(lr) and lr >= 0.0 and 0.0 <= beta1 < 1.0
                and 0.0 <= beta2 < 1.0 and math.isfinite(eps) and eps > 0.0):
            raise ValueError(f"Adam needs finite lr >= 0, betas in [0, 1) and finite eps > 0; "
                             f"got lr={lr}, beta1={beta1}, beta2={beta2}, eps={eps}")
        # np.zeros by shape, which fills nothing: pages of rows that are
        # never stepped are never written, so they are never faulted in
        return cls(
            lr=lr, beta1=beta1, beta2=beta2, eps=eps, t=0,
            m={k: np.zeros(a.shape) for k, a in tensors.items()},
            v={k: np.zeros(a.shape) for k, a in tensors.items()},
            frozen=frozenset(frozen),
            active={k: np.zeros(a.shape[:1], dtype=bool) for k, a in tensors.items()},
        )


def adam_step(
    tensors: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    rows: dict[str, np.ndarray] | None = None,
) -> None:
    """One Adam update, in place, with bias correction.

    theta -= lr * m_hat / (sqrt(v_hat) + eps), evaluated as
    ``theta -= state.lr * (m / bias1) / (np.sqrt(v / bias2) + state.eps)``
    would be over the whole tensor, one operation at a time into
    ``state.scratch``, so the result is bit-identical to that expression.
    Tensors listed in ``state.frozen`` are skipped entirely; their gradients
    are not read.

    ``rows`` may name, per tensor, the rows (first axis) outside which its
    gradient is exactly zero in this step. A row that no step has named yet
    has zero moments, and with a zero gradient its update is the identity:
    m, v and the step stay +0.0, and theta - 0.0 leaves every float as it is,
    -0.0 and NaN included. So such a tensor is updated only on the sorted
    union of the rows named since ``state`` was created, gathered into
    scratch and scattered back. Once that union reaches half of the tensor's
    rows, where gathering stops paying, and for a tensor given no rows, the
    step runs over the whole tensor.
    """
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    bias1 = 1.0 - b1 ** state.t
    bias2 = 1.0 - b2 ** state.t
    for name, theta in tensors.items():
        if name in state.frozen:
            continue
        m, v, g = state.m[name], state.v[name], grads[name]
        work = state.scratch.get(name)
        if work is None:  # step, denom, finite, then the gathered theta, m, v, g
            work = state.scratch[name] = [np.empty(theta.shape, dtype=dtype) for dtype in
                                          (np.float64, np.float64, bool) + (np.float64,) * 4]
        index = _active_rows(state, name, None if rows is None else rows.get(name))
        if index is None:
            th, mk, vk, gk = theta, m, v, g
            step, denom, finite = work[:3]
        else:
            step, denom, finite, *gathered = (buf[: index.size] for buf in work)
            th, mk, vk, gk = (np.take(a, index, axis=0, out=buf, mode="clip")
                              for a, buf in zip((theta, m, v, g), gathered))
        if not np.isfinite(gk, out=finite).all():
            raise NumericError(f"non-finite gradient for tensor {name!r}")
        mk *= b1
        mk += np.multiply(1.0 - b1, gk, out=step)
        vk *= b2
        np.multiply(1.0 - b2, gk, out=denom)
        vk += np.multiply(denom, gk, out=denom)
        np.divide(mk, bias1, out=step)
        np.multiply(state.lr, step, out=step)
        np.divide(vk, bias2, out=denom)
        np.sqrt(denom, out=denom)
        denom += state.eps
        th -= np.divide(step, denom, out=step)
        if index is not None:
            theta[index], m[index], v[index] = th, mk, vk


def _active_rows(state: AdamState, name: str, rows: np.ndarray | None) -> np.ndarray | None:
    """Add ``rows`` to the tensor's active set and return the set's sorted
    rows, or None (dropping the set for good) when the whole tensor steps."""
    mask = state.active.get(name)
    if mask is not None and rows is not None:
        mask[rows] = True
        index = np.flatnonzero(mask)
        if 2 * index.size < mask.size:
            return index
    state.active.pop(name, None)
    return None


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
    lr: float = 1e-3,
) -> TrainResult:
    """Train in place for ``epochs`` passes of shuffled mini-batches.

    Batch gradients are the mean over the batch, so the learning rate does
    not depend on batch size; the final partial batch is processed. The
    embedding matrix is updated through the same optimizer unless the table
    is static, and its padding row is pinned back to zero after every step.
    Returns the (mutated) parameters plus a per-epoch loss/accuracy trace.
    """
    if not dataset:
        raise ValueError("training dataset is empty")
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
    state = AdamState.initialize(tensors, lr=lr, frozen=frozen)
    # Batch sums that backward adds each sample's gradient into. Only the
    # rows a batch touches are ever non-zero in acc_emb, so only those are
    # scaled and re-zeroed, and only those are named to adam_step.
    acc = ModelParameters.from_flat(np.zeros(params.layout.size), params.layout)
    acc_emb = np.zeros(table.matrix.shape) if table.trainable else None

    n = len(dataset)
    trace: list[EpochStats] = []
    for epoch in range(epochs):
        order = shuffle_rng.permutation(n)
        loss_sum = 0.0
        correct = 0
        for start in range(0, n, batch_size):
            batch = order[start : start + batch_size]
            touched: list[np.ndarray] = []
            for idx in batch:
                enc, y = dataset[idx]
                output, cache = forward(enc, table, params, config, mode="train", rng=dropout_rng)
                loss_sum += sample_loss(output, y, config.head)
                correct += int(_predicted_class(output, config.head, 0.5) == y)
                touched.append(backward(cache, y, params, config, table, acc, acc_emb))
            scale = 1.0 / len(batch)
            grads = {"params": acc.flat * scale}
            batch_rows = None
            if acc_emb is not None:
                rows = np.unique(np.concatenate(touched))
                acc_emb[rows] *= scale
                grads["embeddings"] = acc_emb
                batch_rows = {"embeddings": rows}
            try:
                adam_step(tensors, grads, state, rows=batch_rows)
            except NumericError:  # name the tensor within the flat vector
                bad = ~np.isfinite(grads["params"])
                if not bad.any():
                    raise
                name = params.layout.name_at(int(bad.argmax()))
                raise NumericError(f"non-finite gradient for tensor {name!r}") from None
            table.matrix[0] = 0.0  # padding row stays frozen in every mode
            acc.flat[:] = 0.0
            if acc_emb is not None:
                acc_emb[rows] = 0.0
        trace.append(EpochStats(epoch=epoch, mean_loss=loss_sum / n, accuracy=correct / n))
    return TrainResult(params=params, trace=trace)


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
    if not dataset:
        raise ValueError("evaluation dataset is empty")
    n_classes = 2 if config.head == HEAD_BINARY else 3
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
    batch_size: int = 32,
    lr: float = 1e-3,
    parallel: bool = False,
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
