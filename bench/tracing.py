"""Outside-in layer tracing for the benchmark's traced mode.

The tracer replaces public functions of the ``newsvane`` modules with timing
wrappers, at the module attribute through which each caller looks the
function up (``training.forward`` is the name ``train`` and ``evaluate``
resolve, ``network.forward`` is the name a user's predict loop resolves).
Nothing under ``src/`` changes; spans inside a function body (conv per
width, pooling, the backward blocks) are out of reach by design.

Each call becomes a span. Spans are aggregated in memory into a call count,
a total time and a self time (total minus the time covered by child spans)
per span name, and read out once when the run ends. Counter hooks
(``observe``) run after a call returns; their cost is charged to a separate
``bench.observe`` span so it does not inflate any layer's self time.
"""

from __future__ import annotations

import contextlib
import functools
import os
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable

import numpy as np

# Module attribute -> span name. The attribute lives in the module whose
# code performs the call, so every call path is caught.
WRAPS: tuple[tuple[str, str, str], ...] = (
    ("network", "forward", "network.forward"),
    ("training", "forward", "network.forward"),
    ("training", "backward", "network.backward"),
    ("training", "sample_loss", "network.sample_loss"),
    ("network", "dense_forward", "network.dense_forward"),
    ("network", "apply_dropout", "network.apply_dropout"),
    ("network", "lookup_concat", "embeddings.lookup_concat"),
    ("embeddings", "load_pretrained", "embeddings.load_pretrained"),
    ("training", "train", "training.train"),
    ("training", "adam_step", "training.adam_step"),
    ("training", "evaluate", "training.evaluate"),
    ("checkpoint", "save_checkpoint", "checkpoint.save_checkpoint"),
    ("checkpoint", "load_checkpoint", "checkpoint.load_checkpoint"),
    ("corpus", "load_headlines", "corpus.load_headlines"),
    ("corpus", "load_prices", "corpus.load_prices"),
    ("pipeline", "label_all", "corpus.label_all"),
    ("pipeline", "split_half_hourly_unique", "corpus.split_half_hourly_unique"),
    ("pipeline", "tokenize", "text.tokenize"),
    ("pipeline", "encode_and_pad", "text.encode_and_pad"),
    ("pipeline", "build_vocabulary", "text.build_vocabulary"),
    ("pipeline", "prepare_dataset", "pipeline.prepare_dataset"),
    ("backtest", "aggregate_daily", "backtest.aggregate_daily"),
    ("backtest", "simulate", "backtest.simulate"),
    ("backtest", "threshold_sweep", "backtest.threshold_sweep"),
)

# The pipeline stages every workload runs, in order; each is a root span.
STAGES = ("ingest", "table", "train", "evaluate", "checkpoint", "predict", "aggregate", "backtest")


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class Tracer:
    stats: dict[str, SpanStats] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)
    # one entry per open span: the time its children have covered so far
    _open: list[list[float]] = field(default_factory=list)
    _restore: list[tuple[Any, str, Any]] = field(default_factory=list)
    _batch_rows: list[np.ndarray] = field(default_factory=list)
    _useful_fracs: list[float] = field(default_factory=list)

    def _close(self, name: str, elapsed: float, child_s: float) -> None:
        s = self.stats.setdefault(name, SpanStats())
        s.calls += 1
        s.total_s += elapsed
        s.self_s += elapsed - child_s
        if self._open:
            self._open[-1][0] += elapsed

    @contextlib.contextmanager
    def span(self, name: str):
        frame = [0.0]
        self._open.append(frame)
        t0 = perf_counter()
        try:
            yield
        finally:
            elapsed = perf_counter() - t0
            self._open.pop()
            self._close(name, elapsed, frame[0])

    def wrap(self, module: Any, attr: str, name: str,
             observe: Callable[[tuple, dict, Any], None] | None = None) -> None:
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            self._open.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                self._open.pop()
                self._close(name, elapsed, frame[0])
            if observe is not None:
                with self.span("bench.observe"):
                    observe(args, kwargs, result)
            return result

        setattr(module, attr, traced)
        self._restore.append((module, attr, fn))

    def add(self, counter: str, value: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0.0) + value

    def install(self, modules: dict[str, Any]) -> None:
        """Wrap every function in ``WRAPS``; ``modules`` maps short names to modules."""
        observers = {
            "network.backward": self._observe_backward,
            "training.adam_step": self._observe_adam,
            "checkpoint.save_checkpoint": self._observe_save,
            "backtest.simulate": self._observe_simulate,
        }
        for mod, attr, name in WRAPS:
            self.wrap(modules[mod], attr, name, observers.get(name))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    # --- counters taken at the layer boundaries --------------------------

    def _observe_backward(self, args, kwargs, result) -> None:
        cache, table = args[0], args[4]
        self.add("network.emb_grad_bytes", float(table.matrix.nbytes))
        self._batch_rows.append(cache.indices)
        self.counters["vocab_rows"] = float(table.matrix.shape[0])

    def _observe_adam(self, args, kwargs, result) -> None:
        tensors, state = args[0], args[2]
        self.counters["training.adam_step.params"] = float(
            sum(t.size for n, t in tensors.items() if n not in state.frozen)
        )
        if self._batch_rows:
            rows = np.unique(np.concatenate(self._batch_rows))
            self._useful_fracs.append(
                np.count_nonzero(rows) / self.counters["vocab_rows"]
            )
            self._batch_rows.clear()

    def _observe_save(self, args, kwargs, result) -> None:
        self.counters["checkpoint.bytes"] = float(os.path.getsize(args[0]))

    def _observe_simulate(self, args, kwargs, result) -> None:
        self.add("backtest.trades", float(result.n_trades))
        self.add("backtest.bars_indexed", float(len(args[1])))

    # --- read-out ---------------------------------------------------------

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer metrics per pipeline round, in the units the benchmark declares."""

        def get(name: str) -> SpanStats:
            return self.stats.get(name, SpanStats())

        out: dict[str, float] = {}
        for name in ("network.forward", "network.backward", "training.adam_step",
                     "backtest.simulate", "text.tokenize", "text.encode_and_pad"):
            out[f"{name}.calls"] = float(get(name).calls)
        for name in ("network.forward", "network.backward", "network.dense_forward",
                     "network.apply_dropout", "network.sample_loss",
                     "embeddings.lookup_concat", "embeddings.load_pretrained",
                     "training.adam_step", "training.evaluate",
                     "checkpoint.save_checkpoint", "checkpoint.load_checkpoint",
                     "corpus.load_headlines", "corpus.load_prices", "corpus.label_all",
                     "corpus.split_half_hourly_unique", "text.tokenize",
                     "text.encode_and_pad", "text.build_vocabulary",
                     "backtest.aggregate_daily", "backtest.simulate"):
            out[f"{name}.s"] = get(name).total_s
        for name in ("training.train", "pipeline.prepare_dataset", "backtest.threshold_sweep"):
            out[f"{name}.self_s"] = get(name).self_s
        for name in ("network.emb_grad_bytes", "backtest.trades", "backtest.bars_indexed"):
            out[name] = self.counters.get(name, 0.0)
        out = {k: v / rounds for k, v in out.items()}
        # per-call sizes and means, not sums over the run
        for name in ("training.adam_step.params", "checkpoint.bytes"):
            out[name] = self.counters.get(name, 0.0)
        out["embeddings.grad_rows_useful_frac"] = (
            float(np.mean(self._useful_fracs)) if self._useful_fracs else 0.0
        )
        for stage in STAGES:
            # a stage span's self time is the part no wrapped call accounts for
            out[f"stage.{stage}.unattributed_s"] = get(f"stage.{stage}").self_s / rounds
        return out
