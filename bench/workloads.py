"""The benchmark's workloads: seeded inputs, one pipeline, output checks.

Every workload runs the same user pipeline, stage by stage:

    ingest      load_headlines + load_prices + prepare_dataset on CSV files
    table       the embedding table (load_pretrained from a word2vec file)
    train       training.train over slices, 2 epochs of 32-sample Adam batches
    evaluate    training.evaluate on the test split
    checkpoint  save_checkpoint + load_checkpoint round trip
    predict     test-mode network.forward over prepared headlines, in chunks
    aggregate   backtest.aggregate_daily
    backtest    simulate at t=0.5 plus the threshold sweep(s), in grid slices

The workloads differ in shape, so each puts its weight on other layers (see
``SPECS``). Inputs are made from the seed alone and written under the work
directory during set-up; the program under test only sees those files.

Timings are reported at a reference machine speed. The shared machines this
was built on drift between a fast state and one up to ~1.9x slower, for
stretches of seconds to tens of seconds, with no CPU steal; over 25 s runs
the raw stage times spread by 10-40% between runs whatever statistic is
taken over rounds. A fixed probe (no newsvane code, so no change to the
program can move it) is timed before and after every timed call, and the
call's time is multiplied by the probe's fast-state reading over the mean
of the two. The probe has a compute part (small numpy and interpreter work)
and a memory part (a pass over 16 MB), and the slow state hits them
differently: over 10 s windows of work interleaved with probes, the compute
part cut the spread of test-mode forward from 17% to 2% and the memory part
that of V=20k training (dense 20k x 100 gradients) from 6-9% to 3%, each
doing worse on the other's work. A workload names its memory-bound calls
(``Spec.memory_ops``); every other call is scaled by the compute part. Long
stages (train, predict, the sweeps) are cut into calls of a fraction of a
second so the speed cannot drift far inside one. Raw times are kept next to
the scaled ones in every result.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, ContextManager

import numpy as np

from newsvane import backtest, checkpoint, corpus, embeddings, network, pipeline, text, training

# The probe's fast-state readings on a 2-vCPU Xeon VM (5th percentile, idle).
CPU_REF_US = 5.0
MEM_REF_US = 1500.0
BUY_THRESHOLD = 0.5
EPOCHS = 2
BATCH_SIZE = 32
# Above the package default of 1e-3, so that small_corpus's model saturates
# within its 2 epochs whatever the seed: at 1e-3 some seeds stay unsure, trade
# on fewer thresholds and make the sweep up to 2x cheaper than others.
LEARNING_RATE = 3e-3
PREDICT_CHUNK = 256
SWEEP_SLICE = 10
PROBE_REUSE_S = 0.05  # a probe this recent also serves as the next call's "before"
CHECK_HEADLINES = 32


@dataclass(frozen=True)
class Spec:
    """Shape of one workload; ``scale`` in ``setup`` multiplies the day count.

    Why each workload exists is recorded in ``BENCHMARK.json``.
    """

    name: str
    n_assets: int
    n_days: int
    per_day: int
    p: int
    head: str
    mode: str
    train_cap: int | None        # None: train on every training sample
    train_slice: int             # samples per train() call
    eval_cap: int | None
    predict_cap: int | None      # None: predict every prepared headline
    checkpoint_reps: int
    memory_ops: frozenset[str]   # calls dominated by memory traffic (see the module doc)
    min_accuracy: float | None   # test accuracy the trained model must reach
    loss_must_fall: bool         # last epoch below the first, averaged over train() calls
    model_predictions: bool      # False: the backtest uses set-up predictions


M = 12
WIDTHS = (3, 4)
FILTERS_PER_WIDTH = 6
HIDDEN = (32, 16)
DROPOUT = 0.25

# Every workload runs every stage, because every run reports every metric:
# so small_corpus fine-tunes a pretrained table (load_pretrained is timed on
# all three) and desk_history trains a small model on a static table.
SPECS: dict[str, Spec] = {
    s.name: s
    for s in (
        Spec(
            name="small_corpus", n_assets=4, n_days=150, per_day=8, p=16,
            head="binary", mode=embeddings.MODE_NON_STATIC,
            train_cap=2048, train_slice=256, eval_cap=None, predict_cap=2048, checkpoint_reps=10,
            memory_ops=frozenset(),
            min_accuracy=0.95, loss_must_fall=True, model_predictions=True,
        ),
        Spec(
            name="wide_vocab", n_assets=4, n_days=150, per_day=10, p=100,
            head="multiclass3", mode=embeddings.MODE_NON_STATIC,
            train_cap=128, train_slice=32, eval_cap=256, predict_cap=1024, checkpoint_reps=1,
            memory_ops=frozenset({"train", "save_checkpoint", "load_checkpoint"}),
            min_accuracy=None, loss_must_fall=True, model_predictions=True,
        ),
        Spec(
            name="desk_history", n_assets=6, n_days=800, per_day=4, p=16,
            head="binary", mode=embeddings.MODE_STATIC,
            train_cap=256, train_slice=64, eval_cap=512, predict_cap=1024, checkpoint_reps=10,
            memory_ops=frozenset(),
            min_accuracy=None, loss_must_fall=False, model_predictions=False,
        ),
    )
}


# --- seeded inputs -----------------------------------------------------------


@dataclass
class Inputs:
    headlines_csv: Path
    prices_csv: Path
    vectors_txt: Path
    portfolio: frozenset[str]
    # set-up predictions (desk_history): head -> (headline_id, asset, date, output) rows
    predictions: dict[str, list] = field(default_factory=dict)

    def file_digest(self) -> str:
        h = hashlib.sha256()
        for path in (self.headlines_csv, self.prices_csv, self.vectors_txt):
            h.update(path.read_bytes())
        return h.hexdigest()


def _rng(seed: int, stream: str) -> np.random.Generator:
    label = int.from_bytes(hashlib.sha256(stream.encode()).digest()[:4], "big")
    return np.random.default_rng([seed, label])


def _write_vectors(path: Path, tokens: list[str], p: int, rng: np.random.Generator) -> None:
    """A word2vec text file: '<count> <dim>' header, then one vector per token."""
    matrix = rng.normal(0.0, 0.3, size=(len(tokens), p))
    lines = [f"{len(tokens)} {p}"]
    lines.extend(tok + " " + " ".join(f"{v:.6f}" for v in row) for tok, row in zip(tokens, matrix))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _trading_days(count: int) -> list[dt.date]:
    days, d = [], dt.date(2010, 1, 4)
    while len(days) < count:
        if d.weekday() < 5:
            days.append(d)
        d += dt.timedelta(days=1)
    return days


def _write_corpus(
    out: Path, rng: np.random.Generator, spec: Spec, n_days: int,
    test_every: int, make_texts: Callable[[np.ndarray, np.ndarray], list[str]],
) -> tuple[list[corpus.HeadlineRecord], np.ndarray, np.ndarray]:
    """Write a headline/price CSV pair with a controlled split.

    Every asset-day has a class (0 avoid, 1 inconsequential, 2 buy) that
    sets the sign and size of the next bar's open-to-close return. On every
    ``test_every``-th day each headline gets its own half-hour bucket, so the
    date is retained for testing; on the other days an asset's headlines
    share one bucket, so the date is training data. ``make_texts`` gets each
    headline's class and whether it falls on a test day. Returns the records
    (in file order), the per-record (day index, asset index) and the classes.
    """
    assets = [f"DSK{i:02d}" for i in range(spec.n_assets)]
    days = _trading_days(n_days + 1)
    classes = rng.integers(0, 3, size=(spec.n_assets, n_days))
    size = rng.uniform(0.006, 0.03, size=(spec.n_assets, n_days + 1))
    bars = []
    for a, asset in enumerate(assets):
        price = float(rng.uniform(20.0, 200.0))
        for d, day in enumerate(days):
            c = classes[a, d - 1] if d else 2
            ret = {0: -size[a, d], 1: (size[a, d] - 0.018) / 4.0, 2: size[a, d]}[int(c)]
            close = price * (1.0 + ret)
            bars.append(corpus.PriceBar(asset=asset, date=day, open=price, close=close))
            price = close

    slots = []  # (day index, hour, minute, asset index)
    for d in range(n_days):
        test_day = d % test_every == test_every - 1
        for a in range(spec.n_assets):
            buckets = (rng.choice(14, size=spec.per_day, replace=False) if test_day
                       else np.full(spec.per_day, rng.integers(14)))
            for b in buckets:
                slots.append((d, 9 + int(b) // 2, 30 * (int(b) % 2) + int(rng.integers(30)), a))
    slots.sort()
    slot_arr = np.array([(d, a) for d, _, _, a in slots], dtype=np.int64)
    texts = make_texts(classes[slot_arr[:, 1], slot_arr[:, 0]],
                       slot_arr[:, 0] % test_every == test_every - 1)
    records = [
        corpus.HeadlineRecord(id=i, asset=assets[a], date=days[d], time=dt.time(hh, mm),
                              text=texts[i], relevance=1.0)
        for i, (d, hh, mm, a) in enumerate(slots)
    ]
    corpus.write_headlines_csv(records, out / "headlines.csv")
    corpus.write_prices_csv(bars, out / "prices.csv")
    return records, slot_arr, classes


def _setup_small(out: Path, seed: int, spec: Spec, n_days: int) -> Inputs:
    headlines, prices = corpus.generate_synthetic(
        seed, n_assets=spec.n_assets, n_days=n_days, headlines_per_day=spec.per_day,
        signal_strength=1.0,
    )
    corpus.write_headlines_csv(headlines, out / "headlines.csv")
    corpus.write_prices_csv(prices, out / "prices.csv")
    tokens = sorted({tok for h in headlines for tok in text.tokenize(h.text)})
    _write_vectors(out / "vectors.txt", tokens, spec.p, _rng(seed, "vectors"))
    return Inputs(out / "headlines.csv", out / "prices.csv", out / "vectors.txt",
                  frozenset(h.asset for h in headlines))


WIDE_V = 20_000
ZIPF_EXPONENT = 1.2
CLASS_TOKENS = ("cueavoid", "cueflat", "cuebuy")
COVER = 4


def _setup_wide(out: Path, seed: int, spec: Spec, n_days: int) -> Inputs:
    """Zipf-distributed tokens over a 20k lexicon; a class token ties text to labels.

    Each headline is its day's class token and ten Zipf draws. In training
    headlines the first four draws are replaced by coverage tokens that walk
    the lexicon in a seeded order, so every word reaches the vocabulary.
    """
    rng = _rng(seed, "wide")
    lexicon = [f"w{i:05d}" for i in range(WIDE_V)]
    order = rng.permutation(WIDE_V)
    weights = 1.0 / np.arange(1, WIDE_V + 1) ** ZIPF_EXPONENT
    weights /= weights.sum()

    def make_texts(classes: np.ndarray, test: np.ndarray) -> list[str]:
        words = rng.choice(WIDE_V, size=(len(classes), 10), p=weights)
        train_rows = np.flatnonzero(~test)
        walk = np.arange(COVER * len(train_rows)) % WIDE_V
        words[train_rows, :COVER] = order[walk].reshape(-1, COVER)
        return [" ".join([CLASS_TOKENS[c]] + [lexicon[i] for i in row])
                for c, row in zip(classes.tolist(), words)]

    records, _, _ = _write_corpus(out, rng, spec, n_days, test_every=6, make_texts=make_texts)
    _write_vectors(out / "vectors.txt", lexicon + list(CLASS_TOKENS), spec.p, _rng(seed, "vectors"))
    return Inputs(out / "headlines.csv", out / "prices.csv", out / "vectors.txt",
                  frozenset(r.asset for r in records))


DESK_LEXICON = 2000
_SYLLABLES = ("ka", "lo", "mi", "ne", "ru", "sa", "ti", "vo", "ze", "pa", "do", "gu", "be", "fi")
_CUES = (("slumps", "misses", "cuts", "probe"), ("holds", "steady", "files", "notes"),
         ("surges", "beats", "raises", "wins"))
_STOPS = ("the", "of", "as", "for", "with", "on", "its")


def _setup_desk(out: Path, seed: int, spec: Spec, n_days: int) -> Inputs:
    """A long desk history: 6 assets x 800 days x 4 headlines, plus seeded predictions.

    Predictions are drawn per (asset, day) from the class of the next bar and
    spread over the whole threshold grid, so every threshold of both sweeps
    trades, as it does for a trained model.
    """
    rng = _rng(seed, "desk")
    words = sorted({"".join(rng.choice(_SYLLABLES, size=3)) for _ in range(3 * DESK_LEXICON)})
    words = words[:DESK_LEXICON]

    def make_texts(classes: np.ndarray, test: np.ndarray) -> list[str]:
        picks = rng.integers(len(words), size=(len(classes), 5))
        cue = rng.integers(4, size=len(classes))
        stop = rng.integers(len(_STOPS), size=(len(classes), 2))
        return [
            f"{words[w[0]].capitalize()} {_CUES[c][q]} {words[w[1]]}, {_STOPS[s[0]]} "
            f"{words[w[2]]} ({words[w[3]]}); {_STOPS[s[1]]} {words[w[4]]}!"
            for c, q, w, s in zip(classes.tolist(), cue.tolist(), picks, stop)
        ]

    records, slots, classes = _write_corpus(out, rng, spec, n_days, test_every=5,
                                            make_texts=make_texts)
    tokens = sorted(set(words) | {c for group in _CUES for c in group})
    _write_vectors(out / "vectors.txt", tokens, spec.p, _rng(seed, "vectors"))

    # per-headline draws around a per-(asset, day) level set by the class
    day_cls = classes[slots[:, 1], slots[:, 0]]
    level = rng.random(classes.shape)[slots[:, 1], slots[:, 0]]
    low, width = np.array([0.02, 0.25, 0.5])[day_cls], np.array([0.48, 0.5, 0.48])[day_cls]
    sigma = np.clip(low + level * width + rng.normal(0.0, 0.02, len(records)), 0.001, 0.999)
    win = rng.uniform(0.34, 0.98, size=classes.shape)[slots[:, 1], slots[:, 0]]
    rest = (1.0 - win)[:, None] * rng.dirichlet((1.0, 1.0), size=len(records))
    rows = np.arange(len(records))
    tri = np.empty((len(records), 3))
    tri[rows, day_cls] = win
    tri[rows, (day_cls + 1) % 3] = rest[:, 0]
    tri[rows, (day_cls + 2) % 3] = rest[:, 1]
    return Inputs(
        out / "headlines.csv", out / "prices.csv", out / "vectors.txt",
        frozenset(r.asset for r in records),
        predictions={
            "binary": [(r.id, r.asset, r.date, float(s)) for r, s in zip(records, sigma)],
            "multiclass3": [(r.id, r.asset, r.date, row) for r, row in zip(records, tri)],
        },
    )


SETUPS = {"small_corpus": _setup_small, "wide_vocab": _setup_wide, "desk_history": _setup_desk}


def setup(name: str, out: Path, seed: int, scale: float) -> Inputs:
    spec = SPECS[name]
    out.mkdir(parents=True, exist_ok=True)
    return SETUPS[name](out, seed, spec, max(10, int(round(spec.n_days * scale))))


# --- one pass of the pipeline ------------------------------------------------


class SpeedProbe:
    """Fixed reference work whose time tracks the machine's current speed."""

    def __init__(self) -> None:
        self._matrix = np.random.default_rng(0).random((64, 64))
        self._block = np.zeros(2_000_000)  # 16 MB, past the caches

    def __call__(self) -> tuple[float, float]:
        """(µs per compute iteration, µs per memory pass); lower is faster."""
        x, acc = np.ones(64), 0.0
        t0 = perf_counter()
        for i in range(300):
            x = self._matrix @ x
            x = np.maximum(x / x.sum(), 0.0)
            acc += float(x[0]) * i
        t1 = perf_counter()
        for _ in range(2):
            self._block += 1.0
        t2 = perf_counter()
        return (t1 - t0) / 300 * 1e6, (t2 - t1) / 2 * 1e6


@dataclass
class Op:
    """One timed stage call; it fails if it raises or a check on its output fails."""

    name: str
    seconds: float = 0.0  # raw
    scaled: float = 0.0   # at the reference machine speed
    errors: list[str] = field(default_factory=list)


class StageFailed(Exception):
    pass


@dataclass
class Ledger:
    """Times every operation between two speed probes and keeps its checks."""

    probe: SpeedProbe
    memory_ops: frozenset[str] = frozenset()  # scaled by the memory part of the probe
    ops: list[Op] = field(default_factory=list)
    probes: list[tuple[float, float]] = field(default_factory=list)
    _last_probe: tuple[tuple[float, float], float] | None = None  # (reading, when it ended)

    def call(self, name: str, fn: Callable, *args, **kwargs) -> tuple[Any, Op]:
        op = Op(name)
        self.ops.append(op)
        last = self._last_probe
        before = last[0] if last and perf_counter() - last[1] < PROBE_REUSE_S else self._read()
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            op.errors.append(f"raised {exc!r}")
            raise StageFailed(f"{name}: {exc!r}") from exc
        op.seconds = perf_counter() - t0
        after = self._read()
        part, ref = (1, MEM_REF_US) if name in self.memory_ops else (0, CPU_REF_US)
        op.scaled = op.seconds * 2.0 * ref / (before[part] + after[part])
        return result, op

    def _read(self) -> tuple[float, float]:
        reading = self.probe()
        self.probes.append(reading)
        self._last_probe = (reading, perf_counter())
        return reading

    @staticmethod
    def check(op: Op, ok: bool, message: str) -> None:
        if not ok:
            op.errors.append(message)

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if op.errors)

    def errors(self) -> list[str]:
        return [f"{op.name}: {e}" for op in self.ops for e in op.errors]


@dataclass
class RoundResult:
    metrics: dict[str, float]  # at the reference machine speed
    raw: dict[str, float]
    quality: dict[str, float]
    params_digest: str
    sweep_digest: str


def _cap(samples: tuple, cap: int | None) -> tuple:
    return samples if cap is None else samples[:cap]


def _params_digest(table: embeddings.EmbeddingTable, params: network.ModelParameters) -> str:
    h = hashlib.sha256(np.ascontiguousarray(table.matrix).tobytes())
    for _, t in params.tensors():
        h.update(np.ascontiguousarray(t).tobytes())
    return h.hexdigest()


def run_round(spec: Spec, inputs: Inputs, work: Path, seed: int, ledger: Ledger,
              span: Callable[[str], ContextManager]) -> RoundResult:
    """One pass of every stage; ``span(name)`` brackets each stage."""
    call, check = ledger.call, ledger.check
    first_op = len(ledger.ops)

    with span("stage.ingest"):
        headlines, op_h = call("load_headlines", corpus.load_headlines, inputs.headlines_csv)
        prices, op_p = call("load_prices", corpus.load_prices, inputs.prices_csv)
        prepared, op_prep = call("prepare_dataset", pipeline.prepare_dataset,
                                 headlines, prices, set(inputs.portfolio), max_len=M)
    split = prepared.split
    dates = {h.id: h.date for h in headlines}
    check(op_prep, not (split.train_ids & split.test_ids), "train and test ids overlap")
    check(op_prep, not {dates[i] for i in split.train_ids} & set(split.test_dates),
          "a training headline falls on a test date")

    with span("stage.table"):
        table, _ = call("load_pretrained", embeddings.load_pretrained, prepared.vocab,
                        inputs.vectors_txt, spec.mode, seed=seed, expected_p=spec.p)

    # Training continues one set of weights over consecutive slices, one
    # train() call (2 epochs, fresh Adam state) per slice, so that no timed
    # call is long enough for the machine's speed to change much inside it.
    config = network.ModelConfig(
        p=spec.p, m=M, filter_widths=WIDTHS, filters_per_width=FILTERS_PER_WIDTH,
        hidden_sizes=HIDDEN, dropout_rate=DROPOUT, head=spec.head,
    )
    params = network.init_parameters(config, np.random.default_rng([seed, 1]))
    train_pairs = pipeline.to_pairs(_cap(prepared.train, spec.train_cap), spec.head)
    train_ops, losses = [], []
    with span("stage.train"):
        for k, start in enumerate(range(0, len(train_pairs), spec.train_slice)):
            result, op = call("train", training.train, train_pairs[start:start + spec.train_slice],
                              table, params, config, epochs=EPOCHS, batch_size=BATCH_SIZE,
                              seed=seed + k, lr=LEARNING_RATE)
            train_ops.append(op)
            losses.append([e.mean_loss for e in result.trace])
    check(train_ops[-1], bool(np.all(np.isfinite(losses))), f"non-finite loss {losses}")
    if spec.loss_must_fall:
        falls = np.mean([l[-1] for l in losses]) < np.mean([l[0] for l in losses])
        check(train_ops[-1], bool(falls), f"mean loss did not fall between epochs: {losses}")

    test_pairs = pipeline.to_pairs(_cap(prepared.test, spec.eval_cap), spec.head)
    with span("stage.evaluate"):
        report, op_eval = call("evaluate", training.evaluate, test_pairs, table, params, config)
    if spec.min_accuracy is not None:
        check(op_eval, report.accuracy >= spec.min_accuracy,
              f"test accuracy {report.accuracy:.4f} < {spec.min_accuracy}")

    ckpt_path = work / "checkpoint.json"
    roundtrips = []
    with span("stage.checkpoint"):
        for _ in range(spec.checkpoint_reps):
            _, op_save = call("save_checkpoint", checkpoint.save_checkpoint, ckpt_path, config,
                              prepared.vocab, table, params)
            loaded, op_load = call("load_checkpoint", checkpoint.load_checkpoint, ckpt_path, config)
            roundtrips.append((op_save, op_load))
    same = np.array_equal(loaded.table.matrix, table.matrix) and all(
        np.array_equal(a, b) for (_, a), (_, b) in zip(loaded.params.tensors(), params.tensors()))
    check(op_load, same, "checkpoint round trip changed the parameters")

    def predict(chunk: tuple) -> list:
        return [(s.headline_id, s.asset, s.date,
                 network.forward(s.enc, loaded.table, loaded.params, loaded.config, mode="test")[0])
                for s in chunk]

    samples = _cap(prepared.train + prepared.test, spec.predict_cap)
    outputs: list = []
    predict_ops = []
    with span("stage.predict"):
        for start in range(0, len(samples), PREDICT_CHUNK):
            rows, op_pred = call("predict", predict, samples[start:start + PREDICT_CHUNK])
            outputs.extend(rows)
            predict_ops.append(op_pred)
    reference = [network.forward(s.enc, table, params, config, mode="test")[0]
                 for s in samples[:CHECK_HEADLINES]]
    check(op_pred, all(np.array_equal(a, o[3]) for a, o in zip(reference, outputs)),
          "test-mode outputs differ after the checkpoint round trip")
    values = np.array([o[3] for o in outputs], dtype=np.float64)
    if spec.head == "binary":
        check(op_pred, bool(np.all((values >= 0) & (values <= 1))), "sigmoid output outside [0, 1]")
    else:
        check(op_pred, bool(np.all(np.abs(values.sum(axis=1) - 1.0) < 1e-12)),
              "3-way output rows do not sum to 1")

    rows_by_head = inputs.predictions if not spec.model_predictions else {spec.head: outputs}
    with span("stage.aggregate"):
        day_preds = {head: call("aggregate_daily", backtest.aggregate_daily, rows)[0]
                     for head, rows in rows_by_head.items()}

    # The sweep runs over slices of the threshold grid, for the same reason
    # training runs over slices; the rows are the same as one full sweep's.
    sweep_ops = []
    n_thresholds = 0
    sweep_hash = hashlib.sha256()
    quality: dict[str, float] = {"test_accuracy": report.accuracy}
    with span("stage.backtest"):
        for head, dps in day_preds.items():
            decide = backtest.decide_binary if head == "binary" else backtest.decide_multiclass
            decisions = [(dp.asset, dp.date, decide(dp, BUY_THRESHOLD)) for dp in dps]
            report_t, op_sim = call("simulate", backtest.simulate, decisions, prices)
            grid = backtest.default_threshold_grid(head == "binary")
            rows = []
            for start in range(0, len(grid), SWEEP_SLICE):
                part, op_sweep = call("threshold_sweep", backtest.threshold_sweep, dps, prices,
                                      grid[start:start + SWEEP_SLICE])
                rows.extend(part)
                sweep_ops.append(op_sweep)
            n_thresholds += len(grid)
            trades = [r.n_trades for r in rows]
            check(op_sweep, all(a >= b for a, b in zip(trades, trades[1:])),
                  f"{head}: n_trades rises with t")
            if not spec.model_predictions:  # set-up predictions are drawn to trade everywhere
                check(op_sweep, trades[-1] > 0, f"{head}: no trades at the top threshold")
            at = next(r for r in rows if r.t == BUY_THRESHOLD)
            check(op_sim, (at.pp_pct, at.atp_pct, at.total_return_pct, at.n_trades) == (
                report_t.pp_pct, report_t.atp_pct, report_t.total_return_pct, report_t.n_trades),
                f"{head}: simulate at t={BUY_THRESHOLD} disagrees with its sweep row")
            sweep_hash.update(backtest.sweep_csv(rows).encode())
            quality.update({f"{head}.pp_pct": report_t.pp_pct, f"{head}.atp_pct": report_t.atp_pct,
                            f"{head}.total_return_pct": report_t.total_return_pct,
                            f"{head}.sweep_trades": sum(trades)})

    def round_metrics(t: Callable[[Op], float]) -> dict[str, float]:
        total = lambda ops: sum(t(op) for op in ops)  # noqa: E731
        return {
            "wall_s": total(ledger.ops[first_op:]),
            "train_us_per_sample": 1e6 * total(train_ops) / (len(train_pairs) * EPOCHS),
            "predict_us_per_headline": 1e6 * total(predict_ops) / len(samples),
            "ingest_us_per_headline": 1e6 * total((op_h, op_p, op_prep)) / len(headlines),
            "sweep_ms_per_threshold": 1e3 * total(sweep_ops) / n_thresholds,
            "checkpoint_roundtrip_ms": 1e3 * statistics.median(total(pair) for pair in roundtrips),
        }

    quality.update(headlines=len(headlines), train_samples=len(prepared.train),
                   test_samples=len(prepared.test), vocab_size=prepared.vocab.size,
                   trained_samples=len(train_pairs), train_calls=len(train_ops),
                   evaluated=len(test_pairs), predicted=len(samples), price_bars=len(prices),
                   thresholds=n_thresholds, sweep_calls=len(sweep_ops))
    return RoundResult(round_metrics(lambda op: op.scaled), round_metrics(lambda op: op.seconds),
                       quality, _params_digest(table, params), sweep_hash.hexdigest())
