"""Forward and backward passes of the headline classification network.

Architecture, per sample: the encoded headline is expanded to the
concatenated embedding vector X of length m*p; for each configured filter
width h, a bank of filters of length h*p slides over X one word at a time,
producing relu feature maps of length m-h+1; each map is max-pooled with
non-overlapping windows of size w (a final partial window is pooled as-is);
the pooled maps are concatenated into z; two fully connected relu layers with
dropout follow; the output head is a single sigmoid unit (binary) or a
3-way softmax (multiclass), trained with the matching cross-entropy loss.

Everything is float64 and single-sample. ``backward`` adds a sample's
parameter gradient into accumulators its caller owns, so the training loop
sums a batch by calling it once per sample in a fixed order, which keeps
runs bit-reproducible; it returns the embedding gradient by position, which
the loop sums by table row once per batch, touching nothing the table's size.

Per-sample cost is mostly the count of numpy calls and temporaries, so the
conv stage runs all widths in one shared buffer (``_ConvPlan``), one column
per filter, copied from the plan's ``floor`` (-inf past each width's map, 0
elsewhere); each width's matmul writes into its own columns. Relu is one
``np.maximum`` with that floor, pooling one ``np.maximum`` per further row of
a pool window, and train mode adds each window's leftmost argmax. ``backward``
gates each layer's gradient by ``np.sign`` of its cached output (1 where relu
and dropout pass, else a zero), scatters the gated dz into the buffer's layout
and sums the word gradients of every width with one weighted ``np.bincount``.
Each element still sees a width-by-width loop's float operations in its
order, so every output and gradient has that loop's bits, up to signs of
zeros that no sum into a non-zero or +0.0 accumulator sees; the tests keep
that loop to compare against.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import asdict, dataclass
from typing import Iterator, Literal, NamedTuple, Sequence

import numpy as np

from .embeddings import EmbeddingTable, lookup_concat
from .text import EncodedHeadline

HEAD_BINARY = "binary"
HEAD_MULTICLASS3 = "multiclass3"
HEADS = (HEAD_BINARY, HEAD_MULTICLASS3)

# Probabilities are clamped to [LOG_EPS, 1 - LOG_EPS] before any log.
LOG_EPS = 1e-7


@dataclass(frozen=True)
class ModelConfig:
    """Shape and head configuration of the network."""

    p: int
    m: int
    filter_widths: tuple[int, ...]
    filters_per_width: int
    hidden_sizes: tuple[int, int]
    head: str
    dropout_rate: float = 0.0
    pool_w: int = 2

    def __post_init__(self) -> None:
        if self.p < 1 or self.m < 1:
            raise ValueError("p and m must be >= 1")
        if not self.filter_widths:
            raise ValueError("at least one filter width required")
        if len(set(self.filter_widths)) != len(self.filter_widths):
            raise ValueError("filter widths must be distinct")
        if any(h < 2 for h in self.filter_widths):
            raise ValueError("filter widths must be >= 2")
        if any(h > self.m for h in self.filter_widths):
            raise ValueError("every filter width must be <= m")
        if self.filters_per_width < 1:
            raise ValueError("filters_per_width must be >= 1")
        if self.pool_w < 1:
            raise ValueError("pool_w must be >= 1")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must lie in [0, 1)")
        if self.head not in HEADS:
            raise ValueError(f"unknown head {self.head!r}")
        l1, l2 = self.hidden_sizes
        if not 1 <= l2 < l1:
            raise ValueError("hidden sizes must satisfy 1 <= l2 < l1")
        if l1 >= self.z_len:
            raise ValueError(
                f"first hidden size {l1} must be smaller than the pooled feature length {self.z_len}"
            )

    @property
    def total_filters(self) -> int:
        return self.filters_per_width * len(self.filter_widths)

    def map_len(self, h: int) -> int:
        """Feature-map length for width h at stride one: m - h + 1."""
        return self.m - h + 1

    def pooled_len(self, h: int) -> int:
        return -(-self.map_len(h) // self.pool_w)  # ceil division

    @property
    def z_len(self) -> int:
        return sum(self.filters_per_width * self.pooled_len(h) for h in self.filter_widths)

    @property
    def out_dim(self) -> int:
        return 1 if self.head == HEAD_BINARY else 3

    def to_dict(self) -> dict:
        return asdict(self)

    @functools.cached_property
    def _plan(self) -> "_ConvPlan":  # kept on the instance: no hash of the fields per call
        return _ConvPlan(self)


class ParamLayout:
    """Name, shape and flat-vector offsets of every tensor, computed once."""

    def __init__(self, entries: Sequence[tuple[str, int | None, tuple[int, ...]]]) -> None:
        sizes = [math.prod(shape) for _, _, shape in entries]
        self.starts = tuple(itertools.accumulate(sizes, initial=0))  # one past the last, too
        self.size = self.starts[-1]
        self.names = tuple(attr if h is None else f"{attr}[{h}]" for attr, h, _ in entries)
        # (attribute, width or None, start, stop, shape) per tensor
        self.slots = tuple((attr, h, start, start + n, tuple(shape))
                           for (attr, h, shape), start, n in zip(entries, self.starts, sizes))

    def name_at(self, index: int) -> str:
        """Name of the tensor that holds element ``index`` of the flat vector."""
        return self.names[bisect.bisect_right(self.starts, index) - 1]


def param_layout(config: ModelConfig) -> ParamLayout:
    """The parameter layout a configuration implies; the only list of shapes
    and the one storage order: ``filters[h]`` by ascending width,
    ``filter_biases[h]`` likewise, then the dense layers from the first
    hidden layer to the head."""
    n_f, (l1, l2), k = config.filters_per_width, config.hidden_sizes, config.out_dim
    widths = sorted(config.filter_widths)
    return ParamLayout(
        [("filters", h, (n_f, h * config.p)) for h in widths]
        + [("filter_biases", h, (n_f,)) for h in widths]
        + [("w1", None, (l1, config.z_len)), ("b1", None, (l1,)), ("w2", None, (l2, l1)),
           ("b2", None, (l2,)), ("w_out", None, (k, l2)), ("b_out", None, (k,))]
    )


class ModelParameters:
    """All trainable weights except the embedding table.

    ``flat`` is the only storage: one contiguous float64 vector laid out by
    ``layout``. ``filters[h]`` (one row per filter of width h, each of length
    h*p), ``filter_biases[h]`` (per-filter scalar biases, shared across
    sliding positions) and the row-per-neuron dense weights are views into
    it.
    """

    @classmethod
    def from_flat(cls, flat: np.ndarray, layout: ParamLayout) -> "ModelParameters":
        """Wrap ``flat`` (not copied), a float64 vector of ``layout.size``."""
        params = cls.__new__(cls)
        params.flat, params.layout = flat, layout
        params.filters, params.filter_biases = {}, {}
        params._views = [flat[start:stop].reshape(shape) for _, _, start, stop, shape in layout.slots]
        for (attr, h, *_), view in zip(layout.slots, params._views):
            if h is None:
                setattr(params, attr, view)
            else:
                getattr(params, attr)[h] = view
        return params

    def tensors(self) -> Iterator[tuple[str, np.ndarray]]:
        """Named tensor views in layout order."""
        return zip(self.layout.names, self._views)


def init_parameters(config: ModelConfig, rng: np.random.Generator) -> ModelParameters:
    """Scaled-normal initialization (std 1/sqrt(fan_in)), zero biases; the
    generator draws filters in ``config.filter_widths`` order, then w1, w2, w_out."""
    layout = param_layout(config)
    params = ModelParameters.from_flat(np.zeros(layout.size), layout)
    l1, l2 = config.hidden_sizes
    for h in config.filter_widths:
        fan_in = h * config.p
        params.filters[h][:] = rng.normal(0.0, 1.0 / math.sqrt(fan_in), size=(config.filters_per_width, fan_in))
    params.w1[:] = rng.normal(0.0, 1.0 / math.sqrt(config.z_len), size=(l1, config.z_len))
    params.w2[:] = rng.normal(0.0, 1.0 / math.sqrt(l1), size=(l2, l1))
    params.w_out[:] = rng.normal(0.0, 1.0 / math.sqrt(l2), size=(config.out_dim, l2))
    return params


# --- primitive operations -------------------------------------------------


def _word_windows(x: np.ndarray, h: int, p: int) -> np.ndarray:
    """All word-aligned windows of h consecutive words: shape (m-h+1, h*p).

    A read-only strided view of the contiguous vector x, row k starting at
    word k (built directly: ``sliding_window_view`` costs several times more
    and this runs for every width of every sample).
    """
    if x.size % p != 0:
        raise ValueError("input length is not a multiple of the embedding dimension")
    m = x.size // p
    if h > m:
        raise ValueError(f"filter width {h} exceeds sentence length {m}")
    # positional: the ndarray constructor's keyword parsing costs as much as the view
    windows = np.ndarray((m - h + 1, h * p), x.dtype, x, 0, (p * x.itemsize, x.itemsize))
    windows.flags.writeable = False
    return windows


def conv_forward(x: np.ndarray, filters: np.ndarray, biases: np.ndarray, p: int,
                 out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Filter-bank convolution of one width over the concatenated embedding vector.

    ``filters`` holds one filter of length h*p per row. Returns (windows,
    pre): ``windows`` is the (m-h+1, h*p) view of x whose row k covers words
    k..k+h-1, and ``pre[k, f]`` is filters[f] . windows[k] + biases[f], the
    pre-activation of filter f at word k. The filter advances one word per
    step, so every adjacent phrase of h words is scored once. ``pre`` is
    written into ``out`` when given (a (m-h+1, n_filters) array or view).
    """
    windows = _word_windows(x, filters.shape[1] // p, p)
    pre = np.matmul(windows, filters.T, out=out)
    pre += biases
    return windows, pre


def dense_forward(
    zprev: np.ndarray, w: np.ndarray, b: np.ndarray, activation: Literal["relu", "none"]
) -> np.ndarray:
    """Fully connected layer: out_k = act(zprev . w[k] + b[k])."""
    zprev = np.asarray(zprev, dtype=np.float64)
    if w.shape[1] != zprev.size or w.shape[0] != b.size:
        raise ValueError(f"dense shape mismatch: w {w.shape}, b {b.shape}, input {zprev.shape}")
    pre = w @ zprev
    pre += b
    if activation == "relu":
        return np.maximum(0.0, pre, out=pre)  # relu, in the fresh array
    if activation == "none":
        return pre
    raise ValueError(f"unknown activation {activation!r}")


def apply_dropout(
    v: np.ndarray,
    rate: float,
    mode: Literal["train", "test"],
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Dropout with test-time weight scaling.

    Train mode zeroes each element independently with probability ``rate``,
    one uniform draw per element whenever a generator is given; test mode
    scales every element by (1 - rate) to account for the expected exclusions.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError("dropout rate must lie in [0, 1)")
    v = np.asarray(v, dtype=np.float64)
    if mode == "test":
        return v * (1.0 - rate)
    if mode != "train":
        raise ValueError(f"unknown dropout mode {mode!r}")
    if rng is None and rate > 0.0:
        raise ValueError("train-mode dropout with rate > 0 needs a generator")
    return v.copy() if rng is None else v * (rng.random(v.shape) >= rate)


def sigmoid(z: float) -> float:
    """Logistic function, overflow-safe for large |z|."""
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def softmax3(z: np.ndarray) -> np.ndarray:
    """3-way softmax with max-subtraction for numerical stability."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (3,):
        raise ValueError("softmax3 expects exactly 3 logits")
    shifted = np.exp(z - z.max())
    return shifted / shifted.sum()


# --- full network ---------------------------------------------------------


class _Width(NamedTuple):
    h: int
    cols: slice    # its filters' columns in the shared conv buffers
    length: int    # feature-map length, m - h + 1
    grads: slice   # its (length, h*p) window gradients in backward's flat buffer


class _ConvPlan:
    """Where every filter width lives in the conv buffers ``forward`` shares.

    The buffers hold all widths side by side, one column per filter, in
    ``config.filter_widths`` order (the order of z), and ``rows`` rows: the
    longest map padded to ``blocks`` whole pool windows, whose first rows
    ``starts`` holds as a column. A wider filter's map ends higher up; ``pad``
    marks the cells below it, which may fill its last windows, and ``floor``
    holds -inf there and 0 in every map cell: relu's floor, and the template
    the pre-activation buffer starts from.
    """

    def __init__(self, config: ModelConfig) -> None:
        p, n_f = config.p, config.filters_per_width
        narrowest = min(config.filter_widths)
        self.n_filters = config.total_filters
        self.map_rows = config.map_len(narrowest)
        self.blocks = config.pooled_len(narrowest)
        self.rows = self.blocks * config.pool_w
        self.starts = (np.arange(self.blocks) * config.pool_w)[:, None]
        self.pad = np.zeros((self.rows, self.n_filters), dtype=bool)
        widths, z_take, bins = [], [], []
        grads_size = 0
        for i, h in enumerate(config.filter_widths):
            col = i * n_f
            length, pooled = config.map_len(h), config.pooled_len(h)
            # element (k, o, j) of a width's window gradient belongs to word k+o
            bins.append(((np.arange(length)[:, None, None] + np.arange(h)[:, None]) * p
                         + np.arange(p)).ravel())
            widths.append(_Width(h, slice(col, col + n_f), length,
                                 slice(grads_size, grads_size + bins[-1].size)))
            grads_size += bins[-1].size
            self.pad[length:, col : col + n_f] = True
            # z is filter-major per width: filter f's pooled map, block by block
            z_take.append((np.arange(col, col + n_f)[:, None]
                           + np.arange(pooled) * self.n_filters).ravel())
        self.widths = tuple(widths)
        self.z_take = np.concatenate(z_take)  # z element -> cell of the pooled buffer
        self.z_cols = self.z_take % self.n_filters
        self.bins = np.concatenate(bins)  # window-gradient element -> word-gradient element
        self.floor = np.where(self.pad, -np.inf, 0.0)
        for arr in (self.pad, self.floor, self.starts, self.z_take, self.z_cols, self.bins):
            arr.flags.writeable = False


@dataclass(eq=False)
class ForwardCache:
    """What ``backward`` reads of a train-mode forward pass. The conv stage
    of all widths lives in buffers laid out by ``plan`` (see ``_ConvPlan``)."""

    indices: np.ndarray
    windows: dict[int, np.ndarray]  # width -> (map_len, h*p) view of the embedding vector
    pre: np.ndarray                 # (rows, total filters) conv pre-activations, -inf in the pad cells
    positions: np.ndarray           # (blocks, total filters) argmax rows of each pool window
    plan: _ConvPlan
    z: np.ndarray
    drop1: np.ndarray
    drop2: np.ndarray
    logits: np.ndarray
    output: np.ndarray  # sigmoid probability (len 1) or softmax probabilities (len 3)


def forward(
    enc: EncodedHeadline,
    table: EmbeddingTable,
    params: ModelParameters,
    config: ModelConfig,
    mode: Literal["train", "test"] = "test",
    rng: np.random.Generator | None = None,
) -> tuple[float | np.ndarray, ForwardCache | None]:
    """Run the network on one encoded headline.

    Returns (output, cache): the output is the sigmoid probability (binary
    head) or the 3-class probability vector; the cache is populated only in
    train mode. Test mode is a pure function of its inputs (dropout becomes
    deterministic scaling).
    """
    if mode not in ("train", "test"):
        raise ValueError(f"unknown mode {mode!r}")
    if enc.indices.shape != (config.m,):
        raise ValueError(f"an encoding of shape {enc.indices.shape} is not m={config.m} indices")
    x = lookup_concat(enc, table)

    plan = config._plan
    pre = plan.floor.copy()
    windows: dict[int, np.ndarray] = {}
    for width in plan.widths:
        windows[width.h], _ = conv_forward(x, params.filters[width.h], params.filter_biases[width.h],
                                           config.p, out=pre[: width.length, width.cols])
    post = np.maximum(plan.floor, pre)  # relu; the pad cells stay -inf
    pooled = post[:: config.pool_w]
    for j in range(1, config.pool_w):  # the max of each pool window's rows
        pooled = np.maximum(pooled, post[j :: config.pool_w])
    z = pooled.ravel()[plan.z_take]

    drop1 = apply_dropout(dense_forward(z, params.w1, params.b1, "relu"),
                          config.dropout_rate, mode, rng)
    drop2 = apply_dropout(dense_forward(drop1, params.w2, params.b2, "relu"),
                          config.dropout_rate, mode, rng)
    logits = dense_forward(drop2, params.w_out, params.b_out, "none")

    if config.head == HEAD_BINARY:
        output: float | np.ndarray = sigmoid(float(logits[0]))
    else:
        output = softmax3(logits)

    if mode == "test":
        return output, None
    blocks = post.reshape(plan.blocks, config.pool_w, -1)
    cache = ForwardCache(
        indices=enc.indices, windows=windows, pre=pre,
        positions=blocks.argmax(axis=1) + plan.starts, plan=plan, z=z, drop1=drop1, drop2=drop2,
        logits=logits, output=np.array([output]) if config.head == HEAD_BINARY else output,
    )
    return output, cache


def sample_loss(output: float | np.ndarray, y: int, head: str) -> float:
    """Cross-entropy of one sample: -log of the probability the head gives
    class ``y``, clamped to [LOG_EPS, 1 - LOG_EPS]."""
    if head == HEAD_BINARY:
        s = min(max(float(output), LOG_EPS), 1.0 - LOG_EPS)
        return -math.log(s if y else 1.0 - s)
    return -math.log(min(max(float(output[y]), LOG_EPS), 1.0 - LOG_EPS))


_ONE_HOT3 = np.eye(3)
_ONE_HOT3.flags.writeable = False


class RowGradient(NamedTuple):
    """A gradient that is zero outside ``rows``: the sorted distinct row
    indices (first axis of the tensor) and, row for row, their gradients."""

    rows: np.ndarray    # int64, ascending, no repeats
    values: np.ndarray  # (len(rows), ...) in the tensor's row shape


def backward(
    cache: ForwardCache,
    y: int,
    params: ModelParameters,
    config: ModelConfig,
    table: EmbeddingTable,
    acc: ModelParameters,
) -> tuple[np.ndarray, np.ndarray] | None:
    """Add the exact analytic gradient of one sample's loss into ``acc``;
    return its embedding gradient by position.

    ``acc`` has the layout of ``params``, and every tensor of it receives
    ``acc + g`` element by element, so calling this once per sample, in a
    fixed order, into zeroed accumulators sums a batch reproducibly.

    The gradient flows only through the max-pool argmax positions, and relu
    passes it only where its input was strictly positive. The embedding
    gradient is ``(indices, dx)``: the headline's (m,) row indices and the
    (m, p) gradient of its embedding vector by position, summed from +0.0.
    Table row r's gradient is the sum of dx over the positions that look r
    up, the padding row's is zero, and ``training._batch_sum`` sums a batch
    by row. For a static table it is not computed and None is returned.
    """
    if cache is None:
        raise ValueError("backward needs the cache from a train-mode forward pass")

    # drop >= +0, so np.sign(drop) is 1.0 where dropout and relu pass, else a zero
    if config.head == HEAD_BINARY:
        dlogit = cache.output.item() - y
        acc.w_out += dlogit * cache.drop2
        acc.b_out[0] += dlogit  # a Python float add, cheaper than a 1-element array's
        dpre2 = params.w_out[0] * dlogit
    else:
        dlogits = cache.output - _ONE_HOT3[y]
        acc.w_out += dlogits[:, None] * cache.drop2
        acc.b_out += dlogits
        dpre2 = params.w_out.T @ dlogits
    dpre2 *= np.sign(cache.drop2)
    acc.w2 += dpre2[:, None] * cache.drop1
    acc.b2 += dpre2
    dpre1 = params.w2.T @ dpre2
    dpre1 *= np.sign(cache.drop1)
    acc.w1 += dpre1[:, None] * cache.z
    acc.b1 += dpre1
    dz = params.w1.T @ dpre1
    dz *= np.sign(cache.z)  # z is relu(pre) at its argmax cell

    # pool windows do not overlap, so every argmax cell is hit once
    plan = cache.plan
    dpre = np.zeros((plan.map_rows, plan.n_filters))
    dpre.ravel()[cache.positions.take(plan.z_take) * plan.n_filters + plan.z_cols] = dz

    dwindows = np.empty(plan.bins.size) if table.trainable else None
    for width in plan.widths:
        h, dpre_h = width.h, dpre[: width.length, width.cols]
        acc.filters[h] += dpre_h.T @ cache.windows[h]
        acc.filter_biases[h] += np.add.reduce(dpre_h, axis=0)  # no ``.sum`` wrapper
        if dwindows is not None:
            np.matmul(dpre_h, params.filters[h], out=dwindows[width.grads].reshape(width.length, -1))

    if dwindows is None:
        return None
    # Window k covers words k..k+h-1. bincount adds its weights in input
    # order from 0.0: width by width in config order, and within a width
    # in ascending k, which is descending word offset for any one word.
    dx = np.bincount(plan.bins, weights=dwindows).reshape(config.m, config.p)
    return cache.indices, dx
