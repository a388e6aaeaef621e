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
gradient into accumulators its caller owns, so the training loop sums a
batch by calling it once per sample in a fixed order, which keeps runs
bit-reproducible. The embedding gradient of a sample is row-sparse: it is
added only to the distinct non-padding rows its headline looks up, each
summed over its positions in position order, so a backward pass never
touches the rest of the table.

Per-sample cost is mostly the count of numpy calls, so the conv stage runs
all widths in shared buffers (``_ConvPlan``): one column per filter, one
conv matmul per width writing its own columns, then one relu, one -inf fill
past each width's map, one pool and one gather into z. ``backward`` scatters
dz into the same layout and sums the word gradients of every width with one
weighted ``np.bincount``. Each element still sees the float operations of a
width-by-width loop, in the same order, so every output and gradient has
that loop's bits; the tests keep a copy of it to compare against.
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
    dropout_rate: float = 0.0
    pool_w: int = 2
    head: str = HEAD_BINARY

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


def relu(x):
    """max(0, x), elementwise; the derivative at exactly 0 is taken as 0."""
    return np.maximum(0.0, x)


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
    windows = np.ndarray((m - h + 1, h * p), dtype=x.dtype, buffer=x,
                         strides=(p * x.itemsize, x.itemsize))
    windows.flags.writeable = False
    return windows


def conv_forward(x: np.ndarray, filters: np.ndarray, biases: np.ndarray,
                 p: int) -> tuple[np.ndarray, np.ndarray]:
    """Filter-bank convolution of one width over the concatenated embedding vector.

    ``filters`` holds one filter of length h*p per row. Returns (windows,
    pre): ``windows`` is the (m-h+1, h*p) view of x whose row k covers words
    k..k+h-1, and ``pre[k, f]`` is filters[f] . windows[k] + biases[f], the
    pre-activation of filter f at word k. The filter advances one word per
    step, so every adjacent phrase of h words is scored once.
    """
    windows = _word_windows(x, filters.shape[1] // p, p)
    pre = windows @ filters.T
    pre += biases
    return windows, pre


def maxpool(maps: np.ndarray, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Max-pool each column of ``maps`` (shape (n, d)) with window/stride w.

    Returns (pooled (ceil(n/w), d), argmax row indices into ``maps``). The
    final partial window is pooled as-is; ties resolve to the leftmost
    element. ``forward`` pools every width at once: it hands over a map
    whose cells past each width's end hold -inf and whose length is a
    multiple of w, which is pooled without a padded copy. In test mode it
    takes the same block max without the argmax.
    """
    n, d = maps.shape
    if n == 0:
        raise ValueError("cannot pool an empty feature map")
    n_out = -(-n // w)
    if n_out * w != n:
        padded = np.full((n_out * w, d), -np.inf)
        padded[:n] = maps
        maps = padded
    blocks = maps.reshape(n_out, w, d)
    return blocks.max(axis=1), blocks.argmax(axis=1) + _pool_offsets(n_out, w)


@functools.lru_cache(maxsize=256)
def _pool_offsets(n_out: int, w: int) -> np.ndarray:
    """First row of each pool window, as a read-only (n_out, 1) column."""
    offsets = (np.arange(n_out) * w)[:, None]
    offsets.flags.writeable = False
    return offsets


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
        return relu(pre)
    if activation == "none":
        return pre
    raise ValueError(f"unknown activation {activation!r}")


def apply_dropout(
    v: np.ndarray,
    rate: float,
    mode: Literal["train", "test"],
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Dropout with test-time weight scaling.

    Train mode zeroes each element independently with probability ``rate``
    and returns the kept-element mask; test mode scales every element by
    (1 - rate) to account for the expected exclusions, returning mask None.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError("dropout rate must lie in [0, 1)")
    v = np.asarray(v, dtype=np.float64)
    if mode == "test":
        return v * (1.0 - rate), None
    if mode != "train":
        raise ValueError(f"unknown dropout mode {mode!r}")
    if rate == 0.0 and rng is None:
        mask = np.ones_like(v)
    else:
        if rng is None:
            raise ValueError("train-mode dropout with rate > 0 needs a generator")
        mask = (rng.random(v.shape) >= rate).astype(np.float64)
    return v * mask, mask


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
    pooled: int    # pooled length
    grads: slice   # its (length, h*p) window gradients in backward's flat buffer


class _ConvPlan:
    """Where every filter width lives in the conv buffers ``forward`` shares.

    The buffers hold all widths side by side, one column per filter, in
    ``config.filter_widths`` order (the order of z), and ``rows`` rows: the
    longest map padded to whole pool windows. A wider filter's map ends
    higher up; ``pad`` marks the cells below it.
    """

    def __init__(self, config: ModelConfig) -> None:
        p, n_f = config.p, config.filters_per_width
        narrowest = min(config.filter_widths)
        self.n_filters = config.total_filters
        self.map_rows = config.map_len(narrowest)
        self.blocks = config.pooled_len(narrowest)
        self.rows = self.blocks * config.pool_w
        self.pad = np.zeros((self.rows, self.n_filters), dtype=bool)
        widths, z_take, bins = [], [], []
        grads_size = 0
        for i, h in enumerate(config.filter_widths):
            col = i * n_f
            length, pooled = config.map_len(h), config.pooled_len(h)
            # element (k, o, j) of a width's window gradient belongs to word k+o
            bins.append(((np.arange(length)[:, None, None] + np.arange(h)[:, None]) * p
                         + np.arange(p)).ravel())
            widths.append(_Width(h, slice(col, col + n_f), length, pooled,
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
        for arr in (self.pad, self.z_take, self.z_cols, self.bins):
            arr.flags.writeable = False


_conv_plan = functools.lru_cache(maxsize=64)(_ConvPlan)


@dataclass(eq=False)
class ForwardCache:
    """Intermediate values of a train-mode forward pass, for backpropagation.

    The conv stage of all widths lives in three shared buffers (see
    ``_ConvPlan``); ``conv_pre``, ``conv_post`` and ``pool_argmax`` give
    each width's part of them as views.
    """

    indices: np.ndarray
    x: np.ndarray
    windows: dict[int, np.ndarray]  # width -> (map_len, h*p) view of x
    pre: np.ndarray                 # (rows, total filters) conv pre-activations
    post: np.ndarray                # relu(pre), -inf in the pad cells
    positions: np.ndarray           # (blocks, total filters) argmax rows of post
    plan: _ConvPlan
    z: np.ndarray
    act1: np.ndarray
    mask1: np.ndarray
    drop1: np.ndarray
    act2: np.ndarray
    mask2: np.ndarray
    drop2: np.ndarray
    logits: np.ndarray
    output: np.ndarray  # sigmoid probability (len 1) or softmax probabilities (len 3)

    @property
    def conv_pre(self) -> dict[int, np.ndarray]:
        """Width -> (map_len, n_filters) pre-activations."""
        return {width.h: self.pre[: width.length, width.cols] for width in self.plan.widths}

    @property
    def conv_post(self) -> dict[int, np.ndarray]:
        """Width -> (map_len, n_filters) relu feature maps."""
        return {width.h: self.post[: width.length, width.cols] for width in self.plan.widths}

    @property
    def pool_argmax(self) -> dict[int, np.ndarray]:
        """Width -> (pooled_len, n_filters) map rows the pool took."""
        return {width.h: self.positions[: width.pooled, width.cols] for width in self.plan.widths}


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
    x = lookup_concat(enc, table)

    plan = _conv_plan(config)
    pre = np.zeros((plan.rows, plan.n_filters))
    windows: dict[int, np.ndarray] = {}
    for width in plan.widths:
        windows[width.h], pre[: width.length, width.cols] = conv_forward(
            x, params.filters[width.h], params.filter_biases[width.h], config.p)
    post = relu(pre)
    post[plan.pad] = -np.inf
    if mode == "test":
        pooled, positions = post.reshape(plan.blocks, config.pool_w, -1).max(axis=1), None
    else:
        pooled, positions = maxpool(post, config.pool_w)
    z = pooled.take(plan.z_take)

    act1 = dense_forward(z, params.w1, params.b1, "relu")
    drop1, mask1 = apply_dropout(act1, config.dropout_rate, mode, rng)
    act2 = dense_forward(drop1, params.w2, params.b2, "relu")
    drop2, mask2 = apply_dropout(act2, config.dropout_rate, mode, rng)
    logits = dense_forward(drop2, params.w_out, params.b_out, "none")

    if config.head == HEAD_BINARY:
        output: float | np.ndarray = sigmoid(float(logits[0]))
        probs = np.array([output])
    else:
        probs = softmax3(logits)
        output = probs

    if mode == "test":
        return output, None
    cache = ForwardCache(
        indices=enc.indices, x=x, windows=windows, pre=pre, post=post, positions=positions,
        plan=plan, z=z, act1=act1, mask1=mask1, drop1=drop1,
        act2=act2, mask2=mask2, drop2=drop2, logits=logits, output=probs,
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


def backward(
    cache: ForwardCache,
    y: int,
    params: ModelParameters,
    config: ModelConfig,
    table: EmbeddingTable,
    acc: ModelParameters,
    acc_emb: np.ndarray | None,
) -> np.ndarray:
    """Add the exact analytic gradient of one sample's loss into ``acc`` and
    ``acc_emb``.

    ``acc`` has the layout of ``params``; ``acc_emb`` is the table-shaped
    accumulator of the embedding gradient, or None for a static table, whose
    gradient is then not computed. Every tensor of ``acc`` receives
    ``acc + g`` element by element, so calling this once per sample, in a
    fixed order, into zeroed accumulators sums a batch reproducibly.

    The gradient flows only through the max-pool argmax positions, and relu
    passes it only where its input was strictly positive. The embedding
    gradient is row-sparse: it is added only to the sorted distinct
    non-padding rows the headline looks up, each summed over its positions
    in position order first. Those rows are returned (none when ``acc_emb``
    is None); every other row, the padding row included, is left as it was.
    """
    if cache is None:
        raise ValueError("backward needs the cache from a train-mode forward pass")

    # head: d(loss)/d(logits) for both cross-entropies
    if config.head == HEAD_BINARY:
        dlogits = cache.output - float(y)
    else:
        dlogits = cache.output - _ONE_HOT3[y]

    # A dropout mask is 0 or 1 and relu output is >= 0, so drop > 0 exactly
    # where both mask and relu pass: ddrop * (drop > 0) has the bits of
    # ddrop * mask * (act > 0), signed zeros included.
    acc.w_out += dlogits[:, None] * cache.drop2
    acc.b_out += dlogits
    dpre2 = (params.w_out.T @ dlogits) * (cache.drop2 > 0)
    acc.w2 += dpre2[:, None] * cache.drop1
    acc.b2 += dpre2
    dpre1 = (params.w2.T @ dpre2) * (cache.drop1 > 0)
    acc.w1 += dpre1[:, None] * cache.z
    acc.b1 += dpre1
    dz = params.w1.T @ dpre1

    # pool windows do not overlap, so every argmax cell is hit once
    plan = cache.plan
    dpost = np.zeros((plan.map_rows, plan.n_filters))
    dpost[cache.positions.take(plan.z_take), plan.z_cols] = dz
    dpre = dpost * (cache.pre[: plan.map_rows] > 0)

    dwindows = None if acc_emb is None else np.empty(plan.bins.size)
    for width in plan.widths:
        h, dpre_h = width.h, dpre[: width.length, width.cols]
        acc.filters[h] += dpre_h.T @ cache.windows[h]
        acc.filter_biases[h] += dpre_h.sum(axis=0)
        if dwindows is not None:
            np.matmul(dpre_h, params.filters[h], out=dwindows[width.grads].reshape(width.length, -1))

    if dwindows is None:
        return np.empty(0, dtype=np.int64)
    # Window k covers words k..k+h-1. bincount adds its weights in input
    # order from 0.0: width by width in config order, and within a width
    # in ascending k, which is descending word offset for any one word.
    dx = np.bincount(plan.bins, weights=dwindows,
                     minlength=config.m * config.p).reshape(config.m, config.p)
    emb_rows, emb_grads = _sum_rows(cache.indices, dx)
    acc_emb[emb_rows] += emb_grads
    return emb_rows


def _sum_rows(indices: np.ndarray, dx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum the per-position gradients ``dx`` (m, p) by table row.

    Returns the sorted distinct non-padding rows of ``indices`` and their
    sums, added in position order exactly as ``np.add.at`` into a zeroed
    table would (``dx`` is accumulated from +0.0, so it holds no -0.0 and a
    row's first position needs no zero to be added to). Headlines are a few
    words long, so plain Python groups the positions faster than a sort.
    """
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
