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
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import asdict, dataclass
from typing import Iterator, Literal, Sequence

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
    return windows, windows @ filters.T + biases


def maxpool(maps: np.ndarray, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Max-pool each column of ``maps`` (shape (n, d)) with window/stride w.

    Returns (pooled (ceil(n/w), d), argmax row indices into ``maps``). The
    final partial window is pooled as-is; ties resolve to the leftmost
    element.
    """
    n, d = maps.shape
    if n == 0:
        raise ValueError("cannot pool an empty feature map")
    n_out = -(-n // w)
    padded = np.full((n_out * w, d), -np.inf)
    padded[:n] = maps
    blocks = padded.reshape(n_out, w, d)
    within = blocks.argmax(axis=1)
    pooled = blocks.max(axis=1)
    positions = within + (np.arange(n_out) * w)[:, None]
    return pooled, positions


def dense_forward(
    zprev: np.ndarray, w: np.ndarray, b: np.ndarray, activation: Literal["relu", "none"]
) -> np.ndarray:
    """Fully connected layer: out_k = act(zprev . w[k] + b[k])."""
    zprev = np.asarray(zprev, dtype=np.float64)
    if w.shape[1] != zprev.size or w.shape[0] != b.size:
        raise ValueError(f"dense shape mismatch: w {w.shape}, b {b.shape}, input {zprev.shape}")
    pre = w @ zprev + b
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


@dataclass(eq=False)
class ForwardCache:
    """Intermediate values of a train-mode forward pass, for backpropagation."""

    indices: np.ndarray
    x: np.ndarray
    windows: dict[int, np.ndarray]     # width -> (map_len, h*p) view of x
    conv_pre: dict[int, np.ndarray]    # width -> (map_len, n_filters)
    conv_post: dict[int, np.ndarray]
    pool_argmax: dict[int, np.ndarray]  # width -> (pooled_len, n_filters)
    z: np.ndarray
    act1: np.ndarray
    mask1: np.ndarray
    drop1: np.ndarray
    act2: np.ndarray
    mask2: np.ndarray
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
    x = lookup_concat(enc, table)

    windows: dict[int, np.ndarray] = {}
    conv_pre: dict[int, np.ndarray] = {}
    conv_post: dict[int, np.ndarray] = {}
    pool_argmax: dict[int, np.ndarray] = {}
    pooled_parts: list[np.ndarray] = []
    for h in config.filter_widths:
        windows[h], pre = conv_forward(x, params.filters[h], params.filter_biases[h], config.p)
        post = relu(pre)
        pooled, positions = maxpool(post, config.pool_w)
        conv_pre[h] = pre
        conv_post[h] = post
        pool_argmax[h] = positions
        pooled_parts.append(pooled.T.reshape(-1))  # filter-major: maps stay contiguous
    z = np.concatenate(pooled_parts)

    act1 = dense_forward(z, params.w1, params.b1, "relu")
    drop1, mask1 = apply_dropout(act1, config.dropout_rate, mode, rng)
    act2 = dense_forward(drop1, params.w2, params.b2, "relu")
    drop2, mask2 = apply_dropout(act2, config.dropout_rate, mode, rng)
    logits = dense_forward(drop2, params.w_out, params.b_out, "none")

    if config.head == HEAD_BINARY:
        probs = np.array([sigmoid(float(logits[0]))])
        output: float | np.ndarray = float(probs[0])
    else:
        probs = softmax3(logits)
        output = probs

    if mode == "test":
        return output, None
    cache = ForwardCache(
        indices=enc.indices, x=x, windows=windows, conv_pre=conv_pre, conv_post=conv_post,
        pool_argmax=pool_argmax, z=z, act1=act1, mask1=mask1, drop1=drop1,
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
        dlogits = cache.output - np.array([float(y)])
    else:
        onehot = np.zeros(3)
        onehot[y] = 1.0
        dlogits = cache.output - onehot

    acc.w_out += np.outer(dlogits, cache.drop2)
    acc.b_out += dlogits
    ddrop2 = params.w_out.T @ dlogits

    dact2 = ddrop2 * cache.mask2
    dpre2 = dact2 * (cache.act2 > 0)
    acc.w2 += np.outer(dpre2, cache.drop1)
    acc.b2 += dpre2
    ddrop1 = params.w2.T @ dpre2

    dact1 = ddrop1 * cache.mask1
    dpre1 = dact1 * (cache.act1 > 0)
    acc.w1 += np.outer(dpre1, cache.z)
    acc.b1 += dpre1
    dz = params.w1.T @ dpre1

    n_f, p = config.filters_per_width, config.p
    dx = None if acc_emb is None else np.zeros((config.m, p))
    offset = 0
    for h in config.filter_widths:
        pooled_len = config.pooled_len(h)
        seg = dz[offset : offset + n_f * pooled_len].reshape(n_f, pooled_len).T
        offset += n_f * pooled_len

        # pool windows do not overlap, so every argmax cell is hit once
        dpost = np.zeros(cache.conv_post[h].shape)
        dpost[cache.pool_argmax[h], np.arange(n_f)] = seg
        dpre = dpost * (cache.conv_pre[h] > 0)

        acc.filters[h] += dpre.T @ cache.windows[h]
        acc.filter_biases[h] += dpre.sum(axis=0)

        if dx is not None:
            # window k covers words k..k+h-1; taking the word offset o from
            # h-1 down to 0 adds into each word in ascending k
            dwindows = (dpre @ params.filters[h]).reshape(-1, h, p)
            for o in range(h - 1, -1, -1):
                dx[o : o + dwindows.shape[0]] += dwindows[:, o]

    if dx is None:
        return np.empty(0, dtype=np.int64)
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
    positions: dict[int, list[int]] = {}
    for k, row in enumerate(indices.tolist()):
        if row:
            positions.setdefault(row, []).append(k)
    rows = sorted(positions)
    sums = dx[[positions[row][0] for row in rows]]
    for i, row in enumerate(rows):
        for k in positions[row][1:]:
            sums[i] += dx[k]
    return np.array(rows, dtype=np.int64), sums
