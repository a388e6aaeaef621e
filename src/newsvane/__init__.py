"""newsvane: next-day stock movement classification from news headlines.

A small convolutional network over word embeddings classifies headlines by
the sign of the next trading day's open-to-close return, and a trading
simulation layer turns day-averaged predictions into buy decisions with
percent-profitable / average-trade-profit reporting.

Importing the package pins glibc's mmap threshold (see ``allocation``), so
that table-sized arrays are unmapped when freed instead of left resident in
the heap.
"""

from .allocation import pin_mmap_threshold
from .backtest import (
    BUY,
    NO_ACTION,
    BacktestReport,
    DayPrediction,
    Trade,
    aggregate_daily,
    buy_scores,
    decide_binary,
    decide_multiclass,
    simulate,
    threshold_sweep,
)
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .corpus import (
    DatasetSplit,
    HeadlineRecord,
    LabeledSample,
    PriceBar,
    PriceIndex,
    generate_synthetic,
    load_headlines,
    load_prices,
    split_half_hourly_unique,
)
from .embeddings import (
    EmbeddingTable,
    init_self_learnt,
    load_pretrained,
    lookup_concat,
    nearest_neighbors,
)
from .gradcheck import run_suite
from .network import (
    ForwardCache,
    ModelConfig,
    ModelParameters,
    apply_dropout,
    backward,
    dense_forward,
    forward,
    init_parameters,
    relu,
    sigmoid,
    softmax3,
)
from .pipeline import PreparedData, Sample, prepare_dataset, to_pairs
from .text import (
    EncodedHeadline,
    Vocabulary,
    build_vocabulary,
    encode_and_pad,
    tokenize,
)
from .training import (
    AdamState,
    GridAxes,
    GridResult,
    MetricsReport,
    NumericError,
    adam_step,
    evaluate,
    grid_search,
    train,
)

__version__ = "0.1.0"

pin_mmap_threshold()
