"""Versioned checkpoints for trained models: a JSON file and a raw sidecar.

``save_checkpoint(path, ...)`` writes the sidecar ``path.with_suffix(".npy")``,
one NumPy ``.npy`` file (format 1.0) holding a single little-endian float64
vector: the embedding table's rows, then the network parameters as one flat
vector. Then it writes the JSON file ``path`` (format 5): the model
configuration, the vocabulary as one newline-joined string, its digest
``vocab_hash`` (the sha256 of ``max_len=<config.m>``, a newline and that
string, so it covers the tokens, their order and the padded length), the
table's mode and pretrained hit count, and the sidecar's sha256.
What the configuration fixes is derived, not stored: the parameter layout,
the table width ``config.p`` and the vocabulary's padded length ``config.m``.
Each file is written atomically, and saving the same state twice produces
byte-identical files. Saving hashes a sidecar of 1 MiB or more on one worker
thread beside the writes, and a smaller one inline; the bytes written are the
same either way. Loading checks every field, then reads the sidecar once and
checks its hash, dtype and length against the configuration and vocabulary
before any of it is returned.
"""

from __future__ import annotations

import hashlib
import io
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Iterator

import numpy as np
from numpy.lib import format as npy_format

from .embeddings import MODES, EmbeddingTable
from .fileio import (
    CONVERTERS,
    json_text,
    open_atomic,
    read_json,
    read_object,
    strict_int,
    strict_object,
    strict_str,
    write_text_atomic,
)
from .network import ModelConfig, ModelParameters, param_layout
from .text import Vocabulary

FORMAT_VERSION = 5
_THREADED_HASH_BYTES = 1 << 20  # below this, a hash worker thread costs more than it saves


class CheckpointError(ValueError):
    pass


# The converter of every key of format 5, one mapping per section. Every key is
# required and any other is rejected on load, so a stale or misspelt field is an
# error, not silently ignored. ``training_meta`` is free-form.
_FORMAT = {
    "format_version": strict_int,
    "config": {f.name: CONVERTERS[f.type] for f in fields(ModelConfig)},
    "vocab": strict_str,
    "vocab_hash": strict_str,
    "embedding": {"mode": strict_str, "pretrained_hit_count": strict_int},
    "sidecar_sha256": strict_str,
    "training_meta": strict_object,
}


def _vocab_hash(m: int, joined: str) -> str:
    """The ``vocab_hash`` of the newline-joined tokens ``joined`` padded to ``m``: the
    sha256 of ``max_len=<m>``, a newline and ``joined``, in UTF-8. A token holds no
    newline, so an edited, reordered, added or removed token or an edited ``m`` changes it."""
    return hashlib.sha256(f"max_len={m}\n{joined}".encode()).hexdigest()


@contextmanager
def _hashing(digest, nbytes: int) -> Iterator[Callable]:
    """A function feeding byte chunks to ``digest`` in order: inline below ``_THREADED_HASH_BYTES``,
    else on one worker thread (hashlib releases the GIL), joined when the block exits."""
    if nbytes < _THREADED_HASH_BYTES:
        yield digest.update
        return
    hashed = []
    with ThreadPoolExecutor(1, thread_name_prefix="sidecar-sha256") as worker:
        yield lambda chunk: hashed.append(worker.submit(digest.update, chunk))
    for future in hashed:
        future.result()


def _read_sidecar(path: Path, sha256: str, size: int) -> np.ndarray:
    """The float64 vector of ``size`` in the sidecar ``path``. The file is read once,
    into one buffer of its length, and checked against ``sha256``, then against its
    own header, before any of it is returned; the vector is a view of that buffer."""
    try:
        with open(path, "rb") as fh:
            buf = np.empty(os.fstat(fh.fileno()).st_size, np.uint8)
            buf = buf[:fh.readinto(buf)]
    except OSError as exc:
        raise ValueError(f"sidecar: cannot read {path.name}: {exc.strerror or exc}") from None
    if hashlib.sha256(buf).hexdigest() != sha256:
        raise ValueError(f"sidecar_sha256: does not match the file {path.name}")
    stream = io.BytesIO(buf[:10 + 0xFFFF])  # the longest header format 1.0 can hold
    try:
        if npy_format.read_magic(stream) != (1, 0):
            raise ValueError("not an .npy file of format 1.0")
        shape, _, dtype = npy_format.read_array_header_1_0(stream)
    except ValueError as exc:
        raise ValueError(f"sidecar: invalid ({exc})") from None
    if dtype != np.dtype("<f8") or shape != (size,):
        raise ValueError(f"sidecar: {dtype} {list(shape)}, expected float64 [{size}]")
    if buf.size - stream.tell() != 8 * size:
        raise ValueError(f"sidecar: data is not {size} float64 values")
    return buf[stream.tell():].view("<f8")


@dataclass
class Checkpoint:
    """A loaded checkpoint (``vocab`` pads to ``config.m``, ``table`` is ``config.p``
    wide). Its vocabulary hash is checked on load, not kept: runs compare ``vocab``."""

    config: ModelConfig
    vocab: Vocabulary
    table: EmbeddingTable
    params: ModelParameters
    training_meta: dict


def save_checkpoint(
    path: str | Path,
    config: ModelConfig,
    vocab: Vocabulary,
    table: EmbeddingTable,
    params: ModelParameters,
    training_meta: dict | None = None,
) -> None:
    """Write the sidecar ``path.with_suffix(".npy")``, then the JSON file ``path``.

    Raises CheckpointError for a path that ends in ``.npy`` (the JSON would
    replace its own sidecar), a table p or vocabulary max_len that is not the
    config's p or m (the only ones stored) and arrays that are not float64.
    """
    path = Path(path)
    sidecar = path.with_suffix(".npy")
    if sidecar == path:
        raise CheckpointError(f"{path}: a checkpoint path must not end in .npy, its sidecar's suffix")
    if (table.p, vocab.max_len) != (config.p, config.m):
        raise CheckpointError(f"table p={table.p} and max_len={vocab.max_len} are not the config's")
    arrays = (table.matrix, params.flat)
    for arr in arrays:
        if arr.dtype != np.float64:
            raise CheckpointError(f"unsupported dtype {arr.dtype}")
    header, digest = io.BytesIO(), hashlib.sha256()
    npy_format.write_array_header_1_0(
        header, {"descr": "<f8", "fortran_order": False, "shape": (sum(a.size for a in arrays),)})
    header = header.getvalue()
    with _hashing(digest, len(header) + sum(a.nbytes for a in arrays)) as feed:
        with open_atomic(sidecar) as fh:
            for chunk in (header, *(np.ascontiguousarray(a, dtype="<f8") for a in arrays)):
                feed(chunk)
                fh.write(chunk)
        joined = "\n".join(vocab.tokens)  # built while the worker hashes
        payload = {
            "format_version": FORMAT_VERSION,
            "config": config.to_dict(),
            "vocab": joined,
            "vocab_hash": _vocab_hash(config.m, joined),
            "embedding": {"mode": table.mode, "pretrained_hit_count": table.pretrained_hit_count},
            "training_meta": training_meta or {},
        }
    payload["sidecar_sha256"] = digest.hexdigest()
    write_text_atomic(path, json_text(payload))


def load_checkpoint(path: str | Path, expected_config: ModelConfig | None = None) -> Checkpoint:
    """Load and validate a checkpoint and its sidecar ``path.with_suffix(".npy")``.

    ``read_object`` checks the JSON file against ``_FORMAT``, and every error
    is a CheckpointError naming the file and the field (``<path>:
    config.pool_w: ...``). It rejects other format versions (formats 4, 3
    and older included), a section or value that is missing or of the wrong JSON
    type, a key that format 5 does not hold, an empty or repeated token, a
    vocabulary hash that disagrees with the tokens and ``config.m``
    (corruption), a missing sidecar or one whose sha256, dtype or length
    disagrees, and, when ``expected_config`` is given, any configuration
    disagreement. ``read_json`` reports a file that is not UTF-8 JSON.
    """
    path = Path(path)
    payload = read_json(path)
    try:  # every error below is reported as "<path>: <message>"
        version = payload.get("format_version") if isinstance(payload, dict) else FORMAT_VERSION
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported checkpoint format {version!r} "
                             f"(this version reads format {FORMAT_VERSION})")
        payload = read_object(payload, _FORMAT, required=True)
        try:
            config = ModelConfig(**payload["config"])
        except ValueError as exc:
            raise ValueError(f"config: {exc}") from None
        if expected_config is not None and config != expected_config:
            raise ValueError("checkpoint config does not match the expected config")

        joined = payload["vocab"]
        try:
            vocab = Vocabulary(joined.split("\n") if joined else (), config.m)
        except ValueError as exc:  # config.m >= 1, so it names the tokens
            raise ValueError(f"vocab: {exc}") from None
        if _vocab_hash(config.m, joined) != payload["vocab_hash"]:
            raise ValueError("vocabulary hash mismatch (corrupt checkpoint)")

        emb = payload["embedding"]
        if emb["mode"] not in MODES:
            raise ValueError(f"embedding.mode: unknown mode {emb['mode']!r}")
        layout, n_table = param_layout(config), (vocab.size + 1) * config.p
        vec = _read_sidecar(path.with_suffix(".npy"), payload["sidecar_sha256"],
                            n_table + layout.size)
    except ValueError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    table = EmbeddingTable(matrix=vec[:n_table].reshape(-1, config.p), mode=emb["mode"],
                           pretrained_hit_count=emb["pretrained_hit_count"])
    return Checkpoint(
        config=config, vocab=vocab, table=table,
        params=ModelParameters.from_flat(vec[n_table:], layout),
        training_meta=payload["training_meta"],
    )
