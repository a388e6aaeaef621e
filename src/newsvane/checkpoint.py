"""Versioned checkpoints for trained models: a JSON file and a raw sidecar.

``save_checkpoint(path, ...)`` writes the sidecar ``path.with_suffix(".npy")``,
one NumPy ``.npy`` file (format 1.0) holding a single little-endian float64
vector: the embedding table's rows, then the network parameters as one flat
vector. Then it writes the JSON file ``path`` (format 4): the model
configuration, the vocabulary as one newline-joined string with its content
hash, the table's mode and pretrained hit count, and the sidecar's sha256.
What the configuration fixes is derived, not stored: the parameter layout,
the table width ``config.p`` and the vocabulary's padded length ``config.m``.
Each file is written atomically, and saving the same state twice produces
byte-identical files. Loading checks every field and the sidecar's hash,
dtype and length against the configuration and vocabulary.
"""

from __future__ import annotations

import hashlib
import io
from dataclasses import dataclass, fields
from pathlib import Path

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
from .text import Vocabulary, vocabulary_hash

FORMAT_VERSION = 4


class CheckpointError(ValueError):
    pass


# The converter of every key of format 4, one mapping per section. Every key is
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


def _write_sidecar(path: Path, arrays: tuple[np.ndarray, ...]) -> str:
    """Write ``arrays`` end to end as one float64 .npy vector, atomically;
    returns the file's sha256."""
    header = io.BytesIO()
    npy_format.write_array_header_1_0(
        header, {"descr": "<f8", "fortran_order": False, "shape": (sum(a.size for a in arrays),)})
    digest = hashlib.sha256()
    with open_atomic(path) as fh:
        for chunk in (header.getvalue(), *(np.ascontiguousarray(a, dtype="<f8") for a in arrays)):
            digest.update(chunk)
            fh.write(chunk)
    return digest.hexdigest()


def _read_sidecar(path: Path, sha256: str, size: int) -> np.ndarray:
    """The float64 vector of ``size`` in the sidecar ``path``, checked against
    ``sha256`` and its own header before its data is read."""
    try:
        with open(path, "rb") as fh:
            digest = hashlib.sha256()
            # chunks stay below the pinned mmap threshold (see ``allocation``),
            # so each one reuses heap memory instead of mapping a fresh block
            while chunk := fh.read(1 << 18):
                digest.update(chunk)
            if digest.hexdigest() != sha256:
                raise ValueError(f"sidecar_sha256: does not match the file {path.name}")
            fh.seek(0)
            try:
                if npy_format.read_magic(fh) != (1, 0):
                    raise ValueError("not an .npy file of format 1.0")
                shape, _, dtype = npy_format.read_array_header_1_0(fh)
            except ValueError as exc:
                raise ValueError(f"sidecar: invalid ({exc})") from None
            if dtype != np.dtype("<f8") or shape != (size,):
                raise ValueError(f"sidecar: {dtype} {list(shape)}, expected float64 [{size}]")
            vec = np.fromfile(fh, dtype="<f8", count=size)
            if vec.size != size or fh.read(1):
                raise ValueError(f"sidecar: data is not {size} float64 values")
    except OSError as exc:
        raise ValueError(f"sidecar: cannot read {path.name}: {exc.strerror or exc}") from None
    return vec


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
    payload = {
        "format_version": FORMAT_VERSION,
        "config": config.to_dict(),
        "vocab": "\n".join(vocab.tokens),
        "vocab_hash": vocabulary_hash(vocab),
        "embedding": {"mode": table.mode, "pretrained_hit_count": table.pretrained_hit_count},
        "sidecar_sha256": _write_sidecar(sidecar, arrays),
        "training_meta": training_meta or {},
    }
    write_text_atomic(path, json_text(payload))


def load_checkpoint(path: str | Path, expected_config: ModelConfig | None = None) -> Checkpoint:
    """Load and validate a checkpoint and its sidecar ``path.with_suffix(".npy")``.

    ``read_object`` checks the JSON file against ``_FORMAT``, and every error
    is a CheckpointError naming the file and the field (``<path>:
    config.pool_w: ...``). It rejects other format versions (format 3 and
    older included), a section or value that is missing or of the wrong JSON
    type, a key that format 4 does not hold, an empty or repeated token, a
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
        if vocabulary_hash(vocab) != payload["vocab_hash"]:
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
