"""Versioned checkpoints for trained models: a JSON file and a raw sidecar.

``save_checkpoint(path, ...)`` writes two files. The sidecar
``path.with_suffix(".npy")`` is one NumPy ``.npy`` file (format 1.0) holding
a single little-endian float64 vector: the embedding table's rows, then the
network parameters as one flat vector, whose layout is derived from the
configuration rather than stored. The JSON file at ``path`` holds the model
configuration, the vocabulary as one newline-joined string (with its
content hash), the table's mode and the sidecar's file name and sha256. The
sidecar is written first and the JSON last, each atomically, and saving the
same state twice produces byte-identical files. Loading checks every field
and the sidecar's hash, dtype and length against the configuration and
vocabulary.
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

FORMAT_VERSION = 3


class CheckpointError(ValueError):
    pass


def _basename(value) -> str:
    """A file name with no directory part, so a checkpoint only names files beside it."""
    name = strict_str(value)
    if name in ("", ".", "..") or "/" in name or "\\" in name:
        raise ValueError(f"expected a plain file name, got {name!r}")
    return name


# The converter of every key of format 3, one mapping per section. Every key is
# required and any other is rejected on load, so a stale or misspelt field is an
# error, not silently ignored. ``training_meta`` is free-form.
_FORMAT = {
    "format_version": strict_int,
    "config": {f.name: CONVERTERS[f.type] for f in fields(ModelConfig)},
    "vocab": {"tokens": strict_str, "max_len": strict_int},
    "vocab_hash": strict_str,
    "embedding": {"mode": strict_str, "p": strict_int, "pretrained_hit_count": strict_int},
    "sidecar": {"name": _basename, "sha256": strict_str},
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
                raise ValueError(f"sidecar.sha256: does not match the file {path.name}")
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
        raise ValueError(f"sidecar.name: cannot read {path.name}: {exc.strerror or exc}") from None
    return vec


@dataclass
class Checkpoint:
    """A loaded checkpoint. Its stored vocabulary hash is checked on load, not
    kept: a run pairs a checkpoint with its data by comparing ``vocab``."""

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
    replace its own sidecar) and arrays that are not float64.
    """
    path = Path(path)
    sidecar = path.with_suffix(".npy")
    if sidecar == path:
        raise CheckpointError(f"{path}: a checkpoint path must not end in .npy, its sidecar's suffix")
    arrays = (table.matrix, params.flat)
    for arr in arrays:
        if arr.dtype != np.float64:
            raise CheckpointError(f"unsupported dtype {arr.dtype}")
    payload = {
        "format_version": FORMAT_VERSION,
        "config": config.to_dict(),
        "vocab": {"tokens": "\n".join(vocab.tokens), "max_len": vocab.max_len},
        "vocab_hash": vocabulary_hash(vocab),
        "embedding": {
            "mode": table.mode,
            "p": table.p,
            "pretrained_hit_count": table.pretrained_hit_count,
        },
        "sidecar": {"name": sidecar.name, "sha256": _write_sidecar(sidecar, arrays)},
        "training_meta": training_meta or {},
    }
    write_text_atomic(path, json_text(payload))


def load_checkpoint(path: str | Path, expected_config: ModelConfig | None = None) -> Checkpoint:
    """Load and validate a checkpoint and its sidecar.

    ``read_object`` checks the JSON file against ``_FORMAT``, and every error
    is a CheckpointError naming the file and the field (``<path>:
    config.pool_w: ...``). It rejects other format versions (format 2 and
    older included), a section or value that is missing or of the wrong JSON
    type, a key that format 3 does not hold, an empty or repeated token,
    internal vocabulary-hash mismatches (corruption), a sidecar name with a
    directory part, a missing sidecar or one whose sha256, dtype or length
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

        joined = payload["vocab"]["tokens"]
        try:
            vocab = Vocabulary(joined.split("\n") if joined else (), payload["vocab"]["max_len"])
        except ValueError as exc:  # it names vocab.tokens or vocab.max_len
            raise ValueError(f"vocab.{exc}") from None
        if vocabulary_hash(vocab) != payload["vocab_hash"]:
            raise ValueError("vocabulary hash mismatch (corrupt checkpoint)")
        if vocab.max_len != config.m:
            raise ValueError(f"vocab.max_len is {vocab.max_len}, but the config has m={config.m}")

        emb, sidecar = payload["embedding"], payload["sidecar"]
        p = emb["p"]
        if p != config.p:
            raise ValueError(f"embedding.p is {p}, but the config has p={config.p}")
        if emb["mode"] not in MODES:
            raise ValueError(f"embedding.mode: unknown mode {emb['mode']!r}")
        layout = param_layout(config)
        n_table = (vocab.size + 1) * p
        vec = _read_sidecar(path.parent / sidecar["name"], sidecar["sha256"], n_table + layout.size)
    except ValueError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    table = EmbeddingTable(matrix=vec[:n_table].reshape(vocab.size + 1, p), mode=emb["mode"],
                           pretrained_hit_count=emb["pretrained_hit_count"])
    return Checkpoint(
        config=config, vocab=vocab, table=table,
        params=ModelParameters.from_flat(vec[n_table:], layout),
        training_meta=payload["training_meta"],
    )
