"""Versioned JSON checkpoints for trained models.

A checkpoint is self-contained: model configuration, the vocabulary (with
its content hash), the embedding table and the network parameters as one
flat vector, whose layout is derived from the configuration rather than
stored. Arrays are stored as base64 of their raw little-endian float64
bytes, so saving the same state twice produces byte-identical files. Every
array is checked against the configuration and vocabulary on load.
"""

from __future__ import annotations

import base64
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .embeddings import MODES, EmbeddingTable
from .fileio import CONVERTERS, list_of, read_json, strict_int, strict_str, write_json_atomic
from .network import ModelConfig, ModelParameters, param_layout
from .text import Vocabulary, vocabulary_hash

FORMAT_VERSION = 2


class CheckpointError(ValueError):
    pass


def _encode_array(arr: np.ndarray) -> dict:
    arr = np.ascontiguousarray(arr)
    if arr.dtype != np.float64:
        raise CheckpointError(f"unsupported dtype {arr.dtype}")
    return {
        "dtype": str(arr.dtype),
        "shape": list(arr.shape),
        "data": base64.b64encode(arr.tobytes()).decode("ascii"),
    }


def _value(section: dict, key: str, convert, path: str | Path, field: str):
    """``convert(section[key])``, or a CheckpointError naming ``field``."""
    if key not in section:
        raise CheckpointError(f"{path}: {field}: missing")
    try:
        return convert(section[key])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: {field}: invalid ({exc})") from None


def _as_object(value) -> dict:
    if not isinstance(value, dict):
        raise TypeError(f"expected an object, got {type(value).__name__}")
    return value


def _decode_array(section: dict, key: str, path: str | Path, field: str,
                  shape: tuple[int, ...]) -> np.ndarray:
    """Decode a stored float64 array, rejecting any other structure, dtype or shape."""
    d = _value(section, key, _as_object, path, field)
    stored = (d.get("dtype"), d.get("shape"))
    if stored != ("float64", list(shape)):
        raise CheckpointError(f"{path}: {field}: {stored[0]} {stored[1]}, expected float64 {list(shape)}")
    raw = _value(d, "data", base64.b64decode, path, f"{field}.data")
    if len(raw) != 8 * math.prod(shape):
        raise CheckpointError(f"{path}: {field}: {len(raw)} data bytes, expected {8 * math.prod(shape)}")
    return np.frombuffer(raw, dtype=np.float64).reshape(shape).copy()


def _read_config(payload: dict, path: str | Path) -> ModelConfig:
    """The ``config`` section: exactly the ModelConfig fields, each of its JSON type."""
    section = _value(payload, "config", _as_object, path, "config")
    converters = {f.name: CONVERTERS[f.type] for f in fields(ModelConfig)}
    for key in section:
        if key not in converters:
            raise CheckpointError(f"{path}: config.{key}: unknown key")
    values = {name: _value(section, name, convert, path, f"config.{name}")
              for name, convert in converters.items()}
    try:
        return ModelConfig(**values)
    except ValueError as exc:
        raise CheckpointError(f"{path}: config: invalid ({exc})") from None


@dataclass
class Checkpoint:
    config: ModelConfig
    vocab: Vocabulary
    table: EmbeddingTable
    params: ModelParameters
    vocab_hash: str
    training_meta: dict


def save_checkpoint(
    path: str | Path,
    config: ModelConfig,
    vocab: Vocabulary,
    table: EmbeddingTable,
    params: ModelParameters,
    training_meta: dict | None = None,
) -> None:
    tokens = [w for w, _ in sorted(vocab.word_to_index.items(), key=lambda kv: kv[1])]
    payload = {
        "format_version": FORMAT_VERSION,
        "config": config.to_dict(),
        "vocab": {"tokens": tokens, "max_len": vocab.max_len},
        "vocab_hash": vocabulary_hash(vocab),
        "embedding": {
            "mode": table.mode,
            "p": table.p,
            "pretrained_hit_count": table.pretrained_hit_count,
            "matrix": _encode_array(table.matrix),
        },
        "params": _encode_array(params.flat),
        "training_meta": training_meta or {},
    }
    write_json_atomic(path, payload)


def load_checkpoint(path: str | Path, expected_config: ModelConfig | None = None) -> Checkpoint:
    """Load and validate a checkpoint.

    Rejects other format versions, a section, array or value that is
    missing or of the wrong JSON type (naming the field), internal
    vocabulary-hash mismatches (corruption), arrays whose dtype or shape
    disagrees with the configuration and vocabulary, and, when
    ``expected_config`` is given, any configuration disagreement.
    """
    payload = read_json(path)
    if not isinstance(payload, dict):
        raise CheckpointError(f"{path}: expected a JSON object, got {type(payload).__name__}")
    if payload.get("format_version") != FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported checkpoint format {payload.get('format_version')!r} "
            f"(this version reads format {FORMAT_VERSION})"
        )
    config = _read_config(payload, path)
    if expected_config is not None and config != expected_config:
        raise CheckpointError(f"{path}: checkpoint config does not match the expected config")

    vocab_section = _value(payload, "vocab", _as_object, path, "vocab")
    tokens = _value(vocab_section, "tokens", list_of(strict_str), path, "vocab.tokens")
    vocab = Vocabulary(
        word_to_index={tok: i + 1 for i, tok in enumerate(tokens)},
        max_len=_value(vocab_section, "max_len", strict_int, path, "vocab.max_len"),
    )
    stored_hash = _value(payload, "vocab_hash", strict_str, path, "vocab_hash")
    if vocabulary_hash(vocab) != stored_hash:
        raise CheckpointError(f"{path}: vocabulary hash mismatch (corrupt checkpoint)")
    if vocab.max_len != config.m:
        raise CheckpointError(f"{path}: vocab.max_len is {vocab.max_len}, but the config has m={config.m}")

    emb = _value(payload, "embedding", _as_object, path, "embedding")
    p = _value(emb, "p", strict_int, path, "embedding.p")
    if p != config.p:
        raise CheckpointError(f"{path}: embedding.p is {p}, but the config has p={config.p}")
    matrix = _decode_array(emb, "matrix", path, "embedding.matrix", (len(tokens) + 1, p))
    hits = _value(emb, "pretrained_hit_count", strict_int, path, "embedding.pretrained_hit_count")
    mode = _value(emb, "mode", strict_str, path, "embedding.mode")
    if mode not in MODES:
        raise CheckpointError(f"{path}: embedding.mode: unknown mode {mode!r}")
    table = EmbeddingTable(matrix=matrix, mode=mode, p=p, pretrained_hit_count=hits)
    layout = param_layout(config)
    params = ModelParameters.from_flat(
        _decode_array(payload, "params", path, "params", (layout.size,)), layout
    )
    return Checkpoint(
        config=config, vocab=vocab, table=table, params=params,
        vocab_hash=stored_hash,
        training_meta=_value(payload, "training_meta", _as_object, path, "training_meta"),
    )
