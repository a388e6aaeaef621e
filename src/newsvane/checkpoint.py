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
from .fileio import CONVERTERS, open_atomic, read_json, strict_int, strict_str, write_json_atomic
from .network import ModelConfig, ModelParameters, param_layout
from .text import Vocabulary, tokens_by_index, tokens_hash

FORMAT_VERSION = 3

# The keys of each section; any other key is rejected on load, so a stale or
# misspelt field is an error and not silently ignored. ``config`` holds the
# ModelConfig fields and ``training_meta`` is free-form.
_KEYS: dict[str, tuple[str, ...]] = {
    "": ("format_version", "config", "vocab", "vocab_hash", "embedding", "sidecar",
         "training_meta"),
    "vocab": ("tokens", "max_len"),
    "embedding": ("mode", "p", "pretrained_hit_count"),
    "sidecar": ("name", "sha256"),
}


class CheckpointError(ValueError):
    pass


def _value(section: dict, key: str, convert, path: str | Path, field: str):
    """``convert(section[key])``, or a CheckpointError naming ``field``."""
    if key not in section:
        raise CheckpointError(f"{path}: {field}: missing")
    try:
        return convert(section[key])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: {field}: invalid ({exc})") from None


def _no_unknown_keys(section: dict, known, path: str | Path, prefix: str) -> None:
    for key in section:
        if key not in known:
            raise CheckpointError(f"{path}: {prefix}{key}: unknown key")


def _section(payload: dict, name: str, path: str | Path) -> dict:
    """The object ``payload[name]``, holding no key outside ``_KEYS[name]``."""
    section = _value(payload, name, _as_object, path, name)
    _no_unknown_keys(section, _KEYS[name], path, f"{name}.")
    return section


def _as_object(value) -> dict:
    if not isinstance(value, dict):
        raise TypeError(f"expected an object, got {type(value).__name__}")
    return value


def _basename(value) -> str:
    """A file name with no directory part, so a checkpoint only names files beside it."""
    name = strict_str(value)
    if name in ("", ".", "..") or "/" in name or "\\" in name:
        raise ValueError(f"expected a plain file name, got {name!r}")
    return name


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


def _read_sidecar(path: Path, name: str, sha256: str, size: int) -> np.ndarray:
    """The float64 vector of ``size`` in the sidecar ``name`` beside ``path``,
    checked against ``sha256`` and its own header before its data is read."""
    try:
        with open(path.parent / name, "rb") as fh:
            digest = hashlib.sha256()
            # chunks stay below the pinned mmap threshold (see ``allocation``),
            # so each one reuses heap memory instead of mapping a fresh block
            while chunk := fh.read(1 << 18):
                digest.update(chunk)
            if digest.hexdigest() != sha256:
                raise CheckpointError(f"{path}: sidecar.sha256: does not match the file {name}")
            fh.seek(0)
            try:
                if npy_format.read_magic(fh) != (1, 0):
                    raise ValueError("not an .npy file of format 1.0")
                shape, _, dtype = npy_format.read_array_header_1_0(fh)
            except ValueError as exc:
                raise CheckpointError(f"{path}: sidecar: invalid ({exc})") from None
            if dtype != np.dtype("<f8") or shape != (size,):
                raise CheckpointError(
                    f"{path}: sidecar: {dtype} {list(shape)}, expected float64 [{size}]")
            vec = np.fromfile(fh, dtype="<f8", count=size)
            if vec.size != size or fh.read(1):
                raise CheckpointError(f"{path}: sidecar: data is not {size} float64 values")
    except OSError as exc:
        raise CheckpointError(f"{path}: sidecar.name: cannot read {name}: {exc.strerror or exc}") from None
    return vec


def _read_config(payload: dict, path: str | Path) -> ModelConfig:
    """The ``config`` section: exactly the ModelConfig fields, each of its JSON type."""
    section = _value(payload, "config", _as_object, path, "config")
    converters = {f.name: CONVERTERS[f.type] for f in fields(ModelConfig)}
    _no_unknown_keys(section, converters, path, "config.")
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
    """Write the sidecar ``path.with_suffix(".npy")``, then the JSON file ``path``.

    Raises CheckpointError for a path that ends in ``.npy`` (the JSON would
    replace its own sidecar), a token that is empty or contains a newline
    (the vocabulary is stored newline-joined) and arrays that are not float64.
    """
    path = Path(path)
    sidecar = path.with_suffix(".npy")
    if sidecar == path:
        raise CheckpointError(f"{path}: a checkpoint path must not end in .npy, its sidecar's suffix")
    tokens = tokens_by_index(vocab)
    for token in tokens:
        if not token or "\n" in token:
            raise CheckpointError(f"cannot save the token {token!r}: it is empty or holds a newline")
    arrays = (table.matrix, params.flat)
    for arr in arrays:
        if arr.dtype != np.float64:
            raise CheckpointError(f"unsupported dtype {arr.dtype}")
    payload = {
        "format_version": FORMAT_VERSION,
        "config": config.to_dict(),
        "vocab": {"tokens": "\n".join(tokens), "max_len": vocab.max_len},
        "vocab_hash": tokens_hash(tokens, vocab.max_len),
        "embedding": {
            "mode": table.mode,
            "p": table.p,
            "pretrained_hit_count": table.pretrained_hit_count,
        },
        "sidecar": {"name": sidecar.name, "sha256": _write_sidecar(sidecar, arrays)},
        "training_meta": training_meta or {},
    }
    write_json_atomic(path, payload)


def load_checkpoint(path: str | Path, expected_config: ModelConfig | None = None) -> Checkpoint:
    """Load and validate a checkpoint and its sidecar.

    Rejects other format versions (format 2 and older included), a section
    or value that is missing or of the wrong JSON type (naming the field), a
    key that no section of format 3 holds, an empty or repeated token,
    internal vocabulary-hash mismatches (corruption), a
    sidecar name with a directory part, a missing sidecar or one whose
    sha256 differs, a sidecar whose dtype or length disagrees with the
    configuration and vocabulary, and, when ``expected_config`` is given,
    any configuration disagreement.
    """
    path = Path(path)
    payload = read_json(path)
    if not isinstance(payload, dict):
        raise CheckpointError(f"{path}: expected a JSON object, got {type(payload).__name__}")
    if payload.get("format_version") != FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported checkpoint format {payload.get('format_version')!r} "
            f"(this version reads format {FORMAT_VERSION})"
        )
    _no_unknown_keys(payload, _KEYS[""], path, "")
    config = _read_config(payload, path)
    if expected_config is not None and config != expected_config:
        raise CheckpointError(f"{path}: checkpoint config does not match the expected config")

    vocab_section = _section(payload, "vocab", path)
    joined = _value(vocab_section, "tokens", strict_str, path, "vocab.tokens")
    tokens = joined.split("\n") if joined else []
    if "" in tokens:
        raise CheckpointError(f"{path}: vocab.tokens: empty token")
    vocab = Vocabulary(
        word_to_index={tok: i + 1 for i, tok in enumerate(tokens)},
        max_len=_value(vocab_section, "max_len", strict_int, path, "vocab.max_len"),
    )
    if vocab.size != len(tokens):
        raise CheckpointError(f"{path}: vocab.tokens: repeated token")
    stored_hash = _value(payload, "vocab_hash", strict_str, path, "vocab_hash")
    if tokens_hash(tokens, vocab.max_len) != stored_hash:
        raise CheckpointError(f"{path}: vocabulary hash mismatch (corrupt checkpoint)")
    if vocab.max_len != config.m:
        raise CheckpointError(f"{path}: vocab.max_len is {vocab.max_len}, but the config has m={config.m}")

    emb = _section(payload, "embedding", path)
    p = _value(emb, "p", strict_int, path, "embedding.p")
    if p != config.p:
        raise CheckpointError(f"{path}: embedding.p is {p}, but the config has p={config.p}")
    hits = _value(emb, "pretrained_hit_count", strict_int, path, "embedding.pretrained_hit_count")
    mode = _value(emb, "mode", strict_str, path, "embedding.mode")
    if mode not in MODES:
        raise CheckpointError(f"{path}: embedding.mode: unknown mode {mode!r}")
    sidecar = _section(payload, "sidecar", path)
    name = _value(sidecar, "name", _basename, path, "sidecar.name")
    sha256 = _value(sidecar, "sha256", strict_str, path, "sidecar.sha256")
    layout = param_layout(config)
    n_table = (len(tokens) + 1) * p
    vec = _read_sidecar(path, name, sha256, n_table + layout.size)
    table = EmbeddingTable(matrix=vec[:n_table].reshape(len(tokens) + 1, p), mode=mode, p=p,
                           pretrained_hit_count=hits)
    params = ModelParameters.from_flat(vec[n_table:], layout)
    return Checkpoint(
        config=config, vocab=vocab, table=table, params=params,
        vocab_hash=stored_hash,
        training_meta=_value(payload, "training_meta", _as_object, path, "training_meta"),
    )
