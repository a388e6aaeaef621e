"""Checkpoint serialization tests."""

import builtins
import dataclasses
import errno
import hashlib
import io
import json
import math
import os
import re
import tempfile
import threading
import tracemalloc
import types
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from newsvane import checkpoint
from newsvane.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from newsvane.embeddings import init_self_learnt
from newsvane.network import ModelConfig, init_parameters, param_layout
from newsvane.text import Vocabulary, vocabulary_to_text


def format_4_layout(payload: dict) -> dict:
    """The format-5 ``payload`` as format 4 wrote it: the same keys, with
    ``vocab_hash`` the sha256 of the vocabulary's ``token<TAB>index`` text."""
    m, joined = payload["config"]["m"], payload["vocab"]
    text = vocabulary_to_text(Vocabulary(joined.split("\n") if joined else (), m))
    return dict(payload, format_version=4, vocab_hash=hashlib.sha256(text.encode()).hexdigest())


def format_3_layout(payload: dict, sidecar_name: str) -> dict:
    """The format-5 ``payload`` laid out as format 3 wrote it: p, m and the
    sidecar's name stored beside the config, and the mode in ``training_meta`` too."""
    old = {key: value for key, value in payload.items() if key != "sidecar_sha256"}
    config, mode = payload["config"], payload["embedding"]["mode"]
    return dict(old, format_version=3,
                vocab={"tokens": payload["vocab"], "max_len": config["m"]},
                embedding=dict(payload["embedding"], p=config["p"]),
                sidecar={"name": sidecar_name, "sha256": payload["sidecar_sha256"]},
                training_meta=dict(payload["training_meta"], embedding_mode=mode))


def _model_bits(p: int = 4, extra_tokens: int = 0):
    vocab = Vocabulary(("alpha", "beta", "gamma", *(f"w{i}" for i in range(extra_tokens))),
                       max_len=5)
    config = ModelConfig(
        p=p, m=5, filter_widths=(2, 3), filters_per_width=2,
        hidden_sizes=(4, 2), dropout_rate=0.1, head="binary",
    )
    table = init_self_learnt(vocab, p, mean=0.0, std=0.1, seed=1)
    params = init_parameters(config, np.random.default_rng(2))
    return vocab, config, table, params


@pytest.fixture()
def model_bits():
    return _model_bits()


# A sidecar far below the 1 MiB from which its sha256 runs on a worker thread, and one
# above it: 1,400 tokens at p=100, about 1.1 MB.
SIDECAR_SIZES = {"inline": {}, "threaded": {"p": 100, "extra_tokens": 1397}}
# The threshold that sends every sidecar's hash to the worker, or keeps every one inline.
HASH_PATHS = {"worker": 0, "inline": math.inf}


@pytest.fixture(params=SIDECAR_SIZES)
def sized_bits(request):
    bits = _model_bits(**SIDECAR_SIZES[request.param])
    nbytes = 8 * (bits[2].matrix.size + bits[3].flat.size)
    assert (nbytes >= checkpoint._THREADED_HASH_BYTES) == (request.param == "threaded")
    return bits


@pytest.fixture()
def workers(monkeypatch):
    """The hash worker pools the checkpoint code starts, in order."""
    started = []

    class Recorded(checkpoint.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)
    monkeypatch.setattr(checkpoint, "ThreadPoolExecutor", Recorded)
    return started


class TestRoundtrip:
    def test_bit_exact(self, tmp_path, sized_bits, workers):
        vocab, config, table, params = sized_bits
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, config, vocab, table, params, training_meta={"seed": 9})
        ckpt = load_checkpoint(path)
        # a sidecar of 1 MiB or more is hashed on a worker thread as it is saved
        threaded = path.with_suffix(".npy").stat().st_size >= checkpoint._THREADED_HASH_BYTES
        assert len(workers) == threaded
        assert ckpt.config == config
        assert ckpt.vocab == vocab
        assert ckpt.table.matrix.tobytes() == table.matrix.tobytes()
        assert ckpt.table.mode == table.mode
        for (name_a, a), (name_b, b) in zip(ckpt.params.tensors(), params.tensors()):
            assert name_a == name_b
            assert a.tobytes() == b.tobytes()
        assert ckpt.training_meta == {"seed": 9}

    def test_byte_identical_saves(self, tmp_path, sized_bits, monkeypatch):
        """Twice over, and with the hash on the worker thread or inline."""
        vocab, config, table, params = sized_bits
        for run in ("a", "b"):
            save_checkpoint(tmp_path / run / "ckpt.json", config, vocab, table, params)
        for run, threshold in HASH_PATHS.items():
            monkeypatch.setattr(checkpoint, "_THREADED_HASH_BYTES", threshold)
            save_checkpoint(tmp_path / run / "ckpt.json", config, vocab, table, params)
        for name in ("ckpt.json", "ckpt.npy"):
            for run in ("b", *HASH_PATHS):
                assert (tmp_path / "a" / name).read_bytes() == (tmp_path / run / name).read_bytes()

    def test_sidecar_is_one_npy_vector(self, tmp_path, sized_bits):
        """The sidecar is what np.save writes for the table rows followed by
        the parameter vector, and the JSON holds its sha256."""
        vocab, config, table, params = sized_bits
        save_checkpoint(tmp_path / "ckpt.json", config, vocab, table, params)
        buf = io.BytesIO()
        np.save(buf, np.concatenate([table.matrix.ravel(), params.flat]), allow_pickle=False)
        raw = (tmp_path / "ckpt.npy").read_bytes()
        assert raw == buf.getvalue()
        payload = json.loads((tmp_path / "ckpt.json").read_text())
        assert payload["sidecar_sha256"] == hashlib.sha256(raw).hexdigest()
        assert payload["vocab"] == "\n".join(vocab.tokens)
        assert payload["vocab"].startswith("alpha\nbeta\ngamma")

    def test_format_5_stores_nothing_the_config_fixes(self, tmp_path, model_bits):
        """p, m and the sidecar's name come from the config and the path, so
        the file holds exactly these keys."""
        vocab, config, table, params = model_bits
        save_checkpoint(tmp_path / "ckpt.json", config, vocab, table, params)
        payload = json.loads((tmp_path / "ckpt.json").read_text())
        assert payload.keys() == {"format_version", "config", "vocab", "vocab_hash", "embedding",
                                  "sidecar_sha256", "training_meta"}
        assert payload["format_version"] == 5
        assert payload["embedding"].keys() == {"mode", "pretrained_hit_count"}

    def test_renamed_pair_loads(self, tmp_path, model_bits):
        """The sidecar is the file beside the JSON with its suffix, whatever the name."""
        vocab, config, table, params = model_bits
        save_checkpoint(tmp_path / "ckpt.json", config, vocab, table, params)
        for suffix in (".json", ".npy"):
            (tmp_path / f"ckpt{suffix}").rename(tmp_path / f"renamed{suffix}")
        ckpt = load_checkpoint(tmp_path / "renamed.json", expected_config=config)
        assert ckpt.vocab == vocab
        assert ckpt.table.matrix.tobytes() == table.matrix.tobytes()
        assert ckpt.params.flat.tobytes() == params.flat.tobytes()

    @pytest.mark.parametrize("p, max_len", [(3, 5), (4, 6)], ids=["table-p", "vocab-max-len"])
    def test_state_disagreeing_with_config_refused(self, tmp_path, model_bits, p, max_len):
        """The file stores only the config's p and m, so a table or vocabulary
        that disagrees with them is refused before anything is written."""
        vocab, config, _, params = model_bits
        vocab = Vocabulary(vocab.tokens, max_len=max_len)
        table = init_self_learnt(vocab, p, mean=0.0, std=0.1, seed=1)
        with pytest.raises(CheckpointError, match=f"^table p={p} and max_len={max_len} are not "
                                                  "the config's$"):
            save_checkpoint(tmp_path / "ckpt.json", config, vocab, table, params)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("tokens", [(), ("solo",), ("a b", "tab\there", "ünï", "cr\r")],
                             ids=["empty", "one-token", "odd-tokens"])
    def test_vocabulary_edge_cases_roundtrip(self, tmp_path, tokens):
        vocab = Vocabulary(tokens, max_len=4)
        config = ModelConfig(p=2, m=4, filter_widths=(2,), filters_per_width=2,
                             hidden_sizes=(3, 1), dropout_rate=0.0, head="binary")
        table = init_self_learnt(vocab, 2, mean=0.0, std=0.1, seed=3)
        params = init_parameters(config, np.random.default_rng(3))
        save_checkpoint(tmp_path / "ckpt.json", config, vocab, table, params)
        ckpt = load_checkpoint(tmp_path / "ckpt.json", expected_config=config)
        assert ckpt.vocab == vocab
        assert ckpt.table.matrix.tobytes() == table.matrix.tobytes()
        assert ckpt.params.flat.tobytes() == params.flat.tobytes()

    @pytest.mark.parametrize("token", ["", "two\nlines"], ids=["empty", "newline"])
    def test_unstorable_token_refused(self, token):
        """A token the newline-joined list cannot store never reaches
        ``save_checkpoint``: the vocabulary refuses it when it is built."""
        with pytest.raises(ValueError, match="^tokens: .*(empty token|newline)"):
            Vocabulary(("alpha", token, "gamma"), max_len=5)

    def test_npy_path_refused(self, tmp_path, model_bits):
        """The JSON file would replace its own sidecar."""
        vocab, config, table, params = model_bits
        with pytest.raises(CheckpointError, match=r"\.npy"):
            save_checkpoint(tmp_path / "ckpt.npy", config, vocab, table, params)

    def test_expected_config_mismatch_rejected(self, tmp_path, model_bits):
        vocab, config, table, params = model_bits
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, config, vocab, table, params)
        other = dataclasses.replace(config, dropout_rate=0.5)
        with pytest.raises(CheckpointError, match="config"):
            load_checkpoint(path, expected_config=other)

    def test_unknown_version_rejected(self, tmp_path, model_bits):
        vocab, config, table, params = model_bits
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, config, vocab, table, params)
        payload = json.loads(path.read_text())
        for version in (1, 2, 99):  # 1 and 2 are the retired all-JSON formats
            payload["format_version"] = version
            path.write_text(json.dumps(payload))
            with pytest.raises(CheckpointError, match=f"format {version}"):
                load_checkpoint(path)

    @pytest.mark.parametrize("version, layout", [
        (3, lambda pl: format_3_layout(pl, "ckpt.npy")), (4, format_4_layout)],
        ids=["format-3", "format-4"])
    def test_older_format_rejected(self, tmp_path, model_bits, version, layout):
        """A file laid out as format 3 or 4 wrote it, with the hash that format stored."""
        vocab, config, table, params = model_bits
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, config, vocab, table, params, training_meta={"seed": 9})
        path.write_text(json.dumps(layout(json.loads(path.read_text()))))
        with pytest.raises(CheckpointError, match=re.escape(
                f"{path}: unsupported checkpoint format {version} (this version reads format 5)")):
            load_checkpoint(path)

    @pytest.mark.parametrize("tamper", [
        lambda pl: pl.update(vocab="beta\nalpha\ngamma"),
        lambda pl: pl.update(vocab=pl["vocab"].replace("alpha", "tampered")),
        lambda pl: pl.update(vocab="alpha\nbeta\ngamma\ndelta"),
        lambda pl: pl.update(vocab="alpha\ngamma"),
    ], ids=["swapped", "edited", "appended", "removed"])
    def test_tampered_vocab_detected(self, tmp_path, model_bits, tamper):
        """Each edit leaves a valid vocabulary, which the stored digest refuses (an edited
        ``config.m`` is ``TestValidation``'s ``max-len`` case)."""
        vocab, config, table, params = model_bits
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, config, vocab, table, params)
        _rewrite(path, lambda pl, _: tamper(pl))
        with pytest.raises(CheckpointError, match=re.escape(
                f"{path}: vocabulary hash mismatch (corrupt checkpoint)")):
            load_checkpoint(path)


def _rewrite(path: Path, tamper) -> None:
    """Apply ``tamper(payload, sidecar_path)`` to a saved checkpoint."""
    payload = json.loads(path.read_text())
    tamper(payload, path.with_suffix(".npy"))
    path.write_text(json.dumps(payload))


def _npy(vec: np.ndarray) -> bytes:
    buf = io.BytesIO()
    np.save(buf, vec, allow_pickle=vec.dtype == object)
    return buf.getvalue()


def _sidecar(edit):
    """A tamper that replaces the sidecar with ``edit(vector, raw bytes)``
    and records the new file's sha256, so the checks behind the hash run."""
    def tamper(payload, sidecar):
        raw = sidecar.read_bytes()
        new = edit(np.load(io.BytesIO(raw), allow_pickle=False), raw)
        sidecar.write_bytes(new)
        payload["sidecar_sha256"] = hashlib.sha256(new).hexdigest()
    return tamper


def _repadded(raw: bytes) -> bytes:
    """The .npy file ``raw`` with its header padded 64 bytes further than ``np.save`` pads it."""
    end = 10 + int.from_bytes(raw[8:10], "little")
    longer = raw[10:end - 1] + b" " * 64 + b"\n"
    return raw[:8] + len(longer).to_bytes(2, "little") + longer + raw[end:]


class TestValidation:
    """A checkpoint whose arrays contradict its config or vocabulary is
    rejected on load, naming the field, instead of failing later."""

    @pytest.mark.parametrize("field, tamper", [
        (": sidecar: ", _sidecar(lambda vec, _: _npy(vec[:-1]))),
        (": sidecar: ", _sidecar(lambda vec, _: _npy(vec.astype(np.float32)))),
        (": sidecar: ", _sidecar(lambda vec, _: _npy(vec[2 * 4:]))),  # two table rows short
        (": sidecar: ", _sidecar(lambda _, raw: raw[:-8])),
        (": sidecar: ", lambda pl, _: pl["config"].update(p=7)),  # the table is p wide
        ("vocabulary hash mismatch", lambda pl, _: pl["config"].update(m=4)),  # it hashes m
    ], ids=["params-length", "params-dtype", "table-rows", "table-bytes", "embedding-p", "max-len"])
    def test_contradicting_array_rejected(self, tmp_path, model_bits, field, tamper):
        vocab, config, table, params = model_bits
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, config, vocab, table, params)
        _rewrite(path, tamper)
        with pytest.raises(CheckpointError, match=field):
            load_checkpoint(path)

    @pytest.mark.parametrize("field, tamper", [
        ("sidecar_sha256", lambda pl: pl.update(sidecar_sha256={"sha256": "AAAA"})),
        ("sidecar_sha256", lambda pl: pl.pop("sidecar_sha256")),
        ("sidecar_sha256", lambda pl: pl.update(sidecar_sha256=7)),
        ("config", lambda pl: pl.update(config=[4, 5])),
        ("config.p", lambda pl: pl["config"].pop("p")),
        ("config.pool_w", lambda pl: pl["config"].pop("pool_w")),  # no second defaults table
        ("config.filters_per_width", lambda pl: pl["config"].update(filters_per_width=2.9)),
        ("config.filter_widths", lambda pl: pl["config"].update(filter_widths="34")),
        ("config.dropout_rate", lambda pl: pl["config"].update(dropout_rate="0.0")),
        ("config.pool", lambda pl: pl["config"].update(pool=2)),
        ("config.m", lambda pl: pl["config"].update(m=8.7)),
        ("config", lambda pl: pl["config"].update(m=0)),
        ("embedding.pretrained_hit_count",
         lambda pl: pl["embedding"].update(pretrained_hit_count="7")),
        ("vocab", lambda pl: pl.pop("vocab")),
        ("vocab", lambda pl: pl.update(vocab="alpha\n\ngamma")),
        ("vocab", lambda pl: pl.update(vocab=["alpha", "beta", "gamma"])),
        ("embedding", lambda pl: pl.update(embedding="matrix")),
        # format 3's sidecar section in place of the hash
        ("sidecar_sha256", lambda pl: pl.update(sidecar={"sha256": pl.pop("sidecar_sha256")})),
        ("embedding.mode", lambda pl: pl["embedding"].update(mode="frozen")),
        ("training_meta", lambda pl: pl.update(training_meta=3)),
    ], ids=["sidecar-str", "sidecar-no-sha256", "sidecar-name-int", "config-list", "config-no-p",
            "config-no-pool-w", "config-fractional-int", "config-str-widths",
            "config-str-dropout", "config-unknown-key", "max-len-fraction", "max-len-zero", "hits-str",
            "no-vocab", "tokens-str", "tokens-list", "embedding-str", "no-sidecar", "mode",
            "meta-int"])
    def test_malformed_structure_rejected(self, tmp_path, model_bits, field, tamper):
        vocab, config, table, params = model_bits
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, config, vocab, table, params)
        payload = json.loads(path.read_text())
        tamper(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match=f": {field}: "):
            load_checkpoint(path)

    @pytest.mark.parametrize("field, tamper", [
        ("params", lambda pl: pl.update(params={"W1": [[0.0]]})),  # a stale format-2 key
        ("embedding.matrix", lambda pl: pl["embedding"].update(matrix=[[0.0] * 4] * 4)),
        ("sidecar_sha265", lambda pl: pl.update(sidecar_sha265=pl["sidecar_sha256"])),
        ("vocab_size", lambda pl: pl.update(vocab_size=3)),
        # format 3's copies of what the config fixes
        ("embedding.p", lambda pl: pl["embedding"].update(p=pl["config"]["p"])),
        ("sidecar", lambda pl: pl.update(sidecar={"name": "ckpt.npy"})),
    ], ids=["format-2-params", "embedding-matrix", "misspelt-sidecar-key", "vocab-size",
            "format-3-embedding-p", "format-3-sidecar-name"])
    def test_unknown_key_rejected(self, tmp_path, model_bits, field, tamper):
        vocab, config, table, params = model_bits
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, config, vocab, table, params)
        _rewrite(path, lambda pl, _: tamper(pl))
        with pytest.raises(CheckpointError, match=f": {field}: unknown key$"):
            load_checkpoint(path)

    def test_training_meta_is_free_form(self, tmp_path, model_bits):
        vocab, config, table, params = model_bits
        path = tmp_path / "ckpt.json"
        meta = {"seed": 9, "anything": {"nested": [1, 2]}}
        save_checkpoint(path, config, vocab, table, params, training_meta=meta)
        assert load_checkpoint(path).training_meta == meta

    def test_repeated_token_rejected(self, tmp_path, model_bits):
        vocab, config, table, params = model_bits
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, config, vocab, table, params)
        _rewrite(path, lambda pl, _: pl.update(vocab="alpha\nbeta\nalpha"))
        with pytest.raises(CheckpointError, match=": vocab: tokens: repeated token"):
            load_checkpoint(path)

    def test_vocab_hash_is_pinned(self, tmp_path, model_bits):
        """The stored hash is the sha256 of a ``max_len=<m>`` line and the stored
        ``vocab`` string, so an edited ``config.m`` reads as corruption."""
        vocab, config, table, params = model_bits
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, config, vocab, table, params)
        pinned = "7d717bf4f1cbc90fe4b6606598c5f7e39ac6ae380258d98ab5fd6a84b4bdcf51"
        assert json.loads(path.read_text())["vocab_hash"] == pinned
        assert pinned == hashlib.sha256(b"max_len=5\nalpha\nbeta\ngamma").hexdigest()
        ckpt = load_checkpoint(path)  # the stored hash is checked here, then not kept
        assert not hasattr(ckpt, "vocab_hash")
        assert ckpt.vocab == vocab

    def test_vocab_hash_of_non_ascii_tokens_is_pinned(self, tmp_path):
        """The digest reads the tokens as UTF-8, in index order."""
        vocab = Vocabulary(("surge", "slump", "café", "q4"), max_len=12)
        config = ModelConfig(p=2, m=12, filter_widths=(2,), filters_per_width=2,
                             hidden_sizes=(3, 1), dropout_rate=0.0, head="binary")
        table = init_self_learnt(vocab, 2, mean=0.0, std=0.1, seed=3)
        params = init_parameters(config, np.random.default_rng(3))
        save_checkpoint(tmp_path / "ckpt.json", config, vocab, table, params)
        pinned = "8f7a546637039ef85ee552a14ce7f7619cf6bca12606a07ce816e10177ba9cd1"
        assert json.loads((tmp_path / "ckpt.json").read_text())["vocab_hash"] == pinned
        assert pinned == hashlib.sha256("max_len=12\nsurge\nslump\ncafé\nq4".encode()).hexdigest()
        assert load_checkpoint(tmp_path / "ckpt.json").vocab == vocab

    def test_non_object_file_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text("[]")
        with pytest.raises(CheckpointError, match="expected a JSON object"):
            load_checkpoint(path)


class TestSidecar:
    """Each way the sidecar can disagree with its JSON file is rejected on
    load with a CheckpointError naming the field. The sidecar is always the
    file beside the JSON: a ``sidecar`` section naming another file, as
    format 3 stored one, is an unknown key, and that file is never opened."""

    @pytest.mark.parametrize("match, tamper", [
        ("sidecar: cannot read ckpt.npy", lambda pl, sidecar: sidecar.unlink()),
        ("sidecar_sha256: does not match",
         lambda pl, sidecar: sidecar.write_bytes(sidecar.read_bytes()[:-1] + b"?")),
        ("sidecar: unknown key", lambda pl, _: pl.update(sidecar={"name": "sub/ckpt.npy"})),
        ("sidecar: unknown key", lambda pl, _: pl.update(sidecar={"name": "../ckpt.npy"})),
        ("sidecar: unknown key", lambda pl, sidecar: pl.update(sidecar={"name": str(sidecar)})),
        ("sidecar: unknown key", lambda pl, _: pl.update(sidecar={"name": "sub\\ckpt.npy"})),
        ("sidecar: unknown key", lambda pl, _: pl.update(sidecar={"name": ".."})),
        ("sidecar: unknown key", lambda pl, _: pl.update(sidecar={"name": ""})),
        ("sidecar: ", _sidecar(lambda _, raw: raw + bytes(8))),
        ("sidecar: ", _sidecar(lambda _, raw: b"not an npy file")),
        ("sidecar: ", _sidecar(lambda vec, _: _npy(vec.astype(">f8")))),
        ("sidecar: ", _sidecar(lambda vec, _: _npy(vec.reshape(-1, 1)))),
        ("sidecar: ", _sidecar(lambda vec, _: _npy(vec.astype(object)))),
        ("sidecar: data is not", _sidecar(lambda _, raw: _repadded(raw)[:-64])),
    ], ids=["missing-file", "wrong-hash", "subdirectory", "parent-directory", "absolute",
            "backslash", "dotdot", "empty-name", "trailing-bytes", "not-npy", "big-endian",
            "two-dimensional", "object-dtype", "longer-header-short-data"])
    def test_rejected(self, tmp_path, sized_bits, monkeypatch, match, tamper):
        vocab, config, table, params = sized_bits
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, config, vocab, table, params)
        (tmp_path / "sub").mkdir()
        save_checkpoint(tmp_path / "sub" / "ckpt.json", config, vocab, table, params)
        _rewrite(path, tamper)
        opened, real_open = [], builtins.open
        monkeypatch.setattr(builtins, "open",
                            lambda file, *a, **k: opened.append(file) or real_open(file, *a, **k))
        with pytest.raises(CheckpointError, match=f": {match}"):
            load_checkpoint(path)
        monkeypatch.undo()
        # a file holding a sidecar section is refused before any sidecar is opened
        sidecars = [] if match.endswith("unknown key") else [path.with_suffix(".npy")]
        assert opened == [path, *sidecars]

    def test_longer_header_loads(self, tmp_path, sized_bits):
        """A valid header padded further than ``np.save`` pads it still loads."""
        vocab, config, table, params = sized_bits
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, config, vocab, table, params)
        _rewrite(path, _sidecar(lambda _, raw: _repadded(raw)))
        ckpt = load_checkpoint(path)
        assert ckpt.table.matrix.tobytes() == table.matrix.tobytes()
        assert ckpt.params.flat.tobytes() == params.flat.tobytes()
        assert ckpt.params.flat.flags.writeable

    def test_npy_format_2_rejected(self, tmp_path, sized_bits):
        vocab, config, table, params = sized_bits
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, config, vocab, table, params)

        def version_2(vec, _):
            buf = io.BytesIO()
            np.lib.format.write_array(buf, vec, version=(2, 0))
            return buf.getvalue()
        _rewrite(path, _sidecar(version_2))
        with pytest.raises(CheckpointError, match=": sidecar: invalid"):
            load_checkpoint(path)


class _FullDisk:
    """A file whose writes after the first raise ENOSPC."""

    def __init__(self, fh):
        self.fh, self.writes = fh, 0

    def write(self, data):
        self.writes += 1
        if self.writes > 1:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return self.fh.write(data)


class _FailingReads:
    """An open file whose ``readinto`` raises EIO."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def fileno(self):
        return self.fh.fileno()

    def readinto(self, buf):
        raise OSError(errno.EIO, os.strerror(errno.EIO))


class TestHashWorker:
    """A sidecar of 1 MiB or more is hashed on one worker thread as it is saved. A
    failed write joins it and leaves no file behind, an error on the worker fails the
    save before its JSON is written, a failed read is reported as one, and a sidecar
    shorter than its JSON claims is never given a buffer that long."""

    def test_failed_write_leaves_nothing(self, tmp_path, monkeypatch, workers):
        vocab, config, table, params = _model_bits(**SIDECAR_SIZES["threaded"])
        baseline, real_open_atomic = threading.active_count(), checkpoint.open_atomic

        @contextmanager
        def full_disk(path):  # the header is written, the table is not
            with real_open_atomic(path) as fh:
                yield _FullDisk(fh)
        monkeypatch.setattr(checkpoint, "open_atomic", full_disk)
        with pytest.raises(OSError) as err:
            save_checkpoint(tmp_path / "ckpt.json", config, vocab, table, params)
        assert (err.value.errno, err.value.filename) == (errno.ENOSPC, str(tmp_path / "ckpt.npy"))
        assert list(tmp_path.iterdir()) == []
        assert len(workers) == 1 and threading.active_count() == baseline

    def test_failed_hash_fails_the_save(self, tmp_path, monkeypatch, workers):
        """An error raised on the worker is raised by the save, which writes no JSON."""
        vocab, config, table, params = _model_bits(**SIDECAR_SIZES["threaded"])
        baseline = threading.active_count()

        class FailingOnWorkers:
            """sha256 that fails on any thread but the main one, where the vocabulary is hashed."""

            def __init__(self, data=b""):
                self.digest = hashlib.sha256(data)

            def update(self, chunk):
                if threading.current_thread() is not threading.main_thread():
                    raise RuntimeError(f"digest failed on {threading.current_thread().name}")
                self.digest.update(chunk)

            def hexdigest(self):
                return self.digest.hexdigest()
        monkeypatch.setattr(checkpoint, "hashlib", types.SimpleNamespace(sha256=FailingOnWorkers))
        with pytest.raises(RuntimeError, match="^digest failed on sidecar-sha256"):
            save_checkpoint(tmp_path / "ckpt.json", config, vocab, table, params)
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.npy"]
        assert len(workers) == 1 and threading.active_count() == baseline

    def test_failed_read_cannot_be_read(self, tmp_path, monkeypatch, workers):
        vocab, config, table, params = _model_bits(**SIDECAR_SIZES["threaded"])
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, config, vocab, table, params)
        baseline, real_open = threading.active_count(), builtins.open
        monkeypatch.setattr(builtins, "open", lambda file, *a, **k: (
            _FailingReads(real_open(file, *a, **k)) if file == path.with_suffix(".npy")
            else real_open(file, *a, **k)))
        with pytest.raises(CheckpointError, match=re.escape(
                f"{path}: sidecar: cannot read ckpt.npy: {os.strerror(errno.EIO)}")):
            load_checkpoint(path)
        assert len(workers) == 1 and threading.active_count() == baseline

    def test_claimed_length_is_not_allocated(self, tmp_path):
        """A config claiming a table 1,000 times the file's size is refused as
        a sidecar of the wrong length, having allocated less than twice the file."""
        vocab, config, table, params = _model_bits(**SIDECAR_SIZES["threaded"])
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, config, vocab, table, params)
        _rewrite(path, lambda pl, _: pl["config"].update(p=100_000))
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointError, match=r": sidecar: float64 \[\d+\], "
                                                      r"expected float64 \[\d+\]$"):
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * path.with_suffix(".npy").stat().st_size


@st.composite
def _model_configs(draw):
    m = draw(st.integers(2, 7))
    p = draw(st.integers(1, 4))
    widths = tuple(draw(st.lists(st.integers(2, m), min_size=1, max_size=3, unique=True)))
    filters_per_width = draw(st.integers(1, 3))
    pool_w = draw(st.integers(1, 3))
    z_len = sum(filters_per_width * -(-(m - h + 1) // pool_w) for h in widths)
    assume(z_len >= 3)
    l1 = draw(st.integers(2, z_len - 1))
    l2 = draw(st.integers(1, l1 - 1))
    return ModelConfig(
        p=p, m=m, filter_widths=widths, filters_per_width=filters_per_width, pool_w=pool_w,
        hidden_sizes=(l1, l2), dropout_rate=draw(st.sampled_from([0.0, 0.25])),
        head=draw(st.sampled_from(["binary", "multiclass3"])),
    )


@settings(max_examples=30, deadline=None)
@given(config=_model_configs(), seed=st.integers(0, 2**16))
def test_roundtrip_bit_exact_for_random_layouts(config, seed):
    vocab = Vocabulary(("alpha", "beta"), max_len=config.m)
    table = init_self_learnt(vocab, config.p, mean=0.0, std=0.1, seed=seed)
    params = init_parameters(config, np.random.default_rng(seed))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ckpt.json"
        save_checkpoint(path, config, vocab, table, params)
        ckpt = load_checkpoint(path, expected_config=config)
    assert ckpt.params.flat.tobytes() == params.flat.tobytes()
    assert ckpt.table.matrix.tobytes() == table.matrix.tobytes()
    assert [n for n, _ in ckpt.params.tensors()] == [n for n, _ in params.tensors()]
    # every tensor is a view of the one flat vector
    for k, (_, view) in enumerate(ckpt.params.tensors()):
        view.reshape(-1)[-1] = 1000.0 + k
        assert ckpt.params.flat[ckpt.params.layout.starts[k] + view.size - 1] == 1000.0 + k
