"""Checkpoint serialization tests."""

import dataclasses
import hashlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from newsvane.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from newsvane.embeddings import init_self_learnt
from newsvane.network import ModelConfig, init_parameters, param_layout
from newsvane.text import Vocabulary


@pytest.fixture()
def model_bits():
    vocab = Vocabulary(("alpha", "beta", "gamma"), max_len=5)
    config = ModelConfig(
        p=4, m=5, filter_widths=(2, 3), filters_per_width=2,
        hidden_sizes=(4, 2), dropout_rate=0.1, head="binary",
    )
    table = init_self_learnt(vocab, 4, mean=0.0, std=0.1, seed=1)
    params = init_parameters(config, np.random.default_rng(2))
    return vocab, config, table, params


class TestRoundtrip:
    def test_bit_exact(self, tmp_path, model_bits):
        vocab, config, table, params = model_bits
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, config, vocab, table, params, training_meta={"seed": 9})
        ckpt = load_checkpoint(path)
        assert ckpt.config == config
        assert ckpt.vocab == vocab
        assert ckpt.table.matrix.tobytes() == table.matrix.tobytes()
        assert ckpt.table.mode == table.mode
        for (name_a, a), (name_b, b) in zip(ckpt.params.tensors(), params.tensors()):
            assert name_a == name_b
            assert a.tobytes() == b.tobytes()
        assert ckpt.training_meta == {"seed": 9}

    def test_byte_identical_saves(self, tmp_path, model_bits):
        vocab, config, table, params = model_bits
        for run in ("a", "b"):
            save_checkpoint(tmp_path / run / "ckpt.json", config, vocab, table, params)
        for name in ("ckpt.json", "ckpt.npy"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_sidecar_is_one_npy_vector(self, tmp_path, model_bits):
        """The sidecar is what np.save writes for the table rows followed by
        the parameter vector, and the JSON names it and its sha256."""
        vocab, config, table, params = model_bits
        save_checkpoint(tmp_path / "ckpt.json", config, vocab, table, params)
        buf = io.BytesIO()
        np.save(buf, np.concatenate([table.matrix.ravel(), params.flat]), allow_pickle=False)
        raw = (tmp_path / "ckpt.npy").read_bytes()
        assert raw == buf.getvalue()
        payload = json.loads((tmp_path / "ckpt.json").read_text())
        assert payload["sidecar"] == {"name": "ckpt.npy", "sha256": hashlib.sha256(raw).hexdigest()}
        assert payload["vocab"]["tokens"] == "alpha\nbeta\ngamma"

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

    def test_tampered_vocab_detected(self, tmp_path, model_bits):
        vocab, config, table, params = model_bits
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, config, vocab, table, params)
        payload = json.loads(path.read_text())
        payload["vocab"]["tokens"] = payload["vocab"]["tokens"].replace("alpha", "tampered")
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="hash"):
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
        payload["sidecar"]["sha256"] = hashlib.sha256(new).hexdigest()
    return tamper


class TestValidation:
    """A checkpoint whose arrays contradict its config or vocabulary is
    rejected on load, naming the field, instead of failing later."""

    @pytest.mark.parametrize("field, tamper", [
        (": sidecar: ", _sidecar(lambda vec, _: _npy(vec[:-1]))),
        (": sidecar: ", _sidecar(lambda vec, _: _npy(vec.astype(np.float32)))),
        (": sidecar: ", _sidecar(lambda vec, _: _npy(vec[2 * 4:]))),  # two table rows short
        (": sidecar: ", _sidecar(lambda _, raw: raw[:-8])),
        ("embedding.p", lambda pl, _: pl["embedding"].update(p=7)),
        ("vocab.max_len", lambda pl, _: pl["config"].update(m=4)),
    ], ids=["params-length", "params-dtype", "table-rows", "table-bytes", "embedding-p", "max-len"])
    def test_contradicting_array_rejected(self, tmp_path, model_bits, field, tamper):
        vocab, config, table, params = model_bits
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, config, vocab, table, params)
        _rewrite(path, tamper)
        with pytest.raises(CheckpointError, match=field):
            load_checkpoint(path)

    @pytest.mark.parametrize("field, tamper", [
        ("sidecar", lambda pl: pl.update(sidecar="AAAA")),
        ("sidecar.sha256", lambda pl: pl["sidecar"].pop("sha256")),
        ("sidecar.name", lambda pl: pl["sidecar"].update(name=7)),
        ("config", lambda pl: pl.update(config=[4, 5])),
        ("config.p", lambda pl: pl["config"].pop("p")),
        ("config.pool_w", lambda pl: pl["config"].pop("pool_w")),  # no second defaults table
        ("config.filters_per_width", lambda pl: pl["config"].update(filters_per_width=2.9)),
        ("config.filter_widths", lambda pl: pl["config"].update(filter_widths="34")),
        ("config.dropout_rate", lambda pl: pl["config"].update(dropout_rate="0.0")),
        ("config.pool", lambda pl: pl["config"].update(pool=2)),
        ("vocab.max_len", lambda pl: pl["vocab"].update(max_len=8.7)),
        ("vocab.max_len", lambda pl: pl["vocab"].update(max_len=0)),
        ("embedding.pretrained_hit_count",
         lambda pl: pl["embedding"].update(pretrained_hit_count="7")),
        ("vocab", lambda pl: pl.pop("vocab")),
        ("vocab.tokens", lambda pl: pl["vocab"].update(tokens="alpha\n\ngamma")),
        ("vocab.tokens", lambda pl: pl["vocab"].update(tokens=["alpha", "beta", "gamma"])),
        ("embedding", lambda pl: pl.update(embedding="matrix")),
        ("sidecar", lambda pl: pl.pop("sidecar")),
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
        ("sidecar.sha265", lambda pl: pl["sidecar"].update(sha265=pl["sidecar"]["sha256"])),
        ("vocab.size", lambda pl: pl["vocab"].update(size=3)),
    ], ids=["format-2-params", "embedding-matrix", "misspelt-sidecar-key", "vocab-size"])
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
        _rewrite(path, lambda pl, _: pl["vocab"].update(tokens="alpha\nbeta\nalpha"))
        with pytest.raises(CheckpointError, match=": vocab.tokens: repeated token"):
            load_checkpoint(path)

    def test_vocab_hash_is_pinned(self, tmp_path, model_bits):
        """The stored hash is the sha256 of the vocabulary text; checkpoints
        written before the hash was computed from the token list still load."""
        vocab, config, table, params = model_bits
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, config, vocab, table, params)
        pinned = "cb93c831ce286caed9e862c96cc7ad266c2cfb0fa5c8c016b5164dc054117c7a"
        assert json.loads(path.read_text())["vocab_hash"] == pinned
        assert pinned == hashlib.sha256(b"max_len=5\nalpha\t1\nbeta\t2\ngamma\t3\n").hexdigest()
        assert load_checkpoint(path).vocab_hash == pinned

    def test_non_object_file_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text("[]")
        with pytest.raises(CheckpointError, match="expected a JSON object"):
            load_checkpoint(path)


class TestSidecar:
    """Each way the sidecar can disagree with its JSON file is rejected on
    load with a CheckpointError naming the field."""

    @pytest.mark.parametrize("field, tamper", [
        ("sidecar.name", lambda pl, sidecar: sidecar.unlink()),
        ("sidecar.sha256", lambda pl, sidecar: sidecar.write_bytes(sidecar.read_bytes()[:-1] + b"?")),
        ("sidecar.name", lambda pl, _: pl["sidecar"].update(name="sub/ckpt.npy")),
        ("sidecar.name", lambda pl, _: pl["sidecar"].update(name="../ckpt.npy")),
        ("sidecar.name", lambda pl, sidecar: pl["sidecar"].update(name=str(sidecar))),
        ("sidecar.name", lambda pl, _: pl["sidecar"].update(name="sub\\ckpt.npy")),
        ("sidecar.name", lambda pl, _: pl["sidecar"].update(name="..")),
        ("sidecar.name", lambda pl, _: pl["sidecar"].update(name="")),
        ("sidecar", _sidecar(lambda _, raw: raw + bytes(8))),
        ("sidecar", _sidecar(lambda _, raw: b"not an npy file")),
        ("sidecar", _sidecar(lambda vec, _: _npy(vec.astype(">f8")))),
        ("sidecar", _sidecar(lambda vec, _: _npy(vec.reshape(-1, 1)))),
        ("sidecar", _sidecar(lambda vec, _: _npy(vec.astype(object)))),
    ], ids=["missing-file", "wrong-hash", "subdirectory", "parent-directory", "absolute",
            "backslash", "dotdot", "empty-name", "trailing-bytes", "not-npy", "big-endian",
            "two-dimensional", "object-dtype"])
    def test_rejected(self, tmp_path, model_bits, field, tamper):
        vocab, config, table, params = model_bits
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, config, vocab, table, params)
        (tmp_path / "sub").mkdir()
        save_checkpoint(tmp_path / "sub" / "ckpt.json", config, vocab, table, params)
        _rewrite(path, tamper)
        with pytest.raises(CheckpointError, match=f": {field}: "):
            load_checkpoint(path)

    def test_npy_format_2_rejected(self, tmp_path, model_bits):
        vocab, config, table, params = model_bits
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, config, vocab, table, params)

        def version_2(vec, _):
            buf = io.BytesIO()
            np.lib.format.write_array(buf, vec, version=(2, 0))
            return buf.getvalue()
        _rewrite(path, _sidecar(version_2))
        with pytest.raises(CheckpointError, match=": sidecar: invalid"):
            load_checkpoint(path)


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
