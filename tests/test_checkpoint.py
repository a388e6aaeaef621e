"""Checkpoint serialization tests."""

import base64
import dataclasses
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from newsvane.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from newsvane.embeddings import init_self_learnt
from newsvane.network import ModelConfig, init_parameters
from newsvane.text import Vocabulary


@pytest.fixture()
def model_bits():
    vocab = Vocabulary(word_to_index={"alpha": 1, "beta": 2, "gamma": 3}, max_len=5)
    config = ModelConfig(
        p=4, m=5, filter_widths=(2, 3), filters_per_width=2,
        hidden_sizes=(4, 2), dropout_rate=0.1, head="binary",
    )
    table = init_self_learnt(vocab, 4, seed=1)
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
        save_checkpoint(tmp_path / "a.json", config, vocab, table, params)
        save_checkpoint(tmp_path / "b.json", config, vocab, table, params)
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

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
        for version in (1, 99):  # 1 is the retired per-tensor format
            payload["format_version"] = version
            path.write_text(json.dumps(payload))
            with pytest.raises(CheckpointError, match=f"format {version}"):
                load_checkpoint(path)

    def test_tampered_vocab_detected(self, tmp_path, model_bits):
        vocab, config, table, params = model_bits
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, config, vocab, table, params)
        payload = json.loads(path.read_text())
        payload["vocab"]["tokens"][0] = "tampered"
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="hash"):
            load_checkpoint(path)


def _array(arr: np.ndarray) -> dict:
    return {"dtype": "float64", "shape": list(arr.shape),
            "data": base64.b64encode(arr.tobytes()).decode("ascii")}


class TestValidation:
    """A checkpoint whose arrays contradict its config or vocabulary is
    rejected on load, naming the field, instead of failing later."""

    @pytest.mark.parametrize("field, tamper", [
        ("params", lambda pl: pl.update(params=_array(np.zeros(18)))),
        ("params", lambda pl: pl["params"].update(dtype="int64")),
        ("embedding.matrix", lambda pl: pl["embedding"].update(matrix=_array(np.zeros((2, 4))))),
        ("embedding.matrix", lambda pl: pl["embedding"]["matrix"].update(data="AAAA")),
        ("embedding.p", lambda pl: pl["embedding"].update(p=7)),
        ("vocab.max_len", lambda pl: pl["config"].update(m=4)),
    ], ids=["params-length", "params-dtype", "table-rows", "table-bytes", "embedding-p", "max-len"])
    def test_contradicting_array_rejected(self, tmp_path, model_bits, field, tamper):
        vocab, config, table, params = model_bits
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, config, vocab, table, params)
        payload = json.loads(path.read_text())
        tamper(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match=field):
            load_checkpoint(path)


    @pytest.mark.parametrize("field, tamper", [
        ("params", lambda pl: pl.update(params="AAAA")),
        ("params.data", lambda pl: pl["params"].pop("data")),
        ("params.data", lambda pl: pl["params"].update(data=7)),
        ("config", lambda pl: pl.update(config=[4, 5])),
        ("config.p", lambda pl: pl["config"].pop("p")),
        ("config.pool_w", lambda pl: pl["config"].pop("pool_w")),  # no second defaults table
        ("config.filters_per_width", lambda pl: pl["config"].update(filters_per_width=2.9)),
        ("config.filter_widths", lambda pl: pl["config"].update(filter_widths="34")),
        ("config.dropout_rate", lambda pl: pl["config"].update(dropout_rate="0.0")),
        ("config.pool", lambda pl: pl["config"].update(pool=2)),
        ("vocab.max_len", lambda pl: pl["vocab"].update(max_len=8.7)),
        ("embedding.pretrained_hit_count",
         lambda pl: pl["embedding"].update(pretrained_hit_count="7")),
        ("vocab", lambda pl: pl.pop("vocab")),
        ("vocab.tokens", lambda pl: pl["vocab"].update(tokens="alpha")),
        ("embedding", lambda pl: pl.update(embedding="matrix")),
        ("embedding.matrix", lambda pl: pl["embedding"].pop("matrix")),
        ("embedding.mode", lambda pl: pl["embedding"].update(mode="frozen")),
        ("training_meta", lambda pl: pl.update(training_meta=3)),
    ], ids=["params-str", "params-no-data", "params-data-int", "config-list", "config-no-p",
            "config-no-pool-w", "config-fractional-int", "config-str-widths",
            "config-str-dropout", "config-unknown-key", "max-len-fraction", "hits-str",
            "no-vocab", "tokens-str", "embedding-str", "no-matrix", "mode", "meta-int"])
    def test_malformed_structure_rejected(self, tmp_path, model_bits, field, tamper):
        vocab, config, table, params = model_bits
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, config, vocab, table, params)
        payload = json.loads(path.read_text())
        tamper(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match=f": {field}: "):
            load_checkpoint(path)

    def test_non_object_file_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text("[]")
        with pytest.raises(CheckpointError, match="expected a JSON object"):
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
    vocab = Vocabulary(word_to_index={"alpha": 1, "beta": 2}, max_len=config.m)
    table = init_self_learnt(vocab, config.p, seed=seed)
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
