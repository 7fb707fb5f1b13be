"""Checkpoint container format and model round-trips."""

from dataclasses import asdict

import numpy as np
import pytest

from shlm.checkpoint import (
    MAGIC,
    checkpoint_vocab,
    load_checkpoint,
    read_container,
    save_checkpoint,
    write_container,
)
from shlm.errors import ConfigMismatchError, FormatError
from shlm.model import TransformerModel

from .conftest import TINY


def test_container_roundtrip(tmp_path):
    path = tmp_path / "c.shlm"
    tensors = {
        "a": np.arange(6, dtype=np.float32).reshape(2, 3),
        "b": np.array(3.5, dtype=np.float64),
    }
    write_container(path, {"kind": "demo", "x": 1}, tensors)
    config, loaded = read_container(path)
    assert config == {"kind": "demo", "x": 1}
    assert loaded["a"].dtype == np.float32 and loaded["a"].shape == (2, 3)
    assert np.array_equal(loaded["a"], tensors["a"])
    assert loaded["b"].dtype == np.float64 and float(loaded["b"]) == 3.5


def test_save_load_save_is_byte_identical(tmp_path):
    model = TransformerModel(TINY, seed=3)
    p1, p2 = tmp_path / "a.shlm", tmp_path / "b.shlm"
    save_checkpoint(model, p1)
    save_checkpoint(load_checkpoint(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_vocab_roundtrip(tmp_path):
    model = TransformerModel(TINY, seed=3)
    byte_path, word_path = tmp_path / "b.shlm", tmp_path / "w.shlm"
    save_checkpoint(model, byte_path)
    vocab = {"<unk>": 0, "a": 1, "b": 2, "c": 3}
    save_checkpoint(model, word_path, vocab=vocab)
    assert checkpoint_vocab(byte_path) is None
    assert checkpoint_vocab(word_path) == vocab
    assert "vocab" not in read_container(byte_path)[0]
    assert np.array_equal(load_checkpoint(word_path).params["tok_emb"].data,
                          model.params["tok_emb"].data)


def test_loaded_model_forward_matches(tmp_path):
    model = TransformerModel(TINY, seed=4)
    path = tmp_path / "m.shlm"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    toks = np.arange(10) % TINY.vocab_size
    assert np.array_equal(model.forward(toks).logits, loaded.forward(toks).logits)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.shlm"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(FormatError):
        read_container(path)


def test_truncated_rejected(tmp_path):
    model = TransformerModel(TINY, seed=0)
    path = tmp_path / "m.shlm"
    save_checkpoint(model, path)
    blob = path.read_bytes()
    for cut in (3, 7, len(blob) // 2, len(blob) - 5):
        path.write_bytes(blob[:cut])
        with pytest.raises(FormatError):
            read_container(path)


def test_wrong_kind_rejected(tmp_path):
    path = tmp_path / "p.shlm"
    write_container(path, {"kind": "predictor"}, {"w": np.zeros(2, dtype=np.float32)})
    with pytest.raises(ConfigMismatchError):
        load_checkpoint(path)


def test_tensor_config_mismatch(tmp_path):
    model = TransformerModel(TINY, seed=0)
    path = tmp_path / "m.shlm"
    config = {"kind": "model", "config": asdict(TINY)}
    tensors = {n: t.data for n, t in model.params.items()}
    tensors.pop("lnf_g")
    write_container(path, config, tensors)
    with pytest.raises(ConfigMismatchError):
        load_checkpoint(path)


def test_magic_is_first_four_bytes(tmp_path):
    path = tmp_path / "m.shlm"
    write_container(path, {}, {})
    assert path.read_bytes()[:4] == MAGIC == b"SHLM"
