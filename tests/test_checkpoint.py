"""Checkpoint container format and model round-trips."""

import hashlib
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from shlm.checkpoint import (
    MAGIC,
    checkpoint_vocab,
    load_checkpoint,
    read_container,
    save_checkpoint,
    write_container,
)
from shlm.errors import ConfigMismatchError, FormatError, ShlmError
from shlm.model import ModelConfig, TransformerModel
from shlm.predictor import (Predictor, PredictorConfig, _init_encoder, _init_mlp,
                            build_dataset, covered_units, load_predictor,
                            save_predictor, train_predictor)

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


_PINNED_CFG = ModelConfig(num_layers=1, embed_dim=8, num_heads=2, head_dim=4,
                          ffn_dim=8, vocab_size=16, max_seq_len=8)


def test_container_bytes_are_pinned(tmp_path):
    # a seeded model and an untrained fullseq predictor, both built from
    # generator draws alone, so their containers' bytes are fixed
    cfg = _PINNED_CFG
    pcfg = PredictorConfig(topology="fullseq", hidden_dim=4)
    covered = covered_units(cfg, "fullseq")
    rng = np.random.default_rng(0)
    params = {**_init_encoder(rng, cfg.embed_dim),
              **_init_mlp(rng, "", cfg.embed_dim, 4, pcfg.hidden_layers, covered.size)}
    predictor = Predictor(config=pcfg, model_config=cfg, criterion="plainact",
                          params=params, covered=covered, draw={"seed": 1})
    save_checkpoint(TransformerModel(cfg, seed=0), tmp_path / "model.bin")
    save_predictor(predictor, tmp_path / "predictor.bin")
    digests = {kind: hashlib.sha256((tmp_path / f"{kind}.bin").read_bytes()).hexdigest()
               for kind in ("model", "predictor")}
    assert digests == {
        "model": "10c803b8adeb904cb6428e5cfed2bf083373f48748f7adb7904e6a31cd318d73",
        "predictor": "f2aca6969279041ff1a72bde0186130ad19350125002adabc04cf3ceefe2c761"}
    save_predictor(load_predictor(tmp_path / "predictor.bin"), tmp_path / "again.bin")
    assert ((tmp_path / "again.bin").read_bytes()
            == (tmp_path / "predictor.bin").read_bytes())


def test_unsupported_dtype_leaves_no_file(tmp_path):
    path = tmp_path / "c.shlm"
    with pytest.raises(FormatError, match="'b'"):
        write_container(path, {"kind": "demo"},
                        {"a": np.zeros(3, np.float32), "b": np.zeros(3, np.int64)})
    assert not path.exists()


@pytest.fixture(scope="module")
def toy_containers(tmp_path_factory):
    """The bytes of a 1-layer toy model.bin and a predictor.bin fitted to
    it, and a directory for their corrupted copies."""
    root = tmp_path_factory.mktemp("containers")
    cfg = ModelConfig(num_layers=1, embed_dim=8, num_heads=2, head_dim=4,
                      ffn_dim=8, vocab_size=16, max_seq_len=8)
    model = TransformerModel(cfg, seed=0)
    rng = np.random.default_rng(0)
    prompts = [rng.integers(0, 16, size=6) for _ in range(4)]
    dataset = build_dataset(model, prompts, "plainact", topology="fullseq")
    predictor, _ = train_predictor(
        dataset, PredictorConfig(topology="fullseq", epochs=1, batch=2), seed=0)
    save_checkpoint(model, root / "model.bin")
    save_predictor(predictor, root / "predictor.bin")
    return root, {kind: (root / f"{kind}.bin").read_bytes()
                  for kind in ("model", "predictor")}


@seed(14)
@settings(max_examples=300, deadline=None, database=None)
@given(data=st.data())
def test_corrupted_container_loads_or_raises_shlm_error(toy_containers, data):
    root, clean = toy_containers
    kind = data.draw(st.sampled_from(sorted(clean)))
    blob = bytearray(clean[kind])
    if data.draw(st.booleans(), label="truncate"):
        blob = blob[:data.draw(st.integers(0, len(blob) - 1), label="length")]
    else:
        # half the changes land in the header, the config block or the
        # first tensor record, where a byte decides the layout
        structure = 12 + int.from_bytes(blob[8:12], "little") + 64
        at = data.draw(st.integers(0, len(blob) - 1)
                       | st.integers(0, min(structure, len(blob) - 1)), label="at")
        blob[at] ^= data.draw(st.integers(1, 255), label="xor")
    path = root / f"corrupt_{kind}.bin"
    path.write_bytes(bytes(blob))
    try:
        (load_checkpoint if kind == "model" else load_predictor)(path)
    except ShlmError:
        pass
