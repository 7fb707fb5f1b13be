"""Shared fixtures: a tiny model config, a deterministic corpus,
session-scoped trained models reused by the slower studies, a unit's
flat position, and the forward offsets that scale one unit."""

import numpy as np
import pytest

from shlm import tensor as T
from shlm.model import (ModelConfig, TransformerModel, UnitKind, num_units,
                        unit_at, unit_blocks)
from shlm.text import TEMPLATES, ingest_corpus
from shlm.train import train_lm

# Small enough for fast tests: 2 layers, 8 heads and 64 neurons in total.
TINY = ModelConfig(
    num_layers=2,
    embed_dim=32,
    num_heads=4,
    head_dim=8,
    ffn_dim=32,
    vocab_size=256,
    max_seq_len=64,
)

_WORDS = [
    "the", "quick", "brown", "fox", "jumps", "over", "lazy", "dog",
    "a", "small", "model", "reads", "bytes", "and", "learns", "to",
    "copy", "reverse", "sum", "digits", "every", "line", "ends", "here",
]


def toy_text(n_lines: int = 400, seed: int = 1234) -> str:
    """Deterministic mix of word sentences and template-style Q/A lines."""
    rng = np.random.default_rng(seed)
    names = sorted(TEMPLATES)
    lines = []
    for _ in range(n_lines):
        if rng.random() < 0.5:
            k = int(rng.integers(4, 9))
            words = [_WORDS[i] for i in rng.integers(0, len(_WORDS), size=k)]
            lines.append(" ".join(words) + ".\n")
        else:
            gen = TEMPLATES[names[int(rng.integers(0, len(names)))]]
            q, a = gen(rng)
            lines.append(f"Q:{q} A:{a}\n")
    return "".join(lines)


@pytest.fixture(scope="session")
def corpus_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "toy.txt"
    path.write_text(toy_text(), encoding="utf-8")
    return path


@pytest.fixture(scope="session")
def stream(corpus_path):
    return ingest_corpus(corpus_path)


def train_tiny(stream_tokens, seed: int, steps: int = 220) -> TransformerModel:
    model = TransformerModel(TINY, seed=seed)
    train_lm(model, stream_tokens, steps=steps, lr=3e-3, seed=seed,
             batch_size=4, seq_len=48)
    return model


@pytest.fixture(scope="session")
def trained_model(stream):
    return train_tiny(stream.train, seed=0)


@pytest.fixture(scope="session")
def trained_models(stream, trained_model):
    """Five independently initialized and trained tiny models."""
    models = {0: trained_model}
    for seed in range(1, 5):
        models[seed] = train_tiny(stream.train, seed=seed)
    return models


def flat_index(cfg: ModelConfig, uid) -> int:
    """A unit's canonical flat position, read through ``unit_blocks``'s
    views of the positions themselves."""
    heads, neurons = unit_blocks(cfg, np.arange(num_units(cfg)))
    return int((heads if uid.kind == UnitKind.HEAD else neurons)[uid.layer, uid.index])


def scale_unit_offsets(capture, flat: int, eps: float) -> dict:
    """``forward`` keyword arguments that scale unit ``flat`` (canonical
    order) of the model ``capture`` came from by (1 - eps), on the
    capture's tokens: a head's output gets -eps times itself, a neuron's
    ``w_up`` column -eps times itself (a ReLU commutes with a positive
    scale), and every other offset is 0.0. At eps = 1 this is the mask
    that removes the unit."""
    head_offsets = [np.zeros_like(a) for a in capture.head_acts]
    up_offsets = [np.zeros_like(w) for w in capture.up_weights]
    uid = unit_at(capture.cfg, flat)
    if uid.kind == UnitKind.HEAD:
        acts = capture.head_acts[uid.layer]
        head_offsets[uid.layer][uid.index] = -eps * acts[uid.index]
    else:
        w_up = capture.up_weights[uid.layer]
        up_offsets[uid.layer][:, uid.index] = -eps * w_up[:, uid.index]
    return {"head_offsets": [T.constant(a) for a in head_offsets],
            "up_offsets": [T.constant(w) for w in up_offsets]}
