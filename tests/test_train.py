"""Optimizer behavior and LM training loop."""

import numpy as np
import pytest

from shlm import tensor as T
from shlm.errors import EmptyCorpusError, NonFiniteError
from shlm.model import TransformerModel
from shlm.train import AdamW, cosine_lr, train_lm

from .conftest import TINY


def test_adamw_minimizes_quadratic():
    x = T.Tensor(np.array([5.0, -3.0]), requires_grad=True, dtype=np.float64)
    opt = AdamW([x], lr=0.1, weight_decay=0.0)
    for _ in range(300):
        opt.zero_grad()
        T.backward(T.tsum(T.square(x)))
        opt.step()
    assert np.max(np.abs(x.data)) <= 1e-2


def test_adamw_weight_decay_shrinks_params():
    x = T.Tensor(np.array([1.0]), requires_grad=True, dtype=np.float64)
    opt = AdamW([x], lr=0.01, weight_decay=0.5)
    x.grad = np.array([0.0])
    opt.step()
    assert x.data[0] < 1.0


def test_cosine_schedule_endpoints():
    assert cosine_lr(1.0, 0, 100) == 1.0
    assert abs(cosine_lr(1.0, 100, 100)) <= 1e-12
    assert 0.4 < cosine_lr(1.0, 50, 100) < 0.6


def test_train_reduces_loss(stream):
    model = TransformerModel(TINY, seed=0)
    log = train_lm(model, stream.train, steps=200, lr=3e-3, seed=0,
                   batch_size=4, seq_len=48)
    chunks = np.reshape(log.losses, (4, -1)).mean(axis=1)
    assert all(b < a for a, b in zip(chunks, chunks[1:])), chunks
    assert log.losses[-1] < log.losses[0]


def test_train_zero_steps_is_identity():
    model = TransformerModel(TINY, seed=1)
    before = model.state_arrays()
    log = train_lm(model, np.arange(200) % 256, steps=0, lr=1e-3, seed=0)
    assert log.losses == []
    for name, arr in model.state_arrays().items():
        assert np.array_equal(arr, before[name])


def test_train_is_deterministic(stream):
    runs = []
    for _ in range(2):
        model = TransformerModel(TINY, seed=2)
        train_lm(model, stream.train, steps=12, lr=1e-3, seed=9, batch_size=2,
                 seq_len=32)
        runs.append(model.state_arrays())
    for name in runs[0]:
        assert np.array_equal(runs[0][name], runs[1][name]), name


def test_train_rejects_tiny_stream():
    model = TransformerModel(TINY, seed=0)
    with pytest.raises(EmptyCorpusError):
        train_lm(model, np.array([1]), steps=1, lr=1e-3, seed=0)


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_nonfinite_error_names_layer_and_step(monkeypatch):
    model = TransformerModel(TINY, seed=0)
    real_step = AdamW.step

    def step_then_blow_up(opt):
        real_step(opt)
        if opt.t == 1:   # step 2's forward overflows h2 @ w_up in layer 1
            w_up = model.params["h1.w_up"].data
            w_up /= np.abs(w_up).max()
            w_up *= np.float32(3e38)

    monkeypatch.setattr(AdamW, "step", step_then_blow_up)
    with pytest.raises(NonFiniteError, match="'matmul' in layer 1 at step 2$"):
        train_lm(model, np.arange(400) % 256, steps=3, lr=1e-3, seed=0,
                 batch_size=2, seq_len=16)
