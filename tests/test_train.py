"""Optimizer behavior and LM training loop."""

import hashlib
import platform
import subprocess
import sys

import numpy as np
import pytest

from shlm import tensor as T
from shlm.errors import EmptyCorpusError, NonFiniteError
from shlm.model import TransformerModel
from shlm.train import _STEP_CHUNK, AdamW, cosine_lr, train_lm

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


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
def test_adamw_chunked_step_equals_whole_array_formula(dtype, weight_decay):
    # parameters below one chunk, of exactly one and of a size that is not
    # a multiple of it, through steps at changing learning rates
    rng = np.random.default_rng(7)
    shapes = [(7,), (256, _STEP_CHUNK // 256), (3, (2 * _STEP_CHUNK + 123) // 3)]
    params = [T.Tensor(rng.standard_normal(s).astype(dtype), requires_grad=True)
              for s in shapes]
    opt = AdamW(params, lr=1e-3, weight_decay=weight_decay)
    want = [p.data.copy() for p in params]
    moments = [(np.zeros_like(w), np.zeros_like(w)) for w in want]
    b1, b2, eps = 0.9, 0.999, 1e-8
    for t, lr in enumerate((1e-3, 3e-3, 2e-4), start=1):
        opt.lr = lr
        grads = [rng.standard_normal(s).astype(dtype) for s in shapes]
        for p, g in zip(params, grads):
            p.grad = g.copy()
        opt.step()
        bias1, bias2 = 1.0 - b1 ** t, 1.0 - b2 ** t
        for w, (m, v), g in zip(want, moments, grads):
            if weight_decay:
                w *= 1.0 - lr * weight_decay
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            w -= lr * ((m / bias1) / (np.sqrt(v / bias2) + eps))
        for p, w, (m, v), m_got, v_got in zip(params, want, moments, opt._m, opt._v):
            assert p.data.dtype == dtype
            assert p.data.tobytes() == w.tobytes(), (t, p.shape)
            assert m_got.tobytes() == m.tobytes() and v_got.tobytes() == v.tobytes()


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


def _params_sha256(model) -> str:
    h = hashlib.sha256()
    for name, arr in sorted(model.state_arrays().items()):
        h.update(name.encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


# parameter sha256 and losses of 6 steps of 3 x 32 tokens, frozen from the
# loop that ran one backward through the mean of all the sequences' losses
_PINNED = {
    np.float32: ("e7d5e1a9b80fa7a370fdf87f15dae0f8eb7eb1d95e87b3e16d12d18e0ef489a2",
                 ["0x1.632f8c0000000p+2", "0x1.5c84000000000p+2",
                  "0x1.574cbc0000000p+2", "0x1.4aa1740000000p+2",
                  "0x1.40fc800000000p+2", "0x1.3907d00000000p+2"]),
    np.float64: ("08e87679f3b85fb3502120ed6a6bd7d3a6e3be16e4d6c6a74703c4711a7b2e52",
                 ["0x1.632f893c3c90ep+2", "0x1.5c840418bc54dp+2",
                  "0x1.574cba9c8bef9p+2", "0x1.4aa173d97ab25p+2",
                  "0x1.40fc80df9728ap+2", "0x1.3907d04b9cb22p+2"]),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_train_trajectory_is_pinned(stream, dtype):
    model = TransformerModel(TINY, seed=5, dtype=dtype)
    log = train_lm(model, stream.train, steps=6, lr=3e-3, seed=7, batch_size=3,
                   seq_len=32)
    sha, losses = _PINNED[dtype]
    assert [float(x).hex() for x in log.losses] == losses
    assert _params_sha256(model) == sha


def test_train_runs_one_backward_per_sequence(monkeypatch):
    real, calls = T.backward, []

    def backward(loss, wrt=None):
        calls.append(loss)
        real(loss, wrt=wrt)

    monkeypatch.setattr(T, "backward", backward)
    train_lm(TransformerModel(TINY, seed=0), np.arange(400) % 256, steps=2,
             lr=1e-3, seed=0, batch_size=3, seq_len=16)
    assert len(calls) == 2 * 3


_ONE_STEP = """
import numpy as np
from shlm.cli import _steady_heap
from shlm.model import ModelConfig, TransformerModel
from shlm.train import train_lm

def peak_kb():   # this process's own peak; a child's ru_maxrss starts at its parent's
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status
                    if line.startswith("VmHWM:"))

_steady_heap()   # the heap thresholds main() runs train-lm under
model = TransformerModel(ModelConfig(), seed=0)
before = peak_kb()
train_lm(model, np.arange(4000) % 256, steps=1, lr=1e-3, seed=0)
print(peak_kb() - before)
"""


@pytest.mark.skipif(platform.system() != "Linux", reason="reads /proc/self/status")
def test_train_keeps_one_sequence_tape_alive():
    """One default-config step (8 x 64 tokens) raises the peak RSS by the
    grads, the AdamW state and one sequence's tape (about 15 MB), not by
    all eight tapes at once (about 54 MB)."""
    proc = subprocess.run([sys.executable, "-c", _ONE_STEP],
                          capture_output=True, text=True, check=True)
    growth_mb = int(proc.stdout.split()[-1]) / 1024
    assert growth_mb < 45, growth_mb


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


def _poisoning_backward(monkeypatch, at_call: int, names=None):
    """Make the ``at_call``-th backward (counted from 1) leave an inf in
    every leaf gradient, or in those of the named model parameters."""
    real, calls = T.backward, []

    def backward(loss, wrt=None):
        real(loss, wrt=wrt)
        calls.append(loss)
        if len(calls) == at_call:
            for t in names or _leaves(loss):
                if t.grad is not None:
                    t.grad.reshape(-1)[0] = np.inf

    monkeypatch.setattr(T, "backward", backward)


def _leaves(loss):
    seen, stack = {}, [loss]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    return [t for t in seen.values() if not t._parents and t.requires_grad]


def test_nonfinite_gradient_names_parameter_and_step(monkeypatch):
    model = TransformerModel(TINY, seed=0)
    before = model.state_arrays()
    _poisoning_backward(monkeypatch, 1, [model.params["h1.w_up"]])
    with pytest.raises(NonFiniteError,
                       match="non-finite gradient of 'h1.w_up' at step 1$"):
        train_lm(model, np.arange(400) % 256, steps=1, lr=1e-3, seed=0,
                 batch_size=2, seq_len=16)
    # the step that saw it updated nothing
    for name, arr in model.state_arrays().items():
        assert np.array_equal(arr, before[name]), name


def test_predictor_nonfinite_gradient_names_parameter_and_step(monkeypatch):
    from shlm.predictor import PredictorConfig, build_dataset, train_predictor

    rng = np.random.default_rng(3)
    prompts = [rng.integers(0, TINY.vocab_size, size=12) for _ in range(8)]
    ds = build_dataset(TransformerModel(TINY, seed=0), prompts, "l2norm",
                       topology="shadow")
    _poisoning_backward(monkeypatch, 2)
    with pytest.raises(NonFiniteError,
                       match="non-finite gradient of 'w0' at step 2$"):
        train_predictor(ds, PredictorConfig(epochs=2, batch=2), seed=0)
