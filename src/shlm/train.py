"""Deterministic AdamW training loops for the toy LM."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import EmptyCorpusError, NonFiniteError
from .model import TransformerModel


_STEP_CHUNK = 65_536   # elements of a parameter updated at a time


class AdamW:
    """Adam with decoupled weight decay; state kept in numpy.

    ``step`` updates each parameter in place, ``_STEP_CHUNK`` elements at
    a time through two scratch buffers reused across chunks and
    parameters, so it allocates no parameter-sized temporary; every
    element goes through the same ops in the same order as the whole-array
    formula, with the same bits. Parameters must be C-contiguous, so that
    a flat view of each, and of its moment buffers, writes through.
    """

    def __init__(self, params: list[T.Tensor], lr: float, betas=(0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.01):
        self.params = list(params)
        self.lr = float(lr)
        self.beta1, self.beta2 = (float(b) for b in betas)
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        sizes: dict = {}
        for p in self.params:
            if not p.data.flags.c_contiguous:
                raise ValueError("AdamW: parameters must be C-contiguous")
            sizes[p.dtype] = max(sizes.get(p.dtype, 0), min(p.size, _STEP_CHUNK))
        self._scratch = {dtype: (np.empty(n, dtype), np.empty(n, dtype))
                         for dtype, n in sizes.items()}

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1 ** self.t
        bias2 = 1.0 - b2 ** self.t
        decay = 1.0 - self.lr * self.weight_decay
        for p, m_all, v_all in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            flat = [x.reshape(-1) for x in (p.data, p.grad, m_all, v_all)]
            s1, s2 = self._scratch[p.dtype]
            for start in range(0, p.size, _STEP_CHUNK):
                w, g, m, v = (x[start:start + _STEP_CHUNK] for x in flat)
                tmp, den = s1[:len(w)], s2[:len(w)]
                if self.weight_decay:
                    w *= decay
                m *= b1
                m += np.multiply(g, 1.0 - b1, out=tmp)             # (1 - b1) * g
                v *= b2
                v += np.multiply(np.multiply(g, g, out=tmp), 1.0 - b2, out=tmp)
                np.divide(m, bias1, out=tmp)                       # m / bias1
                np.sqrt(np.divide(v, bias2, out=den), out=den)
                den += self.eps
                tmp /= den                                         # the update
                w -= np.multiply(tmp, self.lr, out=tmp)            # lr * update

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()


def check_grads(params: dict[str, T.Tensor], step: int) -> None:
    """Raise ``NonFiniteError`` naming the first parameter whose gradient
    holds a non-finite value, and the step; run it before the update."""
    for name, p in params.items():
        if p.grad is not None and not np.isfinite(p.grad).all():
            raise NonFiniteError(f"non-finite gradient of '{name}' at step {step}")


def cosine_lr(base_lr: float, epoch: int, total_epochs: int) -> float:
    """Cosine annealing from base_lr to 0 over ``total_epochs``."""
    if total_epochs <= 0:
        return base_lr
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * epoch / total_epochs))


@dataclass
class TrainingLog:
    losses: list[float] = field(default_factory=list)
    settings: dict = field(default_factory=dict)


def train_lm(model: TransformerModel, train_tokens: np.ndarray, steps: int,
             lr: float, seed: int, batch_size: int = 8,
             seq_len: int | None = None, weight_decay: float = 0.01) -> TrainingLog:
    """Next-token training on random windows of the stream.

    Each step runs its ``batch_size`` windows one at a time, a forward and
    then a backward of the loss over ``batch_size``, so one sequence's
    tape is alive at a time; the grads and the logged mean loss are
    bit-identical to one backward through the batch's mean loss (see
    ``tensor``). With ``steps == 0`` the model is untouched. Identical
    inputs and seed give a bit-identical parameter trajectory. A
    ``NonFiniteError`` names the step, counted from 1, after its op and
    layer, or after the parameter whose gradient it is; a step with a
    non-finite value updates nothing.
    """
    train_tokens = np.asarray(train_tokens, dtype=np.int64)
    if seq_len is None:
        seq_len = min(model.cfg.max_seq_len, 64)
    seq_len = min(seq_len, model.cfg.max_seq_len)
    if len(train_tokens) < 2 or seq_len < 2:
        raise EmptyCorpusError("train_lm: stream too short to form one window")
    seq_len = min(seq_len, len(train_tokens))

    rng = np.random.default_rng(seed)
    opt = AdamW(model.parameters(), lr=lr, weight_decay=weight_decay)
    log = TrainingLog(settings={
        "steps": steps, "lr": lr, "batch_size": batch_size,
        "seq_len": seq_len, "seed": seed, "weight_decay": weight_decay,
    })
    hi = max(1, len(train_tokens) - seq_len + 1)
    for step in range(1, steps + 1):
        starts = rng.integers(0, hi, size=batch_size)
        model.zero_grads()
        total = None
        try:
            for s in starts:
                loss = model.forward(train_tokens[s:s + seq_len]).loss_tensor
                T.backward(T.scale(loss, 1.0 / batch_size))
                total = loss.data if total is None else total + loss.data
                del loss   # frees the tape before the next forward builds one
        except NonFiniteError as exc:
            raise NonFiniteError(f"{exc} at step {step}") from exc
        check_grads(model.params, step)
        opt.step()
        log.losses.append(float(total * (1.0 / batch_size)))
    return log

