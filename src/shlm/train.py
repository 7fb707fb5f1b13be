"""Deterministic AdamW training loops for the toy LM."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import EmptyCorpusError, NonFiniteError
from .model import TransformerModel


class AdamW:
    """Adam with decoupled weight decay; state kept in numpy."""

    def __init__(self, params: list[T.Tensor], lr: float, betas=(0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.01):
        self.params = list(params)
        self.lr = float(lr)
        self.beta1, self.beta2 = betas
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1 ** self.t
        bias2 = 1.0 - b2 ** self.t
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            g = p.grad
            if self.weight_decay:
                p.data *= 1.0 - self.lr * self.weight_decay
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            update = (m / bias1) / (np.sqrt(v / bias2) + self.eps)
            p.data -= self.lr * update

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()


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

    With ``steps == 0`` the model is untouched. Identical inputs and seed
    give a bit-identical parameter trajectory. A ``NonFiniteError`` names the
    step, counted from 1, after its op and layer.
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
                total = loss if total is None else T.add(total, loss)
            mean_loss = T.scale(total, 1.0 / batch_size)
        except NonFiniteError as exc:
            raise NonFiniteError(f"{exc} at step {step}") from exc
        T.backward(mean_loss)
        opt.step()
        log.losses.append(float(mean_loss.data))
    return log
