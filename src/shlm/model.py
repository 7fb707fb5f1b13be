"""Decoder-only toy transformer with maskable heads and FFN neurons.

The model is a pre-norm byte-level decoder: learned token + position
embeddings, N blocks of (multi-head causal attention, two-layer ReLU
FFN), a final layernorm, and a tied readout. Every attention head and
every FFN hidden neuron can be zeroed independently through a
``MaskSet``, and a forward pass can capture the activations and
gradients that the saliency criteria consume.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, field, fields
from enum import Enum

import numpy as np

from . import tensor as T
from .errors import (
    EmptyStreamError,
    MaskShapeMismatchError,
    NonFiniteError,
    SequenceTooLongError,
)

CAPTURE_NONE = "none"
CAPTURE_ACTIVATIONS = "activations"
CAPTURE_GRADS = "grads"
_CAPTURE_MODES = (CAPTURE_NONE, CAPTURE_ACTIVATIONS, CAPTURE_GRADS)

_NEG_ATTN = -1e9  # additive score for future positions


@dataclass(frozen=True)
class ModelConfig:
    num_layers: int = 4
    embed_dim: int = 128
    num_heads: int = 8
    head_dim: int = 16
    ffn_dim: int = 512
    vocab_size: int = 256
    max_seq_len: int = 128
    activation: str = "relu"
    positional: str = "learned"

    def __post_init__(self):
        for name in ("num_layers", "embed_dim", "num_heads", "head_dim",
                     "ffn_dim", "vocab_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"ModelConfig.{name} must be >= 1")
        if self.max_seq_len < 2:
            raise ValueError("ModelConfig.max_seq_len must be >= 2")
        if self.embed_dim != self.num_heads * self.head_dim:
            raise ValueError(
                f"embed_dim {self.embed_dim} != num_heads {self.num_heads}"
                f" * head_dim {self.head_dim}"
            )
        if self.activation != "relu":
            raise ValueError("only relu FFNs are supported")
        if self.positional != "learned":
            raise ValueError("only learned position embeddings are supported")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in d.items() if k in known})


class UnitKind(str, Enum):
    HEAD = "head"
    NEURON = "neuron"


@dataclass(frozen=True, order=True)
class UnitId:
    layer: int
    kind: UnitKind
    index: int


def num_units(cfg: ModelConfig) -> int:
    return cfg.num_layers * (cfg.num_heads + cfg.ffn_dim)


def num_head_units(cfg: ModelConfig) -> int:
    return cfg.num_layers * cfg.num_heads


def unit_index(cfg: ModelConfig, uid: UnitId) -> int:
    """Canonical flat position: all heads layer-major, then all neurons."""
    if uid.kind == UnitKind.HEAD:
        if not (0 <= uid.layer < cfg.num_layers and 0 <= uid.index < cfg.num_heads):
            raise ValueError(f"unit out of range: {uid}")
        return uid.layer * cfg.num_heads + uid.index
    if not (0 <= uid.layer < cfg.num_layers and 0 <= uid.index < cfg.ffn_dim):
        raise ValueError(f"unit out of range: {uid}")
    return num_head_units(cfg) + uid.layer * cfg.ffn_dim + uid.index


def unit_at(cfg: ModelConfig, flat: int) -> UnitId:
    heads = num_head_units(cfg)
    if not (0 <= flat < num_units(cfg)):
        raise ValueError(f"flat unit index {flat} out of range")
    if flat < heads:
        return UnitId(flat // cfg.num_heads, UnitKind.HEAD, flat % cfg.num_heads)
    flat -= heads
    return UnitId(flat // cfg.ffn_dim, UnitKind.NEURON, flat % cfg.ffn_dim)


def all_units(cfg: ModelConfig) -> list[UnitId]:
    return [unit_at(cfg, i) for i in range(num_units(cfg))]


class MaskSet:
    """Boolean keep-masks per layer: heads (N, H) and neurons (N, F)."""

    def __init__(self, heads: np.ndarray, neurons: np.ndarray):
        self.heads = np.asarray(heads, dtype=bool).copy()
        self.neurons = np.asarray(neurons, dtype=bool).copy()
        if self.heads.ndim != 2 or self.neurons.ndim != 2:
            raise MaskShapeMismatchError("mask arrays must be 2-D (layer, unit)")
        if self.heads.shape[0] != self.neurons.shape[0]:
            raise MaskShapeMismatchError(
                f"layer counts differ: heads {self.heads.shape} vs neurons {self.neurons.shape}"
            )

    @classmethod
    def ones(cls, cfg: ModelConfig) -> "MaskSet":
        return cls(
            np.ones((cfg.num_layers, cfg.num_heads), dtype=bool),
            np.ones((cfg.num_layers, cfg.ffn_dim), dtype=bool),
        )

    def validate_for(self, cfg: ModelConfig) -> None:
        want_h = (cfg.num_layers, cfg.num_heads)
        want_n = (cfg.num_layers, cfg.ffn_dim)
        if self.heads.shape != want_h or self.neurons.shape != want_n:
            raise MaskShapeMismatchError(
                f"mask shapes {self.heads.shape}/{self.neurons.shape} do not match"
                f" model {want_h}/{want_n}"
            )

    @property
    def all_ones(self) -> bool:
        return bool(self.heads.all() and self.neurons.all())

    def without(self, units) -> "MaskSet":
        out = MaskSet(self.heads, self.neurons)
        for uid in units:
            if uid.kind == UnitKind.HEAD:
                out.heads[uid.layer, uid.index] = False
            else:
                out.neurons[uid.layer, uid.index] = False
        return out

    def intersect(self, other: "MaskSet") -> "MaskSet":
        if self.heads.shape != other.heads.shape or self.neurons.shape != other.neurons.shape:
            raise MaskShapeMismatchError("cannot intersect masks of different shapes")
        return MaskSet(self.heads & other.heads, self.neurons & other.neurons)

    def surviving_units(self) -> list[UnitId]:
        out = []
        n_layers, n_heads = self.heads.shape
        for l in range(n_layers):
            for h in range(n_heads):
                if self.heads[l, h]:
                    out.append(UnitId(l, UnitKind.HEAD, h))
        for l in range(n_layers):
            for k in range(self.neurons.shape[1]):
                if self.neurons[l, k]:
                    out.append(UnitId(l, UnitKind.NEURON, k))
        return out

    def __eq__(self, other):
        return (
            isinstance(other, MaskSet)
            and np.array_equal(self.heads, other.heads)
            and np.array_equal(self.neurons, other.neurons)
        )

    def __repr__(self):
        return (
            f"MaskSet(heads {int(self.heads.sum())}/{self.heads.size},"
            f" neurons {int(self.neurons.sum())}/{self.neurons.size})"
        )


@dataclass
class ForwardResult:
    """Values (and optionally gradients) captured by one forward pass."""

    cfg: ModelConfig
    logits: np.ndarray
    loss: float | None
    n_predicted: int
    loss_tensor: "T.Tensor | None" = None
    embed: np.ndarray | None = None
    head_acts: list[np.ndarray] | None = None      # per layer (H, T, d_h), pre-mask
    neuron_acts: list[np.ndarray] | None = None    # per layer (T, F), post-ReLU pre-mask
    attn_outs: list[np.ndarray] | None = None      # per layer (T, E), pre-residual
    layer_outs: list[np.ndarray] | None = None     # per layer (T, E), post-block
    head_grads: list[np.ndarray] | None = None
    neuron_grads: list[np.ndarray] | None = None
    up_weights: list[np.ndarray] | None = None     # per layer (E, F)
    up_grads: list[np.ndarray] | None = None
    head_offset_grads: list[np.ndarray] | None = None


@dataclass
class Taps:
    """Tensors kept for capture; each ``block`` call appends one to each
    list: per-head attention (H, T, d_h) and post-ReLU FFN activations
    (T, F), both before masking, the attention output (T, E) before the
    residual add, and the block output (T, E)."""

    head_acts: list[T.Tensor] = field(default_factory=list)
    neuron_acts: list[T.Tensor] = field(default_factory=list)
    attn_outs: list[T.Tensor] = field(default_factory=list)
    layer_outs: list[T.Tensor] = field(default_factory=list)


@functools.lru_cache(maxsize=16)
def _causal(t_len: int, dtype: np.dtype) -> T.Tensor:
    """Additive score mask hiding future positions; one read-only
    constant per (length, dtype), shared by every block and thread."""
    arr = np.triu(np.full((t_len, t_len), _NEG_ATTN, dtype=dtype), k=1)
    arr.flags.writeable = False
    return T.constant(arr)


def param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Every parameter's shape by name, in init and checkpoint file order."""
    e = cfg.embed_dim
    shapes = {"tok_emb": (cfg.vocab_size, e), "pos_emb": (cfg.max_seq_len, e)}
    for i in range(cfg.num_layers):
        for name, shape in (("ln1_g", (e,)), ("ln1_b", (e,)), ("wq", (e, e)),
                            ("wk", (e, e)), ("wv", (e, e)), ("wo", (e, e)),
                            ("ln2_g", (e,)), ("ln2_b", (e,)),
                            ("w_up", (e, cfg.ffn_dim)),
                            ("w_down", (cfg.ffn_dim, e))):
            shapes[f"h{i}.{name}"] = shape
    shapes["lnf_g"] = (e,)
    shapes["lnf_b"] = (e,)
    return shapes


class TransformerModel:
    def __init__(self, cfg: ModelConfig, seed: int = 0, dtype=np.float32,
                 params: dict[str, np.ndarray] | None = None):
        self.cfg = cfg
        self.dtype = np.dtype(dtype)
        self.params: dict[str, T.Tensor] = {}
        if params is None:
            params = self._init_params(seed)
        for name, arr in params.items():
            self.params[name] = T.Tensor(np.asarray(arr, dtype=self.dtype),
                                         requires_grad=True)

    def _init_params(self, seed: int) -> dict[str, np.ndarray]:
        """Layernorm gains 1 and biases 0; weights normal with std 0.02,
        scaled down for the residual projections (wo, w_down)."""
        rng = np.random.default_rng(seed)
        std = 0.02
        resid_std = std / math.sqrt(2.0 * self.cfg.num_layers)
        p: dict[str, np.ndarray] = {}
        for name, shape in param_shapes(self.cfg).items():
            if name.endswith("_g"):
                p[name] = np.ones(shape, dtype=self.dtype)
            elif name.endswith("_b"):
                p[name] = np.zeros(shape, dtype=self.dtype)
            else:
                sd = resid_std if name.endswith(("wo", "w_down")) else std
                p[name] = (rng.standard_normal(shape) * sd).astype(self.dtype)
        return p

    # -- parameter plumbing -------------------------------------------------

    def parameters(self) -> list[T.Tensor]:
        return list(self.params.values())

    def zero_grads(self) -> None:
        for t in self.params.values():
            t.zero_grad()

    def param_count(self) -> int:
        return sum(t.size for t in self.params.values())

    @staticmethod
    def expected_param_count(cfg: ModelConfig) -> int:
        e, f = cfg.embed_dim, cfg.ffn_dim
        per_layer = 4 * e + 4 * e * e + 2 * e * f
        return (cfg.vocab_size * e + cfg.max_seq_len * e
                + cfg.num_layers * per_layer + 2 * e)

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.params.items()}

    def to_dtype(self, dtype) -> "TransformerModel":
        return TransformerModel(self.cfg, dtype=dtype, params=self.state_arrays())

    def clone(self) -> "TransformerModel":
        return TransformerModel(self.cfg, dtype=self.dtype, params=self.state_arrays())

    # -- forward ------------------------------------------------------------

    def embed(self, tokens) -> T.Tensor:
        """Token plus position embeddings of a 1-D token sequence, (T, E)."""
        tokens = np.asarray(tokens, dtype=np.int64)
        if tokens.ndim != 1 or tokens.size == 0:
            raise EmptyStreamError("forward: need a non-empty 1-D token sequence")
        t_len = int(tokens.size)
        if t_len > self.cfg.max_seq_len:
            raise SequenceTooLongError(
                f"sequence length {t_len} exceeds max_seq_len {self.cfg.max_seq_len}"
            )
        p = self.params
        return T.add(T.embedding_lookup(p["tok_emb"], tokens),
                     T.slice_rows(p["pos_emb"], 0, t_len))

    def block(self, i: int, x: T.Tensor, mask: MaskSet | None = None,
              head_scales: np.ndarray | None = None,
              neuron_scales: np.ndarray | None = None, head_offsets=None,
              up_offsets=None, taps: Taps | None = None) -> T.Tensor:
        """Block ``i`` applied to its input ``x`` (T, E): causal attention,
        then the FFN, each added to the residual. ``mask``, the scales and
        the offsets are the whole-model arguments of ``forward``; the block
        reads its own layer of each. ``taps`` receives the captured tensors.
        A non-finite value is reported with the layer as well as the op.
        """
        head_f = self._unit_factors(mask, head_scales, "head", i)
        neuron_f = self._unit_factors(mask, neuron_scales, "neuron", i)
        n_heads, d_head = self.cfg.num_heads, self.cfg.head_dim
        t_len, e_dim = x.shape
        p = self.params
        pre = f"h{i}."
        try:
            h1 = T.layernorm(x, p[pre + "ln1_g"], p[pre + "ln1_b"])
            q = T.transpose(T.reshape(T.matmul(h1, p[pre + "wq"]),
                                      (t_len, n_heads, d_head)), (1, 0, 2))
            k = T.transpose(T.reshape(T.matmul(h1, p[pre + "wk"]),
                                      (t_len, n_heads, d_head)), (1, 0, 2))
            v = T.transpose(T.reshape(T.matmul(h1, p[pre + "wv"]),
                                      (t_len, n_heads, d_head)), (1, 0, 2))
            scores = T.add(T.scale(T.matmul(q, T.transpose(k, (0, 2, 1))),
                                   1.0 / math.sqrt(d_head)),
                           _causal(t_len, self.dtype))
            probs = T.softmax_rows(scores)
            att = T.matmul(probs, v)                      # (H, T, d_h)
            if head_offsets is not None:
                att = T.add(att, head_offsets[i])
            if taps is not None:
                taps.head_acts.append(att)
            if head_f is not None:
                att = T.mul(att, T.constant(
                    head_f.reshape(n_heads, 1, 1).astype(self.dtype)))
            merged = T.reshape(T.transpose(att, (1, 0, 2)), (t_len, e_dim))
            attn_out = T.matmul(merged, p[pre + "wo"])
            x = T.add(x, attn_out)

            h2 = T.layernorm(x, p[pre + "ln2_g"], p[pre + "ln2_b"])
            w_up = p[pre + "w_up"]
            if up_offsets is not None:
                w_up = T.add(w_up, up_offsets[i])
            hidden = T.relu(T.matmul(h2, w_up))           # (T, F)
            if taps is not None:
                taps.neuron_acts.append(hidden)
            if neuron_f is not None:
                hidden = T.mul(hidden, T.constant(neuron_f.astype(self.dtype)))
            x = T.add(x, T.matmul(hidden, p[pre + "w_down"]))
        except NonFiniteError as exc:
            raise NonFiniteError(f"{exc} in layer {i}") from exc
        if taps is not None:
            taps.attn_outs.append(attn_out)
            taps.layer_outs.append(x)
        return x

    def readout(self, x: T.Tensor) -> T.Tensor:
        """Final layernorm and tied projection: (T, E) -> logits (T, V)."""
        p = self.params
        return T.matmul(T.layernorm(x, p["lnf_g"], p["lnf_b"]),
                        T.transpose(p["tok_emb"], (1, 0)))

    def forward(self, tokens, mask: MaskSet | None = None, capture: str = CAPTURE_NONE,
                loss_from: int = 1, head_offsets=None, up_offsets=None,
                head_scales: np.ndarray | None = None,
                neuron_scales: np.ndarray | None = None) -> ForwardResult:
        """Run one sequence: ``embed``, every ``block``, ``readout``.
        ``loss_from`` is the first predicted position; the loss averages
        next-token NLL over positions loss_from..T-1.
        ``head_scales``/``neuron_scales`` multiply unit activations with
        float factors (masking is the 0/1 special case). ``head_offsets``
        and ``up_offsets`` are taped per-layer additive perturbations used
        by curvature probes.
        """
        cfg = self.cfg
        if capture not in _CAPTURE_MODES:
            raise ValueError(f"unknown capture mode {capture!r}")
        tokens = np.asarray(tokens, dtype=np.int64)
        x = self.embed(tokens)
        t_len = int(tokens.size)
        p = self.params
        want_acts = capture in (CAPTURE_ACTIVATIONS, CAPTURE_GRADS)
        want_grads = capture == CAPTURE_GRADS
        taps = Taps() if want_acts else None

        embed_t = x
        for i in range(cfg.num_layers):
            x = self.block(i, x, mask, head_scales, neuron_scales,
                           head_offsets, up_offsets, taps)
        logits = self.readout(x)

        loss_t = None
        n_pred = 0
        if t_len >= 2 and 1 <= loss_from <= t_len - 1:
            n_pred = t_len - loss_from
            loss_t = T.cross_entropy(
                T.slice_rows(logits, loss_from - 1, t_len - 1), tokens[loss_from:]
            )

        result = ForwardResult(
            cfg=cfg,
            logits=logits.data,
            loss=float(loss_t.data) if loss_t is not None else None,
            n_predicted=n_pred,
            loss_tensor=loss_t,
        )
        if want_acts:
            result.embed = embed_t.data.copy()
            result.head_acts = [t.data.copy() for t in taps.head_acts]
            result.neuron_acts = [t.data.copy() for t in taps.neuron_acts]
            result.attn_outs = [t.data.copy() for t in taps.attn_outs]
            result.layer_outs = [t.data.copy() for t in taps.layer_outs]
            result.up_weights = [p[f"h{i}.w_up"].data.copy()
                                 for i in range(cfg.num_layers)]
        if want_grads:
            if loss_t is None:
                raise EmptyStreamError(
                    "forward: gradient capture needs at least 2 tokens past loss_from"
                )
            self.zero_grads()
            T.backward(loss_t)
            result.head_grads = [self._grad_of(t) for t in taps.head_acts]
            result.neuron_grads = [self._grad_of(t) for t in taps.neuron_acts]
            result.up_grads = [self._grad_of(p[f"h{i}.w_up"])
                               for i in range(cfg.num_layers)]
            if head_offsets is not None:
                result.head_offset_grads = [self._grad_of(t) for t in head_offsets]
        return result

    def _unit_factors(self, mask: MaskSet | None, scales: np.ndarray | None,
                      kind: str, layer: int) -> np.ndarray | None:
        """Layer ``layer``'s row of the float64 mask-times-scales factors
        for one unit kind, or None when neither is given."""
        cfg = self.cfg
        width = cfg.num_heads if kind == "head" else cfg.ffn_dim
        base = None
        if mask is not None:
            mask.validate_for(cfg)
            arr = mask.heads if kind == "head" else mask.neurons
            base = arr[layer].astype(np.float64)
        if scales is not None:
            scales = np.asarray(scales, dtype=np.float64)
            if scales.shape != (cfg.num_layers, width):
                raise MaskShapeMismatchError(
                    f"{kind} scales shape {scales.shape} !="
                    f" ({cfg.num_layers}, {width})"
                )
            base = scales[layer] if base is None else base * scales[layer]
        return base

    @staticmethod
    def _grad_of(t: T.Tensor) -> np.ndarray:
        if t.grad is None:
            return np.zeros_like(t.data)
        return t.grad.copy()

    # -- evaluation ---------------------------------------------------------

    def eval_windows(self, tokens, window: int | None = None) -> list[np.ndarray]:
        """The non-overlapping windows ``stream_nll`` scores: a trailing
        partial window is kept when it still has something to predict."""
        tokens = np.asarray(tokens, dtype=np.int64)
        window = self.cfg.max_seq_len if window is None else int(window)
        if window < 2:
            raise ValueError("stream_nll: window must be >= 2")
        chunks = []
        for start in range(0, len(tokens), window):
            chunk = tokens[start:start + window]
            if len(chunk) < 2:
                break
            chunks.append(chunk)
        if not chunks:
            raise EmptyStreamError("stream_nll: nothing to predict in the stream")
        return chunks

    def stream_nll(self, tokens,
                   mask: MaskSet | Callable[[np.ndarray], MaskSet] | None = None,
                   window: int | None = None) -> tuple[float, int]:
        """Total float64 next-token NLL and prediction count over
        ``eval_windows``, run without a tape. ``mask`` is None (dense), a
        MaskSet, or a callable ``window_tokens -> MaskSet`` evaluated once
        per window.
        """
        total, count = 0.0, 0
        with T.no_grad():
            for chunk in self.eval_windows(tokens, window):
                res = self.forward(chunk, mask=mask(chunk) if callable(mask) else mask)
                total += _nll_from_logits(res.logits, chunk[1:])
                count += len(chunk) - 1
        return total, count


def _nll_from_logits(logits: np.ndarray, targets: np.ndarray) -> float:
    """float64 sum of next-token NLL; row i of logits predicts targets[i]."""
    z = np.asarray(logits[: len(targets)], dtype=np.float64)
    m = z.max(axis=-1, keepdims=True)
    lse = (m + np.log(np.exp(z - m).sum(axis=-1, keepdims=True))).reshape(-1)
    picked = z[np.arange(len(targets)), targets]
    return float((lse - picked).sum())


class _Replicas:
    """Per-worker model clones for deterministic parallel capture."""

    def __init__(self, model: TransformerModel, workers: int):
        self.workers = max(1, int(workers))
        self.models = [model] + [model.clone() for _ in range(self.workers - 1)]

    def run(self, jobs, fn):
        """Apply fn(model, job) across jobs, results in job order.

        Jobs are striped across worker threads and each thread drives its
        own model replica serially, so per-job numerics cannot race.
        """
        jobs = list(jobs)
        if self.workers == 1 or len(jobs) <= 1:
            return [fn(self.models[0], job) for job in jobs]
        from concurrent.futures import ThreadPoolExecutor

        results: list = [None] * len(jobs)

        def drive(worker_idx: int):
            out = []
            for idx in range(worker_idx, len(jobs), self.workers):
                out.append((idx, fn(self.models[worker_idx], jobs[idx])))
            return out

        with ThreadPoolExecutor(max_workers=self.workers) as pool:
            for chunk in pool.map(drive, range(self.workers)):
                for idx, value in chunk:
                    results[idx] = value
        return results
