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
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field, fields
from enum import Enum

import numpy as np

from . import tensor as T
from .errors import (
    EmptyStreamError,
    EmptyTapeError,
    MaskShapeMismatchError,
    NonFiniteError,
    SequenceTooLongError,
)

CAPTURE_NONE = "none"
CAPTURE_ACTIVATIONS = "activations"
CAPTURE_GRADS = "grads"
_CAPTURE_MODES = (CAPTURE_NONE, CAPTURE_ACTIVATIONS, CAPTURE_GRADS)

_NEG_ATTN = -1e9  # additive score for future positions
# Tokens per batched forward (``batch_groups``). A masked-eval group is
# untaped and keeps only its activations, so larger groups cost little
# memory: 512 runs the oracle's three 128-token windows as one. A capture
# chunk keeps its tape and captures until it is scored: 256 bounds that.
_BATCH_TOKENS = 512
_CAPTURE_TOKENS = 256


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
                     "ffn_dim", "vocab_size", "max_seq_len"):
            value, least = getattr(self, name), 2 if name == "max_seq_len" else 1
            if not isinstance(value, (int, np.integer)) or value < least:
                raise ValueError(f"ModelConfig.{name} must be an integer >= {least}")
        if self.embed_dim != self.num_heads * self.head_dim:
            raise ValueError(
                f"embed_dim {self.embed_dim} != num_heads {self.num_heads}"
                f" * head_dim {self.head_dim}"
            )
        if self.activation != "relu":
            raise ValueError("only relu FFNs are supported")
        if self.positional != "learned":
            raise ValueError("only learned position embeddings are supported")

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


def unit_at(cfg: ModelConfig, flat: int) -> UnitId:
    heads = num_head_units(cfg)
    if not (0 <= flat < num_units(cfg)):
        raise ValueError(f"flat unit index {flat} out of range")
    if flat < heads:
        return UnitId(flat // cfg.num_heads, UnitKind.HEAD, flat % cfg.num_heads)
    flat -= heads
    return UnitId(flat // cfg.ffn_dim, UnitKind.NEURON, flat % cfg.ffn_dim)


def unit_rows(cfg: ModelConfig) -> list[tuple[int, str, int]]:
    """(layer, kind value, index) of every unit, in canonical order."""
    return [(layer, kind.value, index) for kind, width in
            ((UnitKind.HEAD, cfg.num_heads), (UnitKind.NEURON, cfg.ffn_dim))
            for layer in range(cfg.num_layers) for index in range(width)]


def unit_blocks(cfg: ModelConfig, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Views (heads (L, H), neurons (L, F)) into a canonical flat unit
    vector; a write through a block lands in ``flat``."""
    n_heads = num_head_units(cfg)
    return (flat[:n_heads].reshape(cfg.num_layers, cfg.num_heads),
            flat[n_heads:].reshape(cfg.num_layers, cfg.ffn_dim))


def _flat_scores(heads: np.ndarray, neurons: np.ndarray) -> np.ndarray:
    """The inverse of ``unit_blocks``: one float64 vector in canonical order."""
    return np.concatenate([heads.reshape(-1), neurons.reshape(-1)]).astype(np.float64)


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
    """Values (and optionally gradients) captured by one forward pass of
    one sequence; a batched forward gives one per sequence."""

    cfg: ModelConfig
    logits: np.ndarray
    loss: float | None
    loss_tensor: "T.Tensor | None" = None          # taped forwards (see forward)
    embed: np.ndarray | None = None
    head_acts: list[np.ndarray] | None = None      # per layer (H, T, d_h), pre-mask
    neuron_acts: list[np.ndarray] | None = None    # per layer (T, F), post-ReLU pre-mask
    attn_outs: list[np.ndarray] | None = None      # per layer (T, E), pre-residual
    layer_outs: list[np.ndarray] | None = None     # per layer (T, E), post-block
    head_grads: list[np.ndarray] | None = None     # per layer dL/d head_acts
    neuron_grads: list[np.ndarray] | None = None   # per layer dL/d neuron_acts
    up_weights: list[np.ndarray] | None = None     # per layer (E, F), read-only views
    up_grads: Sequence[np.ndarray] | None = None   # per layer (E, F), formed on read


@dataclass
class Taps:
    """Values kept for capture, Tensors of the taped ops or (under
    ``no_grad``) the array ops' arrays; each ``block`` call appends one to
    each list, with the batch axis first when it runs a batch: per-head
    attention (H, T, d_h) and post-ReLU FFN activations (T, F), both
    before masking, the layernormed FFN input (T, E) that the
    up-projection multiplies, the attention output (T, E) before the
    residual add, and the block output (T, E). No op writes into a tapped
    value, so a capture keeps these arrays, not copies."""

    head_acts: list = field(default_factory=list)
    neuron_acts: list = field(default_factory=list)
    ffn_inputs: list = field(default_factory=list)
    attn_outs: list = field(default_factory=list)
    layer_outs: list = field(default_factory=list)


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

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.params.items()}

    def to_dtype(self, dtype) -> "TransformerModel":
        return TransformerModel(self.cfg, dtype=dtype, params=self.state_arrays())

    def clone(self) -> "TransformerModel":
        return TransformerModel(self.cfg, dtype=self.dtype, params=self.state_arrays())

    # -- forward ------------------------------------------------------------

    # ``embed``, ``block`` and ``readout`` use the ops of ``T.ops()``: Tensors
    # with the tape on, plain arrays under ``no_grad``, with the same bits.
    # Each takes one sequence or a batch of equal-length sequences with the
    # batch axis first; every product then runs once per sequence with that
    # sequence's own shapes, and every reduction runs along one sequence's
    # rows, so each sequence's values equal its own 1-D run bit for bit.

    def embed(self, tokens):
        """Token plus position embeddings: (T,) tokens give (T, E), a
        batch (B, T) gives (B, T, E)."""
        tokens = np.asarray(tokens, dtype=np.int64)
        if tokens.ndim not in (1, 2) or tokens.size == 0:
            raise EmptyStreamError(
                "forward: need a non-empty 1-D token sequence or 2-D batch")
        t_len = int(tokens.shape[-1])
        if t_len > self.cfg.max_seq_len:
            raise SequenceTooLongError(
                f"sequence length {t_len} exceeds max_seq_len {self.cfg.max_seq_len}"
            )
        O, p = T.ops(), self.params
        return O.add_(O.embedding_lookup(O.leaf(p["tok_emb"]), tokens),
                      O.slice_rows(O.leaf(p["pos_emb"]), 0, t_len))

    def block(self, i: int, x, keep=(None, None), head_offsets=None,
              up_offsets=None, taps: Taps | None = None):
        """Block ``i`` applied to its input ``x``, (T, E) or a batch
        (B, T, E): causal attention, then the FFN, each added to the
        residual. ``keep`` is layer ``i``'s (head, neuron) pair of
        ``keep_factors``; the offsets are the whole-model unit hooks of
        ``forward``, of which the block reads its own layer. ``taps``
        receives the captured values. A non-finite value is reported with
        the layer as well as the op.

        The block is its two halves: ``head_outputs`` runs up to the
        per-head attention output, where no mask acts yet, and
        ``block_tail`` applies the head keep factors and runs the rest. A
        pass that already holds a layer's ``head_outputs`` can start that
        layer at ``block_tail``, with the bits of the whole block.

        Without a tape only three values are checked, each where a later
        op could make a non-finite value finite: the scores before the
        softmax (``exp(-inf)`` is 0), the product before the ReLU (which
        zeroes ``-inf``) and the block output. No in-place write touches
        ``x`` or a tapped value.
        """
        att = self.head_outputs(i, x, head_offsets, taps)
        return self.block_tail(i, x, att, keep, up_offsets, taps)

    def head_outputs(self, i: int, x, head_offsets=None, taps: Taps | None = None):
        """The first half of ``block``: layernorm, QKV, causal softmax and
        ``softmax . V``, plus layer ``i``'s ``head_offsets``, giving the
        pre-mask per-head output (H, T, d_h), or (B, H, T, d_h) for a
        batch; it is what ``taps.head_acts`` receives."""
        O = T.ops()
        n_heads, d_head = self.cfg.num_heads, self.cfg.head_dim
        lead, t_len = x.shape[:-2], x.shape[-2]
        nb = len(lead)
        swap_th = (*range(nb), nb + 1, nb, nb + 2)     # (T, H, d) -> (H, T, d)
        swap_last = (*range(nb + 1), nb + 2, nb + 1)   # (H, T, d) -> (H, d, T)
        p = self.params
        pre = f"h{i}."
        try:
            h1 = O.layernorm(x, O.leaf(p[pre + "ln1_g"]), O.leaf(p[pre + "ln1_b"]))
            q, k, v = (O.transpose(O.reshape(O.matmul(h1, O.leaf(p[pre + w])),
                                             (*lead, t_len, n_heads, d_head)), swap_th)
                       for w in ("wq", "wk", "wv"))
            scores = O.add_(O.scale_(O.matmul(q, O.transpose(k, swap_last)),
                                     1.0 / math.sqrt(d_head)),
                            O.leaf(_causal(t_len, self.dtype)))
            O.check(scores, "attention scores")
            att = O.matmul(O.softmax_rows_(scores), v)    # (H, T, d_h)
            if head_offsets is not None:
                att = O.add(att, O.leaf(head_offsets[i]))
        except NonFiniteError as exc:
            raise NonFiniteError(f"{exc} in layer {i}") from exc
        if taps is not None:
            taps.head_acts.append(att)
        return att

    def block_tail(self, i: int, x, att, keep=(None, None), up_offsets=None,
                   taps: Taps | None = None):
        """The second half of ``block``: layer ``i``'s head keep factors
        times its ``head_outputs`` ``att``, then ``wo``, the residual and
        the FFN (with ``up_offsets`` and the neuron keep factors) on the
        block input ``x``; neither input is written. ``keep`` is the
        layer's (head, neuron) pair of ``keep_factors``."""
        O = T.ops()
        lead, (t_len, e_dim) = x.shape[:-2], x.shape[-2:]
        nb = len(lead)
        head_f, neuron_f = keep
        swap_th = (*range(nb), nb + 1, nb, nb + 2)     # (H, T, d) -> (T, H, d)
        p = self.params
        pre = f"h{i}."
        try:
            if head_f is not None:
                att = O.mul(att, O.const(head_f))
            merged = O.reshape(O.transpose(att, swap_th), (*lead, t_len, e_dim))
            attn_out = O.matmul(merged, O.leaf(p[pre + "wo"]))
            x = O.add(x, attn_out)

            h2 = O.layernorm(x, O.leaf(p[pre + "ln2_g"]), O.leaf(p[pre + "ln2_b"]))
            w_up = O.leaf(p[pre + "w_up"])
            if up_offsets is not None:
                w_up = O.add(w_up, O.leaf(up_offsets[i]))
            pre_act = O.matmul(h2, w_up)
            O.check(pre_act, "matmul")
            hidden = O.relu_(pre_act)                     # (T, F)
            if taps is not None:
                taps.neuron_acts.append(hidden)
                taps.ffn_inputs.append(h2)
            if neuron_f is not None:
                hidden = O.mul(hidden, O.const(neuron_f))
            x = O.add_(x, O.matmul(hidden, O.leaf(p[pre + "w_down"])))
            O.check(x, "block output")
        except NonFiniteError as exc:
            raise NonFiniteError(f"{exc} in layer {i}") from exc
        if taps is not None:
            taps.attn_outs.append(attn_out)
            taps.layer_outs.append(x)
        return x

    def keep_factors(self, mask: "MaskSet | Sequence[MaskSet] | None",
                     batch: int | None = None) -> list[tuple]:
        """Each layer's (head, neuron) keep factors for ``mask``, the one
        form in which a mask enters ``block``: 0.0 or 1.0 in the model
        dtype, shaped to multiply the layer's head outputs and FFN
        activations, (H, 1, 1) and (F,) for one MaskSet, or (B, H, 1, 1)
        and (B, 1, F) for a list of one MaskSet per sequence of a batch of
        ``batch``; None for a kind the layer keeps whole, and for both
        when ``mask`` is None. Every mask is validated here, once."""
        cfg = self.cfg
        if mask is None:
            return [(None, None)] * cfg.num_layers
        if isinstance(mask, MaskSet):
            mask.validate_for(cfg)
            heads, neurons = mask.heads[:, :, None, None], mask.neurons
        else:
            if batch is None or len(mask) != batch:
                raise MaskShapeMismatchError(
                    f"{len(mask)} masks for "
                    + ("one sequence" if batch is None else f"a batch of {batch}"))
            for one in mask:
                one.validate_for(cfg)
            heads = np.stack([one.heads for one in mask], axis=1)[..., None, None]
            neurons = np.stack([one.neurons for one in mask], axis=1)[:, :, None, :]
        return [tuple(None if f.all() else f.astype(self.dtype) for f in pair)
                for pair in zip(heads, neurons)]

    def readout(self, x):
        """Final layernorm and tied projection: (..., T, E) -> logits (..., T, V)."""
        O, p = T.ops(), self.params
        return O.matmul(O.layernorm(x, O.leaf(p["lnf_g"]), O.leaf(p["lnf_b"])),
                        O.transpose(O.leaf(p["tok_emb"]), (1, 0)))

    def forward(self, tokens, mask: MaskSet | None = None, capture: str = CAPTURE_NONE,
                loss_from: int = 1, head_offsets=None, up_offsets=None,
                first_layer: int = 0) -> "ForwardResult | list[ForwardResult]":
        """Run ``embed``, every ``block`` and ``readout`` on one sequence
        (T,), which gives a ForwardResult, or on a batch of equal-length
        sequences (B, T), which gives a list of B ForwardResults, each
        bit-identical to that sequence's own 1-D forward.
        ``loss_from`` is the first predicted position; the loss averages
        next-token NLL over positions loss_from..T-1, and is None when
        that range is empty. A taped forward keeps the loss on its tape
        in ``loss_tensor``: 0-d for one sequence, and for a batch the
        (B,) tensor of every sequence's loss, shared by the batch's
        results. A batched gradient capture keeps none, so its tape goes
        once its own backward has run.
        The unit hooks are ``mask``, which zeroes heads and neurons (one
        MaskSet, or a list of one per sequence of a batch; it enters the
        blocks as ``keep_factors``, built once per call), and the taped
        offsets that curvature probes perturb: ``head_offsets[i]``
        is added to layer i's head outputs and ``up_offsets[i]`` to its
        ``w_up``. An offset with a leading batch axis gives each sequence
        of a batch its own, (B, H, T, d_h) or (B, E, F).
        A ``CAPTURE_GRADS`` forward back-propagates the sum of the
        sequences' mean losses, so each sequence's gradients are those of
        its own loss, only to the head and neuron taps; no parameter gets
        a ``.grad``. Each sequence's ``up_grads`` (dL/dw_up) is an
        ``UpGrads``: it keeps that sequence's FFN inputs and forms a
        layer's (E, F) gradient from them and the neuron gradients and
        activations each time it is read. It needs the tape;
        under ``no_grad`` the forward runs on arrays and ``loss_tensor``
        is None. ``first_layer`` is the first layer a gradient capture
        differentiates: only the taps of that layer and later ones are
        passed to ``T.backward``, so the backward stops at that layer's
        input, and each of their gradients has the bits of a capture of
        every layer. An earlier layer's head and neuron gradients are
        zeros, as for any tap the loss does not reach.
        """
        cfg = self.cfg
        if capture not in _CAPTURE_MODES:
            raise ValueError(f"unknown capture mode {capture!r}")
        if not 0 <= first_layer <= cfg.num_layers:
            raise ValueError(f"first_layer {first_layer} outside [0, {cfg.num_layers}]")
        O = T.ops()
        if capture == CAPTURE_GRADS and O is not T.TAPED:
            raise EmptyTapeError("forward: gradient capture needs the tape,"
                                 " which no_grad turns off")
        tokens = np.asarray(tokens, dtype=np.int64)
        x = self.embed(tokens)
        t_len = int(tokens.shape[-1])
        want_acts = capture in (CAPTURE_ACTIVATIONS, CAPTURE_GRADS)
        taps = Taps() if want_acts else None

        embed_t = x
        keep = self.keep_factors(mask, None if tokens.ndim == 1 else len(tokens))
        for i in range(cfg.num_layers):
            x = self.block(i, x, keep[i], head_offsets, up_offsets, taps)
        logits = self.readout(x)

        loss_t = (O.cross_entropy(O.slice_rows(logits, loss_from - 1, t_len - 1, axis=-2),
                                  tokens[..., loss_from:])
                  if 1 <= loss_from <= t_len - 1 else None)

        fields = {"logits": O.value(logits)}
        up_weights = None
        if want_acts:
            fields["embed"] = O.value(embed_t)
            for name in ("head_acts", "neuron_acts", "attn_outs", "layer_outs"):
                fields[name] = [O.value(t) for t in getattr(taps, name)]
            up_weights = [self.params[f"h{i}.w_up"].data.view()
                          for i in range(cfg.num_layers)]
            for view in up_weights:
                view.flags.writeable = False
        if capture == CAPTURE_GRADS:
            if loss_t is None:
                raise EmptyStreamError(
                    "forward: gradient capture needs at least 2 tokens past loss_from"
                )
            T.backward(T.tsum(loss_t), wrt=taps.head_acts[first_layer:]
                       + taps.neuron_acts[first_layer:])
            fields["head_grads"], fields["neuron_grads"] = (
                [np.zeros_like(t.data) if t.grad is None else t.grad for t in ts]
                for ts in (taps.head_acts, taps.neuron_acts))
            ffn_inputs = [t.data for t in taps.ffn_inputs]
        loss_v = None if loss_t is None else O.value(loss_t)
        keep_loss = O is T.TAPED and (tokens.ndim == 1 or capture != CAPTURE_GRADS)

        def result(b) -> ForwardResult:
            per_seq = {name: [a[b] for a in v] if isinstance(v, list) else v[b]
                       for name, v in fields.items()}
            if capture == CAPTURE_GRADS:
                per_seq["up_grads"] = UpGrads([a[b] for a in ffn_inputs],
                                              per_seq["neuron_grads"],
                                              per_seq["neuron_acts"])
            return ForwardResult(
                cfg=cfg, loss=None if loss_v is None else float(loss_v[b]),
                up_weights=up_weights, loss_tensor=loss_t if keep_loss else None,
                **per_seq)

        if tokens.ndim == 1:
            return result(())
        return [result(b) for b in range(len(tokens))]

    # -- evaluation ---------------------------------------------------------

    def eval_windows(self, tokens, window: int | None = None) -> list[np.ndarray]:
        """The non-overlapping windows ``stream_nll`` scores: a trailing
        partial window is kept when it still has something to predict."""
        tokens = np.asarray(tokens, dtype=np.int64)
        window = self.cfg.max_seq_len if window is None else int(window)
        if window < 2:
            raise ValueError("eval_windows: window must be >= 2")
        # only the last window can be shorter than 2
        chunks = [tokens[s:s + window] for s in range(0, len(tokens), window)]
        chunks = [c for c in chunks if len(c) >= 2]
        if not chunks:
            raise EmptyStreamError("eval_windows: nothing to predict in the stream")
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


class UpGrads(Sequence):
    """One sequence's per-layer dL/dw_up, (E, F) each, formed on read.

    It holds the capture's per-layer FFN inputs (T, E), neuron gradients
    and post-ReLU activations (T, F); ``[i]`` is layer i's FFN input
    transposed times the ReLU's VJP of its neuron gradient, the one gemm
    a lone sequence's capture runs, bit-identical to the ``w_up.grad`` of
    a backward to the parameter. Nothing is cached: every read is a new
    array, so a consumer that reads each layer once keeps at most one
    layer alive."""

    def __init__(self, ffn_inputs, neuron_grads, neuron_acts):
        self._parts = list(zip(ffn_inputs, neuron_grads, neuron_acts))

    def __len__(self) -> int:
        return len(self._parts)

    def __getitem__(self, i: int) -> np.ndarray:
        ffn_in, neuron_grad, neuron_act = self._parts[i]
        grad = ffn_in.T @ (neuron_grad * (neuron_act > 0))
        grad += 0.0   # -0.0 to +0.0, as the parameter's zeroed grad buffer gives
        return grad


def _nll_from_logits(logits: np.ndarray, targets: np.ndarray) -> float:
    """float64 sum of next-token NLL; row i of logits predicts targets[i]."""
    z = np.asarray(logits[: len(targets)], dtype=np.float64)
    m = z.max(axis=-1, keepdims=True)
    lse = (m + np.log(np.exp(z - m).sum(axis=-1, keepdims=True))).reshape(-1)
    picked = z[np.arange(len(targets)), targets]
    return float((lse - picked).sum())


def batch_groups(lengths, budget: int, keys=None) -> list[list[int]]:
    """Item indices grouped for batched forwards: the items of one key
    (by default, of one length) in input order, keys in order of first
    appearance, split into groups of at most ``budget`` tokens (at least
    one item each): ``_BATCH_TOKENS`` for masked eval, ``_CAPTURE_TOKENS``
    for captures."""
    lengths = list(lengths)
    by_key: dict = {}
    for idx, key in enumerate(lengths if keys is None else keys):
        by_key.setdefault(key, []).append(idx)
    groups = []
    for members in by_key.values():
        size = max(1, budget // lengths[members[0]])
        groups += [members[s:s + size] for s in range(0, len(members), size)]
    return groups


def run_striped(jobs, fn, workers: int = 1) -> list:
    """``fn(job)`` for every job, results in job order. Jobs are striped
    across at most ``min(workers, len(jobs))`` threads, each running its
    stripe serially, or run inline when that is one. The threads share
    the caller's model: no capture and no masked pass writes model
    state, and the grad mode is per thread."""
    jobs = list(jobs)
    threads = min(max(1, int(workers)), len(jobs))
    if threads <= 1:
        return [fn(job) for job in jobs]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        stripes = list(pool.map(lambda start: [fn(job) for job in jobs[start::threads]],
                                range(threads)))
    return [stripes[i % threads][i // threads] for i in range(len(jobs))]
