"""Saliency criteria scoring attention heads and FFN neurons.

Seven criteria score units per example (contextual): l2norm, gradnorm,
plainact, fisher, grasp, snip, nwot. Two are defined only over a batch
of examples (aggregate-only): jacov and epenas. Aggregation for the
contextual seven is the elementwise mean of per-example scores.
l2norm, gradnorm, plainact and fisher are rows of one reduction table.
snip is plainact on this model family: its |x| * |dL/dx| equals
|x * dL/dx| bit for bit.

For a head the activation is its attention output ``A`` (heads, T,
head_dim) before masking; for an FFN neuron the activation is its
post-ReLU hidden column, and its parameters are the corresponding
up-projection column.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from . import tensor as T
from .errors import (
    BatchTooSmallError,
    ContextualUnsupportedError,
    MissingCaptureError,
    SingleClassError,
)
from .model import (
    CAPTURE_ACTIVATIONS,
    CAPTURE_GRADS,
    ForwardResult,
    ModelConfig,
    TransformerModel,
    UnitKind,
    _Replicas,
    num_units,
    unit_at,
)

NEG_INF = float("-inf")  # sentinel for log-of-zero nwot scores
_JACOV_K = 1e-5


class CriterionKind(str, Enum):
    L2NORM = "l2norm"
    GRADNORM = "gradnorm"
    PLAINACT = "plainact"
    FISHER = "fisher"
    GRASP = "grasp"
    SNIP = "snip"
    NWOT = "nwot"
    JACOV = "jacov"
    EPENAS = "epenas"


AGGREGATE_ONLY = (CriterionKind.JACOV, CriterionKind.EPENAS)
CONTEXTUAL_KINDS = tuple(k for k in CriterionKind if k not in AGGREGATE_ONLY)
ACTIVATION_ONLY = (CriterionKind.L2NORM, CriterionKind.NWOT)
LOSS_ON = ("all", "target")


def needs_grads(kind: CriterionKind) -> bool:
    return kind not in ACTIVATION_ONLY


@dataclass
class ScoreVector:
    """Scores for every unit in canonical order (heads block, then
    neurons block). ``covered`` marks units the producer actually scored;
    uncovered entries hold zeros and must be ignored by consumers."""

    values: np.ndarray
    criterion: str
    example_id: int | str | None = None
    covered: np.ndarray | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float32)
        if self.covered is None:
            self.covered = np.ones(self.values.shape, dtype=bool)
        else:
            self.covered = np.asarray(self.covered, dtype=bool)
        if self.covered.shape != self.values.shape or self.values.ndim != 1:
            raise ValueError("ScoreVector values/covered must be matching 1-D arrays")


def _flat_scores(cfg: ModelConfig, heads: np.ndarray, neurons: np.ndarray) -> np.ndarray:
    return np.concatenate([heads.reshape(-1), neurons.reshape(-1)]).astype(np.float64)


def _require(capture: ForwardResult, attr: str, kind: CriterionKind) -> list:
    value = getattr(capture, attr)
    if value is None:
        raise MissingCaptureError(f"{kind.value} needs capture field {attr!r}")
    return value


# ---------------------------------------------------------------------------
# contextual criteria


# criterion -> (head fields, neuron fields, elementwise map, reduction,
# final map). The fields are multiplied in float64; heads then reduce over
# (T, head_dim) and neurons over their column.
_REDUCTIONS = {
    CriterionKind.L2NORM: (("head_acts",), ("neuron_acts",),
                           np.square, np.sum, np.sqrt),
    CriterionKind.GRADNORM: (("head_grads",), ("up_grads",),
                             np.square, np.sum, np.sqrt),
    CriterionKind.PLAINACT: (("head_acts", "head_grads"),
                             ("up_weights", "up_grads"), np.abs, np.sum, None),
    CriterionKind.FISHER: (("head_acts", "head_grads"),
                           ("up_weights", "up_grads"), np.square, np.mean, None),
}
# SNIP's |x| * |dL/dx| equals |x * dL/dx| bit for bit in IEEE arithmetic,
# so on this model family it is plainact
_REDUCTIONS[CriterionKind.SNIP] = _REDUCTIONS[CriterionKind.PLAINACT]


def _table_score(capture: ForwardResult, kind: CriterionKind) -> np.ndarray:
    head_fields, neuron_fields, elementwise, reduce, final = _REDUCTIONS[kind]
    parts = []
    for names, axis in ((head_fields, (1, 2)), (neuron_fields, 0)):
        per_layer = []
        for layer in zip(*[_require(capture, name, kind) for name in names]):
            x = functools.reduce(np.multiply,
                                 [a.astype(np.float64) for a in layer])
            per_layer.append(reduce(elementwise(x), axis=axis))
        stacked = np.stack(per_layer)
        parts.append(stacked if final is None else final(stacked))
    return _flat_scores(capture.cfg, *parts)


def score_l2norm(capture: ForwardResult) -> np.ndarray:
    """L2 norm of the activation, per unit."""
    return _table_score(capture, CriterionKind.L2NORM)


def score_gradnorm(capture: ForwardResult) -> np.ndarray:
    """L2 norm of the loss gradient, per unit."""
    return _table_score(capture, CriterionKind.GRADNORM)


def score_plainact(capture: ForwardResult) -> np.ndarray:
    """L1 norm of activation times its loss gradient, per unit."""
    return _table_score(capture, CriterionKind.PLAINACT)


def score_fisher(capture: ForwardResult) -> np.ndarray:
    """Mean squared activation-gradient product, per unit."""
    return _table_score(capture, CriterionKind.FISHER)


score_snip = score_plainact


def score_nwot(capture: ForwardResult) -> np.ndarray:
    """log of the mean squared distance of activations from 1.

    Heads are reduced to one value per position by averaging channels.
    A unit with zero mean square gets the -inf sentinel (always pruned
    first).
    """
    cfg = capture.cfg
    acts = _require(capture, "head_acts", CriterionKind.NWOT)
    hidden = _require(capture, "neuron_acts", CriterionKind.NWOT)
    heads = np.zeros((cfg.num_layers, cfg.num_heads))
    neurons = np.zeros((cfg.num_layers, cfg.ffn_dim))
    for layer in range(cfg.num_layers):
        per_pos = acts[layer].astype(np.float64).mean(axis=2)     # (H, T)
        ms = np.square(1.0 - per_pos).mean(axis=1)
        heads[layer] = np.where(ms > 0.0, np.log(np.maximum(ms, 1e-300)), NEG_INF)
        col = hidden[layer].astype(np.float64)                    # (T, F)
        ms_n = np.square(1.0 - col).mean(axis=0)
        neurons[layer] = np.where(ms_n > 0.0, np.log(np.maximum(ms_n, 1e-300)), NEG_INF)
    return _flat_scores(cfg, heads, neurons)


def score_grasp(model: TransformerModel, tokens: np.ndarray, loss_from: int = 1,
                eps: float = 1e-4, capture: ForwardResult | None = None) -> np.ndarray:
    """Hessian-gradient probe: L1 norm of -(H g) elementwise-times the
    activation (heads) or up-projection column (neurons).

    Runs its own float64 captures; a float32 model is widened first.
    """
    if model.dtype != np.float64:
        model = model.to_dtype(np.float64)
        capture = None
    if capture is None or capture.head_grads is None:
        capture = model.forward(tokens, capture=CAPTURE_GRADS, loss_from=loss_from)
    cfg = model.cfg
    t_len = len(tokens)
    h_shape = (cfg.num_heads, t_len, cfg.head_dim)
    u_shape = (cfg.embed_dim, cfg.ffn_dim)

    def split(flat: T.Tensor, shape) -> list[T.Tensor]:
        size = int(np.prod(shape))
        return [
            T.reshape(T.slice_rows(flat, i * size, (i + 1) * size), shape)
            for i in range(cfg.num_layers)
        ]

    # heads: Hessian w.r.t. head activations, probed along their gradient
    g_heads = np.concatenate([g.reshape(-1) for g in capture.head_grads]).astype(np.float64)
    zero_h = T.Tensor(np.zeros_like(g_heads), dtype=np.float64)

    def loss_h(flat):
        res = model.forward(tokens, head_offsets=split(flat, h_shape),
                            loss_from=loss_from)
        return res.loss_tensor

    hv_heads = T.hessian_vector_product(loss_h, zero_h, T.Tensor(g_heads), eps=eps).data

    # neurons: Hessian w.r.t. up-projection weights, probed along their gradient
    g_ups = np.concatenate([g.reshape(-1) for g in capture.up_grads]).astype(np.float64)
    zero_u = T.Tensor(np.zeros_like(g_ups), dtype=np.float64)

    def loss_u(flat):
        res = model.forward(tokens, up_offsets=split(flat, u_shape),
                            loss_from=loss_from)
        return res.loss_tensor

    hv_ups = T.hessian_vector_product(loss_u, zero_u, T.Tensor(g_ups), eps=eps).data

    heads = np.zeros((cfg.num_layers, cfg.num_heads))
    neurons = np.zeros((cfg.num_layers, cfg.ffn_dim))
    h_size = int(np.prod(h_shape))
    u_size = int(np.prod(u_shape))
    for layer in range(cfg.num_layers):
        hg = hv_heads[layer * h_size:(layer + 1) * h_size].reshape(h_shape)
        heads[layer] = np.abs(-hg * capture.head_acts[layer]).sum(axis=(1, 2))
        ug = hv_ups[layer * u_size:(layer + 1) * u_size].reshape(u_shape)
        neurons[layer] = np.abs(-ug * capture.up_weights[layer]).sum(axis=0)
    return _flat_scores(cfg, heads, neurons)


# ---------------------------------------------------------------------------
# aggregate-only criteria


def _unit_grad_matrix(captures: list[ForwardResult], flat: int) -> np.ndarray:
    """Per-example gradient vectors for one unit, stacked as rows.

    Heads use the position-mean of the activation gradient (length
    head_dim, well-defined across prompts of different lengths); neurons
    use the up-projection column gradient (length embed_dim).
    """
    cfg = captures[0].cfg
    uid = unit_at(cfg, flat)
    rows = []
    for cap in captures:
        if uid.kind == UnitKind.HEAD:
            rows.append(cap.head_grads[uid.layer][uid.index].mean(axis=0))
        else:
            rows.append(cap.up_grads[uid.layer][:, uid.index])
    return np.stack(rows).astype(np.float64)


def _corrcoef_rows(m: np.ndarray) -> np.ndarray:
    """Row correlation matrix; zero-variance rows correlate with nothing
    but themselves."""
    x = m - m.mean(axis=1, keepdims=True)
    norms = np.linalg.norm(x, axis=1)
    ok = norms > 0
    safe = np.where(ok, norms, 1.0)
    xn = x / safe[:, None]
    c = xn @ xn.T
    c[~ok, :] = 0.0
    c[:, ~ok] = 0.0
    np.fill_diagonal(c, 1.0)
    return np.clip(c, -1.0, 1.0)


def score_jacov(captures: list[ForwardResult], k: float = _JACOV_K) -> np.ndarray:
    """Jacobian-covariance diversity score per unit across a batch."""
    if len(captures) < 2:
        raise BatchTooSmallError("jacov needs at least 2 examples")
    cfg = captures[0].cfg
    out = np.zeros(num_units(cfg))
    for flat in range(num_units(cfg)):
        c = _corrcoef_rows(_unit_grad_matrix(captures, flat))
        lam = np.linalg.eigvalsh(c)
        out[flat] = float(-(np.log(lam + k) + 1.0 / (lam + k)).sum())
    return out


def score_epenas(captures: list[ForwardResult], labels) -> np.ndarray:
    """Intra-class minus inter-class mean pairwise gradient correlation."""
    if len(captures) < 2:
        raise BatchTooSmallError("epenas needs at least 2 examples")
    labels = np.asarray(labels)
    if labels.shape != (len(captures),):
        raise ValueError("epenas: one label per example required")
    if np.unique(labels).size < 2:
        raise SingleClassError("epenas needs at least 2 distinct classes")
    cfg = captures[0].cfg
    b = len(captures)
    iu, ju = np.triu_indices(b, k=1)
    same = labels[iu] == labels[ju]
    out = np.zeros(num_units(cfg))
    for flat in range(num_units(cfg)):
        c = _corrcoef_rows(_unit_grad_matrix(captures, flat))
        pair_corr = c[iu, ju]
        intra = float(pair_corr[same].mean()) if same.any() else 0.0
        inter = float(pair_corr[~same].mean()) if (~same).any() else 0.0
        out[flat] = intra - inter
    return out


# ---------------------------------------------------------------------------
# collection driver


def _prompt_parts(prompt, loss_on: str):
    """Normalize a prompt into (tokens, loss_from, class label)."""
    if isinstance(prompt, tuple):
        head, tail = prompt
        tokens = np.concatenate([np.asarray(head, dtype=np.int64),
                                 np.asarray(tail, dtype=np.int64)])
        loss_from = len(head) if loss_on == "target" else 1
        label = int(np.asarray(tail)[0])
    else:
        tokens = np.asarray(prompt, dtype=np.int64)
        loss_from = 1
        label = int(tokens[-1])
    return tokens, loss_from, label


def score_contextual(capture: ForwardResult, kind: CriterionKind,
                     model: TransformerModel | None = None,
                     tokens: np.ndarray | None = None,
                     loss_from: int = 1, grasp_eps: float = 1e-4) -> np.ndarray:
    kind = CriterionKind(kind)
    if kind in AGGREGATE_ONLY:
        raise ContextualUnsupportedError(f"{kind.value} is aggregate-only")
    if kind in _REDUCTIONS:
        return _table_score(capture, kind)
    if kind == CriterionKind.NWOT:
        return score_nwot(capture)
    if model is None or tokens is None:
        raise MissingCaptureError("grasp scoring needs the model and tokens")
    return score_grasp(model, tokens, loss_from=loss_from, eps=grasp_eps,
                       capture=capture)


def collect_criteria(model: TransformerModel, prompts, kind,
                     aggregate: bool = False, loss_on: str = "all",
                     workers: int = 1, grasp_eps: float = 1e-4):
    """Score every unit on each prompt.

    Returns a list of per-example ScoreVectors, or a single aggregated
    ScoreVector when ``aggregate`` is set. jacov and epenas are only
    available aggregated.
    """
    kind = CriterionKind(kind)
    if kind in AGGREGATE_ONLY and not aggregate:
        raise ContextualUnsupportedError(
            f"criterion '{kind.value}' is aggregate-only; pass aggregate=True"
        )
    if not prompts:
        raise BatchTooSmallError("collect_criteria: no prompts given")
    if loss_on not in LOSS_ON:
        raise ValueError(f"loss_on must be 'all' or 'target', got {loss_on!r}")

    parts = [_prompt_parts(p, loss_on) for p in prompts]
    capture_mode = CAPTURE_GRADS if needs_grads(kind) else CAPTURE_ACTIVATIONS
    grad_mode = contextlib.nullcontext if needs_grads(kind) else T.no_grad
    scoring_model = model.to_dtype(np.float64) if kind == CriterionKind.GRASP else model
    replicas = _Replicas(scoring_model, workers)

    def capture_one(m: TransformerModel, part):
        tokens, loss_from, _ = part
        with grad_mode():   # entered in the worker: the mode is per thread
            return m.forward(tokens, capture=capture_mode, loss_from=loss_from)

    captures = replicas.run(parts, capture_one)

    if kind == CriterionKind.JACOV:
        values = score_jacov(captures)
        return ScoreVector(values, kind.value, example_id=None)
    if kind == CriterionKind.EPENAS:
        labels = [label for _, _, label in parts]
        values = score_epenas(captures, labels)
        return ScoreVector(values, kind.value, example_id=None)

    def score_one(m: TransformerModel, idx_part):
        idx, (tokens, loss_from, _) = idx_part
        return score_contextual(captures[idx], kind, model=m, tokens=tokens,
                                loss_from=loss_from, grasp_eps=grasp_eps)

    if kind == CriterionKind.GRASP:
        raw = replicas.run(list(enumerate(parts)), score_one)
    else:
        raw = [
            score_contextual(captures[i], kind)
            for i in range(len(captures))
        ]

    if aggregate:
        return ScoreVector(np.mean(np.stack(raw), axis=0), kind.value, example_id=None)
    return [ScoreVector(v, kind.value, example_id=i) for i, v in enumerate(raw)]


# ---------------------------------------------------------------------------
# persistence


def write_scores_csv(scores, cfg: ModelConfig, csv_path, meta: dict | None = None,
                     sidecar_path=None) -> None:
    """Rows of (example_id, layer, kind, index, score) in canonical unit
    order, plus an optional JSON sidecar describing the run."""
    if isinstance(scores, ScoreVector):
        scores = [scores]
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["example_id", "layer", "kind", "index", "score"])
        for vec in scores:
            example = "aggregate" if vec.example_id is None else vec.example_id
            for flat in range(len(vec.values)):
                if not vec.covered[flat]:
                    continue
                uid = unit_at(cfg, flat)
                writer.writerow([example, uid.layer, uid.kind.value, uid.index,
                                 repr(float(vec.values[flat]))])
    if sidecar_path is not None:
        Path(sidecar_path).write_text(
            json.dumps(meta or {}, sort_keys=True, indent=2), encoding="utf-8"
        )
