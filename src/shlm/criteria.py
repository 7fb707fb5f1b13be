"""Saliency criteria scoring attention heads and FFN neurons.

Seven criteria score units per example (contextual): l2norm, gradnorm,
plainact, fisher, grasp, snip, nwot. Two are defined only over a batch
of examples (aggregate-only): jacov and epenas. Aggregation for the
contextual seven is the elementwise mean of per-example scores.
l2norm, gradnorm, plainact and fisher are rows of one reduction table.
snip is plainact on this model family: its |x| * |dL/dx| equals
|x * dL/dx| bit for bit. jacov and epenas are computed per layer block,
one gradient stack, correlation and eigvalsh call for all of a layer's
heads or neurons; the scores equal the per-unit computation bit for bit.

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
    CaptureMismatchError,
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
    _flat_scores,
    _Replicas,
    all_units,
)

NEG_INF = float("-inf")  # sentinel for log-of-zero nwot scores
_GRASP_EPS = 1e-4   # absolute step of the Hessian-vector finite difference
_JACOV_K = 1e-5     # eigenvalue offset inside jacov's log and reciprocal


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


def _require(capture: ForwardResult, attr: str, kind: CriterionKind) -> list:
    value = getattr(capture, attr)
    if value is None:
        raise MissingCaptureError(f"{kind.value} needs capture field {attr!r}")
    return value


# ---------------------------------------------------------------------------
# contextual criteria


# criterion -> (head fields, neuron fields, elementwise map, reduction,
# final map). The fields are multiplied in float64; heads then reduce over
# (T, head_dim) and neurons over their column. Per unit: l2norm is the L2
# norm of the activation, gradnorm that of the loss gradient, plainact the
# L1 norm of activation times gradient and fisher that product's mean
# square.
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
    return _flat_scores(*parts)


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
    return _flat_scores(heads, neurons)


def score_grasp(model: TransformerModel, tokens: np.ndarray, loss_from: int = 1,
                capture: ForwardResult | None = None) -> np.ndarray:
    """Hessian-gradient probe: L1 norm of -(H g) elementwise-times the
    activation (heads) or up-projection column (neurons).

    Runs in float64; a float32 model is widened first and captures its
    own gradients. Three taped passes per prompt: the gradient capture,
    which is both the Hessian's direction and its base gradient, then one
    step pass per probe (head offsets, up-projection offsets). A passed
    ``capture`` must come from a float64 ``CAPTURE_GRADS`` forward of this
    model on these ``tokens`` with this ``loss_from``; one whose logit
    rows or predicted count disagree raises ``CaptureMismatchError``.
    """
    if capture is not None:
        for what, got, want in (("logit rows", capture.logits.shape[0], len(tokens)),
                                ("n_predicted", capture.n_predicted,
                                 len(tokens) - loss_from)):
            if got != want:
                raise CaptureMismatchError(
                    f"grasp: capture has {what} {got}, expected {want}"
                    f" for {len(tokens)} tokens from loss_from {loss_from}")
    if model.dtype != np.float64:
        model = model.to_dtype(np.float64)
        capture = None
    if capture is None or capture.head_grads is None:
        capture = model.forward(tokens, capture=CAPTURE_GRADS, loss_from=loss_from)
    n_layers = model.cfg.num_layers
    # one probe per unit kind: (forward offset, its gradient, the factor
    # the Hessian-gradient product is multiplied by, the reduced axes)
    probes = (("head_offsets", capture.head_grads, capture.head_acts, (1, 2)),
              ("up_offsets", capture.up_grads, capture.up_weights, 0))
    parts = []
    for name, grads, factors, axis in probes:
        shape, size = grads[0].shape, grads[0].size
        g = np.concatenate([x.reshape(-1) for x in grads]).astype(np.float64)

        def loss(flat, name=name, shape=shape, size=size):
            offsets = [T.reshape(T.slice_rows(flat, i * size, (i + 1) * size), shape)
                       for i in range(n_layers)]
            return model.forward(tokens, loss_from=loss_from,
                                 **{name: offsets}).loss_tensor

        zero = T.Tensor(np.zeros_like(g), dtype=np.float64)
        hv = T.hessian_vector_product(loss, zero, T.Tensor(g), eps=_GRASP_EPS,
                                      grad0=g).data
        parts.append(np.stack([np.abs(-h.reshape(shape) * f).sum(axis=axis)
                               for h, f in zip(np.split(hv, n_layers), factors)]))
    return _flat_scores(*parts)


# ---------------------------------------------------------------------------
# aggregate-only criteria


def _grad_blocks(captures: list[ForwardResult]):
    """Per-example gradient vectors, one (units, examples, dim) float64
    block per (kind, layer), in canonical unit order.

    Heads use the position-mean of the activation gradient (length
    head_dim, well-defined across prompts of different lengths); neurons
    use the up-projection column gradient (length embed_dim). Blocks are
    C-contiguous so each row reduces in the same order as on its own.
    """
    for layer in range(captures[0].cfg.num_layers):
        yield np.stack([c.head_grads[layer].mean(axis=1) for c in captures],
                       axis=1).astype(np.float64)
    for layer in range(captures[0].cfg.num_layers):
        yield np.ascontiguousarray(
            np.stack([c.up_grads[layer].T for c in captures], axis=1),
            dtype=np.float64)


def _corrcoef_rows(m: np.ndarray) -> np.ndarray:
    """Row correlation matrix of each (rows, dim) matrix in a stack;
    zero-variance rows correlate with nothing but themselves."""
    x = m - m.mean(axis=-1, keepdims=True)
    norms = np.linalg.norm(x, axis=-1)
    ok = norms > 0
    safe = np.where(ok, norms, 1.0)
    xn = x / safe[..., None]
    c = xn @ np.swapaxes(xn, -1, -2)
    c[~(ok[..., :, None] & ok[..., None, :])] = 0.0
    diag = np.arange(c.shape[-1])
    c[..., diag, diag] = 1.0
    return np.clip(c, -1.0, 1.0)


def score_jacov(captures: list[ForwardResult]) -> np.ndarray:
    """Jacobian-covariance diversity score per unit across a batch."""
    if len(captures) < 2:
        raise BatchTooSmallError("jacov needs at least 2 examples")
    out = []
    for block in _grad_blocks(captures):
        lam = np.linalg.eigvalsh(_corrcoef_rows(block)) + _JACOV_K
        out.append(-(np.log(lam) + 1.0 / lam).sum(axis=-1))
    return np.concatenate(out)


def score_epenas(captures: list[ForwardResult], labels) -> np.ndarray:
    """Intra-class minus inter-class mean pairwise gradient correlation."""
    if len(captures) < 2:
        raise BatchTooSmallError("epenas needs at least 2 examples")
    labels = np.asarray(labels)
    if labels.shape != (len(captures),):
        raise ValueError("epenas: one label per example required")
    if np.unique(labels).size < 2:
        raise SingleClassError("epenas needs at least 2 distinct classes")
    iu, ju = np.triu_indices(len(captures), k=1)
    same = labels[iu] == labels[ju]
    out = []
    for block in _grad_blocks(captures):
        pair_corr = _corrcoef_rows(block)[:, iu, ju]
        # the fancy-indexed pairs are not C-contiguous; a contiguous copy
        # sums each unit's row in the order a lone row would be summed
        intra, inter = (np.ascontiguousarray(pair_corr[:, sel]).mean(axis=-1)
                        if sel.any() else 0.0 for sel in (same, ~same))
        out.append(intra - inter)
    return np.concatenate(out)


# ---------------------------------------------------------------------------
# collection driver


def _prompt_tokens(prompt) -> np.ndarray:
    """A prompt's int64 tokens: a plain token window, or a ``(prompt,
    target)`` pair joined in that order."""
    parts = prompt if isinstance(prompt, tuple) else (prompt,)
    return np.concatenate([np.asarray(p, dtype=np.int64) for p in parts])


def _prompt_parts(prompt, loss_on: str):
    """Normalize a prompt into (tokens, loss_from, class label)."""
    tokens = _prompt_tokens(prompt)
    if not isinstance(prompt, tuple):
        return tokens, 1, int(tokens[-1])
    head = len(prompt[0])
    return tokens, head if loss_on == "target" else 1, int(tokens[head])


def score_contextual(capture: ForwardResult, kind: CriterionKind,
                     model: TransformerModel | None = None,
                     tokens: np.ndarray | None = None,
                     loss_from: int = 1) -> np.ndarray:
    kind = CriterionKind(kind)
    if kind in AGGREGATE_ONLY:
        raise ContextualUnsupportedError(f"{kind.value} is aggregate-only")
    if kind in _REDUCTIONS:
        return _table_score(capture, kind)
    if kind == CriterionKind.NWOT:
        return score_nwot(capture)
    if model is None or tokens is None:
        raise MissingCaptureError("grasp scoring needs the model and tokens")
    return score_grasp(model, tokens, loss_from=loss_from, capture=capture)


def collect_criteria(model: TransformerModel, prompts, kind,
                     aggregate: bool = False, loss_on: str = "all",
                     workers: int = 1):
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
                                loss_from=loss_from)

    if kind == CriterionKind.GRASP:
        raw = replicas.run(list(enumerate(parts)), score_one)
    else:
        raw = [score_contextual(c, kind) for c in captures]

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
        units = [(u.layer, u.kind.value, u.index) for u in all_units(cfg)]
        for vec in scores:
            example = "aggregate" if vec.example_id is None else vec.example_id
            values = vec.values.tolist()
            writer.writerows([example, *units[flat], repr(values[flat])]
                             for flat in np.flatnonzero(vec.covered).tolist())
    if sidecar_path is not None:
        Path(sidecar_path).write_text(
            json.dumps(meta or {}, sort_keys=True, indent=2), encoding="utf-8"
        )
