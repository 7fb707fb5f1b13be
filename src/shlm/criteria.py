"""Saliency criteria scoring attention heads and FFN neurons.

Seven criteria score units per example (contextual): l2norm, gradnorm,
plainact, fisher, grasp, snip, nwot. Two are defined only over a batch
of examples (aggregate-only): jacov and epenas. Aggregation for the
contextual seven is the elementwise mean of per-example scores.
l2norm, gradnorm, plainact and fisher are rows of one reduction table.
snip is plainact on this model family: its |x| * |dL/dx| equals
|x * dL/dx| bit for bit. jacov and epenas are computed per layer block,
one gradient block for all of a layer's heads or neurons and one
correlation and eigvalsh call per slice of up to 64 of them; the scores
equal the per-unit computation bit for bit.

For a head the activation is its attention output ``A`` (heads, T,
head_dim) before masking; for an FFN neuron the activation is its
post-ReLU hidden column, and its parameters are the corresponding
up-projection column.
"""

from __future__ import annotations

import contextlib
import csv
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
    ShapeMismatchError,
    SingleClassError,
)
from .model import (
    CAPTURE_ACTIVATIONS,
    CAPTURE_GRADS,
    ForwardResult,
    ModelConfig,
    TransformerModel,
    _CAPTURE_TOKENS,
    _flat_scores,
    batch_groups,
    num_units,
    run_striped,
    unit_blocks,
    unit_rows,
)

NEG_INF = float("-inf")  # sentinel for log-of-zero nwot scores
_GRASP_EPS = 1e-4   # absolute step of the Hessian-vector finite difference
_JACOV_K = 1e-5     # eigenvalue offset inside jacov's log and reciprocal
_CORR_UNITS = 64    # units per correlation slice of jacov and epenas


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
# square. The product grows in a float64 copy of the first field, the
# prompt's own; the up-projection weights come second, so a chunk's one
# widened copy of them is only read (IEEE multiplication commutes).
_REDUCTIONS = {
    CriterionKind.L2NORM: (("head_acts",), ("neuron_acts",),
                           np.square, np.sum, np.sqrt),
    CriterionKind.GRADNORM: (("head_grads",), ("up_grads",),
                             np.square, np.sum, np.sqrt),
    CriterionKind.PLAINACT: (("head_acts", "head_grads"),
                             ("up_grads", "up_weights"), np.abs, np.sum, None),
    CriterionKind.FISHER: (("head_acts", "head_grads"),
                           ("up_grads", "up_weights"), np.square, np.mean, None),
}
# SNIP's |x| * |dL/dx| equals |x * dL/dx| bit for bit in IEEE arithmetic,
# so on this model family it is plainact
_REDUCTIONS[CriterionKind.SNIP] = _REDUCTIONS[CriterionKind.PLAINACT]


def _table_score(capture: ForwardResult, kind: CriterionKind,
                 widened: dict | None = None, first_layer: int = 0) -> np.ndarray:
    """A table criterion's scores of the layers from ``first_layer`` on;
    an earlier layer's units score 0. ``widened`` maps a field name to
    its per-layer arrays already in float64, read in place of the
    capture's: the up-projection weights, which every prompt of a chunk
    shares."""
    head_fields, neuron_fields, elementwise, reduce, final = _REDUCTIONS[kind]
    widened = widened or {}
    parts = []
    for names, axis, block in ((head_fields, (1, 2), capture.cfg.num_heads),
                               (neuron_fields, 0, capture.cfg.ffn_dim)):
        sources = [widened.get(name) or _require(capture, name, kind) for name in names]
        scores = np.zeros((capture.cfg.num_layers, block))
        for layer in range(first_layer, len(scores)):
            first, *rest = (source[layer] for source in sources)
            x = first.astype(np.float64)   # a new array, written in place below
            for a in rest:
                np.multiply(x, a, out=x)
            scores[layer] = reduce(elementwise(x, out=x), axis=axis)
        parts.append(scores if final is None else final(scores))
    return _flat_scores(*parts)


def score_nwot(capture: ForwardResult, first_layer: int = 0) -> np.ndarray:
    """log of the mean squared distance of activations from 1, for the
    layers from ``first_layer`` on; an earlier layer's units score 0.

    Heads are reduced to one value per position by averaging channels.
    A unit with zero mean square gets the -inf sentinel (always pruned
    first).
    """
    def log_ms(x: np.ndarray, axis: int) -> np.ndarray:
        ms = np.square(1.0 - x).mean(axis=axis)
        return np.where(ms > 0.0, np.log(np.maximum(ms, 1e-300)), NEG_INF)

    acts = _require(capture, "head_acts", CriterionKind.NWOT)        # (H, T, d_h)
    hidden = _require(capture, "neuron_acts", CriterionKind.NWOT)    # (T, F)
    cfg = capture.cfg
    heads = np.zeros((cfg.num_layers, cfg.num_heads))
    neurons = np.zeros((cfg.num_layers, cfg.ffn_dim))
    for layer in range(first_layer, cfg.num_layers):
        heads[layer] = log_ms(acts[layer].astype(np.float64).mean(axis=2), 1)
        neurons[layer] = log_ms(hidden[layer].astype(np.float64), 0)
    return _flat_scores(heads, neurons)


def score_grasp(model: TransformerModel, tokens: np.ndarray, loss_from: int = 1,
                workers: int = 1) -> np.ndarray:
    """Hessian-gradient probe: L1 norm of -(H g) elementwise-times the
    activation (heads) or up-projection column (neurons).

    ``tokens`` is a batch (B, T) of prompts scored from one ``loss_from``;
    the result is (B, units), and each row equals that prompt's scores in
    a batch of its own, bit for bit. Runs in float64: a float32 model is
    widened first. The taped passes are the batch's own gradient capture,
    which gives every prompt's direction and base gradient, one
    head-offset pass of the batch, each prompt stepping along its own
    gradient, and one up-offset pass per prompt, striped across
    ``workers`` threads: a batch of up offsets would hold B * L * E * F
    float64 values in each of its arrays.
    """
    batch = np.asarray(tokens, dtype=np.int64)
    if batch.ndim != 2:
        raise ShapeMismatchError(f"grasp: tokens must be (B, T), got {batch.shape}")
    if model.dtype != np.float64:
        model = model.to_dtype(np.float64)
    capture = model.forward(batch, capture=CAPTURE_GRADS, loss_from=loss_from)

    def hv(rows: np.ndarray, name: str, grads: list) -> list:
        """H g for each row of ``rows`` along its own gradient ``grads``
        (per layer, batch axis first), the offsets starting at zero."""
        def loss(offsets):
            return model.forward(rows, loss_from=loss_from,
                                 **{name: offsets})[0].loss_tensor

        zero = [np.broadcast_to(0.0, g.shape) for g in grads]   # holds no memory
        return T.hessian_vector_product(loss, zero, grads, eps=_GRASP_EPS, grad0=grads)

    heads = hv(batch, "head_offsets",
               [np.stack(layer) for layer in zip(*(cap.head_grads for cap in capture))])

    def neurons(b: int) -> np.ndarray:
        grads = [g[None] for g in capture[b].up_grads]   # formed once per layer
        return np.stack([np.abs(-h[0] * f).sum(axis=0) for h, f in
                         zip(hv(batch[b:b + 1], "up_offsets", grads),
                             capture[b].up_weights)])

    return np.stack([
        _flat_scores(np.stack([np.abs(-h[b] * f).sum(axis=(1, 2))
                               for h, f in zip(heads, cap.head_acts)]), neuron)
        for b, (cap, neuron) in enumerate(
            zip(capture, run_striped(range(len(batch)), neurons, workers)))])


# ---------------------------------------------------------------------------
# aggregate-only criteria


def _grad_blocks(captures: list[ForwardResult]):
    """Per-example gradient vectors as float64 (units, examples, dim)
    blocks of at most ``_CORR_UNITS`` units, in canonical unit order.

    Heads use the position-mean of the activation gradient (length
    head_dim, well-defined across prompts of different lengths); neurons
    use the up-projection column gradient (length embed_dim). Each
    (kind, layer) block is filled in place in the gradients' dtype, and
    each slice is widened (exactly) as it is yielded, C-contiguous, so
    each row reduces in the same order as on its own; a unit's correlations
    depend on its own rows alone, so slicing keeps their bits and bounds
    the temporaries.
    """
    cfg, dtype = captures[0].cfg, captures[0].head_grads[0].dtype
    for rows_of, (units, dim) in (
            (lambda c, i: c.head_grads[i].mean(axis=1), (cfg.num_heads, cfg.head_dim)),
            (lambda c, i: c.up_grads[i].T, (cfg.ffn_dim, cfg.embed_dim))):
        for layer in range(cfg.num_layers):
            block = np.empty((units, len(captures), dim), dtype)
            for j, capture in enumerate(captures):   # each layer read once
                block[:, j] = rows_of(capture, layer)
            for start in range(0, len(block), _CORR_UNITS):
                yield block[start:start + _CORR_UNITS].astype(np.float64, copy=False)


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


def score_contextual(capture: ForwardResult, kind: CriterionKind) -> np.ndarray:
    """One prompt's scores from its capture, for a table criterion or
    nwot; grasp probes the model itself (``score_grasp``)."""
    kind = CriterionKind(kind)
    if kind in AGGREGATE_ONLY:
        raise ContextualUnsupportedError(f"{kind.value} is aggregate-only")
    if kind == CriterionKind.GRASP:
        raise MissingCaptureError("grasp probes the model: use score_grasp")
    if kind == CriterionKind.NWOT:
        return score_nwot(capture)
    return _table_score(capture, kind)


def _score_chunk(captures: list[ForwardResult], kind: CriterionKind,
                 first_layer: int = 0) -> list:
    """``score_contextual`` of every capture of one batched forward, bit
    for bit, on the layers from ``first_layer`` on; the up-projection
    weights they share are widened once, for those layers."""
    if kind == CriterionKind.NWOT:
        return [score_nwot(capture, first_layer) for capture in captures]
    widened = {}
    if "up_weights" in _REDUCTIONS[kind][1]:
        weights = captures[0].up_weights
        widened["up_weights"] = [None] * first_layer + [
            w.astype(np.float64) for w in weights[first_layer:]]
    return [_table_score(capture, kind, widened, first_layer) for capture in captures]


def collect_criteria(model: TransformerModel, prompts, kind,
                     aggregate: bool = False, loss_on: str = "all",
                     workers: int = 1, first_layer: int = 0):
    """Score every unit of the layers from ``first_layer`` on, on each
    prompt.

    Prompts of one length and ``loss_from`` are captured together, in
    the chunks of ``batch_groups`` (at most ``_CAPTURE_TOKENS`` tokens
    each) striped across the workers; every prompt's capture, and so
    its scores, equal a capture of that prompt alone, bit for bit. A
    criterion scored per prompt scores each chunk in the job that
    captured it, so a collect holds one chunk's tape and captures per
    worker whatever its prompt count; jacov and epenas correlate
    gradients across prompts and keep every capture. GraSP runs
    ``score_grasp`` on each chunk in turn: its capture and head probe
    are one batched pass each, and its up-projection probes run per
    prompt, striped across the workers.
    A gradient capture differentiates only the layers from
    ``first_layer`` on (``TransformerModel.forward``), the table
    criteria and nwot score only those layers, and every score vector
    marks an earlier layer's units uncovered and holds 0 for them; each
    covered unit's score has the bits of a collect of every layer. GraSP
    probes every layer and drops the earlier ones' scores.
    Returns a list of per-example ScoreVectors, or a single aggregated
    ScoreVector when ``aggregate`` is set. jacov and epenas are only
    available aggregated.
    """
    kind = CriterionKind(kind)
    if kind in AGGREGATE_ONLY and not aggregate:
        raise ContextualUnsupportedError(f"{kind.value} is aggregate-only")
    if not prompts:
        raise BatchTooSmallError("collect_criteria: no prompts given")
    if loss_on not in LOSS_ON:
        raise ValueError(f"loss_on must be 'all' or 'target', got {loss_on!r}")

    parts = [_prompt_parts(p, loss_on) for p in prompts]
    chunks = batch_groups([len(tokens) for tokens, _, _ in parts], _CAPTURE_TOKENS,
                          keys=[(len(tokens), loss_from)
                                for tokens, loss_from, _ in parts])

    def batch(members: list[int]):
        return np.stack([parts[i][0] for i in members]), parts[members[0]][1]

    def in_prompt_order(per_chunk) -> list:
        out: list = [None] * len(parts)
        for members, rows in zip(chunks, per_chunk):
            for idx, row in zip(members, rows):
                out[idx] = row
        return out

    covered = np.zeros(num_units(model.cfg), dtype=bool)
    for block in unit_blocks(model.cfg, covered):
        block[first_layer:] = True
    uncovered = ~covered

    def vector(values, example_id) -> ScoreVector:
        sv = ScoreVector(values, kind.value, example_id=example_id, covered=covered.copy())
        sv.values[uncovered] = 0.0
        return sv

    if kind == CriterionKind.GRASP:
        wide = model.to_dtype(np.float64)
        raw = in_prompt_order(score_grasp(wide, *batch(members), workers=workers)
                              for members in chunks)
    else:
        capture_mode = CAPTURE_GRADS if needs_grads(kind) else CAPTURE_ACTIVATIONS
        grad_mode = contextlib.nullcontext if needs_grads(kind) else T.no_grad

        def capture_chunk(members: list[int]):
            tokens, loss_from = batch(members)
            with grad_mode():   # entered in the worker: the mode is per thread
                return model.forward(tokens, capture=capture_mode, loss_from=loss_from,
                                     first_layer=first_layer)

        if kind in AGGREGATE_ONLY:
            captures = in_prompt_order(run_striped(chunks, capture_chunk, workers))
            if kind == CriterionKind.JACOV:
                return vector(score_jacov(captures), None)
            labels = [label for _, _, label in parts]
            return vector(score_epenas(captures, labels), None)
        # scored in the job that captured it, a chunk's captures go
        # before that worker's next chunk runs
        raw = in_prompt_order(run_striped(
            chunks, lambda members: _score_chunk(capture_chunk(members), kind,
                                                 first_layer), workers))

    if aggregate:
        return vector(np.mean(np.stack(raw), axis=0), None)
    return [vector(v, i) for i, v in enumerate(raw)]


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
        units = unit_rows(cfg)
        for vec in scores:
            example = "aggregate" if vec.example_id is None else vec.example_id
            values = vec.values.tolist()
            writer.writerows([example, *units[flat], repr(values[flat])]
                             for flat in np.flatnonzero(vec.covered).tolist())
    if sidecar_path is not None:
        Path(sidecar_path).write_text(
            json.dumps(meta or {}, sort_keys=True, indent=2), encoding="utf-8"
        )
