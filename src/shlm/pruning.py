"""Mask construction from scores, brute-force ablation, sparsity sweeps.

Budgets are taken per kind (heads and neurons separately) over the
eligible pool: units that are covered by the score vector and not
protected. ``local`` applies the fraction within each layer and always
leaves at least one unit per layer per kind; ``global`` ranks the whole
pool with no floor. Ties prune the lower canonical index first.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensor as T
from .criteria import ScoreVector
from .errors import BudgetExceedsUnitsError, TooManyUnitsError
from .model import (
    CAPTURE_ACTIVATIONS,
    MaskSet,
    ModelConfig,
    TransformerModel,
    UnitId,
    UnitKind,
    _nll_from_logits,
    _Replicas,
    num_head_units,
    num_units,
    unit_at,
)

STRATEGIES = ("local", "global")
SCOPES = ("heads", "neurons", "both")


@dataclass(frozen=True)
class PruneSpec:
    strategy: str
    sparsity: float
    scope: str = "both"
    protect_first_layer: bool = False

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}, got {self.strategy!r}")
        if self.scope not in SCOPES:
            raise ValueError(f"scope must be one of {SCOPES}, got {self.scope!r}")


def _kind_block(cfg: ModelConfig, scores: ScoreVector, kind: UnitKind):
    """(values, covered) reshaped (layers, width) for one unit kind."""
    n_heads = num_head_units(cfg)
    if kind == UnitKind.HEAD:
        shape = (cfg.num_layers, cfg.num_heads)
        return (scores.values[:n_heads].astype(np.float64).reshape(shape),
                scores.covered[:n_heads].reshape(shape))
    shape = (cfg.num_layers, cfg.ffn_dim)
    return (scores.values[n_heads:].astype(np.float64).reshape(shape),
            scores.covered[n_heads:].reshape(shape))


def _prune_kind(cfg: ModelConfig, scores: ScoreVector, spec: PruneSpec,
                kind: UnitKind, keep: np.ndarray) -> None:
    values, covered = _kind_block(cfg, scores, kind)
    width = values.shape[1]
    eligible = covered.copy()
    if spec.protect_first_layer:
        eligible[0, :] = False

    if spec.strategy == "local":
        for layer in range(cfg.num_layers):
            pool = np.flatnonzero(eligible[layer])
            if pool.size == 0:
                continue
            budget = math.floor(spec.sparsity * pool.size)
            budget = min(budget, width - 1)  # survivor floor: 1 per layer/kind
            if budget <= 0:
                continue
            order = pool[np.argsort(values[layer, pool], kind="stable")]
            keep[layer, order[:budget]] = False
        return

    pool_l, pool_i = np.nonzero(eligible)
    if pool_l.size == 0:
        return
    budget = math.floor(spec.sparsity * pool_l.size)
    if budget <= 0:
        return
    order = np.argsort(values[pool_l, pool_i], kind="stable")
    victims = order[:budget]
    keep[pool_l[victims], pool_i[victims]] = False


def build_mask(cfg: ModelConfig, scores: ScoreVector, spec: PruneSpec) -> MaskSet:
    """Keep-mask pruning the lowest-scored units at the requested sparsity."""
    if not (0.0 <= spec.sparsity < 1.0):
        raise BudgetExceedsUnitsError(
            f"sparsity must lie in [0, 1), got {spec.sparsity}"
        )
    if scores.values.shape != (num_units(cfg),):
        raise ValueError(
            f"score vector length {scores.values.shape} does not match model"
        )
    mask = MaskSet.ones(cfg)
    if spec.scope in ("heads", "both"):
        _prune_kind(cfg, scores, spec, UnitKind.HEAD, mask.heads)
    if spec.scope in ("neurons", "both"):
        _prune_kind(cfg, scores, spec, UnitKind.NEURON, mask.neurons)
    return mask


def save_mask(mask: MaskSet, path) -> None:
    """JSON array of surviving units."""
    units = [
        {"layer": u.layer, "kind": u.kind.value, "index": u.index}
        for u in mask.surviving_units()
    ]
    Path(path).write_text(json.dumps(units, indent=0), encoding="utf-8")


def load_mask(cfg: ModelConfig, path) -> MaskSet:
    units = json.loads(Path(path).read_text(encoding="utf-8"))
    heads = np.zeros((cfg.num_layers, cfg.num_heads), dtype=bool)
    neurons = np.zeros((cfg.num_layers, cfg.ffn_dim), dtype=bool)
    for u in units:
        if u["kind"] == UnitKind.HEAD.value:
            heads[u["layer"], u["index"]] = True
        else:
            neurons[u["layer"], u["index"]] = True
    return MaskSet(heads, neurons)


# ---------------------------------------------------------------------------
# brute-force ablation


def oracle_ablation(model: TransformerModel, eval_tokens, scope: str = "both",
                    max_units: int = 4096, window: int | None = None,
                    workers: int = 1) -> list[tuple[UnitId, float]]:
    """Measure each unit's true importance: the change in mean NLL on the
    evaluation stream when that single unit is masked. Results follow
    canonical unit order and equal ``stream_nll`` with and without the
    unit bit for bit.
    """
    if scope not in SCOPES:
        raise ValueError(f"scope must be one of {SCOPES}, got {scope!r}")
    cfg = model.cfg
    flats = []
    for flat in range(num_units(cfg)):
        kind = unit_at(cfg, flat).kind
        if scope == "heads" and kind != UnitKind.HEAD:
            continue
        if scope == "neurons" and kind != UnitKind.NEURON:
            continue
        flats.append(flat)
    if len(flats) > max_units:
        raise TooManyUnitsError(
            f"{len(flats)} units exceed the cap of {max_units};"
            " raise max_units or narrow the scope"
        )
    # Ablating a unit in layer l leaves every layer below l bit-identical
    # to the dense run (a masked forward multiplies them by exactly 1.0),
    # so each window's block inputs are kept from one dense pass and an
    # ablation reruns only blocks l.. from there. The cache is read-only
    # and shared by the replicas.
    chunks = model.eval_windows(eval_tokens, window)
    count = sum(len(chunk) - 1 for chunk in chunks)
    block_inputs, base_total = [], 0.0
    with T.no_grad():
        for chunk in chunks:
            res = model.forward(chunk, capture=CAPTURE_ACTIVATIONS)
            base_total += _nll_from_logits(res.logits, chunk[1:])
            inputs = [res.embed] + res.layer_outs[:-1]
            for arr in inputs:
                arr.flags.writeable = False
            block_inputs.append(inputs)
    base = base_total / count
    ones = MaskSet.ones(cfg)
    replicas = _Replicas(model, workers)

    def ablate(m: TransformerModel, flat: int) -> float:
        uid = unit_at(cfg, flat)
        mask = ones.without([uid])
        total = 0.0
        with T.no_grad():
            for chunk, inputs in zip(chunks, block_inputs):
                x = T.constant(inputs[uid.layer])
                for i in range(uid.layer, cfg.num_layers):
                    x = m.block(i, x, mask)
                total += _nll_from_logits(m.readout(x).data, chunk[1:])
        return total / count - base

    deltas = replicas.run(flats, ablate)
    return [(unit_at(cfg, flat), float(d)) for flat, d in zip(flats, deltas)]


def write_oracle_csv(results: list[tuple[UnitId, float]], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["layer", "kind", "index", "delta_loss"])
        for uid, delta in results:
            writer.writerow([uid.layer, uid.kind.value, uid.index, repr(delta)])


# ---------------------------------------------------------------------------
# sweeps


def sparsity_sweep(model: TransformerModel, source, specs, eval_tokens,
                   window: int | None = None, criterion: str = "",
                   topology: str = "static", seed: int = 0) -> list:
    """Perplexity for each PruneSpec in ``specs``.

    ``source`` is either a ScoreVector (one static mask per spec) or a
    callable ``(model, window_tokens, spec) -> MaskSet`` re-evaluated per
    input window (the predictor path).
    """
    from .analytics import EvalRecord, perplexity

    records = []
    for spec in specs:
        if isinstance(source, ScoreVector):
            mask = build_mask(model.cfg, source, spec)
            ppl = perplexity(model, mask, eval_tokens, window=window)
        else:
            def masker(window_tokens, _spec=spec):
                return source(model, window_tokens, _spec)

            ppl = perplexity(model, masker, eval_tokens, window=window)
        records.append(EvalRecord(
            strategy=spec.strategy,
            sparsity=spec.sparsity,
            criterion=criterion,
            topology=topology,
            perplexity=ppl,
            seed=seed,
        ))
    return records
