"""Mask construction from scores, brute-force ablation, sparsity sweeps.

Budgets are taken per kind (heads and neurons separately) over the
eligible pool: units that are covered by the score vector and not
protected. ``local`` applies the fraction within each layer and always
leaves at least one unit per layer per kind; ``global`` ranks the whole
pool with no floor. Ties prune the lower canonical index first.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .criteria import ScoreVector
from .errors import BudgetExceedsUnitsError, TooManyUnitsError
from .model import (
    MaskSet,
    ModelConfig,
    TransformerModel,
    UnitId,
    _nll_from_logits,
    _Replicas,
    num_units,
    unit_at,
    unit_blocks,
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


def _prune_kind(spec: PruneSpec, values: np.ndarray, covered: np.ndarray,
                keep: np.ndarray) -> None:
    """Clear ``keep`` for one kind's victims; all three are (layers, width)."""
    width = values.shape[1]
    eligible = covered.copy()
    if spec.protect_first_layer:
        eligible[0, :] = False

    if spec.strategy == "local":
        for layer in range(len(values)):
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
    blocks = zip(("heads", "neurons"),
                 unit_blocks(cfg, scores.values.astype(np.float64)),
                 unit_blocks(cfg, scores.covered), (mask.heads, mask.neurons))
    for kind, values, covered, keep in blocks:
        if spec.scope in (kind, "both"):
            _prune_kind(spec, values, covered, keep)
    return mask


# ---------------------------------------------------------------------------
# shared dense pass


class _DensePass:
    """One eval window's dense forward, run once and kept for every mask
    scored on that window: the input of each block (a read-only array,
    so the oracle's replicas can share it) and the window's dense NLL.

    A masked forward multiplies each layer with no pruned unit by exactly
    1.0, so its values below the first pruned layer equal the dense run
    bit for bit; ``nll`` resumes from there.
    """

    def __init__(self, model: TransformerModel, chunk: np.ndarray):
        self.targets = chunk[1:]
        self.count = len(self.targets)
        self.block_inputs = []
        with T.no_grad():
            x = model.embed(chunk)
            for i in range(model.cfg.num_layers):
                x.flags.writeable = False
                self.block_inputs.append(x)
                x = model.block(i, x)
            self.dense = _nll_from_logits(model.readout(x), self.targets)

    def nll(self, model: TransformerModel, mask: MaskSet) -> float:
        """float64 NLL sum of this window under ``mask``, bit-identical to
        a full masked forward."""
        mask.validate_for(model.cfg)
        pruned = ~(mask.heads.all(axis=1) & mask.neurons.all(axis=1))
        if not pruned.any():
            return self.dense
        first = int(np.argmax(pruned))
        with T.no_grad():
            x = self.block_inputs[first]
            for i in range(first, model.cfg.num_layers):
                x = model.block(i, x, mask)
            return _nll_from_logits(model.readout(x), self.targets)


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
    every = np.arange(num_units(cfg))
    heads, neurons = unit_blocks(cfg, every)
    flats = {"heads": heads, "neurons": neurons,
             "both": every}[scope].reshape(-1).tolist()
    if len(flats) > max_units:
        raise TooManyUnitsError(
            f"{len(flats)} units exceed the cap of {max_units};"
            " raise max_units or narrow the scope"
        )
    passes = [_DensePass(model, chunk)
              for chunk in model.eval_windows(eval_tokens, window)]
    # window NLLs are added left to right, as stream_nll adds them
    count, base_total = 0, 0.0
    for dp in passes:
        count += dp.count
        base_total += dp.dense
    base = base_total / count
    ones = MaskSet.ones(cfg)
    replicas = _Replicas(model, workers)

    def ablate(m: TransformerModel, flat: int) -> float:
        mask = ones.without([unit_at(cfg, flat)])
        total = 0.0
        for dp in passes:
            total += dp.nll(m, mask)
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
    input window (the predictor path). All specs share one dense pass
    per window; each NLL equals ``stream_nll`` under its mask bit for bit.
    """
    from .analytics import EvalRecord

    static = isinstance(source, ScoreVector)
    if static:
        masks = [build_mask(model.cfg, source, spec) for spec in specs]
    totals = [0.0] * len(specs)
    count = 0
    for chunk in model.eval_windows(eval_tokens, window):
        dp = _DensePass(model, chunk)
        count += dp.count
        for j, spec in enumerate(specs):
            mask = masks[j] if static else source(model, chunk, spec)
            totals[j] += dp.nll(model, mask)
    return [EvalRecord(strategy=spec.strategy, sparsity=spec.sparsity,
                       criterion=criterion, topology=topology,
                       perplexity=float(np.exp(total / count)), seed=seed)
            for spec, total in zip(specs, totals)]
