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
    _BATCH_TOKENS,
    _nll_from_logits,
    batch_groups,
    num_units,
    run_striped,
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
    """The dense forward of a group of equal-length eval windows (B, T),
    run once as one batch and kept for every mask slot scored on them:
    for each block its (B, T, E) input and its pre-mask ``head_outputs``
    (B, H, T, d_h), read-only arrays so the threads scoring the slots can
    share them, and each window's dense NLL.

    A masked forward multiplies each layer with no pruned unit by exactly
    1.0, so its values below the first pruned layer equal the dense run
    bit for bit, and so do that layer's head outputs, which no mask
    touches yet; ``nll`` resumes the group at the ``block_tail`` of the
    first layer any of its masks prunes.
    """

    def __init__(self, model: TransformerModel, chunks: np.ndarray):
        self.targets = chunks[:, 1:]
        self.count = self.targets.size
        self.block_inputs, self.head_outputs = [], []
        with T.no_grad():
            x = model.embed(chunks)
            for i in range(model.cfg.num_layers):
                att = model.head_outputs(i, x)
                x.flags.writeable = att.flags.writeable = False
                self.block_inputs.append(x)
                self.head_outputs.append(att)
                x = model.block_tail(i, x, att)
            logits = model.readout(x)
        self.dense = [_nll_from_logits(z, t) for z, t in zip(logits, self.targets)]

    def nll(self, model: TransformerModel, masks) -> list[float]:
        """float64 NLL sum of each window under its own mask, one in
        ``masks`` per window, bit-identical to a full masked forward of
        that window: the dense NLLs when no mask prunes a unit, otherwise
        one batched pass of every window from the kept head outputs of
        the first layer any mask prunes. A window that prunes nothing
        there, or only later, passes those layers with factors of exactly
        1.0."""
        keep = model.keep_factors(masks, len(self.targets))
        first = next((i for i, pair in enumerate(keep)
                      if any(f is not None for f in pair)), None)
        if first is None:
            return list(self.dense)
        with T.no_grad():
            x = model.block_tail(first, self.block_inputs[first],
                                 self.head_outputs[first], keep[first])
            for i in range(first + 1, model.cfg.num_layers):
                x = model.block(i, x, keep[i])
            logits = model.readout(x)
        return [_nll_from_logits(z, t) for z, t in zip(logits, self.targets)]


def _masked_totals(model: TransformerModel, eval_tokens, window: int | None,
                   masks_for, workers: int) -> tuple[list[float], float, int]:
    """Each mask slot's float64 NLL total over ``eval_windows``, the dense
    total and the prediction count. ``masks_for(chunk)`` gives one
    window's masks, one per slot, in one order for every window.

    The windows run in the groups of ``batch_groups`` of at most
    ``_BATCH_TOKENS`` tokens: consecutive windows of one length, since
    only the last window can be shorter.
    Each group gets one batched dense pass; its windows' masks are then
    asked for in window order on the calling thread, and each slot's
    masks resume together in one batched pass, the slots striped across
    ``workers`` threads. Windows are added left to right, as
    ``stream_nll`` adds them, so each total equals it bit for bit.
    """
    totals: list[float] = []
    dense, count = 0.0, 0
    windows = model.eval_windows(eval_tokens, window)
    for group in batch_groups((len(chunk) for chunk in windows), _BATCH_TOKENS):
        dp = _DensePass(model, np.stack([windows[w] for w in group]))
        slots = list(zip(*(masks_for(windows[w]) for w in group)))
        nlls = run_striped(slots, lambda masks: dp.nll(model, masks), workers)
        for b, window_dense in enumerate(dp.dense):
            totals = [t + n[b] for t, n in zip(totals or [0.0] * len(nlls), nlls)]
            dense += window_dense
        count += dp.count
    return totals, dense, count


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
    units = [unit_at(cfg, flat) for flat in flats]
    masks = [MaskSet.ones(cfg).without([uid]) for uid in units]
    totals, dense, count = _masked_totals(model, eval_tokens, window,
                                          lambda chunk: masks, workers)
    base = dense / count
    return [(uid, float(total / count - base)) for uid, total in zip(units, totals)]


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
                   topology: str = "static", seed: int = 0,
                   workers: int = 1) -> list:
    """Perplexity for each PruneSpec in ``specs``.

    ``source`` is either a ScoreVector (one static mask per spec) or a
    callable ``(model, window_tokens, spec) -> MaskSet`` re-evaluated per
    input window (the predictor path). All specs share one dense pass
    per window and are striped across ``workers`` threads; each NLL
    equals ``stream_nll`` under its mask bit for bit.
    """
    from .analytics import EvalRecord

    static = isinstance(source, ScoreVector)
    if static:
        masks = [build_mask(model.cfg, source, spec) for spec in specs]
    totals, _, count = _masked_totals(
        model, eval_tokens, window,
        lambda chunk: masks if static else [source(model, chunk, spec) for spec in specs],
        workers)
    return [EvalRecord(strategy=spec.strategy, sparsity=spec.sparsity,
                       criterion=criterion, topology=topology,
                       perplexity=float(np.exp(total / count)), seed=seed)
            for spec, total in zip(specs, totals)]
