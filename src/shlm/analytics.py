"""Rank statistics, perplexity evaluation, and CSV report emission."""

from __future__ import annotations

import csv
import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .criteria import collect_criteria
from .errors import DegenerateError, LengthMismatchError
from .model import TransformerModel, unit_blocks


@dataclass
class EvalRecord:
    strategy: str
    sparsity: float
    criterion: str
    topology: str
    perplexity: float
    seed: int


SWEEP_COLUMNS = ("strategy", "sparsity", "criterion", "topology", "perplexity", "seed")
FIDELITY_COLUMNS = ("topology", "criterion", "spearman_global", "spearman_local",
                    "mse", "seed")
RANK_VARIANCE_COLUMNS = ("layer", "head", "mean_rank", "rank_variance")
FEWSHOT_COLUMNS = ("shots", "strategy", "sparsity", "criterion", "perplexity", "seed")


@dataclass
class FewshotRecord:
    shots: int
    strategy: str
    sparsity: float
    criterion: str
    perplexity: float
    seed: int


# ---------------------------------------------------------------------------
# rank statistics


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the average of their positions."""
    x = np.asarray(x, dtype=np.float64)
    order = np.argsort(x, kind="stable")
    ranks = np.empty(x.size, dtype=np.float64)
    ranks[order] = np.arange(1, x.size + 1, dtype=np.float64)
    values, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    sums = np.zeros(values.size)
    np.add.at(sums, inverse, ranks)
    return sums[inverse] / counts[inverse]


def spearman(a, b) -> float:
    """Rank correlation with average-rank ties."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1 or a.size != b.size or a.size < 2:
        raise LengthMismatchError(
            f"spearman needs two equal-length 1-D inputs of size >= 2,"
            f" got {a.shape} and {b.shape}"
        )
    if np.all(a == a[0]) or np.all(b == b[0]):
        raise DegenerateError("spearman is undefined for constant input")
    ra = _average_ranks(a)
    rb = _average_ranks(b)
    da = ra - ra.mean()
    db = rb - rb.mean()
    cov = float((da * db).sum())
    # one sqrt of the variance product keeps tie-free small cases exact
    return cov / math.sqrt(float((da * da).sum()) * float((db * db).sum()))


def bootstrap_positive_mean_pvalue(values, n_boot: int = 2000, seed: int = 0) -> float:
    """One-sided bootstrap p-value for mean(values) > 0."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise LengthMismatchError("bootstrap needs at least one value")
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, values.size, size=(n_boot, values.size))
    means = values[idx].mean(axis=1)
    return (1 + int((means <= 0.0).sum())) / (n_boot + 1)


# ---------------------------------------------------------------------------
# rank variance across prompts


@dataclass
class RankVarianceTable:
    rows: list[tuple[int, int, float, float]]   # layer, head, mean_rank, variance
    per_layer: list[float]


def rank_variance(model: TransformerModel, prompts, criterion: str = "gradnorm",
                  workers: int = 1) -> RankVarianceTable:
    """How much each head's global importance rank moves across prompts.

    Ranks are ordinal (1 = most important) over all heads; variance is
    the population variance across prompts. Identical prompts therefore
    give exactly zero variance.
    """
    cfg = model.cfg
    vectors = collect_criteria(model, prompts, criterion, workers=workers)
    ranks = np.zeros((len(vectors), cfg.num_layers, cfg.num_heads))
    for rank, vec in zip(ranks, vectors):
        head_scores = unit_blocks(cfg, vec.values)[0].astype(np.float64)
        order = np.argsort(-head_scores, axis=None, kind="stable")
        rank.flat[order] = np.arange(1, order.size + 1)
    mean_rank = ranks.mean(axis=0)
    variance = ranks.var(axis=0)
    rows = [(layer, head, float(mean_rank[layer, head]), float(variance[layer, head]))
            for layer, head in np.ndindex(variance.shape)]
    per_layer = [float(v.mean()) for v in variance]
    return RankVarianceTable(rows=rows, per_layer=per_layer)


# ---------------------------------------------------------------------------
# perplexity


def perplexity(model: TransformerModel, masker, tokens,
               window: int | None = None) -> float:
    """exp(mean NLL) over non-overlapping windows.

    ``masker`` is None (dense), a MaskSet (static), or a callable
    ``window_tokens -> MaskSet`` re-evaluated per window (contextual).
    """
    total, count = model.stream_nll(tokens, mask=masker, window=window)
    return float(np.exp(total / count))


# ---------------------------------------------------------------------------
# few-shot study


def fewshot_study(model: TransformerModel, templates, shots_list, criterion: str,
                  specs, eval_tokens, n_prompts: int = 16, seed: int = 0,
                  window: int | None = None, workers: int = 1,
                  loss_on: str = "all") -> list[FewshotRecord]:
    """Static-mask sweep per shots value.

    For each shots count, criteria are aggregated over fresh prompts from
    every template and ``sparsity_sweep`` measures the masked perplexity
    of every spec on the evaluation stream.
    """
    from .pruning import sparsity_sweep
    from .text import make_fewshot_prompts

    records = []
    for shots in shots_list:
        prompts = []
        for i, template in enumerate(templates):
            prompts.extend(make_fewshot_prompts(
                template, shots=shots, n=n_prompts, seed=seed + 1000 * i))
        agg = collect_criteria(model, prompts, criterion, aggregate=True,
                               loss_on=loss_on, workers=workers)
        for rec in sparsity_sweep(model, agg, specs, eval_tokens,
                                  window=window, workers=workers):
            records.append(FewshotRecord(shots, rec.strategy, rec.sparsity,
                                         criterion, rec.perplexity, seed))
    return records


# ---------------------------------------------------------------------------
# report emission


def emit_report(records, path, columns) -> None:
    """Write records (dataclasses or dicts) as CSV in ``columns`` order."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for record in records:
            d = (dataclasses.asdict(record) if dataclasses.is_dataclass(record)
                 else dict(record))
            writer.writerow(["" if value is None else repr(value)
                             if isinstance(value, float) else value
                             for value in map(d.get, columns)])
