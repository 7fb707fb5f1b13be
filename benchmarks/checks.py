"""Output checks: each returns (name, passed, detail) tuples.

The checks compare the CLI's artifacts with independent in-process
computations. None of them freezes a perplexity value, so a declared
numerical change in the program does not trip them; a contextual
sweep at sparsity 0.0 is compared with the same contextual path fed an
all-ones mask, so a fix that changes which tokens a contextual window
scores changes both sides alike.
"""

from __future__ import annotations

import csv
import math
import random
from pathlib import Path

import numpy as np

# Fixed before the reference was written: float32 forward vs float64
# reference, relative to the largest reference logit (at least 1).
REFERENCE_TOL = 1e-4
SHARPEN = 8.0
ORACLE_SAMPLES = 3


def reference_logits(params: dict, cfg, tokens) -> np.ndarray:
    """Plain-numpy float64 forward of the shlm decoder, dense."""
    p = {k: np.asarray(v, dtype=np.float64) for k, v in params.items()}
    t_len = len(tokens)
    h, d = cfg.num_heads, cfg.head_dim

    def layernorm(x, g, b):
        mu = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        return (x - mu) / np.sqrt(var + 1e-5) * g + b

    def heads(x):
        return x.reshape(t_len, h, d).transpose(1, 0, 2)

    future = np.triu(np.ones((t_len, t_len), dtype=bool), k=1)
    x = p["tok_emb"][tokens] + p["pos_emb"][:t_len]
    for i in range(cfg.num_layers):
        w = {k[len(f"h{i}."):]: v for k, v in p.items()
             if k.startswith(f"h{i}.")}
        a = layernorm(x, w["ln1_g"], w["ln1_b"])
        q, k, v = heads(a @ w["wq"]), heads(a @ w["wk"]), heads(a @ w["wv"])
        scores = q @ k.transpose(0, 2, 1) / math.sqrt(d)
        scores[:, future] = -np.inf
        scores = np.exp(scores - scores.max(axis=-1, keepdims=True))
        probs = scores / scores.sum(axis=-1, keepdims=True)
        x = x + (probs @ v).transpose(1, 0, 2).reshape(t_len, h * d) @ w["wo"]
        b = layernorm(x, w["ln2_g"], w["ln2_b"])
        x = x + np.maximum(b @ w["w_up"], 0.0) @ w["w_down"]
    return layernorm(x, p["lnf_g"], p["lnf_b"]) @ p["tok_emb"].T


def _rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def check_reference_forward(model, token_sets) -> list[tuple]:
    """The checkpoint, and a copy with every projection scaled by
    SHARPEN: a barely trained model attends almost uniformly, which would
    hide a wrong attention scale."""
    from shlm.model import TransformerModel

    params = {n: t.data for n, t in model.params.items()}
    sharp = {n: a * SHARPEN if n.split(".")[-1].startswith("w") else a
             for n, a in params.items()}
    models = {"checkpoint": (model, params),
              "sharpened": (TransformerModel(model.cfg, params=sharp), sharp)}
    out = []
    for label, (m, p) in models.items():
        for tokens in token_sets:
            got = m.forward(tokens).logits.astype(np.float64)
            want = reference_logits(p, m.cfg, tokens)
            err = float(np.max(np.abs(got - want)))
            limit = REFERENCE_TOL * max(1.0, float(np.max(np.abs(want))))
            out.append((f"reference_forward_{label}_T{len(tokens)}",
                        err <= limit,
                        f"max |dlogit| {err:.3e} (limit {limit:.3e})"))
    return out


def check_static_dense(sweep_csv: Path, model, eval_tokens) -> list[tuple]:
    from shlm.analytics import perplexity

    dense = perplexity(model, None, eval_tokens)
    out = []
    for row in _rows(sweep_csv):
        if float(row["sparsity"]) == 0.0:
            got = float(row["perplexity"])
            out.append((f"static_{row['strategy']}_0.0_equals_dense",
                        got == dense, f"{got!r} vs dense {dense!r}"))
    return out


def check_contextual_dense(sweep_csv: Path, model, eval_tokens,
                           window: int) -> list[tuple]:
    from shlm.model import MaskSet
    from shlm.pruning import PruneSpec, sparsity_sweep

    def all_ones(m, window_tokens, spec):
        return MaskSet.ones(m.cfg)

    out = []
    for row in _rows(sweep_csv):
        if float(row["sparsity"]) != 0.0:
            continue
        spec = PruneSpec(row["strategy"], 0.0)
        dense = sparsity_sweep(model, all_ones, [spec], eval_tokens,
                               window=window)[0].perplexity
        got = float(row["perplexity"])
        out.append((f"contextual_{row['topology']}_{row['strategy']}_0.0"
                    "_equals_dense", got == dense,
                    f"{got!r} vs dense {dense!r}"))
    return out


def check_oracle(oracle_csv: Path, model, eval_tokens, seed: int) -> list[tuple]:
    from shlm.model import MaskSet, UnitId, UnitKind

    rows = _rows(oracle_csv)
    base_total, base_count = model.stream_nll(eval_tokens)
    base = base_total / base_count
    ones = MaskSet.ones(model.cfg)
    out = []
    for row in random.Random(f"oracle-{seed}").sample(rows, ORACLE_SAMPLES):
        uid = UnitId(int(row["layer"]), UnitKind(row["kind"]), int(row["index"]))
        total, count = model.stream_nll(eval_tokens, mask=ones.without([uid]))
        direct = total / count - base
        got = float(row["delta_loss"])
        out.append((f"oracle_delta_L{uid.layer}{uid.kind.value}{uid.index}",
                    got == direct, f"{got!r} vs direct {direct!r}"))
    return out
