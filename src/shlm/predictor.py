"""Sparsity predictors: small regressors mapping early activations to
criterion scores, so inference can build masks without running backprop.

Three wirings are supported:
  shadow  - one MLP fed by layer 0's attention output at the last
            position, scoring every later layer (layer 0 stays dense)
  fullseq - a tiny transformer encoder pools the whole embedded input,
            then an MLP scores every layer including layer 0
  dejavu  - per-host MLPs at alternating layers, each fed that layer's
            last-token output and scoring the next ``stride`` layers
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import tensor as T
from .checkpoint import read_container, write_container
from .criteria import AGGREGATE_ONLY, CriterionKind, ScoreVector, _prompt_tokens
from .errors import (ConfigMismatchError, ContextualUnsupportedError,
                     DatasetTooSmallError, EmptyHeldoutError,
                     EmptyPromptError, FeatureShapeMismatchError,
                     NoCoveredUnitsError)
from .model import (MaskSet, ModelConfig, Taps, TransformerModel,
                    num_units, unit_blocks)
from .pruning import PruneSpec, build_mask
from .train import AdamW, cosine_lr

TOPOLOGIES = ("shadow", "fullseq", "dejavu")
NORMALIZATIONS = ("minmax", "zscore", "none")

# analytical predictor-cost model; dims straight from the OPT family
MODEL_PRESETS = {
    "opt-1.3b": dict(num_layers=24, embed_dim=2048, num_heads=32,
                     ffn_dim=8192, max_seq_len=2048),
    "opt-13b": dict(num_layers=40, embed_dim=5120, num_heads=40,
                    ffn_dim=20480, max_seq_len=2048),
    "opt-30b": dict(num_layers=48, embed_dim=7168, num_heads=56,
                    ffn_dim=28672, max_seq_len=2048),
    "opt-66b": dict(num_layers=64, embed_dim=9216, num_heads=72,
                    ffn_dim=36864, max_seq_len=2048),
    "opt-175b": dict(num_layers=96, embed_dim=12288, num_heads=96,
                     ffn_dim=49152, max_seq_len=2048),
}


# ---------------------------------------------------------------------------
# cost model


@dataclass(frozen=True)
class FlopsReport:
    topology: str
    flops: int
    dejavu_flops: int
    reduction_vs_dejavu: float


def _dims(spec) -> tuple[int, int, int, int, int]:
    """Accept a preset name, a ModelConfig, or a plain mapping."""
    if isinstance(spec, str):
        spec = MODEL_PRESETS[spec]
    if isinstance(spec, ModelConfig):
        return (spec.num_layers, spec.embed_dim, spec.num_heads,
                spec.ffn_dim, spec.max_seq_len)
    return (int(spec["num_layers"]), int(spec["embed_dim"]),
            int(spec["num_heads"]), int(spec["ffn_dim"]),
            int(spec.get("max_seq_len", 2048)))


def predictor_flops(spec, topology: str = "shadow", p1: int = 2048) -> FlopsReport:
    """Per-token predictor cost versus the per-layer (dejavu) wiring.

    Integer arithmetic throughout so the closed-form gap
    dejavu - shadow = (N-1)*E*p1 holds exactly.
    """
    if topology not in TOPOLOGIES:
        raise ValueError(f"unknown topology {topology!r}")
    n, e, h, f, seq = _dims(spec)
    p1 = int(p1)
    dejavu = n * (e * p1 + p1 * (h + f))
    shadow = e * p1 + p1 * n * (h + f)
    if topology == "dejavu":
        flops = dejavu
    elif topology == "shadow":
        flops = shadow
    else:
        # fullseq = shadow plus one encoder pass over the whole sequence
        flops = shadow + 2 * (2 * e * e + e * seq * seq)
    reduction = (dejavu - flops) / dejavu
    return FlopsReport(topology=topology, flops=flops, dejavu_flops=dejavu,
                       reduction_vs_dejavu=reduction)


# ---------------------------------------------------------------------------
# configuration


@dataclass
class PredictorConfig:
    """Training hyperparameters. Defaults are the published regressor
    recipe; hidden_dim=None resolves to min(2048, 4*E) so toy models get
    a proportionate head instead of a 2048-wide one."""

    topology: str = "shadow"
    hidden_layers: int = 1
    hidden_dim: int | None = None
    activation: str = "relu"
    epochs: int = 100
    batch: int = 32
    lr: float = 1e-3
    weight_decay: float = 0.01
    normalization: str = "minmax"
    dejavu_stride: int = 2

    def __post_init__(self):
        if self.topology not in TOPOLOGIES:
            raise ValueError(f"topology must be one of {TOPOLOGIES}")
        if self.normalization not in NORMALIZATIONS:
            raise ValueError(f"normalization must be one of {NORMALIZATIONS}")
        if self.activation != "relu":
            raise ValueError("only relu hidden activations are supported")
        if self.hidden_layers < 1 or self.epochs < 1 or self.batch < 1:
            raise ValueError("hidden_layers, epochs and batch must be >= 1")
        if self.dejavu_stride < 1:
            raise ValueError("dejavu_stride must be >= 1")

    def resolved_hidden(self, embed_dim: int) -> int:
        if self.hidden_dim is not None:
            return self.hidden_dim
        return min(2048, 4 * embed_dim)


def dejavu_hosts(cfg: ModelConfig, stride: int) -> list[int]:
    return list(range(0, cfg.num_layers, stride))


def dejavu_window(cfg: ModelConfig, host: int, stride: int) -> list[int]:
    """Layers whose masks the host at ``host`` predicts."""
    return [l for l in range(host + 1, host + stride + 1) if l < cfg.num_layers]


def covered_layers(cfg: ModelConfig, topology: str) -> list[int]:
    if topology == "fullseq":
        return list(range(cfg.num_layers))
    return list(range(1, cfg.num_layers))


def covered_units(cfg: ModelConfig, topology: str) -> np.ndarray:
    """Canonical-order bool mask of units the topology can score."""
    cov = np.zeros(num_units(cfg), dtype=bool)
    for block in unit_blocks(cfg, cov):
        block[covered_layers(cfg, topology)] = True
    return cov


def _nets(cfg: ModelConfig, covered: np.ndarray, topology: str,
          stride: int) -> list[tuple[str, int | None, int | None, np.ndarray]]:
    """The regressors of a topology, one (parameter prefix, feature row,
    host layer, scored columns) entry each. shadow and fullseq have one
    net over every covered unit, fed the whole feature; dejavu has one
    per host whose window holds covered units, fed that host's row of
    the stacked feature."""
    if topology != "dejavu":
        return [("", None, None, np.flatnonzero(covered))]
    nets = []
    for row, host in enumerate(dejavu_hosts(cfg, stride)):
        window = np.zeros_like(covered)
        for block in unit_blocks(cfg, window):
            block[dejavu_window(cfg, host, stride)] = True
        cols = np.flatnonzero(covered & window)
        if cols.size:
            nets.append((f"host{host}.", row, host, cols))
    return nets


# ---------------------------------------------------------------------------
# features


def _feature_shape(cfg: ModelConfig, topology: str, stride: int) -> tuple:
    """The shape of a topology's predictor feature; a None dimension is a
    sequence length of at least 1."""
    if topology == "shadow":
        return (cfg.embed_dim,)
    if topology == "fullseq":
        return (None, cfg.embed_dim)
    return (len(dejavu_hosts(cfg, stride)), cfg.embed_dim)


def extract_features(model: TransformerModel, prompt, topology: str,
                     stride: int = 2):
    """Predictor input for one prompt, from a dense forward pass run
    without a tape and only as far as the feature's last layer; its shape
    is ``_feature_shape``.

    shadow: layer-0 attention output at the last position.
    dejavu: stacked post-host-layer last-token states, one row per host.
    fullseq: the embedded token sequence.
    """
    if topology not in TOPOLOGIES:
        raise ValueError(f"unknown topology {topology!r}")
    tokens = _prompt_tokens(prompt)
    if tokens.size == 0:
        raise EmptyPromptError("cannot extract features from an empty prompt")
    with T.no_grad():
        x = model.embed(tokens)
        if topology == "fullseq":
            return x.astype(np.float32)
        if topology == "shadow":
            taps = Taps()
            model.block(0, x, taps=taps)
            return taps.attn_outs[0][-1].astype(np.float32)
        hosts = dejavu_hosts(model.cfg, stride)
        rows = []
        for i in range(hosts[-1] + 1):
            x = model.block(i, x)
            if i in hosts:
                rows.append(x[-1])
    return np.stack(rows).astype(np.float32)


# ---------------------------------------------------------------------------
# target normalization


def _normalize_slice(raw: np.ndarray, scheme: str) -> np.ndarray:
    """Map one layer's scores of one kind to training targets."""
    raw = np.asarray(raw, dtype=np.float64)
    if scheme == "none":
        return raw.copy()
    if scheme == "minmax":
        lo, hi = float(raw.min()), float(raw.max())
        span = hi - lo
        if span <= 0.0:
            return np.full(raw.shape, 0.5)
        return (raw - lo) / span
    mean = float(raw.mean())
    std = float(raw.std())
    if std <= 0.0:
        return np.zeros(raw.shape)
    return (raw - mean) / std


def normalize_scores(cfg: ModelConfig, scores: ScoreVector,
                     scheme: str) -> np.ndarray:
    """Per-layer, per-kind normalization over covered units only."""
    out = np.zeros(num_units(cfg), dtype=np.float64)
    for dst, values, covered in zip(unit_blocks(cfg, out),
                                    unit_blocks(cfg, scores.values),
                                    unit_blocks(cfg, scores.covered)):
        for layer, cov in enumerate(covered):
            if cov.any():
                dst[layer, cov] = _normalize_slice(
                    values[layer, cov].astype(np.float64), scheme)
    return out


# ---------------------------------------------------------------------------
# dataset


def split_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The train and held-out example indices of an n-example dataset:
    the first ~90% train, the rest held out (at least one when n >= 1)."""
    n_train = min(max(1, (9 * n) // 10), n - 1) if n > 1 else 0
    return np.arange(n_train), np.arange(n_train, n)


@dataclass
class CriteriaDataset:
    """Per-example (feature, normalized target) pairs plus everything
    needed to redo the train/held-out split."""

    model_config: ModelConfig
    topology: str
    criterion: str
    normalization: str
    stride: int
    features: list
    targets: np.ndarray            # (n, num_units) f64, normalized
    covered: np.ndarray            # canonical bool mask, shared
    train_idx: np.ndarray = field(default=None)
    heldout_idx: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.train_idx is None:
            self.train_idx, self.heldout_idx = split_indices(len(self.features))

    def __len__(self) -> int:
        return len(self.features)


def build_dataset(model: TransformerModel, prompts, criterion,
                  topology: str = "shadow", normalization: str = "minmax",
                  stride: int = 2, loss_on: str = "all",
                  workers: int = 1) -> CriteriaDataset:
    """Score each prompt with a contextual criterion and pair those
    targets with predictor features from the same dense forward."""
    from .criteria import collect_criteria

    kind = CriterionKind(criterion)
    if kind in AGGREGATE_ONLY:
        raise ContextualUnsupportedError(
            f"criterion '{kind.value}' has no per-example form; "
            "predictors need contextual targets")
    if topology not in TOPOLOGIES:
        raise ValueError(f"unknown topology {topology!r}")
    if normalization not in NORMALIZATIONS:
        raise ValueError(f"normalization must be one of {NORMALIZATIONS}")
    if any(_prompt_tokens(p).size == 0 for p in prompts):
        raise EmptyPromptError("dataset prompts must be non-empty")

    per_example = collect_criteria(model, prompts, kind, aggregate=False,
                                   loss_on=loss_on, workers=workers)
    topo_cov = covered_units(model.cfg, topology)
    features, targets = [], []
    covered = None
    for prompt, sv in zip(prompts, per_example):
        cov = sv.covered & topo_cov
        if covered is None:
            covered = cov
        masked = ScoreVector(sv.values, sv.criterion, sv.example_id, cov)
        features.append(extract_features(model, prompt, topology, stride))
        targets.append(normalize_scores(model.cfg, masked, normalization))
    return CriteriaDataset(
        model_config=model.cfg, topology=topology, criterion=kind.value,
        normalization=normalization, stride=stride, features=features,
        targets=np.asarray(targets, dtype=np.float64), covered=covered)


# ---------------------------------------------------------------------------
# the regressors


@dataclass
class Predictor:
    """Immutable after training; safe for concurrent predict calls.
    ``draw`` records how the training prompts were drawn, when known, so
    an evaluation can tell whether its held-out prompts are held out."""

    config: PredictorConfig
    model_config: ModelConfig
    criterion: str
    params: dict[str, np.ndarray]
    covered: np.ndarray
    draw: dict | None = None

    @property
    def topology(self) -> str:
        return self.config.topology


def _init_mlp(rng: np.random.Generator, prefix: str, in_dim: int,
              hidden: int, layers: int, out_dim: int) -> dict[str, np.ndarray]:
    params = {}
    dims = [in_dim] + [hidden] * layers + [out_dim]
    for i, (a, b) in enumerate(zip(dims[:-1], dims[1:])):
        params[f"{prefix}w{i}"] = rng.normal(
            0.0, math.sqrt(2.0 / a), size=(a, b)).astype(np.float32)
        params[f"{prefix}b{i}"] = np.zeros(b, dtype=np.float32)
    return params


def _init_encoder(rng: np.random.Generator, e: int) -> dict[str, np.ndarray]:
    """1-layer 2-head full-attention block of width E, mean-pooled."""
    params = {}
    for name in ("enc.wq", "enc.wk", "enc.wv", "enc.wo"):
        params[name] = rng.normal(0.0, 0.02, size=(e, e)).astype(np.float32)
    params["enc.ln_g"] = np.ones(e, dtype=np.float32)
    params["enc.ln_b"] = np.zeros(e, dtype=np.float32)
    return params


# The network uses the ops of ``T.ops()``, as ``TransformerModel.block``
# does: ``p`` maps names to Tensors with the tape on and to arrays under
# ``no_grad``, with the same bits. Array mode checks the product before
# each ReLU, the encoder scores before the softmax and the output.
def _mlp_forward(p: dict, prefix: str, x, layers: int):
    O = T.ops()
    h = x
    for i in range(layers + 1):
        h = O.add_(O.matmul(h, p[f"{prefix}w{i}"]), p[f"{prefix}b{i}"])
        if i < layers:
            O.check(h, "matmul")
            h = O.relu_(h)
    O.check(h, "predictor output")
    return h


def _encode_sequence(p: dict, seq):
    """(T, E) -> (E,): normed 2-head full self-attention with residual,
    mean-pooled over positions. Concatenation+projection is expressed as
    a sum of per-head projections through row blocks of wo."""
    O = T.ops()
    dh = seq.shape[1] // 2
    x = O.layernorm(seq, p["enc.ln_g"], p["enc.ln_b"])
    # q, k and v transposed, (E, T); slice_rows copies a head's rows, so
    # its products see the same memory layout in both modes
    qt, kt, vt = (O.transpose(O.matmul(x, p[f"enc.{w}"]), (1, 0))
                  for w in ("wq", "wk", "wv"))
    out = seq
    for h in range(2):
        qs, ks, vs, wo = (O.slice_rows(m, h * dh, (h + 1) * dh)
                          for m in (qt, kt, vt, p["enc.wo"]))
        scores = O.scale_(O.matmul(O.transpose(qs, (1, 0)), ks),
                          1.0 / math.sqrt(dh))
        O.check(scores, "encoder scores")
        att = O.matmul(O.softmax_rows_(scores), O.transpose(vs, (1, 0)))
        out = O.add(out, O.matmul(att, wo))
    return O.mean_rows(out)


def _forward_batch(p: dict, cfg: PredictorConfig, features, prefix: str):
    """Predictions for a list of features, (batch, out_dim)."""
    O = T.ops()
    if cfg.topology == "fullseq":
        x = O.stack_rows([_encode_sequence(p, O.const(f)) for f in features])
    else:
        x = O.const(np.stack([np.asarray(f, dtype=np.float32)
                              for f in features]))
    return _mlp_forward(p, prefix, x, cfg.hidden_layers)


# ---------------------------------------------------------------------------
# training


@dataclass
class PredictorTrainingLog:
    train_mse: list[float]
    heldout_mse: list[float]
    settings: dict

    @property
    def final_heldout_mse(self) -> float:
        return self.heldout_mse[-1]


def _mse_loss(pred: T.Tensor, target: np.ndarray) -> T.Tensor:
    diff = T.sub(pred, T.constant(target.astype(np.float32)))
    return T.scale(T.tsum(T.square(diff)), 1.0 / target.size)


def _train_net(arrays: dict, cfg: PredictorConfig, features,
               targets: np.ndarray, train_idx, heldout_idx,
               rng: np.random.Generator, prefix: str):
    """Epoch loop over one net -> (trained arrays, train and held-out
    MSE per epoch)."""
    p = {n: T.Tensor(a, requires_grad=True) for n, a in arrays.items()}
    opt = AdamW(list(p.values()), lr=cfg.lr, weight_decay=cfg.weight_decay)
    train_curve, heldout_curve = [], []
    for epoch in range(cfg.epochs):
        opt.lr = cosine_lr(cfg.lr, epoch, cfg.epochs)
        order = train_idx[rng.permutation(len(train_idx))]
        se_sum, n_seen = 0.0, 0
        for start in range(0, len(order), cfg.batch):
            idx = order[start:start + cfg.batch]
            pred = _forward_batch(p, cfg, [features[i] for i in idx], prefix)
            loss = _mse_loss(pred, targets[idx])
            opt.zero_grad()
            T.backward(loss)
            opt.step()
            se_sum += float(loss.data) * targets[idx].size
            n_seen += targets[idx].size
        train_curve.append(se_sum / n_seen)
        if len(heldout_idx) == 0:
            heldout_curve.append(float("nan"))
            continue
        with T.no_grad():
            pred = _forward_batch({n: t.data for n, t in p.items()}, cfg,
                                  [features[i] for i in heldout_idx], prefix)
        err = pred.astype(np.float64) - targets[heldout_idx]
        heldout_curve.append(float(np.mean(err * err)))
    return {n: t.data for n, t in p.items()}, train_curve, heldout_curve


def train_predictor(dataset: CriteriaDataset, config: PredictorConfig,
                    seed: int = 0) -> tuple[Predictor, PredictorTrainingLog]:
    """Fit the regressor(s) to the dataset's normalized targets.

    Deterministic under (dataset, config, seed). Every net initialises
    from one shared generator in ``_nets`` order; shadow and fullseq
    train from it too, while each dejavu host trains from its own
    ``(seed, host)`` generator. The log averages the nets' curves.
    Requires at least one covered unit, and enough training examples for
    at least two optimizer batches per epoch.
    """
    if config.topology != dataset.topology:
        raise ValueError(
            f"config topology {config.topology!r} != dataset "
            f"topology {dataset.topology!r}")
    if config.topology == "dejavu" and config.dejavu_stride != dataset.stride:
        raise ValueError(
            f"config stride {config.dejavu_stride} != dataset "
            f"stride {dataset.stride}")
    mcfg = dataset.model_config
    if not dataset.covered.any():
        raise NoCoveredUnitsError(
            f"the {config.topology} predictor has no unit to score in a "
            f"{mcfg.num_layers}-layer model with {dataset.criterion} targets"
            " (shadow and dejavu leave layer 0 dense)")
    e = mcfg.embed_dim
    n_train = len(dataset.train_idx)
    if math.ceil(n_train / config.batch) < 2:
        raise DatasetTooSmallError(
            f"{n_train} training examples fill fewer than 2 batches "
            f"of {config.batch}")
    hidden = config.resolved_hidden(e)
    covered = dataset.covered
    rng = np.random.default_rng(seed)
    params: dict[str, np.ndarray] = {}
    curves = []
    for prefix, row, host, cols in _nets(mcfg, covered, config.topology,
                                         config.dejavu_stride):
        arrays = _init_mlp(rng, prefix, e, hidden, config.hidden_layers,
                           cols.size)
        if config.topology == "fullseq":
            arrays = {**_init_encoder(rng, e), **arrays}
        features = (dataset.features if row is None else
                    [np.asarray(f, dtype=np.float32)[row]
                     for f in dataset.features])
        net_rng = rng if host is None else np.random.default_rng([seed, host])
        trained, train_curve, heldout_curve = _train_net(
            arrays, config, features,
            dataset.targets[:, cols].astype(np.float32),
            dataset.train_idx, dataset.heldout_idx, net_rng, prefix)
        params.update(trained)
        curves.append((train_curve, heldout_curve))
    train_mse, heldout_mse = np.mean(curves, axis=0)
    log = PredictorTrainingLog(
        train_mse=[float(v) for v in train_mse],
        heldout_mse=[float(v) for v in heldout_mse],
        settings={"seed": seed, "hidden": hidden, **asdict(config)})
    pred = Predictor(config=config, model_config=mcfg,
                     criterion=dataset.criterion, params=params,
                     covered=covered.copy())
    return pred, log


# ---------------------------------------------------------------------------
# prediction


def predict_scores(predictor: Predictor, feature) -> ScoreVector:
    """Scores for one ``extract_features`` feature. shadow/fullseq cover
    all their layers at once; dejavu unions the windows of every host."""
    mcfg = predictor.model_config
    cfg = predictor.config
    expected = _feature_shape(mcfg, cfg.topology, cfg.dejavu_stride)
    feature = np.asarray(feature, dtype=np.float32)
    if feature.ndim != len(expected) or any(
            dim < 1 if exp is None else dim != exp
            for dim, exp in zip(feature.shape, expected)):
        raise FeatureShapeMismatchError(
            f"{cfg.topology} feature has shape {feature.shape}, "
            f"expected {expected} (None = at least 1)")
    values = np.zeros(num_units(mcfg), dtype=np.float64)
    covered = np.zeros_like(predictor.covered)
    with T.no_grad():
        for prefix, row, _, cols in _nets(mcfg, predictor.covered,
                                          cfg.topology, cfg.dejavu_stride):
            x = feature if row is None else feature[row]
            values[cols] = _forward_batch(predictor.params, cfg, [x], prefix)[0]
            covered[cols] = True
    return ScoreVector(values, predictor.criterion, covered=covered)


# ---------------------------------------------------------------------------
# fidelity


@dataclass
class FidelityReport:
    spearman_global: float
    spearman_per_layer: dict[int, float]
    mse: float
    degenerate_count: int
    per_example_global: list[float]
    n_examples: int

    @property
    def spearman_local(self) -> float:
        """Mean of the per-layer correlations."""
        vals = list(self.spearman_per_layer.values())
        return float(np.mean(vals)) if vals else float("nan")


def _safe_spearman(a: np.ndarray, b: np.ndarray) -> tuple[float, bool]:
    from .analytics import spearman
    from .errors import DegenerateError
    if a.size < 2:
        return 0.0, True
    try:
        return spearman(a, b), False
    except DegenerateError:
        return 0.0, True


def predictor_fidelity(predictor, dataset: CriteriaDataset,
                       split: str = "heldout") -> FidelityReport:
    """Rank agreement between predictions and stored targets.

    ``predictor`` is a trained Predictor or any callable
    ``(feature, example_index) -> ScoreVector | flat array``. Spearman is
    computed per example and averaged; degenerate (constant) comparisons
    contribute 0 and are tallied separately.
    """
    idx = {"heldout": dataset.heldout_idx, "train": dataset.train_idx,
           "all": np.arange(len(dataset))}[split]
    if len(idx) == 0:
        raise EmptyHeldoutError(f"dataset has no '{split}' examples")
    mcfg = dataset.model_config
    covered = dataset.covered
    cov_blocks = unit_blocks(mcfg, covered)
    layer_rhos: dict[int, list[float]] = {
        l: [] for l in range(mcfg.num_layers)
        if any(cov[l].any() for cov in cov_blocks)}
    globals_, sq_errs = [], []
    degenerate = 0
    for i in idx:
        if isinstance(predictor, Predictor):
            sv = predict_scores(predictor, dataset.features[i])
            pred_vals = sv.values.astype(np.float64)
        else:
            out = predictor(dataset.features[i], int(i))
            pred_vals = (out.values if isinstance(out, ScoreVector)
                         else np.asarray(out)).astype(np.float64)
        target = dataset.targets[i]
        p, t = pred_vals[covered], target[covered]
        rho, bad = _safe_spearman(p, t)
        globals_.append(rho)
        degenerate += bad
        sq_errs.append(float(np.mean((p - t) ** 2)))
        for l in layer_rhos:
            sel = np.zeros_like(covered)
            for block, cov in zip(unit_blocks(mcfg, sel), cov_blocks):
                block[l] = cov[l]
            rho_l, bad_l = _safe_spearman(pred_vals[sel], target[sel])
            layer_rhos[l].append(rho_l)
            degenerate += bad_l
    return FidelityReport(
        spearman_global=float(np.mean(globals_)),
        spearman_per_layer={l: float(np.mean(v)) for l, v in layer_rhos.items()},
        mse=float(np.mean(sq_errs)),
        degenerate_count=degenerate,
        per_example_global=globals_,
        n_examples=len(idx))


# ---------------------------------------------------------------------------
# masks at inference


def contextual_mask_source(predictor: Predictor):
    """Adapter for sweeps: (model, window_tokens, spec) -> MaskSet built
    from predicted scores for that window. The scores of the last window
    seen are kept, so a sweep asking for several specs on one window
    predicts once."""
    memo: dict = {}

    def source(model: TransformerModel, window_tokens, spec: PruneSpec) -> MaskSet:
        window_tokens = np.asarray(window_tokens, dtype=np.int64)
        key = (id(model), window_tokens.tobytes())
        if key not in memo:
            feat = extract_features(model, window_tokens, predictor.topology,
                                    predictor.config.dejavu_stride)
            # the entry holds the model so its id cannot be reused
            memo.clear()
            memo[key] = (model, predict_scores(predictor, feat))
        return build_mask(model.cfg, memo[key][1], spec)

    return source


# ---------------------------------------------------------------------------
# persistence


def save_predictor(predictor: Predictor, path) -> None:
    config = {"kind": "predictor",
              "criterion": predictor.criterion,
              "predictor_config": asdict(predictor.config),
              "model_config": asdict(predictor.model_config),
              "draw": predictor.draw}
    tensors = dict(predictor.params)
    tensors["covered"] = predictor.covered.astype(np.float32)
    write_container(path, config, tensors)


def load_predictor(path) -> Predictor:
    config, tensors = read_container(path)
    if config.get("kind") != "predictor":
        raise ConfigMismatchError(
            f"{path}: container holds {config.get('kind')!r}, not a predictor")
    cfg = PredictorConfig(**config["predictor_config"])
    mcfg = ModelConfig.from_dict(config["model_config"])
    covered_arr = tensors.pop("covered", None)
    if covered_arr is None or covered_arr.size != num_units(mcfg):
        raise ConfigMismatchError(f"{path}: missing or mis-sized covered mask")
    return Predictor(config=cfg, model_config=mcfg,
                     criterion=config["criterion"],
                     params={n: a.astype(np.float32) for n, a in tensors.items()},
                     covered=covered_arr.astype(bool),
                     draw=config.get("draw"))
