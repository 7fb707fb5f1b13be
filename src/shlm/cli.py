"""Single command-line entry point.

Every subcommand reads an optional JSON config, applies flag overrides,
runs one pipeline stage, and drops its artifacts plus a manifest into
--out. Identical config + seed + workers always produce byte-identical
files: nothing time- or path-of-output-dependent is ever written.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analytics import (FIDELITY_COLUMNS, FEWSHOT_COLUMNS, RANK_VARIANCE_COLUMNS,
                        SWEEP_COLUMNS, emit_report, fewshot_study,
                        rank_variance)
from .checkpoint import load_checkpoint
from .criteria import (AGGREGATE_ONLY, CriterionKind, collect_criteria,
                       write_scores_csv)
from .errors import ConfigError, ShlmError
from .model import ModelConfig, TransformerModel
from .predictor import (MODEL_PRESETS, TOPOLOGIES, PredictorConfig,
                        build_dataset, contextual_mask_source, load_predictor,
                        predictor_fidelity, predictor_flops, save_predictor,
                        train_predictor)
from .pruning import PruneSpec, oracle_ablation, sparsity_sweep, write_oracle_csv
from .text import TEMPLATES, ingest_corpus, save_vocab
from .train import train_lm

log = logging.getLogger("shlm")

DEFAULTS = {
    "model": {},
    "train": {"steps": 200, "lr": 3e-3, "batch_size": 8, "seq_len": None,
              "weight_decay": 0.01},
    "corpus": None,
    "tokenizer": "byte",
    "checkpoint": None,
    "predictor_path": None,
    "criterion": "plainact",
    "loss_on": "all",
    "contextual": False,
    "prompts": {"n": 16, "length": 16},
    "predictor": {},
    "prune": {"strategy": "local", "sparsities": [0.0, 0.25, 0.5],
              "scope": "both", "protect_first_layer": False},
    "eval": {"window": None, "max_tokens": None},
    "fewshot": {"tasks": ["copy", "reverse"], "shots": [0, 2], "n": 8},
    "oracle": {"scope": "both", "max_units": 4096},
    "flops": {"preset": None, "topology": "shadow", "p1": 2048},
    "seeds": [0],
}

# sections whose keys are checked by their dataclass constructor instead
_FREEFORM = ("model", "predictor")


# ---------------------------------------------------------------------------
# config plumbing


def _merge(base: dict, override: dict, prefix: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        name = f"{prefix}{key}"
        if key not in base:
            raise ConfigError(f"field '{name}': unknown")
        if isinstance(base[key], dict) and not isinstance(value, dict):
            raise ConfigError(f"field '{name}': expected an object")
        if isinstance(base[key], dict) and key not in _FREEFORM:
            out[key] = _merge(base[key], value, f"{name}.")
        else:
            out[key] = copy.deepcopy(value)
    return out


def _set_path(cfg: dict, dotted: str, value) -> None:
    node = cfg
    parts = dotted.split(".")
    for p in parts[:-1]:
        node = node[p]
    node[parts[-1]] = value


# flag -> config field, applied only when the flag was actually given
_OVERRIDES = [
    ("corpus", "corpus"),
    ("tokenizer", "tokenizer"),
    ("checkpoint", "checkpoint"),
    ("predictor", "predictor_path"),
    ("criterion", "criterion"),
    ("loss_on", "loss_on"),
    ("topology", "predictor.topology"),
    ("strategy", "prune.strategy"),
    ("sparsity", "prune.sparsities"),
    ("steps", "train.steps"),
    ("n_prompts", "prompts.n"),
    ("prompt_len", "prompts.length"),
    ("window", "eval.window"),
    ("max_tokens", "eval.max_tokens"),
    ("max_units", "oracle.max_units"),
    ("tasks", "fewshot.tasks"),
    ("shots", "fewshot.shots"),
    ("model_preset", "flops.preset"),
    ("p1", "flops.p1"),
]


def _resolve_config(args) -> dict:
    cfg = copy.deepcopy(DEFAULTS)
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.is_file():
            raise ConfigError(f"field 'config': no such file {args.config!r}")
        try:
            loaded = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"field 'config': invalid JSON ({exc})") from None
        if not isinstance(loaded, dict):
            raise ConfigError("field 'config': top level must be an object")
        cfg = _merge(cfg, loaded)
    for flag, dotted in _OVERRIDES:
        value = getattr(args, flag, None)
        if value is not None:
            _set_path(cfg, dotted, value)
    if getattr(args, "contextual", False):
        cfg["contextual"] = True
    seeds = cfg["seeds"]
    if not isinstance(seeds, list) or len(seeds) != 1:
        raise ConfigError(
            f"field 'seeds': must list exactly one seed, got {seeds!r}; "
            "a run writes one seed's artifacts, so run once per seed")
    return cfg


def _seed(cfg: dict, args) -> int:
    if getattr(args, "seed", None) is not None:
        return int(args.seed)
    seed = cfg["seeds"][0]
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigError(f"field 'seeds': the seed must be an integer, got {seed!r}")
    return seed


def _model_config(cfg: dict, vocab_size: int | None = None) -> ModelConfig:
    overrides = dict(cfg["model"])
    if vocab_size is not None and "vocab_size" not in overrides:
        overrides["vocab_size"] = vocab_size
    try:
        return ModelConfig(**overrides)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"field 'model': {exc}") from None


def _predictor_config(cfg: dict) -> PredictorConfig:
    try:
        return PredictorConfig(**cfg["predictor"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"field 'predictor': {exc}") from None


def _criterion(cfg: dict) -> CriterionKind:
    try:
        return CriterionKind(cfg["criterion"])
    except ValueError:
        raise ConfigError(
            f"field 'criterion': unknown criterion {cfg['criterion']!r}"
        ) from None


def _input_path(cfg: dict, field: str) -> Path:
    value = cfg.get(field)
    if not value:
        raise ConfigError(f"field '{field}': required")
    path = Path(value)
    if not path.is_file():
        raise ConfigError(f"field '{field}': no such file {value!r}")
    return path


def _load_corpus(cfg: dict):
    path = _input_path(cfg, "corpus")
    return path, ingest_corpus(path, tokenizer=cfg["tokenizer"])


def _eval_tokens(cfg: dict, stream) -> np.ndarray:
    tokens = stream.val
    limit = cfg["eval"]["max_tokens"]
    if limit is not None:
        tokens = tokens[: int(limit)]
    return tokens


def _corpus_prompts(stream, cfg: dict, seed: int) -> list[np.ndarray]:
    """Deterministic random windows drawn from the validation split."""
    n = int(cfg["prompts"]["n"])
    length = int(cfg["prompts"]["length"])
    data = stream.val if len(stream.val) > length else stream.train
    if len(data) <= length:
        raise ConfigError(
            f"field 'prompts.length': corpus too short for windows of {length}")
    rng = np.random.default_rng(seed)
    starts = rng.integers(0, len(data) - length, size=n)
    return [data[s:s + length].copy() for s in starts]


def _prune_specs(cfg: dict) -> list[PruneSpec]:
    section = cfg["prune"]
    strategies = (["local", "global"] if section["strategy"] == "both"
                  else [section["strategy"]])
    specs = []
    for strategy in strategies:
        for s in section["sparsities"]:
            if not 0.0 <= float(s) < 1.0:
                raise ConfigError(
                    f"field 'prune.sparsities': must lie in [0, 1), got {s}")
            try:
                specs.append(PruneSpec(strategy, float(s),
                                       scope=section["scope"],
                                       protect_first_layer=bool(
                                           section["protect_first_layer"])))
            except ValueError as exc:
                raise ConfigError(f"field 'prune': {exc}") from None
    return specs


# ---------------------------------------------------------------------------
# artifacts


def _sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _write_manifest(out: Path, command: str, cfg: dict, seed: int,
                    workers: int, inputs: list[Path]) -> None:
    manifest = {
        "command": command,
        "version": __version__,
        "seed": seed,
        "workers": workers,
        "config": cfg,
        "inputs": {str(p): _sha256(p) for p in inputs},
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")


# ---------------------------------------------------------------------------
# subcommands


def cmd_train_lm(cfg, args, out: Path) -> None:
    seed = _seed(cfg, args)
    corpus, stream = _load_corpus(cfg)
    vocab_size = stream.vocab_size if cfg["tokenizer"] == "word" else None
    mcfg = _model_config(cfg, vocab_size=vocab_size)
    model = TransformerModel(mcfg, seed=seed)
    t = cfg["train"]
    tlog = train_lm(model, stream.train, steps=int(t["steps"]),
                    lr=float(t["lr"]), seed=seed,
                    batch_size=int(t["batch_size"]),
                    seq_len=t["seq_len"], weight_decay=float(t["weight_decay"]),
                    checkpoint_path=out / "model.bin")
    if cfg["tokenizer"] == "word":
        save_vocab(stream.vocab, out / "vocab.json")
    _write_json(out / "train_log.json",
                {"losses": tlog.losses, "settings": tlog.settings})
    _write_manifest(out, "train-lm", cfg, seed, args.workers, [corpus])
    log.info("trained %d steps, final loss %.4f", len(tlog.losses),
             tlog.losses[-1] if tlog.losses else float("nan"))


def cmd_collect(cfg, args, out: Path) -> None:
    seed = _seed(cfg, args)
    kind = _criterion(cfg)
    if cfg["contextual"] and kind in AGGREGATE_ONLY:
        raise ConfigError(
            f"field 'contextual': {kind.value} is aggregate-only")
    ckpt = _input_path(cfg, "checkpoint")
    corpus, stream = _load_corpus(cfg)
    model = load_checkpoint(ckpt)
    prompts = _corpus_prompts(stream, cfg, seed)
    scores = collect_criteria(model, prompts, kind,
                              aggregate=not cfg["contextual"],
                              loss_on=cfg["loss_on"], workers=args.workers)
    meta = {"criterion": kind.value, "contextual": cfg["contextual"],
            "n_prompts": len(prompts), "seed": seed}
    write_scores_csv(scores, model.cfg, out / "scores.csv", meta=meta,
                     sidecar_path=out / "scores_meta.json")
    _write_manifest(out, "collect", cfg, seed, args.workers, [ckpt, corpus])


def _dataset_for(cfg, args, model, stream, criterion: str, pcfg, seed: int):
    prompts = _corpus_prompts(stream, cfg, seed)
    return build_dataset(model, prompts, criterion, topology=pcfg.topology,
                         normalization=pcfg.normalization,
                         stride=pcfg.dejavu_stride, loss_on=cfg["loss_on"],
                         workers=args.workers)


def cmd_train_predictor(cfg, args, out: Path) -> None:
    seed = _seed(cfg, args)
    kind = _criterion(cfg)
    pcfg = _predictor_config(cfg)
    ckpt = _input_path(cfg, "checkpoint")
    corpus, stream = _load_corpus(cfg)
    model = load_checkpoint(ckpt)
    dataset = _dataset_for(cfg, args, model, stream, kind.value, pcfg, seed)
    predictor, plog = train_predictor(dataset, pcfg, seed=seed)
    save_predictor(predictor, out / "predictor.bin")
    _write_json(out / "predictor_log.json",
                {"train_mse": plog.train_mse, "heldout_mse": plog.heldout_mse,
                 "settings": plog.settings})
    _write_manifest(out, "train-predictor", cfg, seed, args.workers,
                    [ckpt, corpus])


def cmd_eval_predictor(cfg, args, out: Path) -> None:
    seed = _seed(cfg, args)
    ckpt = _input_path(cfg, "checkpoint")
    pred_path = _input_path(cfg, "predictor_path")
    corpus, stream = _load_corpus(cfg)
    model = load_checkpoint(ckpt)
    predictor = load_predictor(pred_path)
    dataset = _dataset_for(cfg, args, model, stream, predictor.criterion,
                           predictor.config, seed)
    report = predictor_fidelity(predictor, dataset)
    _write_json(out / "fidelity.json", {
        "spearman_global": report.spearman_global,
        "spearman_local": report.spearman_local,
        "spearman_per_layer": {str(k): v
                               for k, v in report.spearman_per_layer.items()},
        "mse": report.mse,
        "degenerate_count": report.degenerate_count,
        "n_examples": report.n_examples,
    })
    row = {"topology": predictor.topology, "criterion": predictor.criterion,
           "spearman_global": report.spearman_global,
           "spearman_local": report.spearman_local,
           "mse": report.mse, "seed": seed}
    emit_report([row], out / "fidelity.csv", columns=FIDELITY_COLUMNS)
    _write_manifest(out, "eval-predictor", cfg, seed, args.workers,
                    [ckpt, pred_path, corpus])


def cmd_sweep(cfg, args, out: Path) -> None:
    seed = _seed(cfg, args)
    kind = _criterion(cfg)
    specs = _prune_specs(cfg)
    ckpt = _input_path(cfg, "checkpoint")
    corpus, stream = _load_corpus(cfg)
    model = load_checkpoint(ckpt)
    eval_tokens = _eval_tokens(cfg, stream)
    inputs = [ckpt, corpus]
    if cfg["predictor_path"]:
        pred_path = _input_path(cfg, "predictor_path")
        predictor = load_predictor(pred_path)
        source = contextual_mask_source(predictor)
        topology = predictor.topology
        criterion = predictor.criterion
        inputs.append(pred_path)
    else:
        prompts = _corpus_prompts(stream, cfg, seed)
        source = collect_criteria(model, prompts, kind, aggregate=True,
                                  loss_on=cfg["loss_on"], workers=args.workers)
        topology = "static"
        criterion = kind.value
    records = sparsity_sweep(model, source, specs, eval_tokens,
                             window=cfg["eval"]["window"],
                             criterion=criterion, topology=topology, seed=seed)
    emit_report(records, out / "sweep.csv", columns=SWEEP_COLUMNS)
    _write_manifest(out, "sweep", cfg, seed, args.workers, inputs)


def cmd_rank_variance(cfg, args, out: Path) -> None:
    seed = _seed(cfg, args)
    kind = _criterion(cfg)
    ckpt = _input_path(cfg, "checkpoint")
    corpus, stream = _load_corpus(cfg)
    model = load_checkpoint(ckpt)
    prompts = _corpus_prompts(stream, cfg, seed)
    table = rank_variance(model, prompts, criterion=kind.value,
                          workers=args.workers)
    rows = [{"layer": layer, "head": head, "mean_rank": mean,
             "rank_variance": var} for layer, head, mean, var in table.rows]
    emit_report(rows, out / "rank_variance.csv",
                columns=RANK_VARIANCE_COLUMNS)
    _write_json(out / "rank_variance_layers.json",
                {"per_layer": table.per_layer, "criterion": kind.value,
                 "n_prompts": len(prompts), "seed": seed})
    _write_manifest(out, "rank-variance", cfg, seed, args.workers,
                    [ckpt, corpus])


def cmd_fewshot(cfg, args, out: Path) -> None:
    seed = _seed(cfg, args)
    kind = _criterion(cfg)
    specs = _prune_specs(cfg)
    section = cfg["fewshot"]
    for task in section["tasks"]:
        if task not in TEMPLATES:
            raise ConfigError(
                f"field 'fewshot.tasks': unknown template {task!r}")
    ckpt = _input_path(cfg, "checkpoint")
    corpus, stream = _load_corpus(cfg)
    model = load_checkpoint(ckpt)
    eval_tokens = _eval_tokens(cfg, stream)
    records = fewshot_study(model, section["tasks"],
                            [int(s) for s in section["shots"]], kind.value,
                            specs, eval_tokens, n_prompts=int(section["n"]),
                            seed=seed, window=cfg["eval"]["window"],
                            workers=args.workers, loss_on=cfg["loss_on"])
    emit_report(records, out / "fewshot.csv", columns=FEWSHOT_COLUMNS)
    _write_manifest(out, "fewshot", cfg, seed, args.workers, [ckpt, corpus])


def cmd_flops(cfg, args, out: Path | None) -> None:
    seed = _seed(cfg, args)
    section = cfg["flops"]
    preset = section["preset"]
    if preset is not None:
        if preset not in MODEL_PRESETS:
            raise ConfigError(
                f"field 'flops.preset': unknown preset {preset!r}; "
                f"known: {sorted(MODEL_PRESETS)}")
        dims = preset
    elif cfg["model"]:
        dims = _model_config(cfg)
    else:
        raise ConfigError("field 'flops.preset': required "
                          "(pass --model-preset or a model config)")
    topology = section["topology"]
    if topology not in TOPOLOGIES:
        raise ConfigError(
            f"field 'flops.topology': unknown topology {topology!r}")
    report = predictor_flops(dims, topology, p1=int(section["p1"]))
    name = preset if preset is not None else "custom model"
    print(f"{name} {topology} predictor: {report.flops} FLOPs/token, "
          f"{100.0 * report.reduction_vs_dejavu:.2f}% reduction vs dejavu")
    if out is not None:
        _write_json(out / "flops.json", {
            "preset": preset, "topology": topology, "p1": int(section["p1"]),
            "flops": report.flops, "dejavu_flops": report.dejavu_flops,
            "reduction_vs_dejavu": report.reduction_vs_dejavu,
        })
        _write_manifest(out, "flops", cfg, seed, args.workers, [])


def cmd_oracle(cfg, args, out: Path) -> None:
    seed = _seed(cfg, args)
    section = cfg["oracle"]
    ckpt = _input_path(cfg, "checkpoint")
    corpus, stream = _load_corpus(cfg)
    model = load_checkpoint(ckpt)
    eval_tokens = _eval_tokens(cfg, stream)
    results = oracle_ablation(model, eval_tokens, scope=section["scope"],
                              max_units=int(section["max_units"]),
                              window=cfg["eval"]["window"],
                              workers=args.workers)
    write_oracle_csv(results, out / "oracle.csv")
    _write_manifest(out, "oracle", cfg, seed, args.workers, [ckpt, corpus])


_HANDLERS = {
    "train-lm": cmd_train_lm,
    "collect": cmd_collect,
    "train-predictor": cmd_train_predictor,
    "eval-predictor": cmd_eval_predictor,
    "sweep": cmd_sweep,
    "rank-variance": cmd_rank_variance,
    "fewshot": cmd_fewshot,
    "flops": cmd_flops,
    "oracle": cmd_oracle,
}


# ---------------------------------------------------------------------------
# argument parsing


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shlm",
        description="Contextual-sparsity laboratory for toy decoder LMs")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON experiment config")
        p.add_argument("--seed", type=int, help="overrides the config seed list")
        p.add_argument("--workers", type=int, default=1)
        p.add_argument("--out", help="output directory")
        return p

    p = common(sub.add_parser("train-lm", help="train a toy LM on a corpus"))
    p.add_argument("--corpus")
    p.add_argument("--tokenizer", choices=("byte", "word"))
    p.add_argument("--steps", type=int)

    p = common(sub.add_parser("collect", help="score units with a criterion"))
    p.add_argument("--checkpoint")
    p.add_argument("--corpus")
    p.add_argument("--criterion")
    p.add_argument("--contextual", action="store_true",
                   help="per-example scores instead of the aggregate")
    p.add_argument("--n-prompts", dest="n_prompts", type=int)
    p.add_argument("--prompt-len", dest="prompt_len", type=int)

    p = common(sub.add_parser("train-predictor",
                              help="fit a sparsity predictor to a criterion"))
    p.add_argument("--checkpoint")
    p.add_argument("--corpus")
    p.add_argument("--criterion")
    p.add_argument("--topology", choices=TOPOLOGIES)
    p.add_argument("--n-prompts", dest="n_prompts", type=int)

    p = common(sub.add_parser("eval-predictor",
                              help="fidelity of a trained predictor"))
    p.add_argument("--checkpoint")
    p.add_argument("--predictor")
    p.add_argument("--corpus")
    p.add_argument("--n-prompts", dest="n_prompts", type=int)

    p = common(sub.add_parser("sweep", help="perplexity across sparsities"))
    p.add_argument("--checkpoint")
    p.add_argument("--corpus")
    p.add_argument("--criterion")
    p.add_argument("--predictor", help="contextual masks from this predictor")
    p.add_argument("--strategy", choices=("local", "global", "both"))
    p.add_argument("--sparsity", dest="sparsity", type=float, nargs="+")
    p.add_argument("--window", type=int)
    p.add_argument("--max-tokens", dest="max_tokens", type=int)

    p = common(sub.add_parser("rank-variance",
                              help="head rank stability across prompts"))
    p.add_argument("--checkpoint")
    p.add_argument("--corpus")
    p.add_argument("--criterion")
    p.add_argument("--n-prompts", dest="n_prompts", type=int)

    p = common(sub.add_parser("fewshot",
                              help="criterion quality vs shot count"))
    p.add_argument("--checkpoint")
    p.add_argument("--corpus")
    p.add_argument("--criterion")
    p.add_argument("--tasks", nargs="+")
    p.add_argument("--shots", type=int, nargs="+")
    p.add_argument("--max-tokens", dest="max_tokens", type=int)

    p = common(sub.add_parser("flops", help="analytical predictor cost"))
    p.add_argument("--model-preset", dest="model_preset",
                   choices=sorted(MODEL_PRESETS))
    p.add_argument("--topology", choices=TOPOLOGIES)
    p.add_argument("--p1", type=int)

    p = common(sub.add_parser("oracle",
                              help="true single-unit ablation deltas"))
    p.add_argument("--checkpoint")
    p.add_argument("--corpus")
    p.add_argument("--max-units", dest="max_units", type=int)
    p.add_argument("--window", type=int)
    p.add_argument("--max-tokens", dest="max_tokens", type=int)

    return parser


def _setup_logging() -> None:
    level_name = os.environ.get("SHLM_LOG", "WARNING").upper()
    level = getattr(logging, level_name, logging.WARNING)
    logging.basicConfig(stream=sys.stderr, level=level, force=True,
                        format="%(levelname)s %(name)s: %(message)s")


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    _setup_logging()
    try:
        cfg = _resolve_config(args)
        # flops only prints unless an output directory is requested
        out = Path(args.out) if args.out else None
        if out is None and args.command != "flops":
            raise ConfigError("field 'out': required (pass --out)")
        if args.workers < 1:
            raise ConfigError("field 'workers': must be >= 1")
        if out is not None:
            out.mkdir(parents=True, exist_ok=True)
        # flag override for the predictor topology lives under 'predictor'
        if args.command == "flops" and getattr(args, "topology", None):
            cfg["flops"]["topology"] = args.topology
        _HANDLERS[args.command](cfg, args, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ShlmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
