"""Single command-line entry point.

Every subcommand reads an optional JSON config, applies flag overrides,
runs one pipeline stage, and drops its artifacts plus a manifest into
--out. Identical config + seed + workers always produce byte-identical
files: nothing time- or path-of-output-dependent is ever written.
"""

from __future__ import annotations

import argparse
import copy
import ctypes
import hashlib
import json
import logging
import os
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .analytics import (FIDELITY_COLUMNS, FEWSHOT_COLUMNS, RANK_VARIANCE_COLUMNS,
                        SWEEP_COLUMNS, emit_report, fewshot_study,
                        rank_variance)
from .checkpoint import checkpoint_vocab, load_checkpoint, save_checkpoint
from .criteria import (AGGREGATE_ONLY, LOSS_ON, CriterionKind,
                       collect_criteria, write_scores_csv)
from .errors import ConfigError, ShlmError
from .model import ModelConfig, TransformerModel
from .predictor import (MODEL_PRESETS, TOPOLOGIES, PredictorConfig,
                        build_dataset, contextual_mask_source, load_predictor,
                        predictor_fidelity, predictor_flops, save_predictor,
                        split_indices, train_predictor)
from .pruning import (SCOPES, STRATEGIES, PruneSpec, oracle_ablation,
                      sparsity_sweep, write_oracle_csv)
from .text import BYTE, TEMPLATES, WORD, ingest_corpus
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


@dataclass(frozen=True)
class _Option:
    """One config field. ``flag``, taken by ``commands``, overrides it;
    ``type``, ``choices`` and ``minimum`` check its resolved value, or
    each element of it when ``many`` (the flag then takes 1+ values)."""

    field: str
    flag: str | None = None
    commands: tuple[str, ...] = ()
    type: type = str
    choices: tuple | None = None
    minimum: int | None = None
    many: bool = False
    help: str | None = None

    def problem(self, value) -> str | None:
        kinds = (int, float) if self.type is float else self.type
        # a bool is an int to isinstance, but never a number here
        if isinstance(value, bool) != (self.type is bool) \
                or not isinstance(value, kinds):
            return f"expected {self.type.__name__}, got {value!r}"
        if self.choices is not None and value not in self.choices:
            return f"must be one of {list(self.choices)}, got {value!r}"
        if self.minimum is not None and value < self.minimum:
            return f"must be >= {self.minimum}, got {value!r}"
        return None


_MODEL_COMMANDS = ("collect", "train-predictor", "eval-predictor", "sweep",
                   "rank-variance", "fewshot", "oracle")
_OPTIONS = (
    _Option("corpus", "--corpus", ("train-lm", *_MODEL_COMMANDS)),
    _Option("tokenizer", "--tokenizer", ("train-lm",), choices=(BYTE, WORD)),
    _Option("checkpoint", "--checkpoint", _MODEL_COMMANDS),
    _Option("predictor_path", "--predictor", ("eval-predictor", "sweep"),
            help="a trained predictor; sweep builds contextual masks from it"),
    _Option("criterion", "--criterion",
            ("collect", "train-predictor", "sweep", "rank-variance", "fewshot"),
            choices=tuple(k.value for k in CriterionKind)),
    _Option("contextual", "--contextual", ("collect",), type=bool,
            help="per-example scores instead of the aggregate"),
    _Option("loss_on", choices=LOSS_ON),
    _Option("train.steps", "--steps", ("train-lm",), type=int, minimum=0),
    _Option("train.lr", type=float, minimum=0),
    _Option("train.batch_size", type=int, minimum=1),
    _Option("train.seq_len", type=int, minimum=2),
    _Option("train.weight_decay", type=float, minimum=0),
    _Option("prompts.n", "--n-prompts",
            ("collect", "train-predictor", "eval-predictor", "rank-variance"),
            type=int, minimum=1),
    _Option("prompts.length", "--prompt-len", ("collect",), type=int, minimum=2),
    _Option("predictor.topology", "--topology", ("train-predictor",),
            choices=TOPOLOGIES),
    _Option("prune.strategy", "--strategy", ("sweep",),
            choices=(*STRATEGIES, "both")),
    _Option("prune.sparsities", "--sparsity", ("sweep",), type=float, many=True),
    _Option("prune.scope", choices=SCOPES),
    _Option("prune.protect_first_layer", type=bool),
    _Option("eval.window", "--window", ("sweep", "oracle"), type=int, minimum=2),
    _Option("eval.max_tokens", "--max-tokens", ("sweep", "fewshot", "oracle"),
            type=int, minimum=2),
    _Option("fewshot.tasks", "--tasks", ("fewshot",), choices=tuple(TEMPLATES),
            many=True),
    _Option("fewshot.shots", "--shots", ("fewshot",), type=int, minimum=0,
            many=True),
    _Option("fewshot.n", type=int, minimum=1),
    _Option("oracle.scope", choices=SCOPES),
    _Option("oracle.max_units", "--max-units", ("oracle",), type=int, minimum=1),
    _Option("flops.preset", "--model-preset", ("flops",),
            choices=tuple(sorted(MODEL_PRESETS))),
    _Option("flops.topology", "--topology", ("flops",), choices=TOPOLOGIES),
    _Option("flops.p1", "--p1", ("flops",), type=int, minimum=1),
)


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


def _parent(cfg: dict, dotted: str) -> tuple[dict, str]:
    """The section holding a dotted field, and the field's key in it."""
    *sections, key = dotted.split(".")
    for section in sections:
        cfg = cfg[section]
    return cfg, key


def _resolve_config(args) -> dict:
    cfg = copy.deepcopy(DEFAULTS)
    if args.config:
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
    # A flag's dest is its field, None when not given. Each row's check
    # runs on the resolved value, so a config-file value gets its flag's
    # check, whichever command runs.
    for opt in _OPTIONS:
        node, key = _parent(cfg, opt.field)
        given = getattr(args, opt.field, None)
        if given is not None:
            node[key] = given
        value = node.get(key)
        if value is None and _parent(DEFAULTS, opt.field)[0].get(key) is None:
            continue  # unset: a None default, or a freeform key not given
        if opt.many and (not isinstance(value, list) or not value):
            raise ConfigError(
                f"field '{opt.field}': expected a non-empty list, got {value!r}")
        for item in value if opt.many else [value]:
            problem = opt.problem(item)
            if problem is not None:
                raise ConfigError(f"field '{opt.field}': {problem}")
    seeds = cfg["seeds"]
    if not isinstance(seeds, list) or len(seeds) != 1:
        raise ConfigError(
            f"field 'seeds': must list exactly one seed, got {seeds!r}; "
            "a run writes one seed's artifacts, so run once per seed")
    return cfg


def _seed(cfg: dict, args) -> int:
    if args.seed is not None:
        return args.seed
    seed = cfg["seeds"][0]
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigError(f"field 'seeds': the seed must be an integer, got {seed!r}")
    return seed


def _model_config(cfg: dict, vocab_size: int | None = None) -> ModelConfig:
    """The model section; ``vocab_size`` is the word vocabulary's size,
    the default and the least ``model.vocab_size`` may be."""
    overrides = dict(cfg["model"])
    if vocab_size is not None:
        overrides.setdefault("vocab_size", vocab_size)
    try:
        mcfg = ModelConfig(**overrides)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"field 'model': {exc}") from None
    if vocab_size is not None and mcfg.vocab_size < vocab_size:
        raise ConfigError(
            f"field 'model.vocab_size': {mcfg.vocab_size} is smaller than the"
            f" word vocabulary of {vocab_size} tokens")
    return mcfg


def _predictor_config(cfg: dict) -> PredictorConfig:
    try:
        return PredictorConfig(**cfg["predictor"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"field 'predictor': {exc}") from None


def _input_path(cfg: dict, field: str) -> Path:
    value = cfg.get(field)
    if not value:
        raise ConfigError(f"field '{field}': required")
    path = Path(value)
    if not path.is_file():
        raise ConfigError(f"field '{field}': no such file {value!r}")
    return path


def _load_corpus(cfg: dict, vocab: dict[str, int] | None = None):
    """The corpus stream; ``vocab``, a word model's, decides the word ids."""
    path = _input_path(cfg, "corpus")
    return path, ingest_corpus(path, cfg["tokenizer"], vocab)


def _model_io(cfg: dict, *lengths: str):
    """The checkpoint's model, the corpus stream encoded with the
    checkpoint's vocabulary, and both input paths (checkpoint, corpus).
    ``lengths`` are the fields giving the sequence lengths the command
    runs, each checked against the model's ``max_seq_len``."""
    ckpt = _input_path(cfg, "checkpoint")
    vocab = checkpoint_vocab(ckpt)
    if (vocab is not None) != (cfg["tokenizer"] == WORD):
        raise ConfigError(
            f"field 'tokenizer': the checkpoint holds {'a' if vocab else 'no'} word"
            f" vocabulary, so the tokenizer must be {WORD if vocab else BYTE}")
    corpus, stream = _load_corpus(cfg, vocab)
    model = load_checkpoint(ckpt)
    limit = model.cfg.max_seq_len
    for field in lengths:
        node, key = _parent(cfg, field)
        if node[key] is not None and node[key] > limit:
            raise ConfigError(f"field '{field}': {node[key]} exceeds the"
                              f" checkpoint's max_seq_len {limit}")
    return model, stream, [ckpt, corpus]


def _load_predictor(cfg: dict, model: TransformerModel):
    """The predictor at ``predictor_path`` and its path; it must have
    been trained on a model of the checkpoint's config."""
    path = _input_path(cfg, "predictor_path")
    predictor = load_predictor(path)
    want, have = asdict(model.cfg), asdict(predictor.model_config)
    diff = [f"{k} {have[k]} (checkpoint {want[k]})" for k in want if have[k] != want[k]]
    if diff:
        raise ConfigError("field 'predictor_path': trained on another model: "
                          + ", ".join(diff))
    return predictor, path


def _eval_tokens(cfg: dict, stream) -> np.ndarray:
    limit = cfg["eval"]["max_tokens"]
    return stream.val if limit is None else stream.val[:limit]


def _corpus_prompts(stream, cfg: dict, seed: int) -> list[np.ndarray]:
    """Deterministic random windows drawn from the validation split."""
    if cfg["loss_on"] == "target":
        log.warning("field 'loss_on': plain corpus windows have no target and"
                    " are scored from their second token, so 'target' changes"
                    " nothing here")
    n, length = cfg["prompts"]["n"], cfg["prompts"]["length"]
    data = stream.val if len(stream.val) > length else stream.train
    if len(data) <= length:
        raise ConfigError(
            f"field 'prompts.length': corpus too short for windows of {length}")
    rng = np.random.default_rng(seed)
    starts = rng.integers(0, len(data) - length, size=n)
    return [data[s:s + length].copy() for s in starts]


def _prompt_draw(cfg: dict, seed: int, corpus: Path) -> dict:
    """Everything that decides which prompts ``_corpus_prompts`` draws,
    keyed by config field (the corpus by its sha256)."""
    return {"corpus": _sha256(corpus), "tokenizer": cfg["tokenizer"],
            "seed": seed, "prompts.n": cfg["prompts"]["n"],
            "prompts.length": cfg["prompts"]["length"]}


def _check_draw(trained: dict | None, draw: dict) -> None:
    """Held-out prompts are held out only if this run draws the prompts
    the predictor was trained on."""
    if trained is None:
        raise ConfigError("field 'predictor_path': no record of the training"
                          " prompts; retrain it with train-predictor")
    for field, value in draw.items():
        if trained.get(field) != value:
            raise ConfigError(
                f"field '{field}': {value!r} here but {trained.get(field)!r}"
                " in training, so held-out prompts would be training prompts")


def _prune_specs(cfg: dict) -> list[PruneSpec]:
    section = cfg["prune"]
    for s in section["sparsities"]:
        if not 0.0 <= s < 1.0:
            raise ConfigError(
                f"field 'prune.sparsities': must lie in [0, 1), got {s}")
    strategies = (STRATEGIES if section["strategy"] == "both"
                  else [section["strategy"]])
    return [PruneSpec(strategy, float(s), scope=section["scope"],
                      protect_first_layer=section["protect_first_layer"])
            for strategy in strategies for s in section["sparsities"]]


# ---------------------------------------------------------------------------
# artifacts


def _sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")


def _write_manifest(out: Path, command: str, cfg: dict, seed: int,
                    workers: int, inputs: list[Path]) -> None:
    _write_json(out / "manifest.json", {
        "command": command,
        "version": __version__,
        "seed": seed,
        "workers": workers,
        "config": cfg,
        "inputs": {str(p): _sha256(p) for p in inputs},
    })


# ---------------------------------------------------------------------------
# subcommands: each takes (cfg, seed, workers, out), writes its artifacts
# and returns the input files the manifest hashes; its docstring is its help


def cmd_train_lm(cfg, seed: int, workers: int, out: Path) -> list[Path]:
    """train a toy LM on a corpus"""
    corpus, stream = _load_corpus(cfg)
    vocab_size = stream.vocab_size if cfg["tokenizer"] == WORD else None
    mcfg = _model_config(cfg, vocab_size=vocab_size)
    model = TransformerModel(mcfg, seed=seed)
    t = cfg["train"]
    tlog = train_lm(model, stream.train, steps=t["steps"], lr=float(t["lr"]),
                    seed=seed, batch_size=t["batch_size"],
                    seq_len=t["seq_len"], weight_decay=float(t["weight_decay"]))
    save_checkpoint(model, out / "model.bin",
                    vocab=stream.vocab if cfg["tokenizer"] == WORD else None)
    _write_json(out / "train_log.json",
                {"losses": tlog.losses, "settings": tlog.settings})
    log.info("trained %d steps, final loss %.4f", len(tlog.losses),
             tlog.losses[-1] if tlog.losses else float("nan"))
    return [corpus]


def _per_prompt_criterion(cfg: dict, field: str = "criterion") -> None:
    """A command that needs a score per prompt rejects an aggregate-only
    criterion before it reads a file."""
    if cfg["criterion"] in AGGREGATE_ONLY:
        raise ConfigError(f"field '{field}': {cfg['criterion']} is aggregate-only")


def cmd_collect(cfg, seed: int, workers: int, out: Path) -> list[Path]:
    """score units with a criterion"""
    kind = CriterionKind(cfg["criterion"])
    if cfg["contextual"]:
        _per_prompt_criterion(cfg, "contextual")
    model, stream, inputs = _model_io(cfg, "prompts.length")
    prompts = _corpus_prompts(stream, cfg, seed)
    scores = collect_criteria(model, prompts, kind,
                              aggregate=not cfg["contextual"],
                              loss_on=cfg["loss_on"], workers=workers)
    meta = {"criterion": kind.value, "contextual": cfg["contextual"],
            "n_prompts": len(prompts), "seed": seed}
    write_scores_csv(scores, model.cfg, out / "scores.csv", meta=meta,
                     sidecar_path=out / "scores_meta.json")
    return inputs


def _dataset_for(cfg, model, prompts, criterion: str, pcfg, workers: int):
    return build_dataset(model, prompts, criterion, topology=pcfg.topology,
                         normalization=pcfg.normalization,
                         stride=pcfg.dejavu_stride, loss_on=cfg["loss_on"],
                         workers=workers)


def cmd_train_predictor(cfg, seed: int, workers: int, out: Path) -> list[Path]:
    """fit a sparsity predictor to a criterion"""
    _per_prompt_criterion(cfg)
    pcfg = _predictor_config(cfg)
    model, stream, inputs = _model_io(cfg, "prompts.length")
    dataset = _dataset_for(cfg, model, _corpus_prompts(stream, cfg, seed),
                           cfg["criterion"], pcfg, workers)
    predictor, plog = train_predictor(dataset, pcfg, seed=seed)
    predictor = replace(predictor, draw=_prompt_draw(cfg, seed, inputs[1]))
    save_predictor(predictor, out / "predictor.bin")
    _write_json(out / "predictor_log.json",
                {"train_mse": plog.train_mse, "heldout_mse": plog.heldout_mse,
                 "settings": plog.settings})
    return inputs


def cmd_eval_predictor(cfg, seed: int, workers: int, out: Path) -> list[Path]:
    """fidelity of a trained predictor"""
    model, stream, inputs = _model_io(cfg, "prompts.length")
    predictor, pred_path = _load_predictor(cfg, model)
    _check_draw(predictor.draw, _prompt_draw(cfg, seed, inputs[1]))
    # Fidelity reads only the held-out examples, and each example depends
    # on its own prompt alone, so only the held-out prompts are scored.
    prompts = _corpus_prompts(stream, cfg, seed)
    _, heldout = split_indices(len(prompts))
    dataset = _dataset_for(cfg, model, [prompts[i] for i in heldout],
                           predictor.criterion, predictor.config, workers)
    report = predictor_fidelity(predictor, dataset, split="all")
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
    return inputs + [pred_path]


def cmd_sweep(cfg, seed: int, workers: int, out: Path) -> list[Path]:
    """perplexity across sparsities"""
    specs = _prune_specs(cfg)
    model, stream, inputs = _model_io(
        cfg, "eval.window", *(() if cfg["predictor_path"] else ("prompts.length",)))
    eval_tokens = _eval_tokens(cfg, stream)
    if cfg["predictor_path"]:
        predictor, pred_path = _load_predictor(cfg, model)
        source = contextual_mask_source(predictor)
        topology = predictor.topology
        criterion = predictor.criterion
        inputs.append(pred_path)
    else:
        prompts = _corpus_prompts(stream, cfg, seed)
        source = collect_criteria(model, prompts, cfg["criterion"],
                                  aggregate=True, loss_on=cfg["loss_on"],
                                  workers=workers)
        topology = "static"
        criterion = cfg["criterion"]
    records = sparsity_sweep(model, source, specs, eval_tokens,
                             window=cfg["eval"]["window"],
                             criterion=criterion, topology=topology, seed=seed,
                             workers=workers)
    emit_report(records, out / "sweep.csv", columns=SWEEP_COLUMNS)
    return inputs


def cmd_rank_variance(cfg, seed: int, workers: int, out: Path) -> list[Path]:
    """head rank stability across prompts"""
    _per_prompt_criterion(cfg)
    criterion = cfg["criterion"]
    model, stream, inputs = _model_io(cfg, "prompts.length")
    prompts = _corpus_prompts(stream, cfg, seed)
    table = rank_variance(model, prompts, criterion=criterion, workers=workers)
    rows = [{"layer": layer, "head": head, "mean_rank": mean,
             "rank_variance": var} for layer, head, mean, var in table.rows]
    emit_report(rows, out / "rank_variance.csv",
                columns=RANK_VARIANCE_COLUMNS)
    _write_json(out / "rank_variance_layers.json",
                {"per_layer": table.per_layer, "criterion": criterion,
                 "n_prompts": len(prompts), "seed": seed})
    return inputs


def cmd_fewshot(cfg, seed: int, workers: int, out: Path) -> list[Path]:
    """criterion quality vs shot count"""
    if cfg["tokenizer"] == WORD:
        # the template prompts are bytes, which a word model would read
        # as word ids
        raise ConfigError("field 'tokenizer': fewshot prompts are byte-encoded,"
                          " so it runs on byte models only")
    specs = _prune_specs(cfg)
    section = cfg["fewshot"]
    model, stream, inputs = _model_io(cfg, "eval.window")
    eval_tokens = _eval_tokens(cfg, stream)
    records = fewshot_study(model, section["tasks"], section["shots"],
                            cfg["criterion"], specs, eval_tokens,
                            n_prompts=section["n"], seed=seed,
                            window=cfg["eval"]["window"], workers=workers,
                            loss_on=cfg["loss_on"])
    emit_report(records, out / "fewshot.csv", columns=FEWSHOT_COLUMNS)
    return inputs


def cmd_flops(cfg, seed: int, workers: int, out: Path | None) -> list[Path]:
    """analytical predictor cost"""
    section = cfg["flops"]
    preset = section["preset"]
    if preset is None and not cfg["model"]:
        raise ConfigError("field 'flops.preset': required "
                          "(pass --model-preset or a model config)")
    dims = preset if preset is not None else _model_config(cfg)
    topology = section["topology"]
    report = predictor_flops(dims, topology, p1=section["p1"])
    name = preset if preset is not None else "custom model"
    print(f"{name} {topology} predictor: {report.flops} FLOPs/token, "
          f"{100.0 * report.reduction_vs_dejavu:.2f}% reduction vs dejavu")
    if out is not None:
        _write_json(out / "flops.json", {
            "preset": preset, "topology": topology, "p1": section["p1"],
            "flops": report.flops, "dejavu_flops": report.dejavu_flops,
            "reduction_vs_dejavu": report.reduction_vs_dejavu,
        })
    return []


def cmd_oracle(cfg, seed: int, workers: int, out: Path) -> list[Path]:
    """true single-unit ablation deltas"""
    section = cfg["oracle"]
    model, stream, inputs = _model_io(cfg, "eval.window")
    eval_tokens = _eval_tokens(cfg, stream)
    results = oracle_ablation(model, eval_tokens, scope=section["scope"],
                              max_units=section["max_units"],
                              window=cfg["eval"]["window"], workers=workers)
    write_oracle_csv(results, out / "oracle.csv")
    return inputs


_COMMANDS = {
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
    for command, handler in _COMMANDS.items():
        p = sub.add_parser(command, help=handler.__doc__)
        p.add_argument("--config", help="JSON experiment config")
        p.add_argument("--seed", type=int, help="overrides the config seed list")
        p.add_argument("--workers", type=int, default=1)
        p.add_argument("--out", help="output directory")
        for opt in _OPTIONS:
            if command not in opt.commands:
                continue
            if opt.type is bool:
                kwargs = {"action": "store_true", "default": None}
            else:
                kwargs = {"type": opt.type, "choices": opt.choices,
                          "nargs": "+" if opt.many else None}
            p.add_argument(opt.flag, dest=opt.field, help=opt.help, **kwargs)
    return parser


def _setup_logging() -> None:
    level_name = os.environ.get("SHLM_LOG", "WARNING").upper()
    level = getattr(logging, level_name, logging.WARNING)
    logging.basicConfig(stream=sys.stderr, level=level, force=True,
                        format="%(levelname)s %(name)s: %(message)s")


def _steady_heap() -> None:
    """Fix glibc's malloc thresholds. Left dynamic, they follow the largest
    block freed so far, so a process that runs many stages reused its heap
    or faulted it in again on incidental allocations (see README)."""
    libc = ctypes.CDLL(None) if sys.platform.startswith("linux") else None
    if hasattr(libc, "mallopt"):
        libc.mallopt(-3, 32 << 20)    # M_MMAP_THRESHOLD
        libc.mallopt(-1, 128 << 20)   # M_TRIM_THRESHOLD


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    _steady_heap()
    _setup_logging()
    try:
        cfg = _resolve_config(args)
        seed = _seed(cfg, args)
        # flops only prints unless an output directory is requested
        out = Path(args.out) if args.out else None
        if out is None and args.command != "flops":
            raise ConfigError("field 'out': required (pass --out)")
        if args.workers < 1:
            raise ConfigError("field 'workers': must be >= 1")
        if out is not None:
            out.mkdir(parents=True, exist_ok=True)
        inputs = _COMMANDS[args.command](cfg, seed, args.workers, out)
        if out is not None:
            _write_manifest(out, args.command, cfg, seed, args.workers, inputs)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ShlmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
