"""The CLI stages each workload runs, and the input sizes it runs them at.

Every workload runs every stage, because every workload reports every
end-to-end metric. A workload runs its own stages at the "focus" size,
so they carry most of its time, and the others at the small
"companion" size. All sizes are fixed here; only the seed varies.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

CORPUS_BYTES = 24_000     # 90/10 split: 21 600 train and 2 400 eval tokens
SETUP_STEPS = 3           # train-lm steps for the base checkpoint
SETUP_REPEATS = 3
CONTEXT_WINDOW = 16       # contextual sweeps rebuild a mask every 16 tokens

# Shared JSON config. The model is the default ModelConfig (4 layers,
# E=128, 8 heads, F=512, max_seq_len 128).
CONFIG = {
    "train": {"batch_size": 8, "seq_len": 64},
    "prompts": {"n": 8, "length": 16},
    "predictor": {"epochs": 4, "batch": 4},
    "prune": {"strategy": "both", "sparsities": [0.0, 0.25, 0.5, 0.75]},
    "fewshot": {"n": 4},
    "oracle": {"scope": "heads"},
}
ORACLE_UNITS = 32         # scope "heads": 8 heads in each of 4 layers
TRAIN_TOKENS_PER_STEP = 8 * 64
JACOV_UNITS = 4 * (8 + 512)

WORKLOADS = {
    "ablate": ("oracle", "sweep_static"),
    "score": ("train_lm", "collect", "collect_grasp", "collect_jacov",
              "fewshot"),
    "contextual": ("train_predictor", "eval_predictor", "sweep_contextual"),
}

# group -> (focus size, companion size)
SIZES = {
    "oracle": (384, 32),                  # eval tokens, 32 head units
    "sweep_static": ((256, ("0.0", "0.25", "0.5", "0.75")),  # eval tokens,
                     (64, ("0.0", "0.5"))),                   # sparsities
    "train_lm": (6, 1),                   # steps of 8 x 64 tokens
    "collect": (24, 4),                   # prompts of 16 tokens
    "collect_grasp": (4, 1),              # prompts
    "collect_jacov": (16, 2),             # prompts
    "fewshot": ((("copy", "reverse"), ("0", "2"), 256),   # tasks, shots,
                (("copy",), ("0",), 64)),                # eval tokens
    "train_predictor": (24, 8),           # prompts per predictor
    "eval_predictor": (24, 8),            # prompts per predictor
    "sweep_contextual": (128, 32),        # eval tokens per spec
}
CONTEXT_SPARSITIES = ("0.0", "0.5")
PREDICTORS = ("shadow", "dejavu")


@dataclass(frozen=True)
class Stage:
    name: str          # unique within an iteration, e.g. "sweep_contextual_shadow"
    group: str         # the metric group it feeds, e.g. "sweep_contextual"
    argv: tuple        # shlm CLI arguments, without --config/--seed/--out
    work: int          # items of work for the group's rate
    eval_tokens: int = 0


def plan(workload: str, corpus: Path, ckpt: Path,
         stage_root: Path) -> list[Stage]:
    """The ordered stages of one iteration of ``workload``; each stage
    writes to ``stage_root / name``."""
    focus = set(WORKLOADS[workload])

    def size(group):
        return SIZES[group][0 if group in focus else 1]

    data = ("--corpus", str(corpus))
    model = ("--checkpoint", str(ckpt), *data)
    stages = [
        Stage("train_lm", "train_lm",
              ("train-lm", *data, "--steps", str(size("train_lm"))),
              size("train_lm") * TRAIN_TOKENS_PER_STEP),
        Stage("collect", "collect",
              ("collect", *model, "--criterion", "plainact",
               "--n-prompts", str(size("collect"))), size("collect")),
        Stage("collect_grasp", "collect_grasp",
              ("collect", *model, "--criterion", "grasp",
               "--n-prompts", str(size("collect_grasp"))),
              size("collect_grasp")),
        Stage("collect_jacov", "collect_jacov",
              ("collect", *model, "--criterion", "jacov",
               "--n-prompts", str(size("collect_jacov"))), JACOV_UNITS),
    ]
    tasks, shots, fewshot_tokens = size("fewshot")
    stages.append(Stage(
        "fewshot", "fewshot",
        ("fewshot", *model, "--tasks", *tasks, "--shots", *shots,
         "--max-tokens", str(fewshot_tokens)),
        len(tasks) * len(shots) * CONFIG["fewshot"]["n"]))
    stages.append(Stage(
        "oracle", "oracle",
        ("oracle", *model, "--max-tokens", str(size("oracle"))),
        ORACLE_UNITS, eval_tokens=size("oracle")))
    static_tokens, sparsities = size("sweep_static")
    stages.append(Stage(
        "sweep_static", "sweep_static",
        ("sweep", *model, "--criterion", "plainact", "--strategy", "both",
         "--sparsity", *sparsities, "--max-tokens", str(static_tokens)),
        2 * len(sparsities) * static_tokens, eval_tokens=static_tokens))
    for topo in PREDICTORS:
        pred = str(stage_root / f"train_predictor_{topo}" / "predictor.bin")
        n_train, n_eval = size("train_predictor"), size("eval_predictor")
        ctx_tokens = size("sweep_contextual")
        stages += [
            Stage(f"train_predictor_{topo}", "train_predictor",
                  ("train-predictor", *model, "--criterion", "plainact",
                   "--topology", topo, "--n-prompts", str(n_train)), n_train),
            Stage(f"eval_predictor_{topo}", "eval_predictor",
                  ("eval-predictor", *model, "--predictor", pred,
                   "--n-prompts", str(n_eval)), n_eval),
            Stage(f"sweep_contextual_{topo}", "sweep_contextual",
                  ("sweep", *model, "--predictor", pred, "--strategy", "both",
                   "--sparsity", *CONTEXT_SPARSITIES,
                   "--window", str(CONTEXT_WINDOW),
                   "--max-tokens", str(ctx_tokens)),
                  2 * len(CONTEXT_SPARSITIES) * ctx_tokens,
                  eval_tokens=ctx_tokens),
        ]
    return stages
