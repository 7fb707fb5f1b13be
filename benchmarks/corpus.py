"""Seeded inputs for the benchmark: corpus text and the CLI prompt seed.

The generator is the benchmark's own, so the program under test receives
only the files written here. The same seed always gives the same bytes.
"""

from __future__ import annotations

import random
from pathlib import Path

_WORDS = (
    "a an the one two red blue small large model layer head neuron mask "
    "prune keep drop score rank token window prompt shadow predictor sparse "
    "dense loss step train eval copy reverse sum digit line word byte"
).split()
_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _sentence(rng: random.Random) -> str:
    words = [rng.choice(_WORDS) for _ in range(rng.randint(4, 10))]
    return " ".join(words) + ".\n"


def _qa_line(rng: random.Random) -> str:
    task = rng.randrange(3)
    if task == 2:
        a, b = rng.randrange(10), rng.randrange(10)
        return f"Q:{a}+{b} A:{a + b}\n"
    s = "".join(rng.choice(_LETTERS) for _ in range(rng.randint(3, 5)))
    return f"Q:{s} A:{s if task == 0 else s[::-1]}\n"


def corpus_text(seed: int, n_bytes: int) -> str:
    """ASCII text of exactly ``n_bytes`` bytes: prose mixed with Q/A lines."""
    rng = random.Random(f"corpus-{seed}")
    parts, size = [], 0
    while size < n_bytes:
        line = _sentence(rng) if rng.random() < 0.5 else _qa_line(rng)
        parts.append(line)
        size += len(line)
    return "".join(parts)[:n_bytes]


def prompt_seed(seed: int) -> int:
    """The ``--seed`` handed to every CLI stage, derived from the workload seed."""
    return random.Random(f"prompts-{seed}").randrange(2**31)


def write_corpus(path: Path, seed: int, n_bytes: int) -> Path:
    path.write_text(corpus_text(seed, n_bytes), encoding="ascii")
    return path
