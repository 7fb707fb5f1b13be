"""Corpus ingestion, tokenizers, and synthetic few-shot prompt builders."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import EmptyCorpusError, UnknownTemplateError

BYTE = "byte"
WORD = "word"
UNK_TOKEN = "<unk>"
TRAIN_FRACTION = 0.9   # the rest of the stream is the validation split


@dataclass
class TokenStream:
    train: np.ndarray
    val: np.ndarray
    vocab: dict[str, int]
    tokenizer: str

    @property
    def vocab_size(self) -> int:
        return len(self.vocab)


def byte_vocab() -> dict[str, int]:
    return {chr(i): i for i in range(256)}


def build_word_vocab(text: str) -> dict[str, int]:
    """Whitespace words by first occurrence; id 0 is the unknown token."""
    vocab = {UNK_TOKEN: 0}
    for word in text.split():
        if word not in vocab:
            vocab[word] = len(vocab)
    return vocab


def encode(text: str, tokenizer: str, vocab: dict[str, int] | None = None) -> np.ndarray:
    if tokenizer == BYTE:
        return np.frombuffer(text.encode("utf-8"), dtype=np.uint8).astype(np.int64)
    if tokenizer == WORD:
        if vocab is None:
            raise ValueError("word encoding needs a vocabulary")
        return np.array([vocab.get(w, 0) for w in text.split()], dtype=np.int64)
    raise ValueError(f"unknown tokenizer {tokenizer!r}")


def ingest_corpus(path, tokenizer: str = BYTE,
                  vocab: dict[str, int] | None = None) -> TokenStream:
    """Tokenize a text file and cut one contiguous 90/10 train/val split.
    Words are encoded with ``vocab``, a trained model's, when it is
    given, and otherwise with a vocabulary built from the text."""
    text = Path(path).read_text(encoding="utf-8")
    if tokenizer == BYTE:
        vocab = byte_vocab()
    elif tokenizer == WORD:
        vocab = build_word_vocab(text) if vocab is None else vocab
    else:
        raise ValueError(f"unknown tokenizer {tokenizer!r}")
    ids = encode(text, tokenizer, vocab)
    if ids.size == 0:
        raise EmptyCorpusError(f"corpus {path} produced no tokens")
    n_train = int(ids.size * TRAIN_FRACTION)
    return TokenStream(
        train=ids[:n_train].copy(),
        val=ids[n_train:].copy(),
        vocab=vocab,
        tokenizer=tokenizer,
    )


# ---------------------------------------------------------------------------
# few-shot prompt templates

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _gen_copy(rng: np.random.Generator) -> tuple[str, str]:
    n = int(rng.integers(3, 6))
    s = "".join(_LETTERS[i] for i in rng.integers(0, 26, size=n))
    return s, s


def _gen_reverse(rng: np.random.Generator) -> tuple[str, str]:
    n = int(rng.integers(3, 6))
    s = "".join(_LETTERS[i] for i in rng.integers(0, 26, size=n))
    return s, s[::-1]


def _gen_add(rng: np.random.Generator) -> tuple[str, str]:
    a, b = int(rng.integers(0, 10)), int(rng.integers(0, 10))
    return f"{a}+{b}", str(a + b)


TEMPLATES = {"copy": _gen_copy, "reverse": _gen_reverse, "add": _gen_add}


def make_fewshot_prompts(task: str, shots: int, n: int, seed: int
                         ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Byte-tokenized (prompt, target) pairs: ``shots`` solved examples
    followed by an unanswered query; the target is its answer plus a
    newline.
    """
    if task not in TEMPLATES:
        raise UnknownTemplateError(
            f"unknown template {task!r}; known: {sorted(TEMPLATES)}"
        )
    if shots < 0 or n < 1:
        raise ValueError("shots must be >= 0 and n >= 1")
    gen = TEMPLATES[task]
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        parts = []
        for _ in range(shots):
            q, a = gen(rng)
            parts.append(f"Q:{q} A:{a}\n")
        q, a = gen(rng)
        parts.append(f"Q:{q} A:")
        prompt = encode("".join(parts), BYTE)
        target = encode(a + "\n", BYTE)
        out.append((prompt, target))
    return out
