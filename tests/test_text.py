"""Corpus ingestion, tokenizers, and few-shot templates."""

import numpy as np
import pytest

from shlm.errors import EmptyCorpusError, UnknownTemplateError
from shlm.text import (
    BYTE,
    WORD,
    build_word_vocab,
    encode,
    ingest_corpus,
    load_vocab,
    make_fewshot_prompts,
    save_vocab,
)


def test_byte_encode_is_utf8_bytes():
    ids = encode("ab\n", BYTE)
    assert ids.tolist() == [97, 98, 10]


def test_word_vocab_first_occurrence_and_unk():
    vocab = build_word_vocab("red green red blue")
    assert vocab == {"<unk>": 0, "red": 1, "green": 2, "blue": 3}
    ids = encode("blue red violet", WORD, vocab)
    assert ids.tolist() == [3, 1, 0]


def test_ingest_split_is_contiguous(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("x" * 1000, encoding="utf-8")
    stream = ingest_corpus(path, tokenizer=BYTE)
    assert len(stream.train) == 900
    assert len(stream.val) == 100
    assert stream.vocab_size == 256


def test_ingest_rejects_empty(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("", encoding="utf-8")
    with pytest.raises(EmptyCorpusError):
        ingest_corpus(path)


def test_vocab_roundtrip(tmp_path):
    vocab = build_word_vocab("a b c a")
    path = tmp_path / "vocab.json"
    save_vocab(vocab, path)
    assert load_vocab(path) == vocab


def test_fewshot_prompts_deterministic():
    a = make_fewshot_prompts("copy", shots=3, n=4, seed=7)
    b = make_fewshot_prompts("copy", shots=3, n=4, seed=7)
    assert len(a) == 4
    for (pa, ta), (pb, tb) in zip(a, b):
        assert np.array_equal(pa, pb) and np.array_equal(ta, tb)
    c = make_fewshot_prompts("copy", shots=3, n=4, seed=8)
    assert not np.array_equal(a[0][0], c[0][0])


def test_fewshot_prompt_structure():
    (prompt, target), = make_fewshot_prompts("add", shots=2, n=1, seed=0)
    text = bytes(prompt.tolist()).decode("utf-8")
    assert text.count("Q:") == 3
    assert text.count("\n") == 2
    assert text.endswith("A:")
    answer = bytes(target.tolist()).decode("utf-8")
    assert answer.endswith("\n")
    q = text.rsplit("Q:", 1)[1].split(" ")[0]
    a, b = q.split("+")
    assert int(answer.strip()) == int(a) + int(b)


def test_fewshot_zero_shots():
    (prompt, _), = make_fewshot_prompts("reverse", shots=0, n=1, seed=1)
    text = bytes(prompt.tolist()).decode("utf-8")
    assert text.count("Q:") == 1 and "\n" not in text


def test_fewshot_unknown_template():
    with pytest.raises(UnknownTemplateError):
        make_fewshot_prompts("nope", shots=0, n=1, seed=0)


def test_reverse_template_answers():
    (prompt, target), = make_fewshot_prompts("reverse", shots=0, n=1, seed=3)
    text = bytes(prompt.tolist()).decode("utf-8")
    q = text[len("Q:"):text.index(" A:")]
    assert bytes(target.tolist()).decode("utf-8").strip() == q[::-1]
