"""Spearman, rank variance, perplexity, reports."""

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from shlm.analytics import (
    EvalRecord,
    FIDELITY_COLUMNS,
    FewshotRecord,
    SWEEP_COLUMNS,
    bootstrap_positive_mean_pvalue,
    emit_report,
    fewshot_study,
    perplexity,
    rank_variance,
    spearman,
)
from shlm.errors import DegenerateError, EmptyStreamError, LengthMismatchError
from shlm.model import MaskSet, TransformerModel
from shlm.pruning import PruneSpec
from shlm.text import make_fewshot_prompts

from .conftest import TINY


def test_spearman_frozen_values():
    assert spearman([1, 2, 3, 4], [1, 3, 2, 4]) == 0.8
    assert spearman([1, 2, 3, 4], [1, 2, 3, 4]) == 1.0
    assert spearman([1, 2, 3, 4], [4, 3, 2, 1]) == -1.0
    assert spearman([10, 20, 30], [1, 400, 90000]) == 1.0


def test_spearman_matches_scipy_with_ties():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.integers(0, 6, size=12).astype(float)
        b = rng.integers(0, 6, size=12).astype(float)
        if np.all(a == a[0]) or np.all(b == b[0]):
            continue
        want = scipy.stats.spearmanr(a, b).statistic
        assert spearman(a, b) == pytest.approx(want, abs=1e-12)


def test_spearman_errors():
    with pytest.raises(LengthMismatchError):
        spearman([1, 2], [1, 2, 3])
    with pytest.raises(LengthMismatchError):
        spearman([1], [2])
    with pytest.raises(DegenerateError):
        spearman([5, 5, 5], [1, 2, 3])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-10 ** 6, 10 ** 6).map(float),
                min_size=3, max_size=20, unique=True),
       st.integers(0, 2 ** 31 - 1))
def test_spearman_invariant_to_monotone_transforms(a, seed):
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(len(a))
    base = spearman(a, b)
    stretched = spearman([3.0 * x + 7.0 for x in a], b)
    assert stretched == pytest.approx(base, abs=1e-12)
    perm = rng.permutation(len(a))
    both = spearman(np.asarray(a)[perm], b[perm])
    assert both == pytest.approx(base, abs=1e-12)


def test_bootstrap_pvalues():
    small = bootstrap_positive_mean_pvalue(np.full(20, 0.5), seed=1)
    assert small < 0.01
    balanced = bootstrap_positive_mean_pvalue(
        np.array([-1.0, 1.0] * 10), n_boot=500, seed=2)
    assert balanced > 0.05


def test_rank_variance_zero_for_duplicated_prompts(trained_model):
    prompt = make_fewshot_prompts("copy", shots=1, n=1, seed=4)[0]
    table = rank_variance(trained_model, [prompt, prompt, prompt])
    assert all(row[3] == 0.0 for row in table.rows)
    assert all(v == 0.0 for v in table.per_layer)


def test_rank_variance_positive_for_distinct_prompts(trained_model):
    prompts = make_fewshot_prompts("copy", shots=1, n=6, seed=5)
    table = rank_variance(trained_model, prompts)
    assert len(table.rows) == TINY.num_layers * TINY.num_heads
    assert any(row[3] > 0 for row in table.rows)
    mean_ranks = [row[2] for row in table.rows]
    assert pytest.approx(np.mean(mean_ranks)) == (len(table.rows) + 1) / 2


def test_perplexity_uniform_logits_equals_vocab():
    model = TransformerModel(TINY, seed=0)
    model.params["tok_emb"].data[:] = 0.0
    toks = np.arange(100) % 256
    ppl = perplexity(model, None, toks, window=50)
    assert abs(ppl - TINY.vocab_size) <= 1e-6


def test_perplexity_masked_vs_dense(trained_model, stream):
    toks = stream.val[:200]
    dense = perplexity(trained_model, None, toks, window=64)
    identity = perplexity(trained_model, MaskSet.ones(TINY), toks, window=64)
    assert dense == identity
    assert dense > 1.0


def test_perplexity_contextual_masker_called_per_window(trained_model, stream):
    toks = stream.val[:200]
    calls = []

    def masker(window_tokens):
        calls.append(len(window_tokens))
        return MaskSet.ones(TINY)

    ppl = perplexity(trained_model, masker, toks, window=64)
    assert calls == [64, 64, 64, 8]
    assert ppl == perplexity(trained_model, None, toks, window=64)


def test_perplexity_empty_stream():
    model = TransformerModel(TINY, seed=0)
    with pytest.raises(EmptyStreamError):
        perplexity(model, None, np.array([7]))


def test_emit_report_csv_rows(tmp_path):
    records = [
        EvalRecord("global", 0.5, "plainact", "static", 12.5, 0),
        {"strategy": "local", "sparsity": 0.1 + 0.2, "seed": 1},
    ]
    csv_path = tmp_path / "sweep.csv"
    emit_report(records, csv_path, SWEEP_COLUMNS)
    lines = csv_path.read_text().strip().splitlines()
    assert lines == ["strategy,sparsity,criterion,topology,perplexity,seed",
                     "global,0.5,plainact,static,12.5,0",
                     "local,0.30000000000000004,,,,1"]


def test_fidelity_columns_schema():
    assert FIDELITY_COLUMNS == ("topology", "criterion", "spearman_global",
                                "spearman_local", "mse", "seed")


def test_fewshot_study_row_count(trained_model, stream):
    specs = [PruneSpec("global", 0.0), PruneSpec("global", 0.5)]
    records = fewshot_study(trained_model, ["copy", "add"], [0, 2], "l2norm",
                            specs, stream.val[:128], n_prompts=3, seed=0,
                            window=64)
    assert len(records) == 2 * 2
    assert all(isinstance(r, FewshotRecord) for r in records)
    assert [r.shots for r in records] == [0, 0, 2, 2]
    dense_rows = [r for r in records if r.sparsity == 0.0]
    assert dense_rows[0].perplexity == dense_rows[1].perplexity
