"""Mask building, budgets, tie-breaks, ablation oracle, sweeps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shlm import tensor as T
from shlm.criteria import ScoreVector
from shlm.errors import BudgetExceedsUnitsError, TooManyUnitsError
from shlm.model import (
    MaskSet,
    ModelConfig,
    TransformerModel,
    UnitId,
    UnitKind,
    num_head_units,
    num_units,
    unit_index,
)
from shlm.pruning import (
    PruneSpec,
    build_mask,
    load_mask,
    oracle_ablation,
    save_mask,
    sparsity_sweep,
    write_oracle_csv,
)

from .conftest import TINY

_CFG = ModelConfig(num_layers=2, embed_dim=8, num_heads=4, head_dim=2,
                   ffn_dim=4, vocab_size=16, max_seq_len=16)


def _scores(cfg, heads=None, neurons=None, covered=None):
    values = np.zeros(num_units(cfg))
    if heads is not None:
        values[:num_head_units(cfg)] = np.asarray(heads).reshape(-1)
    if neurons is not None:
        values[num_head_units(cfg):] = np.asarray(neurons).reshape(-1)
    return ScoreVector(values, "test", covered=covered)


def test_global_budget_can_empty_a_layer():
    scores = _scores(_CFG, heads=[[10, 9, 8, 7], [1, 2, 3, 4]],
                     neurons=np.ones((2, 4)))
    mask = build_mask(_CFG, scores, PruneSpec("global", 0.5, scope="heads"))
    assert mask.heads[1].sum() == 0
    assert mask.heads[0].all()
    assert mask.neurons.all()


def test_local_keeps_at_least_one_per_layer():
    scores = _scores(_CFG, heads=np.arange(8).reshape(2, 4),
                     neurons=np.arange(8).reshape(2, 4))
    mask = build_mask(_CFG, scores, PruneSpec("local", 0.99))
    assert np.array_equal(mask.heads.sum(axis=1), [1, 1])
    assert np.array_equal(mask.neurons.sum(axis=1), [1, 1])
    # the survivor is the highest-scored unit of each layer
    assert mask.heads[0, 3] and mask.heads[1, 3]


def test_local_budget_is_floor_of_fraction():
    scores = _scores(_CFG, heads=np.arange(8).reshape(2, 4),
                     neurons=np.ones((2, 4)))
    # 0.4 * 4 = 1.6 -> exactly one head pruned per layer
    mask = build_mask(_CFG, scores, PruneSpec("local", 0.4, scope="heads"))
    assert np.array_equal(mask.heads.sum(axis=1), [3, 3])
    assert not mask.heads[0, 0] and not mask.heads[1, 0]


def test_ties_prune_lower_index_first():
    scores = _scores(_CFG, heads=np.zeros((2, 4)), neurons=np.zeros((2, 4)))
    mask = build_mask(_CFG, scores, PruneSpec("global", 0.25, scope="heads"))
    # budget 2 of 8: both pruned heads are the lowest canonical indices
    assert not mask.heads[0, 0] and not mask.heads[0, 1]
    assert mask.heads[0, 2] and mask.heads[1].all()


def test_protect_first_layer():
    scores = _scores(_CFG, heads=[[0, 0, 0, 0], [9, 9, 9, 9]],
                     neurons=np.zeros((2, 4)))
    spec = PruneSpec("global", 0.5, scope="heads", protect_first_layer=True)
    mask = build_mask(_CFG, scores, spec)
    assert mask.heads[0].all()
    # budget = floor(0.5 * 4 eligible) = 2, applied inside layer 1
    assert mask.heads[1].sum() == 2


def test_uncovered_units_never_pruned():
    covered = np.ones(num_units(_CFG), dtype=bool)
    covered[:num_head_units(_CFG) // 2] = False  # layer-0 heads uncovered
    scores = _scores(_CFG, heads=[[0, 0, 0, 0], [1, 2, 3, 4]],
                     neurons=np.ones((2, 4)), covered=covered)
    mask = build_mask(_CFG, scores, PruneSpec("global", 0.5, scope="heads"))
    assert mask.heads[0].all()
    assert mask.heads[1].sum() == 2


def test_sparsity_out_of_range():
    scores = _scores(_CFG, heads=np.ones((2, 4)), neurons=np.ones((2, 4)))
    for bad in (1.0, 1.5, -0.1):
        with pytest.raises(BudgetExceedsUnitsError):
            build_mask(_CFG, scores, PruneSpec("global", bad))


def test_spec_validation():
    with pytest.raises(ValueError):
        PruneSpec("sideways", 0.5)
    with pytest.raises(ValueError):
        PruneSpec("local", 0.5, scope="everything")


def test_neg_inf_sentinel_pruned_first():
    heads = np.ones((2, 4))
    heads[1, 2] = float("-inf")
    scores = _scores(_CFG, heads=heads, neurons=np.ones((2, 4)))
    mask = build_mask(_CFG, scores, PruneSpec("global", 0.125, scope="heads"))
    assert not mask.heads[1, 2]
    assert mask.heads.sum() == 7


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.floats(0.0, 0.99), st.floats(0.0, 0.99),
       st.sampled_from(["local", "global"]))
def test_masks_nest_as_sparsity_grows(seed, s1, s2, strategy):
    lo, hi = sorted((s1, s2))
    rng = np.random.default_rng(seed)
    scores = ScoreVector(rng.standard_normal(num_units(_CFG)), "test")
    small = build_mask(_CFG, scores, PruneSpec(strategy, hi))
    large = build_mask(_CFG, scores, PruneSpec(strategy, lo))
    # survivors at higher sparsity are a subset of survivors at lower
    assert np.all(large.heads | ~small.heads)
    assert np.all(large.neurons | ~small.neurons)


def test_zero_sparsity_is_identity():
    rng = np.random.default_rng(0)
    scores = ScoreVector(rng.standard_normal(num_units(_CFG)), "test")
    for strategy in ("local", "global"):
        assert build_mask(_CFG, scores, PruneSpec(strategy, 0.0)).all_ones


def test_mask_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    scores = ScoreVector(rng.standard_normal(num_units(_CFG)), "test")
    mask = build_mask(_CFG, scores, PruneSpec("global", 0.4))
    path = tmp_path / "mask.json"
    save_mask(mask, path)
    assert load_mask(_CFG, path) == mask


def test_oracle_ablation_shape_and_cap(trained_model, stream):
    eval_tokens = stream.val[:192]
    results = oracle_ablation(trained_model, eval_tokens, scope="heads", window=64)
    assert len(results) == num_head_units(TINY)
    assert results[0][0] == UnitId(0, UnitKind.HEAD, 0)
    assert all(np.isfinite(d) for _, d in results)
    with pytest.raises(TooManyUnitsError):
        oracle_ablation(trained_model, eval_tokens, scope="both", max_units=10)


def test_oracle_ablation_matches_direct_measurement(trained_model, stream):
    eval_tokens = stream.val[:128]
    results = oracle_ablation(trained_model, eval_tokens, scope="heads", window=64)
    uid, delta = results[5]
    base_t, base_c = trained_model.stream_nll(eval_tokens, window=64)
    mask = MaskSet.ones(TINY).without([uid])
    ab_t, ab_c = trained_model.stream_nll(eval_tokens, mask=mask, window=64)
    assert delta == pytest.approx(ab_t / ab_c - base_t / base_c, abs=1e-12)


def test_oracle_ablation_bit_exact_for_every_unit(trained_model, stream):
    # the oracle reruns only the blocks from the ablated unit's layer on;
    # each delta must still equal two full stream_nll passes exactly
    eval_tokens = stream.val[:100]   # windows of 48, 48 and a partial 4
    results = oracle_ablation(trained_model, eval_tokens, window=48)
    base_t, base_c = trained_model.stream_nll(eval_tokens, window=48)
    ones = MaskSet.ones(TINY)
    for uid, delta in results:
        ab_t, ab_c = trained_model.stream_nll(eval_tokens,
                                              mask=ones.without([uid]),
                                              window=48)
        assert delta == ab_t / ab_c - base_t / base_c, uid


def test_oracle_ablation_workers_deterministic(trained_model, stream):
    eval_tokens = stream.val[:96]
    one = oracle_ablation(trained_model, eval_tokens, scope="heads", window=48)
    two = oracle_ablation(trained_model, eval_tokens, scope="heads", window=48,
                          workers=3)
    assert one == two


def test_grad_mode_stays_on_in_main_thread_after_oracle_workers(trained_model,
                                                             stream):
    # the workers enter no_grad in their own threads; a process-wide
    # switch would leave it off here when their exits interleave
    oracle_ablation(trained_model, stream.val[:96], scope="heads", window=48,
                    workers=3)
    model = trained_model.clone()
    res = model.forward(stream.val[:16])
    T.backward(res.loss_tensor)
    assert all(p.grad is not None for p in model.parameters())


def test_write_oracle_csv(tmp_path):
    rows = [(UnitId(0, UnitKind.HEAD, 1), 0.25), (UnitId(1, UnitKind.NEURON, 3), -0.5)]
    path = tmp_path / "oracle.csv"
    write_oracle_csv(rows, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "layer,kind,index,delta_loss"
    assert lines[1] == "0,head,1,0.25"
    assert lines[2] == "1,neuron,3,-0.5"


def test_sweep_zero_sparsity_equals_dense(trained_model, stream):
    from shlm.analytics import perplexity
    from shlm.criteria import collect_criteria
    from shlm.text import make_fewshot_prompts

    prompts = make_fewshot_prompts("copy", shots=1, n=3, seed=2)
    agg = collect_criteria(trained_model, prompts, "l2norm", aggregate=True)
    eval_tokens = stream.val[:160]
    records = sparsity_sweep(trained_model, agg,
                             [PruneSpec("global", 0.0), PruneSpec("global", 0.5)],
                             eval_tokens, window=64, criterion="l2norm", seed=0)
    dense = perplexity(trained_model, None, eval_tokens, window=64)
    assert records[0].perplexity == dense
    assert records[0].sparsity == 0.0
    assert records[1].perplexity >= records[0].perplexity * 0.5  # sane value
    assert records[0].criterion == "l2norm"
