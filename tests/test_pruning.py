"""Mask building, budgets, tie-breaks, ablation oracle, sweeps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shlm import predictor as predictor_mod
from shlm import tensor as T
from shlm.analytics import perplexity
from shlm.criteria import ScoreVector
from shlm.errors import (
    BudgetExceedsUnitsError,
    MaskShapeMismatchError,
    TooManyUnitsError,
)
from shlm.model import (
    MaskSet,
    ModelConfig,
    TransformerModel,
    UnitId,
    UnitKind,
    num_head_units,
    num_units,
    unit_at,
)
from shlm.predictor import (
    PredictorConfig,
    build_dataset,
    contextual_mask_source,
    train_predictor,
)
from shlm.pruning import (
    PruneSpec,
    _DensePass,
    _masked_totals,
    build_mask,
    oracle_ablation,
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
        assert build_mask(_CFG, scores,
                          PruneSpec(strategy, 0.0)) == MaskSet.ones(_CFG)


def test_oracle_ablation_shape_and_cap(trained_model, stream):
    eval_tokens = stream.val[:192]
    results = oracle_ablation(trained_model, eval_tokens, scope="heads", window=64)
    assert len(results) == num_head_units(TINY)
    assert results[0][0] == UnitId(0, UnitKind.HEAD, 0)
    assert all(np.isfinite(d) for _, d in results)
    units = [unit_at(TINY, flat) for flat in range(num_units(TINY))]
    n_heads = num_head_units(TINY)
    assert [u for u, _ in results] == units[:n_heads]
    neurons = oracle_ablation(trained_model, eval_tokens[:64], scope="neurons")
    assert [u for u, _ in neurons] == units[n_heads:]
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
    # the oracle resumes each ablated unit's layer at its kept head
    # outputs and reruns only the blocks after it; each delta must still
    # equal two full stream_nll passes exactly
    eval_tokens = stream.val[:100]   # windows of 48, 48 and a partial 4
    results = oracle_ablation(trained_model, eval_tokens, window=48)
    base_t, base_c = trained_model.stream_nll(eval_tokens, window=48)
    ones = MaskSet.ones(TINY)
    for uid, delta in results:
        ab_t, ab_c = trained_model.stream_nll(eval_tokens,
                                              mask=ones.without([uid]),
                                              window=48)
        assert delta == ab_t / ab_c - base_t / base_c, uid


def test_oracle_heads_skip_the_ablated_layers_attention(trained_model, stream,
                                                       monkeypatch):
    # one group of 3 windows: the dense pass runs every layer's attention
    # core (softmax . V) once, and a head ablated in layer l reruns only
    # the L - 1 - l layers after it, so L + H * L (L - 1) / 2 cores run
    cores = []
    real = T.ARRAY.softmax_rows_
    monkeypatch.setattr(T.ARRAY, "softmax_rows_",
                        lambda a: cores.append(a.shape[0]) or real(a))
    oracle_ablation(trained_model, stream.val[:144], scope="heads", window=48)
    n_layers, n_heads = TINY.num_layers, TINY.num_heads
    assert len(cores) == n_layers + n_heads * n_layers * (n_layers - 1) // 2
    assert cores == [3] * len(cores)   # each pass runs the group as one batch


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


# every strategy at three sparsities, a protected first layer, and each
# single-kind scope
_SWEEP_SPECS = [PruneSpec(strategy, sparsity)
                for strategy in ("local", "global")
                for sparsity in (0.0, 0.25, 0.5)] + [
    PruneSpec("local", 0.5, protect_first_layer=True),
    PruneSpec("global", 0.5, scope="heads"),
    PruneSpec("global", 0.5, scope="neurons"),
]


@pytest.fixture(scope="module")
def shadow_predictor(trained_model):
    rng = np.random.default_rng(11)
    prompts = [np.asarray(rng.integers(0, TINY.vocab_size, size=16),
                          dtype=np.int64) for _ in range(20)]
    dataset = build_dataset(trained_model, prompts, "plainact",
                            topology="shadow")
    pred, _ = train_predictor(dataset, PredictorConfig(epochs=2, batch=8),
                              seed=0)
    return pred


def test_static_sweep_equals_per_spec_perplexity(trained_model, stream):
    # the sweep shares one dense pass per window and resumes each spec at
    # its first pruned layer; each value must equal a full masked forward
    eval_tokens = stream.val[:100]   # windows of 48, 48 and a partial 4
    rng = np.random.default_rng(5)
    scores = ScoreVector(rng.standard_normal(num_units(TINY)), "test")
    for workers in (1, 3):
        records = sparsity_sweep(trained_model, scores, _SWEEP_SPECS,
                                 eval_tokens, window=48, workers=workers)
        for spec, rec in zip(_SWEEP_SPECS, records):
            want = perplexity(trained_model, build_mask(TINY, scores, spec),
                              eval_tokens, window=48)
            assert rec.perplexity == want, (spec, workers)
            assert (rec.strategy, rec.sparsity) == (spec.strategy, spec.sparsity)


def test_contextual_sweep_equals_per_spec_callable(trained_model, stream,
                                                   shadow_predictor):
    eval_tokens = stream.val[:100]
    source = contextual_mask_source(shadow_predictor)
    wants = [perplexity(trained_model,
                        lambda w, _spec=spec: source(trained_model, w, _spec),
                        eval_tokens, window=48) for spec in _SWEEP_SPECS]
    for workers in (1, 3):
        records = sparsity_sweep(trained_model,
                                 contextual_mask_source(shadow_predictor),
                                 _SWEEP_SPECS, eval_tokens, window=48,
                                 workers=workers)
        assert [rec.perplexity for rec in records] == wants, workers


def test_contextual_sweep_predicts_once_per_window(trained_model, stream,
                                                   shadow_predictor,
                                                   monkeypatch):
    calls = {"extract_features": 0, "predict_scores": 0}
    for name in calls:
        real = getattr(predictor_mod, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(predictor_mod, name, counted)
    sparsity_sweep(trained_model, contextual_mask_source(shadow_predictor),
                   _SWEEP_SPECS[:4], stream.val[:100], window=48)
    assert calls == {"extract_features": 3, "predict_scores": 3}


def test_contextual_source_keys_scores_on_model(trained_model,
                                                shadow_predictor):
    window = np.arange(24, dtype=np.int64)
    spec = PruneSpec("global", 0.5)
    other = TransformerModel(TINY, seed=9)
    source = contextual_mask_source(shadow_predictor)
    source(trained_model, window, spec)
    fresh = contextual_mask_source(shadow_predictor)
    assert source(other, window, spec) == fresh(other, window, spec)
    assert fresh(other, window, spec) != fresh(trained_model, window, spec)


def test_sweep_checks_mask_shape_before_dense_shortcut(trained_model, stream):
    # an all-ones mask is answered from the dense pass; a mask built for
    # another config must still be rejected, not scored as dense
    def wrong_config_ones(m, window_tokens, spec):
        return MaskSet.ones(_CFG)

    with pytest.raises(MaskShapeMismatchError):
        sparsity_sweep(trained_model, wrong_config_ones,
                       [PruneSpec("local", 0.0)], stream.val[:64], window=32)

    # so is one window's mask with a head too many among whole ones
    bad = MaskSet(np.ones((TINY.num_layers, TINY.num_heads + 1)),
                  np.ones((TINY.num_layers, TINY.ffn_dim)))
    windows = trained_model.eval_windows(stream.val[:96], 16)

    def one_mis_shaped(m, window_tokens, spec):
        odd = np.array_equal(window_tokens, windows[2])
        return bad if odd else MaskSet.ones(m.cfg)

    with pytest.raises(MaskShapeMismatchError):
        sparsity_sweep(trained_model, one_mis_shaped,
                       [PruneSpec("global", 0.0)], stream.val[:96], window=16)


def test_shared_mask_and_equal_copies_give_the_same_bits(trained_model, stream):
    windows = trained_model.eval_windows(stream.val[:144], 48)
    dense = _DensePass(trained_model, np.stack(windows))
    for uid in (UnitId(0, UnitKind.HEAD, 1), UnitId(1, UnitKind.NEURON, 3)):
        mask = MaskSet.ones(TINY).without([uid])
        shared = dense.nll(trained_model, [mask] * len(windows))
        copies = dense.nll(trained_model,
                           [MaskSet(mask.heads, mask.neurons) for _ in windows])
        want = [trained_model.stream_nll(w, mask=mask, window=len(w))[0]
                for w in windows]
        assert np.array(shared).tobytes() == np.array(copies).tobytes()
        assert shared == want, uid


def _mixed_mask(cfg, tokens, spec):
    """A mask that depends on the window: nothing pruned, layer-0 heads
    only, last-layer neurons only, or a random spread from ``spec``."""
    kind = int(np.asarray(tokens).sum()) % 4
    ones = MaskSet.ones(cfg)
    if kind == 0:
        return ones
    if kind == 1:
        return ones.without([UnitId(0, UnitKind.HEAD, int(tokens[0]) % cfg.num_heads)])
    if kind == 2:
        return ones.without([UnitId(cfg.num_layers - 1, UnitKind.NEURON,
                                    int(tokens[1]) % cfg.ffn_dim)])
    rng = np.random.default_rng(int(tokens[0]))
    return build_mask(cfg, ScoreVector(rng.standard_normal(num_units(cfg)), "test"),
                      spec)


def test_contextual_sweep_with_mixed_resume_layers(trained_model, stream):
    # windows of 16 tokens: two full 512-token groups, a third group and a
    # trailing partial window, each window first pruned at its own layer
    # or not at all, so one batched resume mixes them
    eval_tokens = stream.train[:16 * 70 + 5]
    specs = [PruneSpec("local", 0.25), PruneSpec("global", 0.5, scope="heads")]
    kinds = [int(w.sum()) % 4 for w in trained_model.eval_windows(eval_tokens, 16)]
    assert len(kinds) == 71 and set(kinds) == {0, 1, 2, 3}

    def source(model, tokens, spec):
        return _mixed_mask(model.cfg, tokens, spec)

    wants = [perplexity(trained_model,
                        lambda w, _spec=spec: source(trained_model, w, _spec),
                        eval_tokens, window=16) for spec in specs]
    for workers in (1, 3):
        records = sparsity_sweep(trained_model, source, specs, eval_tokens,
                                 window=16, workers=workers)
        assert [rec.perplexity for rec in records] == wants, workers


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**16), window=st.integers(2, TINY.max_seq_len),
       n_tokens=st.integers(2, 700), n_slots=st.integers(1, 3))
def test_masked_totals_equal_per_window_stream_nll(trained_model, seed, window,
                                                   n_tokens, n_slots):
    # random keep masks per window and slot, some layers left whole;
    # each slot's total is the left-to-right sum of its windows' NLLs
    rng = np.random.default_rng(seed)
    tokens = rng.integers(0, TINY.vocab_size, size=n_tokens)
    windows = trained_model.eval_windows(tokens, window)
    shapes = ((TINY.num_layers, TINY.num_heads), (TINY.num_layers, TINY.ffn_dim))
    masks = [[MaskSet(*(rng.random(shape) >= rng.choice([0.0, 0.0, 0.3, 0.9],
                                                       size=(shape[0], 1))
                        for shape in shapes))
              for _ in range(n_slots)] for _ in windows]
    asked = iter(masks)
    totals, dense, count = _masked_totals(trained_model, tokens, window,
                                          lambda chunk: next(asked), workers=1)
    want_totals, want_dense = [0.0] * n_slots, 0.0
    for chunk, window_masks in zip(windows, masks):
        want_dense += trained_model.stream_nll(chunk, window=len(chunk))[0]
        for j, mask in enumerate(window_masks):
            want_totals[j] += trained_model.stream_nll(chunk, mask=mask,
                                                       window=len(chunk))[0]
    assert totals == want_totals
    assert dense == want_dense
    assert count == sum(len(chunk) - 1 for chunk in windows)
