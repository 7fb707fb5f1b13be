"""Model forward, masking semantics, capture, and gradient checks."""

import contextlib
import dataclasses
import types
from collections.abc import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shlm import tensor as T
from shlm.errors import (
    EmptyStreamError,
    EmptyTapeError,
    MaskShapeMismatchError,
    NonFiniteError,
    SequenceTooLongError,
)
from shlm.model import (
    CAPTURE_ACTIVATIONS,
    CAPTURE_GRADS,
    CAPTURE_NONE,
    ForwardResult,
    MaskSet,
    ModelConfig,
    TransformerModel,
    UnitId,
    UnitKind,
    _flat_scores,
    _nll_from_logits,
    num_units,
    unit_at,
    unit_blocks,
)
from shlm.pruning import _DensePass

from .conftest import TINY, flat_index, scale_unit_offsets
from .oracles import relative_error

_SMALL = ModelConfig(num_layers=2, embed_dim=8, num_heads=2, head_dim=4,
                     ffn_dim=8, vocab_size=12, max_seq_len=8)


def _tokens(n, vocab=256, seed=0):
    return np.random.default_rng(seed).integers(0, vocab, size=n)


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(embed_dim=100, num_heads=8, head_dim=16)
    with pytest.raises(ValueError):
        ModelConfig(num_layers=0)
    for field in ("num_layers", "max_seq_len"):   # range() and shapes need ints
        with pytest.raises(ValueError):
            ModelConfig(**{field: 64.0})


def test_param_count_matches_closed_form():
    model = TransformerModel(TINY, seed=0)
    e, f = TINY.embed_dim, TINY.ffn_dim
    per_layer = 4 * e + 4 * e * e + 2 * e * f
    want = (TINY.vocab_size * e + TINY.max_seq_len * e
            + TINY.num_layers * per_layer + 2 * e)
    assert sum(t.size for t in model.params.values()) == want


def test_unit_blocks_are_views_in_canonical_order():
    flat = np.random.default_rng(2).standard_normal(num_units(TINY))
    before = flat.copy()
    blocks = dict(zip((UnitKind.HEAD, UnitKind.NEURON), unit_blocks(TINY, flat)))
    assert blocks[UnitKind.HEAD].shape == (TINY.num_layers, TINY.num_heads)
    assert blocks[UnitKind.NEURON].shape == (TINY.num_layers, TINY.ffn_dim)
    for i in range(num_units(TINY)):
        uid = unit_at(TINY, i)
        assert blocks[uid.kind][uid.layer, uid.index] == flat[i]
        blocks[uid.kind][uid.layer, uid.index] = -1.0 - i
        assert flat[i] == -1.0 - i
    assert np.array_equal(_flat_scores(*unit_blocks(TINY, before)), before)


def test_unit_indexing_roundtrip():
    units = [unit_at(TINY, flat) for flat in range(num_units(TINY))]
    assert [flat_index(TINY, uid) for uid in units] == list(range(len(units)))
    assert len(set(units)) == len(units)
    for flat in (-1, num_units(TINY)):
        with pytest.raises(ValueError):
            unit_at(TINY, flat)
    # heads come first, layer-major, then neurons layer-major
    assert units[0] == UnitId(0, UnitKind.HEAD, 0)
    assert units[TINY.num_heads] == UnitId(1, UnitKind.HEAD, 0)
    first_neuron = TINY.num_layers * TINY.num_heads
    assert units[first_neuron] == UnitId(0, UnitKind.NEURON, 0)


def test_forward_shapes_and_determinism():
    model = TransformerModel(TINY, seed=0)
    toks = _tokens(10)
    a = model.forward(toks)
    b = model.forward(toks)
    assert a.logits.shape == (10, TINY.vocab_size)
    # the loss is the mean over the 9 predicted positions
    assert abs(a.loss - _nll_from_logits(a.logits, toks[1:]) / 9) <= 1e-5
    assert np.array_equal(a.logits, b.logits)


def test_forward_is_causal():
    model = TransformerModel(TINY, seed=0)
    toks = _tokens(12)
    base = model.forward(toks).logits
    changed = toks.copy()
    changed[-1] = (changed[-1] + 1) % TINY.vocab_size
    other = model.forward(changed).logits
    assert np.array_equal(base[:-1], other[:-1])
    assert not np.array_equal(base[-1], other[-1])


def test_forward_length_limits():
    model = TransformerModel(_SMALL, seed=0)
    with pytest.raises(SequenceTooLongError):
        model.forward(_tokens(9, vocab=12))
    with pytest.raises(EmptyStreamError):
        model.forward(np.array([], dtype=np.int64))
    short = model.forward(np.array([3]))
    assert short.loss is None and short.loss_tensor is None


def test_identity_mask_is_bit_exact():
    model = TransformerModel(TINY, seed=1)
    toks = _tokens(16)
    dense = model.forward(toks)
    masked = model.forward(toks, mask=MaskSet.ones(TINY))
    assert np.array_equal(dense.logits, masked.logits)
    assert dense.loss == masked.loss


def test_mask_shape_rejected():
    model = TransformerModel(TINY, seed=0)
    bad = MaskSet(np.ones((2, 3), dtype=bool), np.ones((2, TINY.ffn_dim), dtype=bool))
    with pytest.raises(MaskShapeMismatchError):
        model.forward(_tokens(5), mask=bad)


def test_single_head_mask_equals_manual_subtraction():
    model = TransformerModel(TINY, seed=2)
    toks = _tokens(20, seed=3)
    dense = model.forward(toks, capture=CAPTURE_ACTIVATIONS)
    layer, head = 1, 2
    mask = MaskSet.ones(TINY).without([UnitId(layer, UnitKind.HEAD, head)])
    masked = model.forward(toks, mask=mask, capture=CAPTURE_ACTIVATIONS)
    d = TINY.head_dim
    w_o = model.params[f"h{layer}.wo"].data
    contrib = dense.head_acts[layer][head].astype(np.float64) @ \
        w_o[head * d:(head + 1) * d].astype(np.float64)
    want = dense.attn_outs[layer].astype(np.float64) - contrib
    assert np.max(np.abs(masked.attn_outs[layer] - want)) <= 1e-6


def test_all_heads_masked_leaves_residual_only():
    model = TransformerModel(TINY, seed=0)
    toks = _tokens(8)
    mask = MaskSet.ones(TINY)
    mask.heads[:] = False
    res = model.forward(toks, mask=mask, capture=CAPTURE_ACTIVATIONS)
    for layer_attn in res.attn_outs:
        assert np.array_equal(layer_attn, np.zeros_like(layer_attn))


def test_masked_neuron_zeroes_its_column_effect():
    model = TransformerModel(TINY, seed=0)
    toks = _tokens(9)
    uid = UnitId(0, UnitKind.NEURON, 5)
    mask = MaskSet.ones(TINY).without([uid])
    grads = model.forward(toks, mask=mask, capture=CAPTURE_GRADS)
    # gradient w.r.t. a masked unit's activation is exactly zero
    assert np.array_equal(grads.neuron_grads[0][:, 5],
                          np.zeros(len(toks), dtype=np.float32))


def test_masked_head_grad_is_zero():
    model = TransformerModel(TINY, seed=0)
    toks = _tokens(9)
    uid = UnitId(1, UnitKind.HEAD, 0)
    grads = model.forward(toks, mask=MaskSet.ones(TINY).without([uid]),
                          capture=CAPTURE_GRADS)
    assert np.array_equal(grads.head_grads[1][0], np.zeros_like(grads.head_grads[1][0]))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, num_units(TINY) - 1), max_size=20),
       st.lists(st.integers(0, num_units(TINY) - 1), max_size=20))
def test_mask_union_composes(flat_a, flat_b):
    units_a = [unit_at(TINY, i) for i in flat_a]
    units_b = [unit_at(TINY, i) for i in flat_b]
    stepwise = MaskSet.ones(TINY).without(units_a).without(units_b)
    union = MaskSet.ones(TINY).without(units_a + units_b)
    meet = MaskSet.ones(TINY).without(units_a).intersect(
        MaskSet.ones(TINY).without(units_b))
    assert stepwise == union == meet


def test_mask_union_forward_identical():
    model = TransformerModel(TINY, seed=0)
    toks = _tokens(12)
    a = [unit_at(TINY, i) for i in (0, 5, 9, 40)]
    b = [unit_at(TINY, i) for i in (5, 17, 60)]
    stepwise = MaskSet.ones(TINY).without(a).without(b)
    union = MaskSet.ones(TINY).without(a + b)
    out1 = model.forward(toks, mask=stepwise).logits
    out2 = model.forward(toks, mask=union).logits
    assert np.array_equal(out1, out2)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_unit_scaled_by_zero_through_offsets_equals_its_mask(dtype):
    # the offsets that scale a unit by (1 - eps), as the first-order
    # sensitivity checks use them, remove it at eps = 1 with the bits of
    # the mask that removes it
    cfg = dataclasses.replace(TINY, num_layers=3, ffn_dim=64)
    model = TransformerModel(cfg, seed=3, dtype=dtype)
    toks = _tokens(16, seed=4)
    cap = model.forward(toks, capture=CAPTURE_ACTIVATIONS)
    for flat in range(num_units(cfg)):
        masked = model.forward(toks, mask=MaskSet.ones(cfg).without([unit_at(cfg, flat)]))
        scaled = model.forward(toks, **scale_unit_offsets(cap, flat, 1.0))
        assert np.array_equal(scaled.logits, masked.logits), flat


def test_capture_exposes_expected_shapes(trained_model):
    toks = _tokens(14)
    res = trained_model.forward(toks, capture=CAPTURE_GRADS)
    assert len(res.head_acts) == TINY.num_layers
    assert res.head_acts[0].shape == (TINY.num_heads, 14, TINY.head_dim)
    assert res.neuron_acts[0].shape == (14, TINY.ffn_dim)
    assert res.head_grads[0].shape == res.head_acts[0].shape
    assert res.up_grads[0].shape == (TINY.embed_dim, TINY.ffn_dim)
    assert res.attn_outs[0].shape == (14, TINY.embed_dim)
    assert res.layer_outs[1].shape == (14, TINY.embed_dim)
    assert res.embed.shape == (14, TINY.embed_dim)


def test_model_grads_match_finite_differences():
    model = TransformerModel(_SMALL, seed=4, dtype=np.float64)
    toks = _tokens(6, vocab=_SMALL.vocab_size, seed=5)
    # a full backward: a grad capture fills no parameter's grad
    res = model.forward(toks)
    model.zero_grads()
    T.backward(res.loss_tensor)
    rng = np.random.default_rng(6)
    h = 1e-5
    for name in ("tok_emb", "h0.wq", "h0.w_up", "h1.wo", "h1.ln2_g", "lnf_b"):
        param = model.params[name]
        flat = param.data.reshape(-1)
        grads_bp, grads_fd = [], []
        for idx in rng.integers(0, flat.size, size=4):
            orig = flat[idx]
            flat[idx] = orig + h
            up = model.forward(toks).loss
            flat[idx] = orig - h
            down = model.forward(toks).loss
            flat[idx] = orig
            grads_fd.append((up - down) / (2 * h))
            grads_bp.append(param.grad.reshape(-1)[idx])
        assert relative_error(np.array(grads_bp), np.array(grads_fd)) <= 1e-4, name
    assert res.loss is not None


def _tape_nodes(loss):
    """Every tensor the tape reaches from ``loss``."""
    seen, stack = {}, [loss]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    return list(seen.values())


def test_backward_fills_grads_only_on_leaves_and_kept_tensors():
    model = TransformerModel(TINY, seed=3)
    res = model.forward(_tokens(12, seed=4), capture=CAPTURE_GRADS)
    nodes = _tape_nodes(res.loss_tensor)
    leaves = [t for t in nodes if not t._parents and t.requires_grad]
    inner = [t for t in nodes if t._parents]
    assert len(leaves) == len(model.params)
    # the capture asked for its head and neuron taps, one of each per layer
    assert sum(t.grad is not None for t in inner) == 2 * TINY.num_layers

    def leaf_grads(wrt):
        for t in nodes:
            t.grad = None
        T.backward(res.loss_tensor, wrt=wrt)
        return [t.grad.copy() for t in leaves]

    lean = leaf_grads(None)
    assert all(t.grad is None for t in inner)
    full = leaf_grads(leaves + inner)
    assert all(t.grad is not None for t in inner)
    for a, b in zip(lean, full):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_grad_capture_equals_full_backward(monkeypatch, dtype):
    model = TransformerModel(TINY, seed=5, dtype=dtype)
    toks = _tokens(10, seed=6)
    rng = np.random.default_rng(7)
    mask = MaskSet(rng.random((TINY.num_layers, TINY.num_heads)) < 0.7,
                   rng.random((TINY.num_layers, TINY.ffn_dim)) < 0.7)

    def offsets(shape):
        return [T.Tensor(0.01 * rng.standard_normal(shape), requires_grad=True,
                         dtype=dtype) for _ in range(TINY.num_layers)]

    head_off = offsets((TINY.num_heads, len(toks), TINY.head_dim))
    up_off = offsets((TINY.embed_dim, TINY.ffn_dim))
    seen, real = {}, T.backward

    def spy(loss, wrt=None):
        seen.update(loss=loss, wrt=list(wrt))
        real(loss, wrt=wrt)

    monkeypatch.setattr(T, "backward", spy)
    res = model.forward(toks, mask=mask, capture=CAPTURE_GRADS,
                        head_offsets=head_off, up_offsets=up_off)
    assert all(t.grad is None for t in model.parameters())
    assert all(t.grad is None for t in head_off + up_off)

    # the same tape, differentiated in full: every leaf and the taps
    nodes = _tape_nodes(seen["loss"])
    for t in nodes:
        t.grad = None
    n = TINY.num_layers
    taps = seen["wrt"][:2 * n]
    real(seen["loss"], wrt=taps + [t for t in nodes
                                   if not t._parents and t.requires_grad])
    want = {"head_grads": [t.grad for t in taps[:n]],
            "neuron_grads": [t.grad for t in taps[n:]],
            "up_grads": [model.params[f"h{i}.w_up"].grad for i in range(n)]}
    for field, grads in want.items():
        for got, ref in zip(getattr(res, field), grads):
            assert got.dtype == ref.dtype == dtype, field
            assert np.array_equal(got, ref), field


def test_grad_capture_accumulates_only_what_it_returns(monkeypatch):
    model = TransformerModel(TINY, seed=5)
    calls, real = [], T.Tensor._accumulate

    def counting(self, g):
        calls.append(self)
        real(self, g)

    monkeypatch.setattr(T.Tensor, "_accumulate", counting)
    model.forward(_tokens(10, seed=6), capture=CAPTURE_GRADS)
    # one head tap and one neuron tap per layer; up_grads come from the
    # FFN input and the neuron tap's gradient
    assert len(calls) == 2 * TINY.num_layers


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("batched", [False, True], ids=["prompt", "batch"])
def test_grad_capture_from_a_first_layer_keeps_the_bits_of_its_layers(
        monkeypatch, dtype, batched):
    # a capture from layer k has the full capture's gradients on layers
    # >= k and zeros below, and its backward runs fewer VJPs; k = 0 is the
    # default capture
    cfg = ModelConfig(num_layers=3, embed_dim=16, num_heads=2, head_dim=8,
                      ffn_dim=16, vocab_size=256, max_seq_len=16)
    model = TransformerModel(cfg, seed=5, dtype=dtype)
    toks = (np.stack([_tokens(10, seed=s) for s in range(3)]) if batched
            else _tokens(10, seed=6))
    vjps, from_op = [], T._from_op

    def counting(data, parents, op, vjp):
        def counted(g, need):
            vjps.append(op)
            return vjp(g, need)
        return from_op(data, parents, op, counted)

    monkeypatch.setattr(T, "_from_op", counting)

    def capture(loss_from, **kwargs):
        vjps.clear()
        res = model.forward(toks, capture=CAPTURE_GRADS, loss_from=loss_from, **kwargs)
        return (res if batched else [res]), len(vjps)

    for loss_from in (1, 4):
        full, full_vjps = capture(loss_from)
        counts = [full_vjps]
        for k in range(cfg.num_layers + 1):
            got, n_vjps = capture(loss_from, first_layer=k)
            if k:
                assert n_vjps < counts[-1], (loss_from, k)
            counts.append(n_vjps)
            for res, ref in zip(got, full, strict=True):
                for i in range(cfg.num_layers):
                    for name in ("head_grads", "neuron_grads", "up_grads"):
                        a, b = getattr(res, name)[i], getattr(ref, name)[i]
                        want = b if i >= k else np.zeros_like(b)
                        assert _same_bits(a, want), (loss_from, k, i, name)
        assert counts[0] == counts[1] and counts[-1] == 0
    for bad in (-1, cfg.num_layers + 1):
        with pytest.raises(ValueError, match="first_layer"):
            model.forward(toks, capture=CAPTURE_GRADS, first_layer=bad)


def test_loss_from_restricts_positions():
    model = TransformerModel(_SMALL, seed=0, dtype=np.float64)
    toks = _tokens(7, vocab=_SMALL.vocab_size, seed=8)
    full = model.forward(toks)
    tail = model.forward(toks, loss_from=4)
    logits = full.logits
    want = 0.0
    for pos in range(3, 6):
        row = logits[pos].astype(np.float64)
        lse = np.log(np.exp(row - row.max()).sum()) + row.max()
        want += lse - row[toks[pos + 1]]
    assert abs(tail.loss - want / 3.0) <= 1e-9


def test_stream_nll_counts_and_partial_window():
    model = TransformerModel(_SMALL, seed=0)
    toks = _tokens(19, vocab=_SMALL.vocab_size)
    total, count = model.stream_nll(toks, window=8)
    # windows: 8 + 8 + 3 -> predictions 7 + 7 + 2
    assert count == 16
    assert total > 0
    with pytest.raises(EmptyStreamError):
        model.stream_nll(np.array([1]))


def test_to_dtype_roundtrip():
    model = TransformerModel(TINY, seed=0)
    wide = model.to_dtype(np.float64)
    assert wide.params["tok_emb"].dtype == np.float64
    toks = _tokens(6)
    a = model.forward(toks).logits
    b = wide.forward(toks).logits
    assert np.max(np.abs(a - b)) <= 1e-4


def test_no_grad_forward_is_bit_exact_and_untaped():
    model = TransformerModel(TINY, seed=1)
    toks = _tokens(16)
    taped = model.forward(toks)
    with T.no_grad():
        free = model.forward(toks)
    assert np.array_equal(free.logits, taped.logits)
    assert free.loss == taped.loss
    assert taped.loss_tensor._parents
    assert free.loss_tensor is None


def test_forward_resumed_from_block_input_is_bit_exact():
    cfg = ModelConfig(num_layers=3, embed_dim=16, num_heads=2, head_dim=8,
                      ffn_dim=16, vocab_size=256, max_seq_len=32)
    model = TransformerModel(cfg, seed=3)
    toks = _tokens(20)
    dense = model.forward(toks, capture=CAPTURE_ACTIVATIONS)
    block_inputs = [dense.embed] + dense.layer_outs[:-1]
    for start in range(cfg.num_layers):
        # units at or after the start layer only: the layers below it
        # must be the dense ones the cached input came from
        mask = MaskSet.ones(cfg).without([
            UnitId(start, UnitKind.HEAD, 1), UnitId(start, UnitKind.NEURON, 5),
            UnitId(cfg.num_layers - 1, UnitKind.NEURON, 0)])
        full = model.forward(toks, mask=mask).logits
        keep = model.keep_factors(mask)
        with T.no_grad():
            x = block_inputs[start]
            for i in range(start, cfg.num_layers):
                x = model.block(i, x, keep[i])
            resumed = model.readout(x)
        assert np.array_equal(resumed, full), start

    # a masked pass also starts its first pruned layer at the dense pass's
    # kept head outputs, which no mask has touched yet
    kept = _DensePass(model, toks[None])
    for arr in kept.block_inputs + kept.head_outputs:
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0.0
    for start in range(cfg.num_layers):
        for pruned in ([UnitId(start, UnitKind.HEAD, 1)],
                       [UnitId(start, UnitKind.NEURON, 5)],
                       [UnitId(start, UnitKind.HEAD, 0),
                        UnitId(start, UnitKind.NEURON, 2)]):
            mask = MaskSet.ones(cfg).without(pruned)
            full = model.forward(toks, mask=mask).logits
            keep = model.keep_factors([mask], 1)
            with T.no_grad():
                x = model.block_tail(start, kept.block_inputs[start],
                                     kept.head_outputs[start], keep[start])
                for i in range(start + 1, cfg.num_layers):
                    x = model.block(i, x, keep[i])
                resumed = model.readout(x)[0]
            assert np.array_equal(resumed, full), (start, pruned)
            assert kept.nll(model, [mask]) == [
                model.stream_nll(toks, mask=mask, window=len(toks))[0]]


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_nonfinite_names_layer_with_and_without_tape():
    model = TransformerModel(TINY, seed=0)
    w_up = model.params["h1.w_up"].data
    w_up /= np.abs(w_up).max()
    w_up *= np.float32(3e38)   # h2 @ w_up overflows float32 in layer 1
    toks = _tokens(16)
    with pytest.raises(NonFiniteError, match="'matmul' in layer 1"):
        model.forward(toks)
    with T.no_grad(), pytest.raises(NonFiniteError, match="'matmul' in layer 1"):
        model.forward(toks)


def _mode_variants(cfg, dtype=np.float32):
    rng = np.random.default_rng(7)
    mask = MaskSet.ones(cfg).without([
        UnitId(0, UnitKind.HEAD, 1), UnitId(cfg.num_layers - 1, UnitKind.HEAD, 0),
        UnitId(0, UnitKind.NEURON, 3), UnitId(1, UnitKind.NEURON, 0)])
    # an offset that is no 0/1 factor; its (E, F) shape does not depend on T
    up_offsets = [T.constant(0.02 * rng.standard_normal((cfg.embed_dim, cfg.ffn_dim)),
                             dtype=dtype) for _ in range(cfg.num_layers)]
    return {
        "unmasked": {},
        "mask": {"mask": mask},
        "up_offsets": {"up_offsets": up_offsets},
    }


@pytest.mark.parametrize("cfg", [ModelConfig(), TINY], ids=["default", "tiny"])
@pytest.mark.parametrize("variant", ["unmasked", "mask", "up_offsets"])
def test_array_mode_logits_equal_taped(cfg, variant):
    model = TransformerModel(cfg, seed=4)
    toks = _tokens(cfg.max_seq_len, seed=5)
    kwargs = _mode_variants(cfg)[variant]
    taped = model.forward(toks, **kwargs)
    with T.no_grad():
        free = model.forward(toks, **kwargs)
    assert isinstance(taped.loss_tensor, T.Tensor)
    assert np.array_equal(free.logits, taped.logits)
    assert free.loss == taped.loss


@pytest.mark.parametrize("variant", ["unmasked", "mask", "up_offsets"])
def test_array_mode_captures_equal_taped(variant):
    # the taped forward writes in place into nothing, so an array-mode
    # in-place write into a tap would show here
    model = TransformerModel(TINY, seed=6)
    toks = _tokens(TINY.max_seq_len, seed=8)
    kwargs = _mode_variants(TINY)[variant]
    taped = model.forward(toks, capture=CAPTURE_ACTIVATIONS, **kwargs)
    with T.no_grad():
        free = model.forward(toks, capture=CAPTURE_ACTIVATIONS, **kwargs)
    assert np.array_equal(free.embed, taped.embed)
    for name in ("head_acts", "neuron_acts", "attn_outs", "layer_outs"):
        for layer, (a, b) in enumerate(zip(getattr(free, name), getattr(taped, name))):
            assert a.dtype == b.dtype and np.array_equal(a, b), (name, layer)


def test_array_mode_checks_scores_before_the_softmax(monkeypatch):
    # -inf scores at future positions vanish in exp(); only the check
    # on the scores can see them
    import shlm.model as model_mod

    def causal(t_len, dtype):
        arr = np.triu(np.full((t_len, t_len), -np.inf, dtype=dtype), k=1)
        return types.SimpleNamespace(data=arr)

    monkeypatch.setattr(model_mod, "_causal", causal)
    model = TransformerModel(TINY, seed=0)
    with T.no_grad(), pytest.raises(NonFiniteError,
                                    match="'attention scores' in layer 0"):
        model.forward(_tokens(16))


@pytest.mark.filterwarnings("ignore:overflow")
def test_array_mode_checks_the_product_before_the_relu():
    # h2 is 1 everywhere, so h2 @ w_up is -inf in column 0 and 0 elsewhere,
    # and the ReLU would zero all of it
    model = TransformerModel(TINY, seed=0)
    p = model.params
    p["h1.ln2_g"].data[:] = 0.0
    p["h1.ln2_b"].data[:] = 1.0
    p["h1.w_up"].data[:] = 0.0
    p["h1.w_up"].data[:, 0] = np.float32(-3e38)
    with T.no_grad(), pytest.raises(NonFiniteError, match="'matmul' in layer 1"):
        model.forward(_tokens(16))


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_array_mode_checks_the_block_output():
    model = TransformerModel(TINY, seed=0)
    model.params["h1.w_up"].data[:] *= 100.0
    model.params["h1.w_down"].data[:] = np.float32(3e38)
    # the ReLU output is >= 0 and large, so hidden @ w_down is +inf in layer 1
    with pytest.raises(NonFiniteError, match="'matmul' in layer 1"):
        model.forward(_tokens(16))
    with T.no_grad(), pytest.raises(NonFiniteError,
                                    match="'block output' in layer 1"):
        model.forward(_tokens(16))


def test_gradient_capture_needs_the_tape():
    model = TransformerModel(TINY, seed=0)
    with T.no_grad(), pytest.raises(EmptyTapeError):
        model.forward(_tokens(8), capture=CAPTURE_GRADS)


def test_capture_keeps_read_only_views_of_the_up_weights():
    model = TransformerModel(TINY, seed=0)
    res = model.forward(_tokens(8), capture=CAPTURE_GRADS)
    for i, w_up in enumerate(res.up_weights):
        param = model.params[f"h{i}.w_up"].data
        assert np.shares_memory(w_up, param) and w_up.shape == param.shape
        assert not w_up.flags.writeable
        with pytest.raises(ValueError):
            w_up[0, 0] = 1.0


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_up_grads_are_formed_on_read_with_the_bits_of_a_full_backward(dtype):
    # each layer of a batched capture's up_grads equals the 1-D capture's
    # and the w_up.grad of a full backward of that sequence alone, bit for
    # bit; every read is a fresh array, so a write never reaches the next
    model = TransformerModel(TINY, seed=5, dtype=dtype)
    toks = np.stack([_tokens(10, seed=s) for s in range(3)])
    batch = model.forward(toks, capture=CAPTURE_GRADS)
    for row, res in zip(toks, batch):
        alone = model.forward(row, capture=CAPTURE_GRADS)
        model.zero_grads()
        T.backward(model.forward(row).loss_tensor)
        assert len(res.up_grads) == len(alone.up_grads) == TINY.num_layers
        for i in range(TINY.num_layers):
            want = model.params[f"h{i}.w_up"].grad
            got = res.up_grads[i]
            for ref in (want, alone.up_grads[i], res.up_grads[i]):
                assert _same_bits(got, ref), i
            got[...] = 7.0
            assert _same_bits(res.up_grads[i], want), i
            assert not np.shares_memory(res.up_grads[i], res.up_grads[i])


# every ForwardResult field a batched forward fills per sequence
_RESULT_FIELDS = [f.name for f in dataclasses.fields(ForwardResult)
                  if f.name not in ("cfg", "loss_tensor")]


def _same_bits(a, b) -> bool:
    # any sequence (a list, or the up_grads formed on read) element by element
    if isinstance(a, Sequence) and not isinstance(a, str):
        return (isinstance(b, Sequence) and len(a) == len(b)
                and all(map(_same_bits, a, b)))
    if isinstance(a, np.ndarray):
        return (a.dtype == b.dtype and a.shape == b.shape
                and a.tobytes() == b.tobytes())
    return type(a) is type(b) and (a == b or a is b)


def _per_sequence_masks(cfg, n):
    """n masks cycling through all-ones, one pruning only layer-0 heads
    and one pruning only last-layer neurons."""
    ones = MaskSet.ones(cfg)
    cycle = [ones,
             ones.without([UnitId(0, UnitKind.HEAD, h) for h in (0, cfg.num_heads - 1)]),
             ones.without([UnitId(cfg.num_layers - 1, UnitKind.NEURON, j)
                           for j in (1, 2)])]
    return [cycle[b % len(cycle)] for b in range(n)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("capture", [CAPTURE_NONE, CAPTURE_ACTIVATIONS, CAPTURE_GRADS])
def test_batched_forward_equals_per_sequence(dtype, capture):
    # every field of every sequence's result, byte for byte, at the
    # default config and the tiny one, with and without a tape; the
    # "masks" variant gives each sequence its own mask, as a list or a tuple
    modes = [False] if capture == CAPTURE_GRADS else [False, True]
    for cfg in (ModelConfig(), TINY):
        model = TransformerModel(cfg, seed=2, dtype=dtype)
        masks = _per_sequence_masks(cfg, 5)
        variants = {**_mode_variants(cfg, dtype), "masks": {"mask": masks},
                    "mask tuple": {"mask": tuple(masks)}}
        for variant, kwargs in variants.items():
            # the kwargs of the first row alone and of each row alone
            per_row = variant in ("masks", "mask tuple")
            rows = [{"mask": m} for m in masks] if per_row else [kwargs] * len(masks)
            first = {"mask": masks[:1]} if per_row else kwargs
            for t_len, loss_from in ((16, 1), (9, 4)):
                toks = np.stack([_tokens(t_len, seed=s) for s in range(5)])
                for array_mode in modes:
                    with T.no_grad() if array_mode else contextlib.nullcontext():
                        batch = model.forward(toks, capture=capture,
                                              loss_from=loss_from, **kwargs)
                        one = model.forward(toks[:1], capture=capture,
                                            loss_from=loss_from, **first)
                        alone = [model.forward(row, capture=capture,
                                               loss_from=loss_from, **row_kwargs)
                                 for row, row_kwargs in zip(toks, rows)]
                    assert len(batch) == len(toks) and len(one) == 1
                    for b, (res, ref) in enumerate(zip(batch + one, alone + alone[:1])):
                        # a taped batch that captures no gradients shares
                        # the (B,) tensor of its sequences' losses
                        if array_mode or capture == CAPTURE_GRADS:
                            assert res.loss_tensor is None
                        else:
                            owner, row = (batch, b) if b < len(batch) else (one, 0)
                            assert res.loss_tensor is owner[0].loss_tensor
                            assert (res.loss_tensor.data[row:row + 1].tobytes()
                                    == ref.loss_tensor.data.tobytes())
                        for name in _RESULT_FIELDS:
                            assert _same_bits(getattr(res, name), getattr(ref, name)), (
                                cfg.embed_dim, variant, t_len, array_mode, name)


@pytest.mark.parametrize("array_mode", [False, True])
def test_batched_forward_rejects_bad_mask_lists(array_mode):
    model = TransformerModel(TINY, seed=0)
    toks = np.stack([_tokens(8, seed=s) for s in range(3)])
    masks = _per_sequence_masks(TINY, 3)
    wrong = MaskSet(np.ones((TINY.num_layers, TINY.num_heads + 1)),
                    np.ones((TINY.num_layers, TINY.ffn_dim)))
    with T.no_grad() if array_mode else contextlib.nullcontext():
        ones = MaskSet.ones(TINY)
        for bad in (masks[:2], masks + masks[:1], [], (masks[1],) * 2, (ones,) * 2):
            with pytest.raises(MaskShapeMismatchError):
                model.forward(toks, mask=bad)
        with pytest.raises(MaskShapeMismatchError):
            model.forward(toks[0], mask=masks[:1])    # a 1-D run takes one MaskSet
        with pytest.raises(MaskShapeMismatchError):
            model.forward(toks, mask=[masks[0], wrong, masks[2]])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_keep_factors_are_shaped_per_layer_and_none_when_whole(dtype):
    model = TransformerModel(TINY, seed=0, dtype=dtype)
    n_layers, heads, ffn = TINY.num_layers, TINY.num_heads, TINY.ffn_dim
    assert model.keep_factors(None) == [(None, None)] * n_layers
    assert model.keep_factors(MaskSet.ones(TINY)) == [(None, None)] * n_layers
    mask = MaskSet.ones(TINY).without([UnitId(0, UnitKind.HEAD, 1),
                                       UnitId(1, UnitKind.NEURON, 3)])
    (head0, neuron0), (head1, neuron1) = model.keep_factors(mask)
    assert neuron0 is None and head1 is None
    assert head0.shape == (heads, 1, 1) and neuron1.shape == (ffn,)
    assert head0.dtype == neuron1.dtype == dtype
    assert np.array_equal(head0.reshape(-1), mask.heads[0])
    assert np.array_equal(neuron1, mask.neurons[1])

    # a list gives each sequence of the batch its own row; a kind is
    # None only when every mask keeps that layer's units whole
    masks = [mask, MaskSet.ones(TINY),
             MaskSet.ones(TINY).without([UnitId(1, UnitKind.HEAD, 0)])]
    (head0, neuron0), (head1, neuron1) = model.keep_factors(masks, 3)
    assert neuron0 is None
    assert head0.shape == head1.shape == (3, heads, 1, 1)
    assert neuron1.shape == (3, 1, ffn) and head1.dtype == dtype
    for layer, factor in ((0, head0), (1, head1)):
        assert np.array_equal(factor.reshape(3, heads),
                              np.stack([m.heads[layer] for m in masks]))
    assert np.array_equal(neuron1.reshape(3, ffn),
                          np.stack([m.neurons[1] for m in masks]))
    assert model.keep_factors([MaskSet.ones(TINY)] * 3, 3) == [(None, None)] * n_layers

    wrong = MaskSet(np.ones((n_layers, heads + 1)), np.ones((n_layers, ffn)))
    for bad, batch in ((masks, 2), (masks, None), ([mask], None), (wrong, None),
                       ([mask, wrong, mask], 3)):
        with pytest.raises(MaskShapeMismatchError):
            model.keep_factors(bad, batch)


def test_batched_forward_rejects_other_ranks():
    model = TransformerModel(TINY, seed=0)
    with pytest.raises(EmptyStreamError):
        model.forward(np.zeros((2, 2, 4), dtype=np.int64))
    with pytest.raises(EmptyStreamError):
        model.forward(np.zeros((3, 0), dtype=np.int64))
