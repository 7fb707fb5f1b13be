"""Model forward, masking semantics, capture, and gradient checks."""

import types

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
    MaskSet,
    ModelConfig,
    TransformerModel,
    UnitId,
    UnitKind,
    _flat_scores,
    all_units,
    num_units,
    unit_at,
    unit_blocks,
    unit_index,
)

from .conftest import TINY
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
    for uid in all_units(TINY):
        i = unit_index(TINY, uid)
        assert blocks[uid.kind][uid.layer, uid.index] == flat[i]
        blocks[uid.kind][uid.layer, uid.index] = -1.0 - i
        assert flat[i] == -1.0 - i
    assert np.array_equal(_flat_scores(*unit_blocks(TINY, before)), before)


def test_unit_indexing_roundtrip():
    for flat in range(num_units(TINY)):
        assert unit_index(TINY, unit_at(TINY, flat)) == flat
    units = all_units(TINY)
    assert len(units) == num_units(TINY)
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
    assert a.n_predicted == 9
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
    assert short.loss is None and short.n_predicted == 0


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
    # a full backward: a grad capture fills only w_up among the parameters
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
    for name, t in model.params.items():
        assert (t.grad is not None) == name.endswith(".w_up"), name
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
    # one head tap, one neuron tap and one w_up per layer
    assert len(calls) == 3 * TINY.num_layers


def test_loss_from_restricts_positions():
    model = TransformerModel(_SMALL, seed=0, dtype=np.float64)
    toks = _tokens(7, vocab=_SMALL.vocab_size, seed=8)
    full = model.forward(toks)
    tail = model.forward(toks, loss_from=4)
    assert tail.n_predicted == 3
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
        with T.no_grad():
            x = block_inputs[start]
            for i in range(start, cfg.num_layers):
                x = model.block(i, x, mask)
            resumed = model.readout(x)
        assert np.array_equal(resumed, full), start


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


def _mode_variants(cfg):
    rng = np.random.default_rng(7)
    mask = MaskSet.ones(cfg).without([
        UnitId(0, UnitKind.HEAD, 1), UnitId(cfg.num_layers - 1, UnitKind.HEAD, 0),
        UnitId(0, UnitKind.NEURON, 3), UnitId(1, UnitKind.NEURON, 0)])
    return {
        "unmasked": {},
        "mask": {"mask": mask},
        "scales": {"head_scales": rng.uniform(0.0, 2.0, (cfg.num_layers, cfg.num_heads)),
                   "neuron_scales": rng.uniform(0.0, 2.0, (cfg.num_layers, cfg.ffn_dim))},
    }


@pytest.mark.parametrize("cfg", [ModelConfig(), TINY], ids=["default", "tiny"])
@pytest.mark.parametrize("variant", ["unmasked", "mask", "scales"])
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


@pytest.mark.parametrize("variant", ["unmasked", "mask", "scales"])
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
