"""Model forward, masking semantics, capture, and gradient checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shlm import tensor as T
from shlm.errors import (
    EmptyStreamError,
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
    all_units,
    num_units,
    unit_at,
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
    assert model.param_count() == TransformerModel.expected_param_count(TINY)


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
    res = model.forward(toks, capture=CAPTURE_GRADS)
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
    assert free.loss_tensor._parents == () and not free.loss_tensor.requires_grad


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
            x = T.constant(block_inputs[start])
            for i in range(start, cfg.num_layers):
                x = model.block(i, x, mask)
            resumed = model.readout(x).data
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
