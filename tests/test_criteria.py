"""Criterion scores: hand oracles, invariances, and the collection driver."""

import csv

import numpy as np
import pytest

from shlm import tensor as T
from shlm.criteria import (
    AGGREGATE_ONLY,
    NEG_INF,
    ScoreVector,
    collect_criteria,
    score_contextual,
    score_epenas,
    score_grasp,
    score_jacov,
    score_nwot,
    write_scores_csv,
)
from shlm.errors import (
    BatchTooSmallError,
    CaptureMismatchError,
    ContextualUnsupportedError,
    MissingCaptureError,
    SingleClassError,
)
from shlm.model import (
    CAPTURE_GRADS,
    ForwardResult,
    ModelConfig,
    UnitId,
    UnitKind,
    MaskSet,
    _flat_scores,
    num_head_units,
    num_units,
    unit_at,
    unit_index,
)
from shlm.text import make_fewshot_prompts

from .conftest import TINY

_CFG = ModelConfig(num_layers=2, embed_dim=8, num_heads=2, head_dim=4,
                   ffn_dim=6, vocab_size=16, max_seq_len=16)


def _fake_capture(cfg, t_len, rng, grads=True):
    res = ForwardResult(cfg=cfg, logits=np.zeros((t_len, cfg.vocab_size)),
                        loss=1.0, n_predicted=t_len - 1)
    shape_h = (cfg.num_heads, t_len, cfg.head_dim)
    res.head_acts = [rng.standard_normal(shape_h) for _ in range(cfg.num_layers)]
    res.neuron_acts = [np.abs(rng.standard_normal((t_len, cfg.ffn_dim)))
                       for _ in range(cfg.num_layers)]
    res.up_weights = [rng.standard_normal((cfg.embed_dim, cfg.ffn_dim))
                      for _ in range(cfg.num_layers)]
    if grads:
        res.head_grads = [rng.standard_normal(shape_h) for _ in range(cfg.num_layers)]
        res.up_grads = [rng.standard_normal((cfg.embed_dim, cfg.ffn_dim))
                        for _ in range(cfg.num_layers)]
    return res


def _scale_grads(cap, c):
    out = ForwardResult(cfg=cap.cfg, logits=cap.logits, loss=cap.loss,
                        n_predicted=cap.n_predicted)
    out.head_acts = cap.head_acts
    out.neuron_acts = cap.neuron_acts
    out.up_weights = cap.up_weights
    out.head_grads = [g * c for g in cap.head_grads]
    out.up_grads = [g * c for g in cap.up_grads]
    return out


def test_l2norm_matches_direct_computation():
    rng = np.random.default_rng(0)
    cap = _fake_capture(_CFG, 5, rng)
    got = score_contextual(cap, "l2norm")
    want_head = np.sqrt((cap.head_acts[1][0] ** 2).sum())
    assert abs(got[unit_index(_CFG, UnitId(1, UnitKind.HEAD, 0))] - want_head) <= 1e-12
    want_neuron = np.sqrt((cap.neuron_acts[0][:, 3] ** 2).sum())
    assert abs(got[unit_index(_CFG, UnitId(0, UnitKind.NEURON, 3))] - want_neuron) <= 1e-12
    grad = score_contextual(cap, "gradnorm")
    want_head = np.sqrt((cap.head_grads[0][1] ** 2).sum())
    assert abs(grad[unit_index(_CFG, UnitId(0, UnitKind.HEAD, 1))] - want_head) <= 1e-12
    want_neuron = np.sqrt((cap.up_grads[1][:, 4] ** 2).sum())
    assert abs(grad[unit_index(_CFG, UnitId(1, UnitKind.NEURON, 4))] - want_neuron) <= 1e-12


def test_plainact_and_fisher_hand_values():
    rng = np.random.default_rng(1)
    cap = _fake_capture(_CFG, 4, rng)
    plain = score_contextual(cap, "plainact")
    fisher = score_contextual(cap, "fisher")
    h = unit_index(_CFG, UnitId(0, UnitKind.HEAD, 1))
    prod = cap.head_acts[0][1] * cap.head_grads[0][1]
    assert abs(plain[h] - np.abs(prod).sum()) <= 1e-12
    assert abs(fisher[h] - np.square(prod).mean()) <= 1e-12
    n = unit_index(_CFG, UnitId(1, UnitKind.NEURON, 2))
    prod_n = cap.up_weights[1][:, 2] * cap.up_grads[1][:, 2]
    assert abs(plain[n] - np.abs(prod_n).sum()) <= 1e-12
    assert abs(fisher[n] - np.square(prod_n).mean()) <= 1e-12


def test_snip_equals_plainact():
    rng = np.random.default_rng(2)
    cap = _fake_capture(_CFG, 6, rng)
    assert np.allclose(score_contextual(cap, "snip"),
                       score_contextual(cap, "plainact"), rtol=1e-12, atol=0)
    # snip is plainact because |x| * |g| equals |x * g| bit for bit
    a, g = cap.head_acts[1], cap.head_grads[1]
    start = unit_index(_CFG, UnitId(1, UnitKind.HEAD, 0))
    np.testing.assert_array_equal(
        score_contextual(cap, "snip")[start:start + _CFG.num_heads],
        (np.abs(a) * np.abs(g)).sum(axis=(1, 2)))


def test_gradnorm_scales_linearly_and_preserves_ranking():
    rng = np.random.default_rng(3)
    cap = _fake_capture(_CFG, 5, rng)
    base_g = score_contextual(cap, "gradnorm")
    base_p = score_contextual(cap, "plainact")
    base_f = score_contextual(cap, "fisher")
    scaled = _scale_grads(cap, 2.5)
    assert np.allclose(score_contextual(scaled, "gradnorm"), 2.5 * base_g, rtol=1e-12)
    assert np.allclose(score_contextual(scaled, "plainact"), 2.5 * base_p, rtol=1e-12)
    assert np.allclose(score_contextual(scaled, "fisher"), 2.5 ** 2 * base_f, rtol=1e-12)
    for before, after in ((base_g, score_contextual(scaled, "gradnorm")),
                          (base_p, score_contextual(scaled, "plainact"))):
        assert np.array_equal(np.argsort(before), np.argsort(after))


def test_nwot_sentinel_and_value():
    rng = np.random.default_rng(4)
    cap = _fake_capture(_CFG, 5, rng, grads=False)
    # constant-one activations are exactly "1 away from nothing": sentinel
    cap.neuron_acts[0][:, 0] = 1.0
    got = score_nwot(cap)
    dead = unit_index(_CFG, UnitId(0, UnitKind.NEURON, 0))
    assert got[dead] == NEG_INF
    live = unit_index(_CFG, UnitId(0, UnitKind.NEURON, 1))
    want = np.log(np.square(1.0 - cap.neuron_acts[0][:, 1]).mean())
    assert abs(got[live] - want) <= 1e-12
    head = unit_index(_CFG, UnitId(1, UnitKind.HEAD, 0))
    per_pos = cap.head_acts[1][0].mean(axis=1)
    assert abs(got[head] - np.log(np.square(1.0 - per_pos).mean())) <= 1e-12


def test_missing_capture_fields_rejected():
    rng = np.random.default_rng(5)
    cap = _fake_capture(_CFG, 4, rng, grads=False)
    with pytest.raises(MissingCaptureError):
        score_contextual(cap, "gradnorm")
    bare = ForwardResult(cfg=_CFG, logits=np.zeros((4, 16)), loss=1.0, n_predicted=3)
    with pytest.raises(MissingCaptureError):
        score_contextual(bare, "l2norm")


def _vec_capture(cfg, head_vecs, up_cols):
    """Capture whose unit gradient vectors are fully controlled."""
    t_len = 3
    res = ForwardResult(cfg=cfg, logits=np.zeros((t_len, cfg.vocab_size)),
                        loss=1.0, n_predicted=t_len - 1)
    res.head_acts = [np.zeros((cfg.num_heads, t_len, cfg.head_dim))
                     for _ in range(cfg.num_layers)]
    res.neuron_acts = [np.zeros((t_len, cfg.ffn_dim)) for _ in range(cfg.num_layers)]
    res.up_weights = [np.zeros((cfg.embed_dim, cfg.ffn_dim))
                      for _ in range(cfg.num_layers)]
    res.head_grads = [
        np.broadcast_to(head_vecs[l][:, None, :],
                        (cfg.num_heads, t_len, cfg.head_dim)).copy()
        for l in range(cfg.num_layers)
    ]
    res.up_grads = [up_cols[l].copy() for l in range(cfg.num_layers)]
    return res


def _jacov_reference(rows, k=1e-5):
    c = np.corrcoef(rows)
    lam = np.linalg.eigvalsh(c)
    return float(-(np.log(lam + k) + 1.0 / (lam + k)).sum())


def test_jacov_hand_built_batch():
    cfg = _CFG
    rng = np.random.default_rng(6)
    captures = []
    # head (0, 0): identical gradients across 3 examples -> redundant
    # head (0, 1): random, generically diverse gradients
    fixed = rng.standard_normal(cfg.head_dim)
    randoms = []
    for _ in range(3):
        head_vecs = [rng.standard_normal((cfg.num_heads, cfg.head_dim))
                     for _ in range(cfg.num_layers)]
        head_vecs[0][0] = fixed
        randoms.append(head_vecs[0][1].copy())
        up_cols = [rng.standard_normal((cfg.embed_dim, cfg.ffn_dim))
                   for _ in range(cfg.num_layers)]
        captures.append(_vec_capture(cfg, head_vecs, up_cols))
    got = score_jacov(captures)
    idx_same = unit_index(cfg, UnitId(0, UnitKind.HEAD, 0))
    idx_rand = unit_index(cfg, UnitId(0, UnitKind.HEAD, 1))
    want_same = _jacov_reference(np.stack([fixed] * 3))
    want_rand = _jacov_reference(np.stack(randoms))
    assert got[idx_same] == pytest.approx(want_same, rel=1e-6)
    assert got[idx_rand] == pytest.approx(want_rand, rel=1e-6)
    # identical gradients are maximally redundant: far lower score
    assert got[idx_same] < got[idx_rand] - 1e4


def test_jacov_needs_two_examples():
    rng = np.random.default_rng(7)
    with pytest.raises(BatchTooSmallError):
        score_jacov([_fake_capture(_CFG, 4, rng)])


def test_epenas_separable_classes():
    cfg = _CFG
    # class a: gradient [1,-1,1,-1]; class b: orthogonal [1,1,-1,-1]
    vec_a = np.array([1.0, -1.0, 1.0, -1.0])
    vec_b = np.array([1.0, 1.0, -1.0, -1.0])
    captures = []
    for vec in (vec_a, vec_a, vec_b, vec_b):
        head_vecs = [np.tile(vec, (cfg.num_heads, 1)) for _ in range(cfg.num_layers)]
        head_vecs = [hv.copy() for hv in head_vecs]
        for hv in head_vecs:
            hv[0] = vec
        up_cols = [np.ones((cfg.embed_dim, cfg.ffn_dim)) for _ in range(cfg.num_layers)]
        captures.append(_vec_capture(cfg, head_vecs, up_cols))
    got = score_epenas(captures, labels=[0, 0, 1, 1])
    idx = unit_index(cfg, UnitId(0, UnitKind.HEAD, 0))
    assert got[idx] == pytest.approx(1.0, abs=1e-9)


def _per_unit_grads(captures, flat):
    """One unit's gradient rows, built unit by unit as the reference."""
    uid = unit_at(captures[0].cfg, flat)
    rows = []
    for cap in captures:
        if uid.kind == UnitKind.HEAD:
            rows.append(cap.head_grads[uid.layer][uid.index].mean(axis=0))
        else:
            rows.append(cap.up_grads[uid.layer][:, uid.index])
    return np.stack(rows).astype(np.float64)


def _per_unit_corrcoef(m):
    x = m - m.mean(axis=1, keepdims=True)
    norms = np.linalg.norm(x, axis=1)
    ok = norms > 0
    xn = x / np.where(ok, norms, 1.0)[:, None]
    c = xn @ xn.T
    c[~ok, :] = 0.0
    c[:, ~ok] = 0.0
    np.fill_diagonal(c, 1.0)
    return np.clip(c, -1.0, 1.0)


def test_jacov_epenas_blocks_equal_per_unit_reference(trained_model):
    rng = np.random.default_rng(12)
    captures = [trained_model.forward(rng.integers(0, 256, size=12),
                                      capture=CAPTURE_GRADS) for _ in range(5)]
    for cap in captures:   # one zero-variance head and neuron
        cap.head_grads[1][2][:] = 0.0
        cap.up_grads[0][:, 5] = 0.0
    labels = np.array([0, 1, 0, 2, 1])   # same- and cross-class pairs
    iu, ju = np.triu_indices(len(captures), k=1)
    same = labels[iu] == labels[ju]
    k = 1e-5
    want_jacov = np.zeros(num_units(TINY))
    want_epenas = np.zeros(num_units(TINY))
    for flat in range(num_units(TINY)):
        c = _per_unit_corrcoef(_per_unit_grads(captures, flat))
        lam = np.linalg.eigvalsh(c)
        want_jacov[flat] = float(-(np.log(lam + k) + 1.0 / (lam + k)).sum())
        pairs = c[iu, ju]
        want_epenas[flat] = float(pairs[same].mean()) - float(pairs[~same].mean())
    assert np.array_equal(score_jacov(captures), want_jacov)
    assert np.array_equal(score_epenas(captures, labels), want_epenas)


def test_epenas_errors():
    rng = np.random.default_rng(8)
    caps = [_fake_capture(_CFG, 4, rng) for _ in range(3)]
    with pytest.raises(SingleClassError):
        score_epenas(caps, labels=[1, 1, 1])
    with pytest.raises(BatchTooSmallError):
        score_epenas(caps[:1], labels=[1])


def test_collect_contextual_and_aggregate(trained_model):
    prompts = make_fewshot_prompts("copy", shots=2, n=4, seed=11)
    per_example = collect_criteria(trained_model, prompts, "plainact")
    assert len(per_example) == 4
    assert all(isinstance(v, ScoreVector) for v in per_example)
    assert per_example[0].example_id == 0
    assert per_example[0].values.shape == (num_units(TINY),)
    assert per_example[0].values.dtype == np.float32
    agg = collect_criteria(trained_model, prompts, "plainact", aggregate=True)
    want = np.mean(np.stack([v.values for v in per_example]), axis=0)
    assert np.allclose(agg.values, want, rtol=1e-6)
    assert agg.example_id is None


def test_collect_rejects_contextual_jacov(trained_model):
    prompts = make_fewshot_prompts("copy", shots=1, n=3, seed=0)
    with pytest.raises(ContextualUnsupportedError):
        collect_criteria(trained_model, prompts, "jacov")


def test_collect_aggregate_jacov_epenas(trained_model):
    prompts = make_fewshot_prompts("add", shots=1, n=5, seed=3)
    for kind in AGGREGATE_ONLY:
        vec = collect_criteria(trained_model, prompts, kind, aggregate=True)
        assert vec.values.shape == (num_units(TINY),)
        assert np.all(np.isfinite(vec.values))


def test_collect_workers_deterministic(trained_model):
    prompts = make_fewshot_prompts("reverse", shots=1, n=6, seed=5)
    one = collect_criteria(trained_model, prompts, "gradnorm", workers=1)
    two = collect_criteria(trained_model, prompts, "gradnorm", workers=3)
    for a, b in zip(one, two):
        assert np.array_equal(a.values, b.values)


def test_masked_unit_scores_zero(trained_model):
    toks = np.arange(12) % 256
    uid = UnitId(1, UnitKind.HEAD, 2)
    cap = trained_model.forward(toks, mask=MaskSet.ones(TINY).without([uid]),
                                capture=CAPTURE_GRADS)
    plain = score_contextual(cap, "plainact")
    # activation is captured pre-mask but its gradient is exactly zero
    assert plain[unit_index(TINY, uid)] == 0.0


def test_plainact_first_order_prediction(trained_model):
    """Scaling one unit by (1 - eps) moves the loss by eps * sum(A*g)."""
    eps = 1e-3
    model = trained_model.to_dtype(np.float64)
    toks = np.frombuffer(b"Q:abc A:abc\nQ:de A:", dtype=np.uint8).astype(np.int64)
    cap = model.forward(toks, capture=CAPTURE_GRADS)
    dense_loss = cap.loss
    rng = np.random.default_rng(9)
    flats = rng.choice(num_units(TINY), size=10, replace=False)
    for flat in flats:
        head_scales = np.ones((TINY.num_layers, TINY.num_heads))
        neuron_scales = np.ones((TINY.num_layers, TINY.ffn_dim))
        if flat < num_head_units(TINY):
            l, k = divmod(int(flat), TINY.num_heads)
            head_scales[l, k] = 1.0 - eps
            signed = float((cap.head_acts[l][k] * cap.head_grads[l][k]).sum())
        else:
            rest = int(flat) - num_head_units(TINY)
            l, k = divmod(rest, TINY.ffn_dim)
            neuron_scales[l, k] = 1.0 - eps
            signed = float((cap.neuron_acts[l][:, k] *
                            cap.neuron_grads[l][:, k]).sum())
        scaled = model.forward(toks, head_scales=head_scales,
                               neuron_scales=neuron_scales)
        drop = dense_loss - scaled.loss
        assert abs(drop - eps * signed) <= 0.05 * eps * abs(signed) + 1e-9


def test_grasp_runs_and_is_finite(trained_model):
    toks = np.arange(14) % 256
    scores = score_grasp(trained_model, toks)
    assert scores.shape == (num_units(TINY),)
    assert np.all(np.isfinite(scores))
    assert np.all(scores >= 0)
    again = score_grasp(trained_model, toks)
    assert np.array_equal(scores, again)


def _grasp_five_pass(model, tokens, loss_from=1, eps=1e-4, capture=None):
    """GraSP as two full finite-difference HVPs, each taking its own
    base gradient: five taped passes per prompt."""
    if model.dtype != np.float64:
        model = model.to_dtype(np.float64)
        capture = None
    if capture is None:
        capture = model.forward(tokens, capture=CAPTURE_GRADS, loss_from=loss_from)
    n_layers = model.cfg.num_layers
    parts = []
    for name, grads, factors, axis in (
            ("head_offsets", capture.head_grads, capture.head_acts, (1, 2)),
            ("up_offsets", capture.up_grads, capture.up_weights, 0)):
        shape, size = grads[0].shape, grads[0].size
        g = np.concatenate([x.reshape(-1) for x in grads]).astype(np.float64)

        def loss(flat, name=name, shape=shape, size=size):
            offsets = [T.reshape(T.slice_rows(flat, i * size, (i + 1) * size), shape)
                       for i in range(n_layers)]
            return model.forward(tokens, loss_from=loss_from,
                                 **{name: offsets}).loss_tensor

        zero = T.Tensor(np.zeros_like(g), dtype=np.float64)
        hv = T.hessian_vector_product(loss, zero, T.Tensor(g), eps=eps).data
        parts.append(np.stack([np.abs(-h.reshape(shape) * f).sum(axis=axis)
                               for h, f in zip(np.split(hv, n_layers), factors)]))
    return _flat_scores(*parts)


def test_grasp_equals_five_pass_reference(trained_model):
    # float32 fixture: both sides widen it and capture their own gradients
    toks = np.arange(14) % 256
    assert np.array_equal(score_grasp(trained_model, toks),
                          _grasp_five_pass(trained_model, toks))
    # float64 model with a passed capture
    model = trained_model.to_dtype(np.float64)
    toks = np.frombuffer(b"Q:abc A:abc\nQ:de A:", dtype=np.uint8).astype(np.int64)
    cap = model.forward(toks, capture=CAPTURE_GRADS)
    assert np.array_equal(score_grasp(model, toks, capture=cap),
                          _grasp_five_pass(model, toks, capture=cap))
    # a (head, tail) prompt scored on its target only
    head, tail = make_fewshot_prompts("copy", shots=1, n=1, seed=2)[0]
    assert len(head) > 1
    vec, = collect_criteria(trained_model, [(head, tail)], "grasp", loss_on="target")
    want = _grasp_five_pass(trained_model, np.concatenate([head, tail]),
                            loss_from=len(head))
    assert np.array_equal(vec.values, want.astype(np.float32))


def test_grasp_rejects_mismatched_capture(trained_model):
    model = trained_model.to_dtype(np.float64)
    toks = np.arange(10) % 256
    cap = model.forward(toks, capture=CAPTURE_GRADS)
    with pytest.raises(CaptureMismatchError, match="logit rows 10, expected 9"):
        score_grasp(model, toks[:9], capture=cap)
    with pytest.raises(CaptureMismatchError, match="n_predicted 9, expected 7"):
        score_grasp(model, toks, loss_from=3, capture=cap)


def test_grasp_collect_runs_three_backward_passes_per_prompt(trained_model,
                                                             monkeypatch):
    calls = []
    real = T.backward

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(T, "backward", counting)
    prompts = make_fewshot_prompts("copy", shots=1, n=2, seed=4)
    collect_criteria(trained_model, prompts, "grasp")
    assert len(calls) == 3 * len(prompts)


def test_write_scores_csv(tmp_path, trained_model):
    prompts = make_fewshot_prompts("copy", shots=1, n=2, seed=1)
    vecs = collect_criteria(trained_model, prompts, "l2norm")
    csv_path = tmp_path / "scores.csv"
    sidecar = tmp_path / "scores.json"
    write_scores_csv(vecs, TINY, csv_path, meta={"criterion": "l2norm", "shots": 1,
                                                 "seed": 1, "checkpoint": "x"},
                     sidecar_path=sidecar)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "example_id,layer,kind,index,score"
    assert len(lines) == 1 + 2 * num_units(TINY)
    assert sidecar.exists()
    first = lines[1].split(",")
    assert first[:4] == ["0", "0", "head", "0"]


def _per_unit_scores_csv(scores, cfg, csv_path):
    """One ``unit_at`` and one ``repr(float)`` per covered unit."""
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["example_id", "layer", "kind", "index", "score"])
        for vec in scores:
            example = "aggregate" if vec.example_id is None else vec.example_id
            for flat in range(len(vec.values)):
                if vec.covered[flat]:
                    uid = unit_at(cfg, flat)
                    writer.writerow([example, uid.layer, uid.kind.value, uid.index,
                                     repr(float(vec.values[flat]))])


def test_write_scores_csv_equals_per_unit_reference(tmp_path):
    rng = np.random.default_rng(12)
    n = num_units(TINY)
    vecs = []
    for example in (0, 7, "x", None):
        values = rng.standard_normal(n) * 10.0 ** rng.integers(-9, 9, size=n)
        values[:3] = (NEG_INF, -0.0, 0.0)
        covered = rng.random(n) < 0.6
        covered[num_head_units(TINY) - 1:num_head_units(TINY) + 1] = (False, True)
        vecs.append(ScoreVector(values, "nwot", example_id=example, covered=covered))
    vecs.append(ScoreVector(np.ones(n), "nwot", example_id=9,
                            covered=np.zeros(n, dtype=bool)))
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_scores_csv(vecs, TINY, got)
    _per_unit_scores_csv(vecs, TINY, want)
    assert got.read_bytes() == want.read_bytes()
    rows = got.read_text().splitlines()
    assert len(rows) == 1 + sum(int(v.covered.sum()) for v in vecs)
