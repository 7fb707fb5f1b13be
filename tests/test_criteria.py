"""Criterion scores: hand oracles, invariances, and the collection driver."""

import csv
import platform
import subprocess
import sys

import numpy as np
import pytest

from shlm import criteria
from shlm import model as model_mod
from shlm import tensor as T
from shlm.criteria import (
    AGGREGATE_ONLY,
    NEG_INF,
    CriterionKind,
    ScoreVector,
    collect_criteria,
    needs_grads,
    score_contextual,
    score_epenas,
    score_grasp,
    score_jacov,
    score_nwot,
    write_scores_csv,
)
from shlm.errors import (
    BatchTooSmallError,
    ContextualUnsupportedError,
    MissingCaptureError,
    ShapeMismatchError,
    SingleClassError,
)
from shlm.model import (
    CAPTURE_ACTIVATIONS,
    CAPTURE_GRADS,
    ForwardResult,
    ModelConfig,
    UnitId,
    UnitKind,
    MaskSet,
    TransformerModel,
    _flat_scores,
    num_head_units,
    num_units,
    unit_at,
    unit_blocks,
)
from shlm.text import make_fewshot_prompts

from .conftest import TINY, flat_index, scale_unit_offsets

_CFG = ModelConfig(num_layers=2, embed_dim=8, num_heads=2, head_dim=4,
                   ffn_dim=6, vocab_size=16, max_seq_len=16)


def _fake_capture(cfg, t_len, rng, grads=True):
    res = ForwardResult(cfg=cfg, logits=np.zeros((t_len, cfg.vocab_size)), loss=1.0)
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
    out = ForwardResult(cfg=cap.cfg, logits=cap.logits, loss=cap.loss)
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
    assert abs(got[flat_index(_CFG, UnitId(1, UnitKind.HEAD, 0))] - want_head) <= 1e-12
    want_neuron = np.sqrt((cap.neuron_acts[0][:, 3] ** 2).sum())
    assert abs(got[flat_index(_CFG, UnitId(0, UnitKind.NEURON, 3))] - want_neuron) <= 1e-12
    grad = score_contextual(cap, "gradnorm")
    want_head = np.sqrt((cap.head_grads[0][1] ** 2).sum())
    assert abs(grad[flat_index(_CFG, UnitId(0, UnitKind.HEAD, 1))] - want_head) <= 1e-12
    want_neuron = np.sqrt((cap.up_grads[1][:, 4] ** 2).sum())
    assert abs(grad[flat_index(_CFG, UnitId(1, UnitKind.NEURON, 4))] - want_neuron) <= 1e-12


def test_plainact_and_fisher_hand_values():
    rng = np.random.default_rng(1)
    cap = _fake_capture(_CFG, 4, rng)
    plain = score_contextual(cap, "plainact")
    fisher = score_contextual(cap, "fisher")
    h = flat_index(_CFG, UnitId(0, UnitKind.HEAD, 1))
    prod = cap.head_acts[0][1] * cap.head_grads[0][1]
    assert abs(plain[h] - np.abs(prod).sum()) <= 1e-12
    assert abs(fisher[h] - np.square(prod).mean()) <= 1e-12
    n = flat_index(_CFG, UnitId(1, UnitKind.NEURON, 2))
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
    start = flat_index(_CFG, UnitId(1, UnitKind.HEAD, 0))
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
    dead = flat_index(_CFG, UnitId(0, UnitKind.NEURON, 0))
    assert got[dead] == NEG_INF
    live = flat_index(_CFG, UnitId(0, UnitKind.NEURON, 1))
    want = np.log(np.square(1.0 - cap.neuron_acts[0][:, 1]).mean())
    assert abs(got[live] - want) <= 1e-12
    head = flat_index(_CFG, UnitId(1, UnitKind.HEAD, 0))
    per_pos = cap.head_acts[1][0].mean(axis=1)
    assert abs(got[head] - np.log(np.square(1.0 - per_pos).mean())) <= 1e-12


def test_missing_capture_fields_rejected():
    rng = np.random.default_rng(5)
    cap = _fake_capture(_CFG, 4, rng, grads=False)
    with pytest.raises(MissingCaptureError):
        score_contextual(cap, "gradnorm")
    bare = ForwardResult(cfg=_CFG, logits=np.zeros((4, 16)), loss=1.0)
    with pytest.raises(MissingCaptureError):
        score_contextual(bare, "l2norm")
    with pytest.raises(MissingCaptureError, match="score_grasp"):
        score_contextual(cap, "grasp")


def _vec_capture(cfg, head_vecs, up_cols):
    """Capture whose unit gradient vectors are fully controlled."""
    t_len = 3
    res = ForwardResult(cfg=cfg, logits=np.zeros((t_len, cfg.vocab_size)), loss=1.0)
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
    idx_same = flat_index(cfg, UnitId(0, UnitKind.HEAD, 0))
    idx_rand = flat_index(cfg, UnitId(0, UnitKind.HEAD, 1))
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
    idx = flat_index(cfg, UnitId(0, UnitKind.HEAD, 0))
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
        # up_grads forms a new array on each read; materialize it so the
        # planted column is what every later read sees
        cap.up_grads = [g.copy() for g in cap.up_grads]
        cap.up_grads[0][:, 5] = 0.0
    for uid in (UnitId(1, UnitKind.HEAD, 2), UnitId(0, UnitKind.NEURON, 5)):
        assert not _per_unit_grads(captures, flat_index(TINY, uid)).any()
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


_COLLECT_PEAK = """
import numpy as np
from shlm.cli import _steady_heap
from shlm.criteria import collect_criteria
from shlm.model import ModelConfig, TransformerModel

def peak_kb():   # this process's own peak; a child's ru_maxrss starts at its parent's
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status
                    if line.startswith("VmHWM:"))

_steady_heap()   # the heap thresholds main() runs collect under
model = TransformerModel(ModelConfig(), seed=0)
prompts = list(np.random.default_rng(0).integers(0, 256, size=({n}, 16)))
before = peak_kb()
collect_criteria(model, prompts, "{kind}", aggregate={aggregate})
print(peak_kb() - before)
"""


def _collect_growth_mb(n: int, kind: str, aggregate: bool = False) -> float:
    """The VmHWM growth of one collect of ``n`` random 16-token prompts on
    the default config, in a fresh process."""
    script = _COLLECT_PEAK.format(n=n, kind=kind, aggregate=aggregate)
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, check=True)
    return int(proc.stdout.split()[-1]) / 1024


@pytest.mark.skipif(platform.system() != "Linux", reason="reads /proc/self/status")
@pytest.mark.parametrize("n,bound_mb", [(24, 18), (96, 20)])
def test_grad_capture_forms_up_grads_one_layer_at_a_time(n, bound_mb):
    """A plainact collect of 16-token prompts on the default config raises
    the peak RSS by one 256-token chunk's tape and captures, scored
    before the next chunk runs (about 14.5 MB for 24 prompts, 16.5 MB for
    96), not by every prompt's capture at once (21 and 57 MB), nor also
    by every prompt's (E, F) up-projection gradient of every layer at
    once (n x 4 x 256 KB more)."""
    growth_mb = _collect_growth_mb(n, "plainact")
    assert growth_mb < bound_mb, growth_mb


@pytest.mark.skipif(platform.system() != "Linux", reason="reads /proc/self/status")
def test_jacov_collect_fills_gradient_blocks_in_the_capture_dtype():
    """A 16 x 16-token aggregate jacov collect on the default config
    raises the peak RSS by about 25 MB: its tape, without the inputs of
    the taped ``_`` ops, and float32 gradient blocks widened one slice of
    units at a time, not whole float64 blocks (about 36 MB)."""
    growth_mb = _collect_growth_mb(16, "jacov", aggregate=True)
    assert growth_mb < 29, growth_mb


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


def _mixed_prompts():
    """Few-shot pairs of several lengths, then 16-token windows: 36 of
    them are 576 tokens, over twice the 256-token capture budget, so that
    group runs as three chunks (16, 16 and 4 windows)."""
    rng = np.random.default_rng(21)
    windows = [rng.integers(0, TINY.vocab_size, size=16) for _ in range(36)]
    pairs = (make_fewshot_prompts("reverse", shots=1, n=5, seed=5)
             + make_fewshot_prompts("add", shots=0, n=4, seed=6))
    return pairs[:4] + windows[:3] + pairs[4:] + windows[3:] + [windows[0][:9]]


def _chunk_sizes(monkeypatch) -> list:
    """Record the batch size of every batched forward."""
    sizes, forward = [], TransformerModel.forward

    def spy(self, tokens, *args, **kwargs):
        if np.ndim(tokens) == 2:
            sizes.append(len(tokens))
        return forward(self, tokens, *args, **kwargs)

    monkeypatch.setattr(TransformerModel, "forward", spy)
    return sizes


def _per_prompt_reference(model, prompts, kind, aggregate, loss_on):
    """collect_criteria's result from one taped 1-D capture per prompt,
    or for grasp one score_grasp batch of one per prompt."""
    kind = CriterionKind(kind)
    parts = [criteria._prompt_parts(p, loss_on) for p in prompts]
    if kind == CriterionKind.GRASP:
        raw = [score_grasp(model, tokens[None], loss_from)[0]
               for tokens, loss_from, _ in parts]
        return [np.mean(np.stack(raw), axis=0)] if aggregate else raw
    capture = CAPTURE_GRADS if needs_grads(kind) else CAPTURE_ACTIVATIONS
    caps = [model.forward(tokens, capture=capture, loss_from=loss_from)
            for tokens, loss_from, _ in parts]
    if kind == CriterionKind.JACOV:
        return [score_jacov(caps)]
    if kind == CriterionKind.EPENAS:
        return [score_epenas(caps, [label for _, _, label in parts])]
    raw = [score_contextual(cap, kind) for cap in caps]
    return [np.mean(np.stack(raw), axis=0)] if aggregate else raw


@pytest.mark.parametrize("kind,aggregate", [
    *((kind.value, False) for kind in CriterionKind if kind not in AGGREGATE_ONLY),
    ("plainact", True), ("jacov", True), ("epenas", True)])
@pytest.mark.parametrize("loss_on", ["all", "target"])
def test_collect_equals_per_prompt_reference(trained_model, monkeypatch, kind,
                                             aggregate, loss_on):
    prompts = _mixed_prompts()
    sizes = _chunk_sizes(monkeypatch)
    got = collect_criteria(trained_model, prompts, kind, aggregate=aggregate,
                           loss_on=loss_on)
    monkeypatch.undo()
    want = _per_prompt_reference(trained_model, prompts, kind, aggregate, loss_on)
    assert max(sizes) * 16 <= model_mod._CAPTURE_TOKENS
    # GraSP runs each chunk twice, its capture and its head probe, and
    # each prompt's up-projection probe as a batch of one
    passes = 3 if kind == "grasp" else 1
    assert sum(sizes) == passes * len(prompts)
    assert sizes.count(16) == 2 * min(passes, 2)
    got = [got] if aggregate else got
    assert len(got) == len(want)
    for vec, ref in zip(got, want):
        assert vec.values.tobytes() == ScoreVector(ref, kind).values.tobytes()


@pytest.mark.parametrize("kind", [kind.value for kind in CriterionKind
                                  if kind not in AGGREGATE_ONLY])
def test_collect_from_a_first_layer_equals_full_scores_on_its_layers(trained_model,
                                                                     kind):
    # every covered unit has the bits of a collect of every layer; the
    # earlier layers' units are uncovered and hold 0
    cfg = trained_model.cfg
    prompts = _mixed_prompts()
    full = collect_criteria(trained_model, prompts, kind, loss_on="target")
    for first in range(1, cfg.num_layers + 1):
        got = collect_criteria(trained_model, prompts, kind, loss_on="target",
                               first_layer=first)
        keep = np.zeros(num_units(cfg), dtype=bool)
        for block in unit_blocks(cfg, keep):
            block[first:] = True
        assert len(got) == len(full)
        for vec, ref in zip(got, full):
            assert np.array_equal(vec.covered, keep)
            assert vec.values[keep].tobytes() == ref.values[keep].tobytes()
            assert not vec.values[~keep].any()


def test_collect_workers_deterministic(trained_model, monkeypatch):
    prompts = _mixed_prompts()
    sizes = _chunk_sizes(monkeypatch)
    for kind in ("gradnorm", "l2norm"):   # taped and array-mode captures
        sizes.clear()
        one = collect_criteria(trained_model, prompts, kind, workers=1,
                               loss_on="target")
        two = collect_criteria(trained_model, prompts, kind, workers=3,
                               loss_on="target")
        assert len(sizes) > 2 * 3   # more chunks than workers, in both runs
        assert len(one) == len(two) == len(prompts)
        for a, b in zip(one, two):
            assert a.values.tobytes() == b.values.tobytes()


def test_no_stage_clones_the_model(trained_model, stream, monkeypatch):
    # worker threads share the caller's model, which no capture, GraSP
    # probe or masked pass writes; more threads than cores, switching
    # often, must still give the single-thread bytes
    import sys

    from shlm.pruning import PruneSpec, oracle_ablation, sparsity_sweep

    prompts = _mixed_prompts()
    grasp_prompts = [p for p in prompts if not isinstance(p, tuple)][:4]
    runs = {"gradnorm": lambda w: collect_criteria(trained_model, prompts,
                                                   "gradnorm", workers=w),
            "l2norm": lambda w: collect_criteria(trained_model, prompts,
                                                 "l2norm", workers=w),
            "grasp": lambda w: collect_criteria(trained_model, grasp_prompts,
                                                "grasp", workers=w)}
    want = {kind: run(1) for kind, run in runs.items()}
    eval_tokens = stream.val[:96]
    oracle = oracle_ablation(trained_model, eval_tokens, scope="heads", window=48)
    specs = [PruneSpec("global", s) for s in (0.0, 0.25, 0.5)]
    scores = collect_criteria(trained_model, prompts, "l2norm", aggregate=True)
    sweep = sparsity_sweep(trained_model, scores, specs, eval_tokens, window=48)

    def refuse(self):
        raise AssertionError("a stage cloned the model")

    monkeypatch.setattr(TransformerModel, "clone", refuse)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for kind, run in runs.items():
            got = run(3)
            assert [v.values.tobytes() for v in got] == \
                [v.values.tobytes() for v in want[kind]], kind
        assert oracle_ablation(trained_model, eval_tokens, scope="heads",
                               window=48, workers=3) == oracle
        assert sparsity_sweep(trained_model, scores, specs, eval_tokens,
                              window=48, workers=3) == sweep
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("kind", ["plainact", "l2norm", "nwot", "grasp"])
def test_collect_frees_each_chunk_before_the_next(trained_model, monkeypatch, kind):
    """Every ForwardResult of one capture chunk is gone when the next
    chunk's capture starts: a per-prompt criterion scores each chunk as
    soon as it is captured."""
    import weakref

    alive, starts, forward = set(), [], TransformerModel.forward

    def spy(self, tokens, *args, **kwargs):
        if kwargs.get("capture") in (CAPTURE_ACTIVATIONS, CAPTURE_GRADS):   # not a probe
            starts.append(len(alive))
        results = forward(self, tokens, *args, **kwargs)
        for result in results if isinstance(results, list) else [results]:
            alive.add(id(result))
            weakref.finalize(result, alive.discard, id(result))
        return results

    rng = np.random.default_rng(4)
    windows = [rng.integers(0, TINY.vocab_size, size=16) for _ in range(40)]
    monkeypatch.setattr(TransformerModel, "forward", spy)
    collect_criteria(trained_model, windows, kind, workers=1)
    assert starts == [0, 0, 0]   # three chunks of 16, 16 and 8 windows
    assert not alive


def test_stages_start_no_more_threads_than_jobs(trained_model, monkeypatch):
    import concurrent.futures

    from shlm.model import run_striped

    started = []

    class Recording(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
    assert run_striped([1, 2], lambda job: 10 * job, workers=3) == [10, 20]
    assert run_striped([5], lambda job: -job, workers=3) == [-5]   # inline
    assert run_striped(range(7), lambda job: job, workers=3) == list(range(7))
    assert started == [2, 3]
    # 24 windows of 16 tokens are two capture chunks, of 16 and 8
    rng = np.random.default_rng(3)
    windows = [rng.integers(0, TINY.vocab_size, size=16) for _ in range(24)]
    started.clear()
    collect_criteria(trained_model, windows, "plainact", workers=3)
    assert started == [2]


def test_masked_unit_scores_zero(trained_model):
    toks = np.arange(12) % 256
    uid = UnitId(1, UnitKind.HEAD, 2)
    cap = trained_model.forward(toks, mask=MaskSet.ones(TINY).without([uid]),
                                capture=CAPTURE_GRADS)
    plain = score_contextual(cap, "plainact")
    # activation is captured pre-mask but its gradient is exactly zero
    assert plain[flat_index(TINY, uid)] == 0.0


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
        if flat < num_head_units(TINY):
            l, k = divmod(int(flat), TINY.num_heads)
            signed = float((cap.head_acts[l][k] * cap.head_grads[l][k]).sum())
        else:
            rest = int(flat) - num_head_units(TINY)
            l, k = divmod(rest, TINY.ffn_dim)
            signed = float((cap.neuron_acts[l][:, k] *
                            cap.neuron_grads[l][:, k]).sum())
        scaled = model.forward(toks, **scale_unit_offsets(cap, int(flat), eps))
        drop = dense_loss - scaled.loss
        assert abs(drop - eps * signed) <= 0.05 * eps * abs(signed) + 1e-9


def test_grasp_runs_and_is_finite(trained_model):
    toks = np.arange(14)[None] % 256
    scores = score_grasp(trained_model, toks)
    assert scores.shape == (1, num_units(TINY))
    assert np.all(np.isfinite(scores))
    assert np.all(scores >= 0)
    again = score_grasp(trained_model, toks)
    assert np.array_equal(scores, again)
    with pytest.raises(ShapeMismatchError, match=r"\(B, T\)"):
        score_grasp(trained_model, toks[0])


def _grasp_five_pass(model, tokens, loss_from=1, eps=1e-4):
    """GraSP as two full finite-difference HVPs over one flat vector,
    each taking its own base gradient: five taped passes per prompt."""
    if model.dtype != np.float64:
        model = model.to_dtype(np.float64)
    capture = model.forward(tokens, capture=CAPTURE_GRADS, loss_from=loss_from)
    n_layers = model.cfg.num_layers
    parts = []
    for name, grads, factors, axis in (
            ("head_offsets", capture.head_grads, capture.head_acts, (1, 2)),
            ("up_offsets", capture.up_grads, capture.up_weights, 0)):
        shape, size = grads[0].shape, grads[0].size
        g = np.concatenate([x.reshape(-1) for x in grads]).astype(np.float64)

        def loss(xs, name=name, shape=shape, size=size):
            flat = T.reshape(xs[0], (n_layers * size,))   # the (1, n) row
            offsets = [T.reshape(T.slice_rows(flat, i * size, (i + 1) * size), shape)
                       for i in range(n_layers)]
            return T.reshape(model.forward(tokens, loss_from=loss_from,
                                           **{name: offsets}).loss_tensor, (1,))

        hv = T.hessian_vector_product(loss, [np.zeros((1, g.size))], [g[None]],
                                      eps=eps)[0][0]
        parts.append(np.stack([np.abs(-h.reshape(shape) * f).sum(axis=axis)
                               for h, f in zip(np.split(hv, n_layers), factors)]))
    return _flat_scores(*parts)


def test_grasp_equals_five_pass_reference(trained_model):
    # float32 fixture: both sides widen it and capture their own gradients
    toks = np.arange(14) % 256
    assert np.array_equal(score_grasp(trained_model, toks[None])[0],
                          _grasp_five_pass(trained_model, toks))
    # float64 model
    model = trained_model.to_dtype(np.float64)
    toks = np.frombuffer(b"Q:abc A:abc\nQ:de A:", dtype=np.uint8).astype(np.int64)
    assert np.array_equal(score_grasp(model, toks[None])[0],
                          _grasp_five_pass(model, toks))
    # a (head, tail) prompt scored on its target only
    head, tail = make_fewshot_prompts("copy", shots=1, n=1, seed=2)[0]
    assert len(head) > 1
    vec, = collect_criteria(trained_model, [(head, tail)], "grasp", loss_on="target")
    want = _grasp_five_pass(trained_model, np.concatenate([head, tail]),
                            loss_from=len(head))
    assert np.array_equal(vec.values, want.astype(np.float32))


def _grasp_prompts():
    """Four equal-length windows (one chunk), a shorter window and two
    (head, tail) pairs of different lengths: four capture chunks."""
    rng = np.random.default_rng(31)
    windows = [rng.integers(0, TINY.vocab_size, size=14) for _ in range(4)]
    pairs = make_fewshot_prompts("reverse", shots=1, n=2, seed=8)
    assert len({len(criteria._prompt_tokens(p)) for p in pairs}) == 2
    return windows[:2] + [pairs[0], windows[2][:9]] + windows[2:] + [pairs[1]]


def test_grasp_collect_runs_two_backward_passes_per_chunk_and_one_per_prompt(
        trained_model, monkeypatch):
    # the capture and the head probe run once per capture chunk, the
    # up-projection probe once per prompt
    calls = []
    real = T.backward

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(T, "backward", counting)
    mixed = _grasp_prompts()
    equal = [p for p in mixed if not isinstance(p, tuple) and len(p) == 14]
    assert len(equal) == 4
    for prompts, chunks in ((equal, 1), (mixed, 4)):
        calls.clear()
        collect_criteria(trained_model, prompts, "grasp")
        assert len(calls) == 2 * chunks + len(prompts), (len(prompts), chunks)


@pytest.mark.parametrize("loss_on", ["all", "target"])
def test_batched_grasp_equals_per_prompt_and_five_pass(trained_model, loss_on):
    # collect's batched head probe gives every prompt the bits of its own
    # score_grasp and of the five-pass reference, in chunks of equal-length
    # prompts, of mixed lengths and of (head, tail) pairs, at 1 and 3 workers
    prompts = _grasp_prompts()
    got = {w: collect_criteria(trained_model, prompts, "grasp", loss_on=loss_on,
                               workers=w) for w in (1, 3)}
    for i, prompt in enumerate(prompts):
        tokens, loss_from, _ = criteria._prompt_parts(prompt, loss_on)
        want = _grasp_five_pass(trained_model, tokens, loss_from=loss_from)
        assert np.array_equal(score_grasp(trained_model, tokens[None], loss_from)[0], want)
        for vecs in got.values():
            assert vecs[i].values.tobytes() == ScoreVector(want, "grasp").values.tobytes()


def test_batched_score_grasp_with_capture_equals_per_prompt(trained_model):
    # a float64 model's batch, scored with the batch's own capture: each
    # row equals the prompt's score_grasp alone and the five-pass reference
    model = trained_model.to_dtype(np.float64)
    toks = np.stack([p for p in _grasp_prompts() if len(p) == 14])
    batch = score_grasp(model, toks, loss_from=3)
    assert batch.shape == (len(toks), num_units(TINY))
    for row, tokens in zip(batch, toks):
        assert np.array_equal(row, score_grasp(model, tokens[None], 3)[0])
        assert np.array_equal(row, _grasp_five_pass(model, tokens, 3))
    assert np.array_equal(score_grasp(trained_model, toks, loss_from=3), batch)


@pytest.mark.skipif(platform.system() != "Linux", reason="reads /proc/self/status")
def test_grasp_collect_probes_without_flat_vectors():
    """A 4 x 16-token grasp collect on the default config raises the peak
    RSS by its float64 model copy, one batched capture and head probe and
    one prompt's up-projection probe (about 25 MB), not by a dozen
    L * E * F float64 vectors of a flat up-offset probe (about 36 MB)."""
    growth_mb = _collect_growth_mb(4, "grasp")
    assert growth_mb < 28, growth_mb


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
