"""Acceptance gate: ten numbered end-to-end checks, one verdict line each.

Every test prints ``criterion NN <label>: PASS|FAIL [measurements]``
straight to the terminal before asserting, so a full run always shows
one line per criterion with the raw numbers behind the verdict.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from shlm import tensor as T
from shlm.analytics import (
    bootstrap_positive_mean_pvalue,
    perplexity,
    rank_variance,
    spearman,
)
from shlm.cli import main
from shlm.criteria import collect_criteria
from shlm.model import (
    CAPTURE_ACTIVATIONS,
    CAPTURE_GRADS,
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
    predictor_fidelity,
    predictor_flops,
    train_predictor,
)
from shlm.pruning import PruneSpec, oracle_ablation, sparsity_sweep
from shlm.text import make_fewshot_prompts
from shlm.train import train_lm

from .conftest import TINY, scale_unit_offsets, toy_text
from .gradcheck_cases import ALL_CASES, max_relative_error
from .oracles import relative_error

ARTIFACT_DIR = Path(__file__).resolve().parents[1] / "test_artifacts"


def _verdict(capsys, num: int, label: str, ok: bool, detail: str = "") -> None:
    tail = f"  [{detail}]" if detail else ""
    line = f"criterion {num:02d} {label}: {'PASS' if ok else 'FAIL'}{tail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. analytical predictor cost


def test_criterion_01_predictor_flops(capsys):
    t0 = time.perf_counter()
    worst_pp = 0.0
    for preset, expect in [("opt-1.3b", 19.11), ("opt-30b", 19.55),
                           ("opt-175b", 19.76)]:
        got = 100.0 * predictor_flops(preset, "shadow").reduction_vs_dejavu
        worst_pp = max(worst_pp, abs(got - expect))
    rng = np.random.default_rng(99)
    identity_ok = True
    for _ in range(100):
        dims = dict(num_layers=int(rng.integers(1, 200)),
                    embed_dim=int(rng.integers(1, 20000)),
                    num_heads=int(rng.integers(1, 200)),
                    ffn_dim=int(rng.integers(1, 80000)))
        p1 = int(rng.integers(1, 5000))
        gap = predictor_flops(dims, "dejavu", p1).flops - \
            predictor_flops(dims, "shadow", p1).flops
        identity_ok &= gap == (dims["num_layers"] - 1) * dims["embed_dim"] * p1
    elapsed = time.perf_counter() - t0
    ok = worst_pp <= 0.01 and identity_ok and elapsed < 1.0
    _verdict(capsys, 1, "predictor FLOPs reductions and topology identity", ok,
             f"worst {worst_pp:.4f}pp, identity on 100 configs, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. autodiff against finite differences


def test_criterion_02_autodiff_gradients(capsys):
    t0 = time.perf_counter()
    worst_grad = max(max_relative_error(make, seed)
                     for _, make in ALL_CASES for seed in range(10))
    worst_hvp = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        n = 8
        a = rng.standard_normal((n, n))
        q = (a + a.T) / 2.0
        qc = T.constant(q, dtype=np.float64)

        def loss_fn(xs):
            row = xs[0]   # (1, n)
            return T.reshape(T.scale(T.tsum(T.mul(T.matmul(row, qc), row)), 0.5), (1,))

        point = rng.standard_normal(n)[None]
        v = rng.standard_normal(n)
        (hv,) = T.hessian_vector_product(loss_fn, [point], [v[None]])
        worst_hvp = max(worst_hvp, relative_error(hv[0], q @ v))
    elapsed = time.perf_counter() - t0
    ok = worst_grad <= 1e-4 and worst_hvp <= 1e-3 and elapsed < 60.0
    _verdict(capsys, 2, "op gradients vs central differences, HVP vs Qv", ok,
             f"grad {worst_grad:.2e} (tol 1e-4), hvp {worst_hvp:.2e} "
             f"(tol 1e-3), {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. mask semantics


def test_criterion_03_mask_semantics(capsys, trained_model):
    toks = np.frombuffer(b"Q:abc A:abc\nQ:de A:de\n", dtype=np.uint8)
    toks = toks.astype(np.int64)
    dense = trained_model.forward(toks, capture=CAPTURE_ACTIVATIONS)
    masked = trained_model.forward(toks, mask=MaskSet.ones(TINY))
    identity_ok = np.array_equal(dense.logits, masked.logits) and \
        dense.loss == masked.loss

    worst_sub = 0.0
    d = TINY.head_dim
    for layer in range(TINY.num_layers):
        w_o = trained_model.params[f"h{layer}.wo"].data
        for head in range(TINY.num_heads):
            mask = MaskSet.ones(TINY).without(
                [UnitId(layer, UnitKind.HEAD, head)])
            got = trained_model.forward(toks, mask=mask,
                                        capture=CAPTURE_ACTIVATIONS)
            contrib = dense.head_acts[layer][head].astype(np.float64) @ \
                w_o[head * d:(head + 1) * d].astype(np.float64)
            want = dense.attn_outs[layer].astype(np.float64) - contrib
            worst_sub = max(worst_sub,
                            float(np.max(np.abs(got.attn_outs[layer] - want))))

    rng = np.random.default_rng(5)
    union_ok = True
    for _ in range(20):
        a = [unit_at(TINY, int(i))
             for i in rng.integers(0, num_units(TINY), size=12)]
        b = [unit_at(TINY, int(i))
             for i in rng.integers(0, num_units(TINY), size=12)]
        stepwise = MaskSet.ones(TINY).without(a).without(b)
        union = MaskSet.ones(TINY).without(a + b)
        meet = MaskSet.ones(TINY).without(a).intersect(
            MaskSet.ones(TINY).without(b))
        union_ok &= stepwise == union == meet
    a = [unit_at(TINY, i) for i in (0, 5, 9, 40)]
    b = [unit_at(TINY, i) for i in (5, 17, 60)]
    out1 = trained_model.forward(toks,
                                 mask=MaskSet.ones(TINY).without(a).without(b))
    out2 = trained_model.forward(toks, mask=MaskSet.ones(TINY).without(a + b))
    union_ok &= np.array_equal(out1.logits, out2.logits)

    ok = identity_ok and worst_sub <= 1e-6 and union_ok
    _verdict(capsys, 3, "identity, single-head subtraction, union masks", ok,
             f"identity bit-exact {identity_ok}, subtraction err "
             f"{worst_sub:.2e} (tol 1e-6), union exact {union_ok}")


# ---------------------------------------------------------------------------
# 4. first-order sensitivity of the activation-gradient score


@pytest.fixture(scope="module")
def sensitivity_model(stream):
    """Default-size model trained just enough for meaningful gradients."""
    model = TransformerModel(ModelConfig(), seed=0)
    train_lm(model, stream.train, steps=200, lr=3e-3, seed=0,
             batch_size=8, seq_len=48)
    return model.to_dtype(np.float64)


def test_criterion_04_first_order_sensitivity(capsys, sensitivity_model,
                                              stream):
    cfg = ModelConfig()
    eps = 1e-3
    nh = num_head_units(cfg)
    prompts = [stream.train[i * 12:(i + 1) * 12] for i in range(3)]
    worst_ratio = 0.0
    n_checked = 0
    for toks in prompts:
        cap = sensitivity_model.forward(toks, capture=CAPTURE_GRADS)
        base = cap.loss
        for flat in range(num_units(cfg)):
            if flat < nh:
                l, k = divmod(flat, cfg.num_heads)
                signed = float((cap.head_acts[l][k] *
                                cap.head_grads[l][k]).sum())
            else:
                l, k = divmod(flat - nh, cfg.ffn_dim)
                signed = float((cap.neuron_acts[l][:, k] *
                                cap.neuron_grads[l][:, k]).sum())
            scaled = sensitivity_model.forward(
                toks, **scale_unit_offsets(cap, flat, eps))
            err = abs((base - scaled.loss) - eps * signed)
            bound = 0.05 * eps * abs(signed) + 1e-9
            worst_ratio = max(worst_ratio, err / bound)
            n_checked += 1
    ok = worst_ratio <= 1.0
    _verdict(capsys, 4, "eps-scaled unit masking matches eps*sum(A*g)", ok,
             f"{n_checked} unit/prompt checks, worst err/bound "
             f"{worst_ratio:.3f}")


# ---------------------------------------------------------------------------
# 5. criterion scores vs the brute-force ablation oracle


def test_criterion_05_oracle_alignment(capsys, trained_models, stream):
    n_win = 24
    cal = [stream.train[i * 64:(i + 1) * 64] for i in range(n_win)]
    eval_toks = stream.train[:n_win * 64]
    joint = 0
    raw = []
    for seed, model in trained_models.items():
        deltas = np.array(
            [d for _, d in oracle_ablation(model, eval_toks, window=64)])
        rho_p = spearman(
            collect_criteria(model, cal, "plainact", aggregate=True).values,
            deltas)
        rho_l = spearman(
            collect_criteria(model, cal, "l2norm", aggregate=True).values,
            deltas)
        joint += (rho_p >= 0.4) and (rho_p >= rho_l)
        raw.append(f"s{seed} {rho_p:+.3f}/{rho_l:+.3f}")
    ok = joint >= 3
    _verdict(capsys, 5, "plainact vs ablation oracle beats activation norm",
             ok, f"rho>=0.4 and plainact>=l2norm in {joint}/5 seeds; "
             f"plainact/l2norm: {' '.join(raw)}")


# ---------------------------------------------------------------------------
# 6. predictor learnability


def test_criterion_06_predictor_learnability(capsys, trained_models, stream):
    all_ok = True
    details = []
    first_ds = None
    for seed, model in trained_models.items():
        rng = np.random.default_rng([7, seed])
        starts = rng.integers(0, len(stream.val) - 16, size=60)
        prompts = [stream.val[s:s + 16].copy() for s in starts]
        ds = build_dataset(model, prompts, "plainact")
        if first_ds is None:
            first_ds = ds
        pred, log = train_predictor(ds, PredictorConfig(epochs=100, batch=8),
                                    seed=seed)
        held = ds.targets[ds.heldout_idx][:, ds.covered]
        var = float(held.var())
        rep = predictor_fidelity(pred, ds)
        p = bootstrap_positive_mean_pvalue(
            np.array(rep.per_example_global), seed=seed)
        seed_ok = log.heldout_mse[-1] < var and rep.spearman_global > 0 \
            and p < 0.01
        all_ok &= seed_ok
        details.append(f"s{seed} mse {log.heldout_mse[-1]:.3f}<var "
                       f"{var:.3f} rho {rep.spearman_global:+.2f} p {p:.4f}")

    exact = predictor_fidelity(lambda f, i: first_ds.targets[i], first_ds)
    negated = predictor_fidelity(lambda f, i: -first_ds.targets[i], first_ds)
    oracle_ok = abs(exact.spearman_global - 1.0) <= 1e-12 and \
        abs(negated.spearman_global + 1.0) <= 1e-12

    ok = all_ok and oracle_ok
    _verdict(capsys, 6, "trained predictor beats variance, oracle rho = +/-1",
             ok, "; ".join(details) +
             f"; exact {exact.spearman_global:+.1f} "
             f"negated {negated.spearman_global:+.1f}")


# ---------------------------------------------------------------------------
# 7. global vs local pruning at 50% sparsity


def test_criterion_07_global_vs_local(capsys, trained_models, stream):
    windows = [stream.val[i * 64:(i + 1) * 64] for i in range(8)]
    specs = [PruneSpec(s, sp) for s in ("local", "global")
             for sp in (0.0, 0.25, 0.5)]
    wins = 0
    details = []
    all_records = []
    for seed, model in trained_models.items():
        scores = collect_criteria(model, windows, "plainact", aggregate=True)
        recs = sparsity_sweep(model, scores, specs, stream.val, window=64,
                              criterion="plainact", seed=seed)
        all_records.extend(recs)
        ppl = {(r.strategy, r.sparsity): r.perplexity for r in recs}
        g, l = ppl[("global", 0.5)], ppl[("local", 0.5)]
        wins += g <= l
        details.append(f"s{seed} {g:.2f}/{l:.2f}")
    ARTIFACT_DIR.mkdir(exist_ok=True)
    csv_path = ARTIFACT_DIR / "acceptance_sweep.csv"
    from shlm.analytics import SWEEP_COLUMNS, emit_report
    emit_report(all_records, csv_path, columns=SWEEP_COLUMNS)
    ok = wins >= 4 and csv_path.is_file()
    _verdict(capsys, 7, "global beats local perplexity at 50% sparsity", ok,
             f"global<=local in {wins}/5 seeds; global/local: "
             f"{' '.join(details)}; sweep at {csv_path.relative_to(ARTIFACT_DIR.parent)}")


# ---------------------------------------------------------------------------
# 8. rank correlation reference values


def test_criterion_08_rank_correlation_values(capsys):
    frozen = spearman([1, 2, 3, 4], [1, 3, 2, 4])
    ident = spearman([1, 2, 3, 4], [1, 2, 3, 4])
    rev = spearman([1, 2, 3, 4], [4, 3, 2, 1])
    ok = frozen == 0.8 and ident == 1.0 and rev == -1.0
    _verdict(capsys, 8, "spearman frozen values 0.8 / 1.0 / -1.0", ok,
             f"got {frozen} / {ident} / {rev}")


# ---------------------------------------------------------------------------
# 9. CLI byte-level determinism


def _dirs_match(a: Path, b: Path) -> tuple[bool, int]:
    files_a = sorted(p.name for p in a.iterdir())
    files_b = sorted(p.name for p in b.iterdir())
    if files_a != files_b:
        return False, 0
    same = all((a / n).read_bytes() == (b / n).read_bytes() for n in files_a)
    return same, len(files_a)


def test_criterion_09_cli_determinism(capsys, tmp_path_factory):
    ws = tmp_path_factory.mktemp("accept_cli")
    corpus = ws / "corpus.txt"
    corpus.write_text(toy_text(), encoding="utf-8")
    cfg_path = ws / "cfg.json"
    cfg_path.write_text(json.dumps({
        "model": {"num_layers": 2, "embed_dim": 32, "num_heads": 4,
                  "head_dim": 8, "ffn_dim": 32, "vocab_size": 256,
                  "max_seq_len": 64},
        "train": {"steps": 60, "lr": 3e-3, "batch_size": 4, "seq_len": 48},
        "prompts": {"n": 8, "length": 16},
        "predictor": {"topology": "shadow", "epochs": 6, "batch": 4},
        "prune": {"strategy": "both", "sparsities": [0.0, 0.5]},
        "eval": {"max_tokens": 512},
        "fewshot": {"tasks": ["copy"], "shots": [0, 1], "n": 4},
        "flops": {"preset": "opt-1.3b"},
        "seeds": [0],
    }), encoding="utf-8")
    base = ["--config", str(cfg_path), "--workers", "1"]
    ckpt = str(ws / "train-lm_a" / "model.bin")
    pred = str(ws / "train-predictor_a" / "predictor.bin")
    model_io = ["--checkpoint", ckpt, "--corpus", str(corpus)]
    plan = [
        ("train-lm", ["train-lm", "--corpus", str(corpus)]),
        ("collect", ["collect"] + model_io),
        ("train-predictor", ["train-predictor"] + model_io),
        ("eval-predictor", ["eval-predictor", "--predictor", pred] + model_io),
        ("sweep", ["sweep"] + model_io),
        ("rank-variance", ["rank-variance"] + model_io),
        ("fewshot", ["fewshot"] + model_io),
        ("oracle", ["oracle"] + model_io),
        ("flops", ["flops"]),
    ]
    ok = True
    n_total = 0
    failures = []
    for name, argv in plan:
        out_a, out_b = ws / f"{name}_a", ws / f"{name}_b"
        rc_a = main(argv + base + ["--out", str(out_a)])
        rc_b = main(argv + base + ["--out", str(out_b)])
        same, n = _dirs_match(out_a, out_b)
        if rc_a != 0 or rc_b != 0 or not same:
            failures.append(f"{name} (rc {rc_a}/{rc_b}, match {same})")
            ok = False
        n_total += n
    _verdict(capsys, 9, "every subcommand byte-identical across reruns", ok,
             f"9 subcommands x 2 runs, {n_total} files compared" +
             (f"; failed: {', '.join(failures)}" if failures else ""))


# ---------------------------------------------------------------------------
# 10. statistics sanity


def test_criterion_10_statistics_sanity(capsys, trained_model):
    uniform = TransformerModel(TINY, seed=0)
    uniform.params["tok_emb"].data[:] = 0.0
    toks = np.arange(100) % 256
    ppl = perplexity(uniform, None, toks, window=50)
    ppl_ok = abs(ppl - TINY.vocab_size) <= 1e-6

    prompt = make_fewshot_prompts("copy", shots=1, n=1, seed=4)[0]
    table = rank_variance(trained_model, [prompt, prompt, prompt])
    rv_ok = all(row[3] == 0.0 for row in table.rows) and \
        all(v == 0.0 for v in table.per_layer)

    ok = ppl_ok and rv_ok
    _verdict(capsys, 10, "uniform-logits ppl = vocab, zero rank variance", ok,
             f"ppl {ppl:.8f} vs {TINY.vocab_size} (tol 1e-6), "
             f"variance all zero {rv_ok}")
