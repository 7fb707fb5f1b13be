from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shlm import criteria as criteria_mod
from shlm import predictor as predictor_mod
from shlm import tensor as T
from shlm.checkpoint import read_container, save_checkpoint, write_container
from shlm.criteria import collect_criteria
from shlm.errors import (ConfigMismatchError, ContextualUnsupportedError,
                         DatasetTooSmallError, EmptyHeldoutError,
                         EmptyPromptError, FeatureShapeMismatchError,
                         NoCoveredUnitsError, NonFiniteError)
from shlm.model import (CAPTURE_ACTIVATIONS, ModelConfig, TransformerModel,
                        unit_blocks)
from shlm.predictor import (MODEL_PRESETS, CriteriaDataset, PredictorConfig,
                            build_dataset, contextual_mask_source,
                            covered_units, dejavu_hosts, dejavu_window,
                            extract_features,
                            load_predictor, normalize_scores,
                            predict_scores, predictor_fidelity,
                            predictor_flops, save_predictor, split_indices,
                            train_predictor)
from shlm.predictor import _forward_batch, _nets
from shlm.pruning import PruneSpec

from .conftest import TINY


# ---------------------------------------------------------------------------
# cost model


def test_flops_frozen_reductions():
    for preset, expect in [("opt-1.3b", 19.11), ("opt-30b", 19.55),
                           ("opt-175b", 19.76)]:
        rep = predictor_flops(preset, "shadow")
        assert abs(100.0 * rep.reduction_vs_dejavu - expect) <= 0.01


def test_flops_identity_random_configs():
    rng = np.random.default_rng(99)
    for _ in range(100):
        dims = dict(num_layers=int(rng.integers(1, 200)),
                    embed_dim=int(rng.integers(1, 20000)),
                    num_heads=int(rng.integers(1, 200)),
                    ffn_dim=int(rng.integers(1, 80000)))
        p1 = int(rng.integers(1, 5000))
        shadow = predictor_flops(dims, "shadow", p1)
        dejavu = predictor_flops(dims, "dejavu", p1)
        assert dejavu.flops - shadow.flops == \
            (dims["num_layers"] - 1) * dims["embed_dim"] * p1


def test_flops_fullseq_adds_encoder_cost():
    dims = dict(num_layers=6, embed_dim=64, num_heads=4, ffn_dim=256,
                max_seq_len=128)
    shadow = predictor_flops(dims, "shadow", p1=100)
    full = predictor_flops(dims, "fullseq", p1=100)
    assert full.flops - shadow.flops == 2 * (2 * 64 * 64 + 64 * 128 * 128)
    assert full.reduction_vs_dejavu < shadow.reduction_vs_dejavu


def test_flops_dejavu_is_baseline():
    rep = predictor_flops("opt-66b", "dejavu")
    assert rep.flops == rep.dejavu_flops
    assert rep.reduction_vs_dejavu == 0.0


def test_flops_rejects_unknown_topology():
    with pytest.raises(ValueError):
        predictor_flops("opt-1.3b", "sideways")


def test_preset_dimension_table():
    p = MODEL_PRESETS["opt-175b"]
    assert (p["num_layers"], p["embed_dim"], p["num_heads"], p["ffn_dim"]) \
        == (96, 12288, 96, 49152)
    assert set(MODEL_PRESETS) == {"opt-1.3b", "opt-13b", "opt-30b",
                                  "opt-66b", "opt-175b"}


# ---------------------------------------------------------------------------
# config


def test_config_defaults_match_training_recipe():
    cfg = PredictorConfig()
    assert cfg.hidden_layers == 1
    assert cfg.activation == "relu"
    assert cfg.epochs == 100
    assert cfg.batch == 32
    assert cfg.lr == pytest.approx(1e-3)
    assert cfg.normalization == "minmax"
    # full-size embeddings resolve to the published 2048-wide hidden layer
    assert cfg.resolved_hidden(2048) == 2048
    assert cfg.resolved_hidden(5120) == 2048
    # toy embeddings scale down instead of dwarfing the model
    assert cfg.resolved_hidden(32) == 128


def test_config_validation():
    with pytest.raises(ValueError):
        PredictorConfig(topology="mystery")
    with pytest.raises(ValueError):
        PredictorConfig(normalization="rank")
    with pytest.raises(ValueError):
        PredictorConfig(epochs=0)
    for field, value in (("epochs", 2.5), ("dejavu_stride", 2.0), ("hidden_dim", 0)):
        with pytest.raises(ValueError):   # range() and shapes need ints >= 1
            PredictorConfig(**{field: value})
    round_trip = PredictorConfig(**asdict(PredictorConfig(hidden_dim=64)))
    assert round_trip == PredictorConfig(hidden_dim=64)


# ---------------------------------------------------------------------------
# coverage geometry


def test_covered_units_by_topology():
    cfg = ModelConfig(num_layers=4, embed_dim=32, num_heads=4, head_dim=8,
                      ffn_dim=16, vocab_size=64, max_seq_len=32)
    shadow = covered_units(cfg, "shadow")
    heads = shadow[: 16].reshape(4, 4)
    neurons = shadow[16:].reshape(4, 16)
    assert not heads[0].any() and not neurons[0].any()
    assert heads[1:].all() and neurons[1:].all()
    assert covered_units(cfg, "fullseq").all()
    assert (covered_units(cfg, "dejavu") == shadow).all()


def test_dejavu_host_wiring():
    cfg = ModelConfig(num_layers=4, embed_dim=32, num_heads=4, head_dim=8,
                      ffn_dim=16, vocab_size=64, max_seq_len=32)
    assert dejavu_hosts(cfg, 2) == [0, 2]
    assert dejavu_window(cfg, 0, 2) == [1, 2]
    assert dejavu_window(cfg, 2, 2) == [3]
    assert dejavu_hosts(cfg, 3) == [0, 3]
    assert dejavu_window(cfg, 3, 3) == []


def test_dejavu_nets_partition_covered_units():
    cfg = ModelConfig(num_layers=5, embed_dim=32, num_heads=4, head_dim=8,
                      ffn_dim=16, vocab_size=64, max_seq_len=32)
    full = covered_units(cfg, "dejavu")
    partial = full & (np.random.default_rng(4).random(full.size) < 0.5)
    for stride in (1, 2, 3):
        hosts = dejavu_hosts(cfg, stride)
        for covered in (full, partial):
            union = np.zeros_like(covered)
            for prefix, row, host, cols in _nets(cfg, covered, "dejavu",
                                                 stride):
                assert (prefix, row) == (f"host{host}.", hosts.index(host))
                assert cols.size and not union[cols].any()
                union[cols] = True
            np.testing.assert_array_equal(union, covered)


# ---------------------------------------------------------------------------
# features


def test_shadow_feature_is_layer0_attention_output(trained_model):
    prompt = np.arange(10, dtype=np.int64)
    feat = extract_features(trained_model, prompt, "shadow")
    res = trained_model.forward(prompt, capture=CAPTURE_ACTIVATIONS)
    assert feat.shape == (TINY.embed_dim,)
    np.testing.assert_array_equal(feat, res.attn_outs[0][-1].astype(np.float32))


def test_feature_determinism_and_single_token(trained_model):
    prompt = np.asarray([7, 3, 9], dtype=np.int64)
    a = extract_features(trained_model, prompt, "shadow")
    b = extract_features(trained_model, prompt.copy(), "shadow")
    np.testing.assert_array_equal(a, b)
    single = extract_features(trained_model, np.asarray([5]), "shadow")
    assert single.shape == (TINY.embed_dim,)


def test_shadow_feature_ignores_later_layer_weights(trained_model):
    prompt = np.arange(12, dtype=np.int64)
    before = extract_features(trained_model, prompt, "shadow")
    twin = trained_model.clone()
    twin.params["h1.wo"].data += 0.5
    after = extract_features(twin, prompt, "shadow")
    np.testing.assert_array_equal(before, after)


def test_feature_shapes_other_topologies(trained_model):
    prompt = np.arange(9, dtype=np.int64)
    full = extract_features(trained_model, prompt, "fullseq")
    assert full.shape == (9, TINY.embed_dim)
    dv = extract_features(trained_model, prompt, "dejavu", stride=2)
    assert dv.shape == (1, TINY.embed_dim)


@pytest.mark.parametrize("topology,stride", [
    ("fullseq", 2), ("dejavu", 1), ("dejavu", 2), ("dejavu", 3)])
def test_features_equal_full_capture_forward(topology, stride):
    # extraction stops after the last layer it reads; the values must be
    # those of the whole forward (shadow: the layer-0 test above)
    cfg = ModelConfig(num_layers=4, embed_dim=16, num_heads=2, head_dim=8,
                      ffn_dim=16, vocab_size=256, max_seq_len=32)
    model = TransformerModel(cfg, seed=5)
    prompt = (np.arange(7, dtype=np.int64), np.arange(20, 25, dtype=np.int64))
    res = model.forward(np.concatenate(prompt), capture=CAPTURE_ACTIVATIONS)
    if topology == "fullseq":
        want = res.embed
    else:
        want = np.stack([res.layer_outs[h][-1]
                         for h in dejavu_hosts(cfg, stride)])
    got = extract_features(model, prompt, topology, stride)
    assert got.dtype == np.float32
    np.testing.assert_array_equal(got, want.astype(np.float32))


@pytest.mark.parametrize("topology", ["shadow", "fullseq", "dejavu"])
def test_dataset_features_come_from_one_pass_per_group(monkeypatch, topology):
    # the collect runs from the topology's first covered layer, then one
    # extract_features call per batch_groups group at the capture budget:
    # 20 prompts of 16 tokens fill two groups, then the 5-token prompts (a
    # pair among them) and the 9-token one; every feature has the bits of
    # the prompt's own. The default width shows layout effects.
    cfg = ModelConfig()
    model = TransformerModel(cfg, seed=2)
    rng = np.random.default_rng(24)
    prompts = [rng.integers(0, cfg.vocab_size, size=n) for n in [16] * 20 + [5, 9, 5]]
    prompts.append((prompts[0][:3], prompts[1][:2]))
    shapes, extract = [], predictor_mod.extract_features
    first_layers, collect = [], criteria_mod.collect_criteria

    def spy(model, prompt, *args, **kwargs):
        shapes.append(np.shape(prompt))
        return extract(model, prompt, *args, **kwargs)

    def collect_spy(*args, first_layer=0, **kwargs):
        first_layers.append(first_layer)
        return collect(*args, first_layer=first_layer, **kwargs)

    monkeypatch.setattr(predictor_mod, "extract_features", spy)
    monkeypatch.setattr(criteria_mod, "collect_criteria", collect_spy)
    ds = build_dataset(model, prompts, "l2norm", topology=topology)
    monkeypatch.undo()
    assert shapes == [(16, 16), (4, 16), (3, 5), (1, 9)]
    # the capture starts at the first layer the topology covers
    assert first_layers == [0 if topology == "fullseq" else 1]
    for feature, prompt in zip(ds.features, prompts, strict=True):
        want = extract_features(model, prompt, topology)
        assert feature.dtype == want.dtype and feature.shape == want.shape
        assert feature.tobytes() == want.tobytes()


def test_empty_prompt_rejected(trained_model):
    with pytest.raises(EmptyPromptError):
        extract_features(trained_model, np.asarray([], dtype=np.int64), "shadow")


# ---------------------------------------------------------------------------
# normalization


def _score_vector(cfg, rng):
    from shlm.criteria import ScoreVector
    return ScoreVector(rng.normal(size=(cfg.num_heads + cfg.ffn_dim)
                                  * cfg.num_layers).astype(np.float32),
                       "plainact")


def test_minmax_spans_unit_interval():
    rng = np.random.default_rng(3)
    sv = _score_vector(TINY, rng)
    norm = normalize_scores(TINY, sv, "minmax")
    heads = norm[: TINY.num_layers * TINY.num_heads].reshape(
        TINY.num_layers, TINY.num_heads)
    for layer in range(TINY.num_layers):
        assert heads[layer].min() == pytest.approx(0.0)
        assert heads[layer].max() == pytest.approx(1.0)


def test_minmax_degenerate_layer_maps_to_half():
    from shlm.criteria import ScoreVector
    vals = np.zeros(TINY.num_layers * (TINY.num_heads + TINY.ffn_dim),
                    dtype=np.float32)
    vals[:] = 4.25
    sv = ScoreVector(vals, "l2norm")
    norm = normalize_scores(TINY, sv, "minmax")
    assert (norm == 0.5).all()


_CLOSED_FORMS = {
    "minmax": lambda x: (x - x.min()) / (x.max() - x.min()),
    "zscore": lambda x: (x - x.mean()) / x.std(),
    "none": lambda x: x,
}


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.sampled_from(sorted(_CLOSED_FORMS)))
def test_normalization_closed_form(seed, scheme):
    rng = np.random.default_rng(seed)
    sv = _score_vector(TINY, rng)
    for block in unit_blocks(TINY, sv.covered):   # drop whole (layer, kind)s
        block[rng.random(len(block)) < 0.3] = False
    norm = normalize_scores(TINY, sv, scheme)
    for got, raw, cov in zip(unit_blocks(TINY, norm),
                             unit_blocks(TINY, sv.values.astype(np.float64)),
                             unit_blocks(TINY, sv.covered)):
        for layer in range(TINY.num_layers):
            if not cov[layer].any():
                assert (got[layer] == 0.0).all()
                continue
            np.testing.assert_allclose(got[layer],
                                       _CLOSED_FORMS[scheme](raw[layer]),
                                       atol=1e-12, rtol=1e-12)


def test_normalization_none_is_identity():
    rng = np.random.default_rng(5)
    sv = _score_vector(TINY, rng)
    norm = normalize_scores(TINY, sv, "none")
    np.testing.assert_array_equal(norm, sv.values.astype(np.float64))


# ---------------------------------------------------------------------------
# dataset


@pytest.fixture(scope="module")
def shadow_dataset(trained_model):
    rng = np.random.default_rng(11)
    prompts = [np.asarray(rng.integers(0, TINY.vocab_size, size=16),
                          dtype=np.int64) for _ in range(20)]
    return build_dataset(trained_model, prompts, "plainact",
                         topology="shadow")


def test_dataset_split_is_deterministic(shadow_dataset):
    assert len(shadow_dataset) == 20
    np.testing.assert_array_equal(shadow_dataset.train_idx, np.arange(18))
    np.testing.assert_array_equal(shadow_dataset.heldout_idx, [18, 19])


def test_split_indices_reproduce_the_dataset_split():
    for n in range(41):
        train, heldout = split_indices(n)
        ds = CriteriaDataset(model_config=TINY, topology="shadow",
                             criterion="plainact", normalization="minmax",
                             stride=2, features=[None] * n,
                             targets=np.zeros((n, 1)), covered=np.ones(1, bool))
        np.testing.assert_array_equal(ds.train_idx, train)
        np.testing.assert_array_equal(ds.heldout_idx, heldout)
        # about 90% train, and at least one held out whenever n >= 1
        n_train = min(max(1, (9 * n) // 10), n - 1) if n > 1 else 0
        np.testing.assert_array_equal(train, np.arange(n_train))
        np.testing.assert_array_equal(heldout, np.arange(n_train, n))


def test_dataset_targets_normalized_per_layer(shadow_dataset):
    cov = shadow_dataset.covered
    for row in shadow_dataset.targets:
        vals = row[cov]
        assert vals.min() >= 0.0 and vals.max() <= 1.0


def test_dataset_targets_are_own_normalized_scores(trained_model,
                                                   shadow_dataset):
    rng = np.random.default_rng(11)
    prompt = np.asarray(rng.integers(0, TINY.vocab_size, size=16),
                        dtype=np.int64)
    raw = collect_criteria(trained_model, [prompt], "plainact")[0]
    raw.covered = shadow_dataset.covered
    want = normalize_scores(TINY, raw, shadow_dataset.normalization)
    np.testing.assert_array_equal(shadow_dataset.targets[0], want)


def test_dataset_rejects_aggregate_only_criteria(trained_model):
    prompts = [np.arange(8, dtype=np.int64)] * 4
    with pytest.raises(ContextualUnsupportedError):
        build_dataset(trained_model, prompts, "jacov")


def test_dataset_rejects_empty_prompts(trained_model):
    with pytest.raises(EmptyPromptError):
        build_dataset(trained_model, [np.asarray([], dtype=np.int64)],
                      "l2norm")


# ---------------------------------------------------------------------------
# training


def test_train_requires_two_batches(shadow_dataset):
    cfg = PredictorConfig(epochs=1, batch=64)
    with pytest.raises(DatasetTooSmallError):
        train_predictor(shadow_dataset, cfg)


@pytest.mark.parametrize("topology", ["shadow", "dejavu"])
def test_train_rejects_topology_covering_no_unit(topology):
    # both wirings leave layer 0 dense, so a 1-layer model has nothing to score
    cfg = ModelConfig(num_layers=1, embed_dim=8, num_heads=2, head_dim=4,
                      ffn_dim=8, vocab_size=256, max_seq_len=16)
    model = TransformerModel(cfg, seed=0)
    rng = np.random.default_rng(0)
    prompts = [rng.integers(0, 256, size=8) for _ in range(6)]
    dataset = build_dataset(model, prompts, "plainact", topology=topology)
    assert not dataset.covered.any()
    with pytest.raises(NoCoveredUnitsError, match=topology):
        train_predictor(dataset, PredictorConfig(topology=topology, epochs=1,
                                                 batch=2))


def test_train_topology_must_match(shadow_dataset):
    with pytest.raises(ValueError):
        train_predictor(shadow_dataset, PredictorConfig(topology="fullseq"))


def test_same_seed_same_weights(shadow_dataset):
    cfg = PredictorConfig(epochs=3, batch=8)
    a, _ = train_predictor(shadow_dataset, cfg, seed=4)
    b, _ = train_predictor(shadow_dataset, cfg, seed=4)
    assert set(a.params) == set(b.params)
    for name in a.params:
        np.testing.assert_array_equal(a.params[name], b.params[name])
    c, _ = train_predictor(shadow_dataset, cfg, seed=5)
    assert any((a.params[n] != c.params[n]).any() for n in a.params)


def test_constant_targets_drive_mse_to_zero(shadow_dataset):
    flat = CriteriaDataset(
        model_config=shadow_dataset.model_config,
        topology=shadow_dataset.topology,
        criterion=shadow_dataset.criterion,
        normalization=shadow_dataset.normalization,
        stride=shadow_dataset.stride,
        features=shadow_dataset.features,
        targets=np.full_like(shadow_dataset.targets, 0.5),
        covered=shadow_dataset.covered)
    # AdamW's normalized steps move params by about lr per step, so the
    # 0.5 offset needs the faster rate to be reachable in 400 epochs
    cfg = PredictorConfig(epochs=400, batch=8, lr=1e-2, weight_decay=0.0)
    _, log = train_predictor(flat, cfg, seed=0)
    assert log.heldout_mse[-1] < 1e-3
    assert log.heldout_mse[-1] < log.heldout_mse[0]


def test_learnable_signal_beats_constant_baseline(shadow_dataset):
    cfg = PredictorConfig(epochs=60, batch=8)
    pred, log = train_predictor(shadow_dataset, cfg, seed=0)
    cov = shadow_dataset.covered
    held = shadow_dataset.targets[shadow_dataset.heldout_idx][:, cov]
    target_var = float(held.var())
    assert log.heldout_mse[-1] < target_var
    rep = predictor_fidelity(pred, shadow_dataset)
    assert rep.mse == pytest.approx(log.heldout_mse[-1], rel=1e-5)


# ---------------------------------------------------------------------------
# prediction and fidelity


def test_predict_rejects_bad_feature_shape(shadow_dataset):
    pred, _ = train_predictor(shadow_dataset,
                              PredictorConfig(epochs=1, batch=8), seed=0)
    with pytest.raises(FeatureShapeMismatchError):
        predict_scores(pred, np.zeros(TINY.embed_dim + 1, dtype=np.float32))


def test_fidelity_oracle_is_perfect(shadow_dataset):
    exact = predictor_fidelity(lambda f, i: shadow_dataset.targets[i],
                               shadow_dataset)
    assert exact.spearman_global == pytest.approx(1.0)
    assert exact.degenerate_count == 0
    negated = predictor_fidelity(lambda f, i: -shadow_dataset.targets[i],
                                 shadow_dataset)
    assert negated.spearman_global == pytest.approx(-1.0)


def test_fidelity_constant_predictor_counts_degenerates(shadow_dataset):
    constant = predictor_fidelity(
        lambda f, i: np.zeros_like(shadow_dataset.targets[i]), shadow_dataset)
    assert constant.spearman_global == 0.0
    assert constant.degenerate_count >= len(shadow_dataset.heldout_idx)


def test_fidelity_empty_split_rejected(trained_model):
    prompts = [np.arange(6, dtype=np.int64)]
    ds = build_dataset(trained_model, prompts, "l2norm", topology="shadow")
    with pytest.raises(EmptyHeldoutError):
        predictor_fidelity(lambda f, i: ds.targets[i], ds, split="train")


def test_dejavu_roundtrip_and_host_windows(trained_model):
    rng = np.random.default_rng(21)
    prompts = [np.asarray(rng.integers(0, TINY.vocab_size, size=12),
                          dtype=np.int64) for _ in range(12)]
    ds = build_dataset(trained_model, prompts, "l2norm", topology="dejavu")
    pred, _ = train_predictor(
        ds, PredictorConfig(topology="dejavu", epochs=2, batch=4), seed=0)
    union = predict_scores(pred, ds.features[0])
    np.testing.assert_array_equal(union.covered, ds.covered)
    with pytest.raises(FeatureShapeMismatchError):
        predict_scores(pred, ds.features[0][0])


@pytest.mark.parametrize("topology", ["shadow", "fullseq", "dejavu"])
def test_predict_accepts_exactly_the_extracted_feature_shape(topology):
    cfg = ModelConfig(num_layers=4, embed_dim=32, num_heads=4, head_dim=8,
                      ffn_dim=16, vocab_size=256, max_seq_len=32)
    model = TransformerModel(cfg, seed=2)
    rng = np.random.default_rng(22)
    prompts = [np.asarray(rng.integers(0, cfg.vocab_size, size=10),
                          dtype=np.int64) for _ in range(12)]
    ds = build_dataset(model, prompts, "l2norm", topology=topology)
    pred, _ = train_predictor(
        ds, PredictorConfig(topology=topology, epochs=1, batch=4), seed=0)
    for prompt in (prompts[0], prompts[1][:3], (prompts[2][:2], prompts[3])):
        feature = extract_features(model, prompt, topology)
        np.testing.assert_array_equal(
            predict_scores(pred, feature).covered, ds.covered)
    e, n_hosts = cfg.embed_dim, len(dejavu_hosts(cfg, 2))
    wrong = {"shadow": [(), (1, e), (e - 1,)],
             "fullseq": [(0, e), (10, e + 1), (e,), (1, 10, e)],
             "dejavu": [(e,), (1, e), (n_hosts + 1, e), (n_hosts, e - 1)]}
    for shape in wrong[topology]:
        with pytest.raises(FeatureShapeMismatchError):
            predict_scores(pred, np.zeros(shape, dtype=np.float32))


# ---------------------------------------------------------------------------
# the two execution modes


@pytest.fixture(scope="module")
def default_predictors():
    # the default width: at head_dim 64 a product's bits depend on its
    # operands' memory layout, which 32-wide toys do not show
    cfg = ModelConfig()
    model = TransformerModel(cfg, seed=2)
    rng = np.random.default_rng(23)
    prompts = [np.asarray(rng.integers(0, cfg.vocab_size, size=int(n)),
                          dtype=np.int64) for n in rng.integers(2, 20, size=9)]
    out = {}
    for topology in ("shadow", "fullseq", "dejavu"):
        ds = build_dataset(model, prompts, "l2norm", topology=topology)
        pred, _ = train_predictor(
            ds, PredictorConfig(topology=topology, epochs=1, batch=4), seed=0)
        out[topology] = (pred, ds.features)
    return out


@pytest.mark.parametrize("topology", ["shadow", "fullseq", "dejavu"])
def test_array_mode_predictions_equal_taped(default_predictors, topology):
    pred, features = default_predictors[topology]
    mcfg = pred.model_config
    taped_params = {n: T.Tensor(a, requires_grad=True)
                    for n, a in pred.params.items()}
    for feature in features:
        values = predict_scores(pred, feature).values
        for prefix, row, _, cols in _nets(mcfg, pred.covered, topology,
                                          pred.config.dejavu_stride):
            x = feature if row is None else feature[row]
            taped = _forward_batch(taped_params, pred.config, [x], prefix)
            assert isinstance(taped, T.Tensor) and taped._parents
            np.testing.assert_array_equal(values[cols], taped.data[0])


@pytest.mark.parametrize("topology", ["shadow", "fullseq", "dejavu"])
def test_predict_scores_builds_no_tensor(default_predictors, monkeypatch,
                                         topology):
    pred, features = default_predictors[topology]
    want = predict_scores(pred, features[0]).values

    def build(*args, **kwargs):
        raise AssertionError("predict_scores built a Tensor")

    monkeypatch.setattr(T, "_from_op", build)
    monkeypatch.setattr(T.Tensor, "__init__", build)
    np.testing.assert_array_equal(predict_scores(pred, features[0]).values,
                                  want)


def test_fullseq_encoder_takes_an_odd_width():
    # two heads of E // 2 columns each leave the last column out
    cfg = ModelConfig(num_layers=2, embed_dim=15, num_heads=1, head_dim=15,
                      ffn_dim=8, vocab_size=256, max_seq_len=16)
    model = TransformerModel(cfg, seed=1)
    rng = np.random.default_rng(24)
    prompts = [np.asarray(rng.integers(0, cfg.vocab_size, size=6),
                          dtype=np.int64) for _ in range(9)]
    ds = build_dataset(model, prompts, "l2norm", topology="fullseq")
    pred, log = train_predictor(
        ds, PredictorConfig(topology="fullseq", epochs=1, batch=4), seed=0)
    assert np.isfinite(log.heldout_mse[-1])
    assert np.isfinite(predict_scores(pred, ds.features[0]).values).all()


@pytest.mark.filterwarnings("ignore:invalid value")
@pytest.mark.parametrize("topology,name,op", [
    ("shadow", "w0", "'matmul'"),
    ("fullseq", "enc.wq", "'encoder scores'"),
    ("dejavu", "host0.w1", "'predictor output'")])
def test_nonfinite_weight_names_the_op(default_predictors, topology, name,
                                       op):
    pred, features = default_predictors[topology]
    weight = pred.params[name].copy()
    weight[0, 0] = np.inf
    broken = replace(pred, params={**pred.params, name: weight})
    with pytest.raises(NonFiniteError, match=op):
        predict_scores(broken, features[0])


# ---------------------------------------------------------------------------
# persistence and mask plumbing


def test_save_load_round_trip(tmp_path, shadow_dataset):
    pred, _ = train_predictor(shadow_dataset,
                              PredictorConfig(epochs=2, batch=8), seed=3)
    path = tmp_path / "predictor.bin"
    save_predictor(pred, path)
    back = load_predictor(path)
    assert back.criterion == pred.criterion
    assert back.config == pred.config
    np.testing.assert_array_equal(back.covered, pred.covered)
    feat = shadow_dataset.features[0]
    np.testing.assert_array_equal(predict_scores(back, feat).values,
                                  predict_scores(pred, feat).values)


def test_load_rejects_model_checkpoint(tmp_path, trained_model):
    path = tmp_path / "model.bin"
    save_checkpoint(trained_model, path)
    with pytest.raises(ConfigMismatchError):
        load_predictor(path)


@pytest.fixture(scope="module")
def saved_shadow(tmp_path_factory, shadow_dataset):
    pred, _ = train_predictor(shadow_dataset,
                              PredictorConfig(epochs=2, batch=8), seed=3)
    path = tmp_path_factory.mktemp("pred") / "predictor.bin"
    save_predictor(pred, path)
    return path


@pytest.mark.parametrize("case,tensor", [
    ("missing", "b1"), ("extra", "w2"), ("mis_shaped", "w0"),
    ("hidden_layers_in_config", "b1")])
def test_load_matches_tensors_against_the_config(tmp_path, saved_shadow,
                                                 case, tensor):
    # each broken file used to load and fail later, or score silently
    config, tensors = read_container(saved_shadow)
    if case == "missing":
        del tensors["b1"]
    elif case == "extra":
        tensors["w2"] = tensors["w1"]
    elif case == "mis_shaped":
        tensors["w0"] = tensors["w0"][:, :-1]
    else:   # a 2-hidden-layer config over a 1-hidden-layer net
        config["predictor_config"]["hidden_layers"] = 2
    bad = tmp_path / "bad.bin"
    write_container(bad, config, tensors)
    with pytest.raises(ConfigMismatchError) as exc:
        load_predictor(bad)
    assert str(exc.value).startswith(f"{bad}: tensor {tensor!r}: ")


@pytest.mark.parametrize("case", ["moved", "missing"])
def test_load_rejects_a_covered_mask_not_the_topologys(tmp_path, saved_shadow,
                                                      case):
    # shadow leaves layer 0 dense; head coverage moved from layer 1 to
    # layer 0 keeps every count the weights are checked against, and such
    # a file used to load and mark layer-0 heads covered
    config, tensors = read_container(saved_shadow)
    covered = tensors.pop("covered").copy()
    if case == "moved":
        heads, _ = unit_blocks(TINY, covered)
        heads[[0, 1]] = heads[[1, 0]]
        tensors["covered"] = covered
    bad = tmp_path / "bad.bin"
    write_container(bad, config, tensors)
    with pytest.raises(ConfigMismatchError) as exc:
        load_predictor(bad)
    assert str(exc.value).startswith(f"{bad}: the covered mask ")
    np.testing.assert_array_equal(load_predictor(saved_shadow).covered,
                                  covered_units(TINY, "shadow"))


def test_contextual_mask_source_keeps_layer0_dense(trained_model,
                                                   shadow_dataset):
    pred, _ = train_predictor(shadow_dataset,
                              PredictorConfig(epochs=2, batch=8), seed=0)
    source = contextual_mask_source(pred)
    mask = source(trained_model, np.arange(12, dtype=np.int64),
                  PruneSpec("local", 0.5))
    assert mask.heads[0].all() and mask.neurons[0].all()
    assert mask.heads[1].sum() < TINY.num_heads
