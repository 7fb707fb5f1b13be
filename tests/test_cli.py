import dataclasses
import hashlib
import json
import platform
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from shlm.analytics import perplexity
from shlm.checkpoint import (load_checkpoint, read_container, save_checkpoint,
                             write_container)
from shlm import cli
from shlm.cli import _corpus_prompts, main
from shlm.model import CAPTURE_GRADS, MaskSet, ModelConfig, TransformerModel
from shlm.predictor import (build_dataset, load_predictor, predictor_fidelity,
                            save_predictor)
from shlm.text import ingest_corpus

from .conftest import toy_text

TOY_CONFIG = {
    "model": {"num_layers": 2, "embed_dim": 32, "num_heads": 4, "head_dim": 8,
              "ffn_dim": 32, "vocab_size": 256, "max_seq_len": 64},
    "train": {"steps": 120, "lr": 3e-3, "batch_size": 4, "seq_len": 48},
    "prompts": {"n": 12, "length": 16},
    "predictor": {"topology": "shadow", "epochs": 12, "batch": 4},
    "prune": {"strategy": "both", "sparsities": [0.0, 0.5]},
    "eval": {"max_tokens": 1024},
    "fewshot": {"tasks": ["copy"], "shots": [0, 1], "n": 4},
    "seeds": [0],
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    (root / "corpus.txt").write_text(toy_text(), encoding="utf-8")
    (root / "cfg.json").write_text(json.dumps(TOY_CONFIG), encoding="utf-8")
    return root


@pytest.fixture(scope="module")
def pipeline(workdir):
    """One full run of the artifact-producing commands, shared by tests."""
    cfg = str(workdir / "cfg.json")
    corpus = str(workdir / "corpus.txt")
    assert main(["train-lm", "--config", cfg, "--corpus", corpus,
                 "--out", str(workdir / "lm")]) == 0
    ckpt = str(workdir / "lm" / "model.bin")
    assert main(["collect", "--config", cfg, "--checkpoint", ckpt,
                 "--corpus", corpus, "--out", str(workdir / "collect")]) == 0
    assert main(["train-predictor", "--config", cfg, "--checkpoint", ckpt,
                 "--corpus", corpus, "--out", str(workdir / "pred")]) == 0
    assert main(["eval-predictor", "--config", cfg, "--checkpoint", ckpt,
                 "--predictor", str(workdir / "pred" / "predictor.bin"),
                 "--corpus", corpus, "--out", str(workdir / "fid")]) == 0
    assert main(["sweep", "--config", cfg, "--checkpoint", ckpt,
                 "--corpus", corpus, "--out", str(workdir / "sweep")]) == 0
    assert main(["rank-variance", "--config", cfg, "--checkpoint", ckpt,
                 "--corpus", corpus, "--out", str(workdir / "rv")]) == 0
    assert main(["fewshot", "--config", cfg, "--checkpoint", ckpt,
                 "--corpus", corpus, "--out", str(workdir / "fs")]) == 0
    assert main(["oracle", "--config", cfg, "--checkpoint", ckpt,
                 "--corpus", corpus, "--out", str(workdir / "oracle")]) == 0
    return workdir


# ---------------------------------------------------------------------------
# exit codes and messages


def test_flops_prints_published_reduction(capsys):
    assert main(["flops", "--model-preset", "opt-1.3b"]) == 0
    assert "19.11%" in capsys.readouterr().out


def test_flops_unknown_preset_is_config_error(capsys):
    # argparse itself rejects values outside the preset table
    with pytest.raises(SystemExit) as exc:
        main(["flops", "--model-preset", "opt-9999b"])
    assert exc.value.code == 2


def test_missing_out_is_config_error(capsys):
    assert main(["collect", "--criterion", "l2norm"]) == 2
    assert "out" in capsys.readouterr().err


def test_aggregate_only_criterion_with_contextual_flag(capsys, workdir):
    rc = main(["collect", "--criterion", "jacov", "--contextual",
               "--out", str(workdir / "never")])
    assert rc == 2
    assert "jacov is aggregate-only" in capsys.readouterr().err


def test_unknown_flag_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["flops", "--model-preset", "opt-1.3b", "--frobnicate"])
    assert exc.value.code == 2


def test_unknown_config_key_named(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"sparkle": 1}), encoding="utf-8")
    assert main(["flops", "--model-preset", "opt-1.3b",
                 "--config", str(bad)]) == 2
    assert "sparkle" in capsys.readouterr().err


def test_several_seeds_rejected(tmp_path, capsys):
    # a run writes one seed's artifacts; a longer list must not be cut short
    cfg = tmp_path / "seeds.json"
    cfg.write_text(json.dumps({"seeds": [0, 1]}), encoding="utf-8")
    assert main(["flops", "--model-preset", "opt-1.3b",
                 "--config", str(cfg)]) == 2
    assert "field 'seeds'" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["x", 1.5, True])
def test_non_integer_seed_rejected(tmp_path, capsys, seed):
    cfg = tmp_path / "seeds.json"
    cfg.write_text(json.dumps({"seeds": [seed]}), encoding="utf-8")
    assert main(["flops", "--model-preset", "opt-1.3b",
                 "--config", str(cfg)]) == 2
    assert "field 'seeds'" in capsys.readouterr().err


def test_invalid_json_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["flops", "--config", str(bad)]) == 2
    assert "config" in capsys.readouterr().err


def test_missing_corpus_named(tmp_path, capsys):
    assert main(["train-lm", "--corpus", str(tmp_path / "nope.txt"),
                 "--out", str(tmp_path / "o")]) == 2
    assert "corpus" in capsys.readouterr().err


def test_corrupt_checkpoint_is_runtime_error(tmp_path, workdir, capsys):
    bogus = tmp_path / "model.bin"
    bogus.write_bytes(b"SHLM\x01")
    rc = main(["collect", "--config", str(workdir / "cfg.json"),
               "--checkpoint", str(bogus),
               "--corpus", str(workdir / "corpus.txt"),
               "--out", str(tmp_path / "o")])
    assert rc == 1


def _write_malformed(case: str, pipeline: Path, bad: Path) -> None:
    """A container that loads into a traceback unless the loader checks
    what ``case`` breaks."""
    model_bin = pipeline / "lm" / "model.bin"
    config, tensors = read_container(model_bin)
    if case == "config_block_is_a_list":
        write_container(bad, [config], tensors)
    elif case == "tensor_name_not_utf8":
        blob = bytearray(model_bin.read_bytes())
        blob[12 + struct.unpack_from("<I", blob, 8)[0] + 4] = 0xFF
        bad.write_bytes(bytes(blob))
    elif case == "model_config_missing":
        write_container(bad, {"kind": "model"}, tensors)
    elif case in ("zero_layers", "fractional_layers"):
        layers = 0 if case == "zero_layers" else 2.0
        write_container(bad, {"kind": "model",
                              "config": {**config["config"], "num_layers": layers}},
                        tensors)
    else:
        pconfig, ptensors = read_container(pipeline / "pred" / "predictor.bin")
        if case == "predictor_config_missing":
            del pconfig["predictor_config"]
        elif case == "predictor_hidden_layers":   # more than the net holds
            pconfig["predictor_config"]["hidden_layers"] += 1
        elif case == "predictor_criterion_bogus":
            pconfig["criterion"] = "bogus"
        elif case == "predictor_criterion_aggregate_only":
            pconfig["criterion"] = "jacov"
        else:   # a prompt draw that is no object
            pconfig["draw"] = [1, 2]
        write_container(bad, pconfig, ptensors)


@pytest.mark.parametrize("case", [
    "config_block_is_a_list", "tensor_name_not_utf8", "model_config_missing",
    "zero_layers", "fractional_layers", "predictor_config_missing",
    "predictor_hidden_layers", "predictor_criterion_bogus",
    "predictor_criterion_aggregate_only", "predictor_draw_list"])
def test_malformed_container_is_an_error_message(pipeline, tmp_path, capsys,
                                                 case):
    bad = tmp_path / "bad.bin"
    _write_malformed(case, pipeline, bad)
    inputs = ["--config", str(pipeline / "cfg.json"),
              "--corpus", str(pipeline / "corpus.txt"),
              "--out", str(tmp_path / "o")]
    if case.startswith("predictor_"):
        runs = [[command, "--checkpoint", str(pipeline / "lm" / "model.bin"),
                 "--predictor", str(bad)] for command in ("sweep", "eval-predictor")]
    else:
        runs = [["collect", "--checkpoint", str(bad)]]
    for argv in runs:
        assert main(argv + inputs) == 1, argv[0]
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ")
        assert "Traceback" not in err


def test_bad_sparsity_is_config_error(tmp_path, pipeline, capsys):
    rc = main(["sweep", "--config", str(pipeline / "cfg.json"),
               "--checkpoint", str(pipeline / "lm" / "model.bin"),
               "--corpus", str(pipeline / "corpus.txt"),
               "--sparsity", "1.5", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "prune" in capsys.readouterr().err


def _run_bad(pipeline, tmp_path, command, patch, flags):
    """Run ``command`` on real inputs with TOY_CONFIG plus ``patch``
    (merged one section deep) and the given flags."""
    cfg = {**TOY_CONFIG}
    for key, value in patch.items():
        cfg[key] = {**cfg.get(key, {}), **value} if isinstance(value, dict) else value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    corpus = ["--corpus", str(pipeline / "corpus.txt")]
    inputs = {"train-lm": corpus, "flops": ["--model-preset", "opt-1.3b"]}.get(
        command, ["--checkpoint", str(pipeline / "lm" / "model.bin"), *corpus])
    return main([command, "--config", str(path), *inputs, *flags,
                 "--out", str(tmp_path / "o")])


@pytest.mark.parametrize("command,patch,field", [
    ("collect", {"loss_on": "bogus"}, "loss_on"),
    ("oracle", {"oracle": {"scope": "bogus"}}, "oracle.scope"),
    ("train-lm", {"tokenizer": "bogus"}, "tokenizer"),
    # checked in a section the command does not read, too
    ("flops", {"oracle": {"scope": "bogus"}}, "oracle.scope"),
    # a flag takes one value or more; a config-file list must hold as many
    ("fewshot", {"fewshot": {"tasks": []}}, "fewshot.tasks"),
    ("sweep", {"prune": {"sparsities": []}}, "prune.sparsities"),
])
def test_config_enum_value_gets_flag_check(pipeline, tmp_path, capsys,
                                           command, patch, field):
    assert _run_bad(pipeline, tmp_path, command, patch, []) == 2
    assert f"config error: field '{field}': " in capsys.readouterr().err


@pytest.mark.parametrize("command,patch,flags,field", [
    ("sweep", {}, ["--window", "1"], "eval.window"),
    ("oracle", {}, ["--window", "1"], "eval.window"),
    ("oracle", {"eval": {"window": "abc"}}, [], "eval.window"),
    ("sweep", {}, ["--max-tokens", "-5"], "eval.max_tokens"),
    ("fewshot", {}, ["--shots", "-1"], "fewshot.shots"),
    ("fewshot", {"fewshot": {"n": 0}}, [], "fewshot.n"),
    ("train-lm", {"train": {"batch_size": 0}}, [], "train.batch_size"),
    ("train-lm", {"train": {"steps": "abc"}}, [], "train.steps"),
    ("train-lm", {"train": {"steps": True}}, [], "train.steps"),
    ("collect", {}, ["--prompt-len", "0"], "prompts.length"),
    ("flops", {}, ["--p1", "0"], "flops.p1"),
    ("collect", {}, ["--n-prompts", "0"], "prompts.n"),
    ("eval-predictor", {}, ["--n-prompts", "-1"], "prompts.n"),
    ("train-lm", {"train": {"steps": -3}}, [], "train.steps"),
    ("train-lm", {"train": {"seq_len": 1}}, [], "train.seq_len"),
    # a capture predicts from the second token on
    ("collect", {}, ["--prompt-len", "1"], "prompts.length"),
    ("train-lm", {"train": {"lr": -1.0}}, [], "train.lr"),
    ("train-lm", {"train": {"weight_decay": -0.5}}, [], "train.weight_decay"),
    ("oracle", {}, ["--max-units", "0"], "oracle.max_units"),
    # an eval window predicts from its second token on
    ("sweep", {}, ["--max-tokens", "1"], "eval.max_tokens"),
])
def test_numeric_field_gets_type_and_minimum(pipeline, tmp_path, capsys,
                                             command, patch, flags, field):
    assert _run_bad(pipeline, tmp_path, command, patch, flags) == 2
    assert f"config error: field '{field}': " in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sweep", "eval-predictor"])
def test_predictor_of_another_model_is_config_error_before_capture(
        pipeline, tmp_path, capsys, monkeypatch, command):
    # the toy predictor was trained on a 2-layer model; this checkpoint
    # has 3 layers of the same width
    def no_capture(*args, **kwargs):
        raise AssertionError("captured before the model check")

    for name in ("build_dataset", "collect_criteria", "sparsity_sweep"):
        monkeypatch.setattr(cli, name, no_capture)
    ckpt = tmp_path / "model3.bin"
    save_checkpoint(TransformerModel(
        ModelConfig(**{**TOY_CONFIG["model"], "num_layers": 3}), seed=0), ckpt)
    rc = main([command, "--config", str(pipeline / "cfg.json"),
               "--checkpoint", str(ckpt),
               "--predictor", str(pipeline / "pred" / "predictor.bin"),
               "--corpus", str(pipeline / "corpus.txt"),
               "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error: field 'predictor_path': ")
    assert "num_layers 2 (checkpoint 3)" in err
    assert not any((tmp_path / "o").iterdir())


@pytest.mark.parametrize("command,flags,field", [
    ("oracle", ["--window", "65"], "eval.window"),
    ("sweep", ["--window", "65"], "eval.window"),
    ("collect", ["--prompt-len", "65"], "prompts.length"),
])
def test_length_over_max_seq_len_is_config_error_before_capture(
        pipeline, tmp_path, capsys, monkeypatch, command, flags, field):
    # the toy checkpoint holds max_seq_len 64; no capture may run first
    def no_capture(*args, **kwargs):
        raise AssertionError("captured before the length check")

    monkeypatch.setattr(cli, "collect_criteria", no_capture)
    assert _run_bad(pipeline, tmp_path, command, {}, flags) == 2
    err = capsys.readouterr().err
    assert f"config error: field '{field}': 65 exceeds" in err
    assert "max_seq_len 64" in err
    assert not any((tmp_path / "o").iterdir())


@pytest.mark.parametrize("command, flags", [
    ("collect", ["--contextual", "--criterion", "jacov"]),
    ("train-predictor", ["--criterion", "epenas"]),
    ("rank-variance", ["--criterion", "jacov"]),
])
def test_per_prompt_command_rejects_aggregate_only_before_reading(
        tmp_path, capsys, command, flags):
    # neither input exists: the criterion must be refused before either
    # is opened
    rc = main([command, *flags, "--checkpoint", str(tmp_path / "none.bin"),
               "--corpus", str(tmp_path / "none.txt"),
               "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error: ")
    assert f"{flags[-1]} is aggregate-only" in err


def test_absent_contextual_flag_keeps_config_value(tmp_path, capsys):
    cfg = tmp_path / "ctx.json"
    cfg.write_text(json.dumps({"contextual": True}), encoding="utf-8")
    assert main(["collect", "--config", str(cfg), "--criterion", "jacov",
                 "--out", str(tmp_path / "o")]) == 2
    assert "jacov is aggregate-only" in capsys.readouterr().err


def test_model_vocab_below_word_vocab_is_config_error(tmp_path, capsys):
    corpus = tmp_path / "words.txt"
    corpus.write_text(" ".join(f"w{i}" for i in range(400)) + "\n",
                      encoding="utf-8")   # 400 words plus <unk>
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": TOY_CONFIG["model"],
                               "train": {"steps": 1, "seq_len": 8}}),
                   encoding="utf-8")
    assert main(["train-lm", "--config", str(cfg), "--corpus", str(corpus),
                 "--tokenizer", "word", "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error: field 'model.vocab_size': 256 " in err
    assert "401" in err


def test_word_model_encodes_every_corpus_with_its_own_vocabulary(
        tmp_path, monkeypatch):
    train_corpus, other_corpus = tmp_path / "a.txt", tmp_path / "b.txt"
    train_corpus.write_text("the cat sat on the mat .\n", encoding="utf-8")
    other_corpus.write_text("mat the on sat cat .\n", encoding="utf-8")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": TOY_CONFIG["model"], "tokenizer": "word",
                               "train": {"steps": 1, "batch_size": 2},
                               "prompts": {"n": 2, "length": 3}}),
                   encoding="utf-8")
    assert main(["train-lm", "--config", str(cfg), "--corpus", str(train_corpus),
                 "--out", str(tmp_path / "lm")]) == 0
    assert sorted(p.name for p in (tmp_path / "lm").iterdir()) == [
        "manifest.json", "model.bin", "train_log.json"]
    seen = []

    def spy(model, prompts, kind, **kwargs):
        seen.extend(prompts)
        return real(model, prompts, kind, **kwargs)

    real = cli.collect_criteria
    monkeypatch.setattr(cli, "collect_criteria", spy)
    assert main(["collect", "--config", str(cfg), "--corpus", str(other_corpus),
                 "--checkpoint", str(tmp_path / "lm" / "model.bin"),
                 "--out", str(tmp_path / "c")]) == 0
    # trained ids: <unk> 0, the 1, cat 2, sat 3, on 4, mat 5, . 6; the
    # prompts are windows of the train split "mat the on sat cat"
    ids = [5, 1, 4, 3, 2]
    assert seen and all(
        any(p.tolist() == ids[s:s + 3] for s in range(3)) for p in seen)
    # a byte config would draw its prompts as word ids but record "byte"
    cfg.write_text(json.dumps({"model": TOY_CONFIG["model"]}), encoding="utf-8")
    assert main(["collect", "--config", str(cfg), "--corpus", str(other_corpus),
                 "--checkpoint", str(tmp_path / "lm" / "model.bin"),
                 "--out", str(tmp_path / "c2")]) == 2


def test_byte_model_rejects_a_word_tokenizer(tmp_path, workdir, pipeline,
                                             capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tokenizer": "word"}), encoding="utf-8")
    assert main(["collect", "--config", str(cfg),
                 "--corpus", str(workdir / "corpus.txt"),
                 "--checkpoint", str(workdir / "lm" / "model.bin"),
                 "--out", str(tmp_path / "o")]) == 2
    assert "field 'tokenizer': the checkpoint holds no word" in capsys.readouterr().err


def test_fewshot_rejects_a_word_model_before_loading(tmp_path, monkeypatch,
                                                    capsys):
    # the template prompts are bytes: a word model would score them as
    # word ids, and used to exit 0 with a meaningless perplexity
    corpus = tmp_path / "words.txt"
    corpus.write_text(" ".join(f"w{i % 300}" for i in range(900)) + "\n",
                      encoding="utf-8")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "model": {**TOY_CONFIG["model"], "vocab_size": 301},
        "tokenizer": "word", "train": {"steps": 2, "batch_size": 2, "seq_len": 8},
        "fewshot": TOY_CONFIG["fewshot"]}), encoding="utf-8")
    assert main(["train-lm", "--config", str(cfg), "--corpus", str(corpus),
                 "--out", str(tmp_path / "lm")]) == 0
    loads = []
    monkeypatch.setattr(cli, "_model_io", lambda *args: loads.append(args))
    out = tmp_path / "fs"
    assert main(["fewshot", "--config", str(cfg), "--corpus", str(corpus),
                 "--checkpoint", str(tmp_path / "lm" / "model.bin"),
                 "--out", str(out)]) == 2
    assert "config error: field 'tokenizer': fewshot prompts are byte-encoded" \
        in capsys.readouterr().err
    assert loads == [] and list(out.iterdir()) == []


def test_flops_manifest_records_topology_under_flops(tmp_path):
    out = tmp_path / "d"
    assert main(["flops", "--model-preset", "opt-1.3b", "--topology", "dejavu",
                 "--out", str(out)]) == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert config["flops"]["topology"] == "dejavu"
    assert config["predictor"] == {}


def test_option_table_is_consistent(capsys):
    from shlm.cli import _COMMANDS, _FREEFORM, _OPTIONS, DEFAULTS
    for opt in _OPTIONS:
        # flags bypass _merge, so a misspelt field would pass silently
        section, *rest = opt.field.split(".")
        if section in _FREEFORM:
            assert len(rest) == 1, opt.field
        else:
            node = DEFAULTS
            for part in opt.field.split("."):
                assert isinstance(node, dict) and part in node, opt.field
                node = node[part]
            assert not isinstance(node, dict), opt.field
        assert set(opt.commands) <= set(_COMMANDS), opt.field
        assert (opt.flag is None) == (not opt.commands), opt.field
    for command in _COMMANDS:
        flags = [o.flag for o in _OPTIONS if command in o.commands]
        assert len(flags) == len(set(flags)), command
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0, command
        assert "--out" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# artifacts


def test_train_lm_artifacts(pipeline):
    lm = pipeline / "lm"
    assert (lm / "model.bin").is_file()
    model = load_checkpoint(lm / "model.bin")
    assert model.cfg.num_layers == 2
    tlog = json.loads((lm / "train_log.json").read_text())
    assert len(tlog["losses"]) == 120
    manifest = json.loads((lm / "manifest.json").read_text())
    assert manifest["command"] == "train-lm"
    assert manifest["seed"] == 0
    corpus = pipeline / "corpus.txt"
    import hashlib
    want = hashlib.sha256(corpus.read_bytes()).hexdigest()
    assert manifest["inputs"][str(corpus)] == want


def test_collect_scores_csv(pipeline):
    lines = (pipeline / "collect" / "scores.csv").read_text().splitlines()
    assert lines[0] == "example_id,layer,kind,index,score"
    # aggregate run: one row per unit (2 layers x (4 heads + 32 neurons))
    assert len(lines) - 1 == 2 * 36
    assert all(row.split(",")[0] == "aggregate" for row in lines[1:])


def test_predictor_artifacts(pipeline):
    plog = json.loads((pipeline / "pred" / "predictor_log.json").read_text())
    assert len(plog["train_mse"]) == 12
    fid = json.loads((pipeline / "fid" / "fidelity.json").read_text())
    assert "spearman_global" in fid and "mse" in fid
    rows = (pipeline / "fid" / "fidelity.csv").read_text().splitlines()
    assert rows[0] == "topology,criterion,spearman_global,spearman_local,mse,seed"
    assert rows[1].startswith("shadow,plainact,")
    corpus = (pipeline / "corpus.txt").read_bytes()
    assert load_predictor(pipeline / "pred" / "predictor.bin").draw == {
        "corpus": hashlib.sha256(corpus).hexdigest(), "tokenizer": "byte",
        "seed": 0, "prompts.n": 12, "prompts.length": 16}


def test_predictor_covering_no_unit_is_runtime_error(tmp_path, workdir, capsys):
    # shadow leaves layer 0 dense, so a 1-layer model gives it nothing to score
    one_layer = {**TOY_CONFIG, "model": {**TOY_CONFIG["model"], "num_layers": 1},
                 "train": {**TOY_CONFIG["train"], "steps": 1},
                 "prompts": {"n": 6, "length": 8}}
    cfg = tmp_path / "one_layer.json"
    cfg.write_text(json.dumps(one_layer), encoding="utf-8")
    corpus = str(workdir / "corpus.txt")
    assert main(["train-lm", "--config", str(cfg), "--corpus", corpus,
                 "--out", str(tmp_path / "lm")]) == 0
    rc = main(["train-predictor", "--config", str(cfg), "--corpus", corpus,
               "--checkpoint", str(tmp_path / "lm" / "model.bin"),
               "--out", str(tmp_path / "pred")])
    assert rc == 1
    assert "no unit to score" in capsys.readouterr().err


@pytest.mark.parametrize("topology", ["shadow", "dejavu"])
def test_eval_predictor_captures_only_heldout_prompts(pipeline, tmp_path,
                                                      monkeypatch, topology):
    cfg = str(pipeline / "cfg.json")
    corpus = str(pipeline / "corpus.txt")
    ckpt = str(pipeline / "lm" / "model.bin")
    pred = pipeline / "pred" / "predictor.bin"
    if topology != "shadow":
        pred = tmp_path / "pred" / "predictor.bin"
        assert main(["train-predictor", "--config", cfg, "--checkpoint", ckpt,
                     "--corpus", corpus, "--topology", topology,
                     "--out", str(pred.parent)]) == 0
    captures, forward = [], TransformerModel.forward

    def counting(self, tokens, *args, **kwargs):
        if kwargs.get("capture") == CAPTURE_GRADS:   # a prompt or a batch
            captures.extend(np.atleast_2d(tokens))
        return forward(self, tokens, *args, **kwargs)

    monkeypatch.setattr(TransformerModel, "forward", counting)
    assert main(["eval-predictor", "--config", cfg, "--checkpoint", ckpt,
                 "--predictor", str(pred), "--corpus", corpus,
                 "--out", str(tmp_path / "fid")]) == 0
    assert len(captures) == 2   # 12 prompts, 2 held out
    monkeypatch.undo()

    # reference: the dataset of all 12 prompts, scored on its held-out split
    predictor = load_predictor(pred)
    stream = ingest_corpus(pipeline / "corpus.txt")
    prompts = _corpus_prompts(stream, {**TOY_CONFIG, "loss_on": "all"}, 0)
    assert len(prompts) == 12
    ds = build_dataset(load_checkpoint(ckpt), prompts, predictor.criterion,
                       topology=predictor.topology,
                       normalization=predictor.config.normalization,
                       stride=predictor.config.dejavu_stride)
    ref = predictor_fidelity(predictor, ds)
    fid = json.loads((tmp_path / "fid" / "fidelity.json").read_text())
    assert fid == {
        "spearman_global": ref.spearman_global,
        "spearman_local": ref.spearman_local,
        "spearman_per_layer": {str(k): v for k, v in ref.spearman_per_layer.items()},
        "mse": ref.mse, "degenerate_count": ref.degenerate_count,
        "n_examples": ref.n_examples}


@pytest.mark.parametrize("field", ["prompts.n", "seed", "corpus",
                                   "predictor_path"])
def test_eval_predictor_rejects_another_prompt_draw(pipeline, tmp_path, capsys,
                                                    field):
    # the predictor was trained on 12 prompts drawn with seed 0
    pred, corpus, flags = (pipeline / "pred" / "predictor.bin",
                           pipeline / "corpus.txt", [])
    if field == "prompts.n":
        flags = ["--n-prompts", "8"]
    elif field == "seed":
        flags = ["--seed", "1"]
    elif field == "corpus":
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(toy_text() + "one more line\n", encoding="utf-8")
    else:
        unrecorded = dataclasses.replace(load_predictor(pred), draw=None)
        pred = tmp_path / "predictor.bin"
        save_predictor(unrecorded, pred)
    out = tmp_path / "fid"
    assert main(["eval-predictor", "--config", str(pipeline / "cfg.json"),
                 "--checkpoint", str(pipeline / "lm" / "model.bin"),
                 "--predictor", str(pred), "--corpus", str(corpus),
                 "--out", str(out), *flags]) == 2
    err = capsys.readouterr().err
    assert f"config error: field '{field}': " in err
    if field == "predictor_path":
        assert "retrain it with train-predictor" in err
    assert not (out / "fidelity.json").exists()


def test_loss_on_target_warns_for_corpus_windows(pipeline, tmp_path, capsys):
    """Plain corpus windows have no target, so ``target`` scores them
    like ``all``, and says so; fewshot prompts have one and stay quiet."""
    def run(command, loss_on, flags=()):
        path = tmp_path / f"{command}_{loss_on}.json"
        path.write_text(json.dumps({**TOY_CONFIG, "loss_on": loss_on}),
                        encoding="utf-8")
        out = tmp_path / f"{command}_{loss_on}"
        assert main([command, "--config", str(path),
                     "--checkpoint", str(pipeline / "lm" / "model.bin"),
                     "--corpus", str(pipeline / "corpus.txt"), *flags,
                     "--out", str(out)]) == 0
        return out, capsys.readouterr().err

    flags = ["--criterion", "grasp", "--contextual", "--n-prompts", "3"]
    target, err = run("collect", "target", flags)
    assert err.count("field 'loss_on'") == 1
    assert "second token" in err
    plain, err = run("collect", "all", flags)
    assert "loss_on" not in err
    assert (target / "scores.csv").read_bytes() == \
        (plain / "scores.csv").read_bytes()
    _, err = run("fewshot", "target")
    assert "loss_on" not in err


def test_sweep_zero_sparsity_matches_dense_eval(pipeline):
    rows = (pipeline / "sweep" / "sweep.csv").read_text().splitlines()
    assert rows[0] == "strategy,sparsity,criterion,topology,perplexity,seed"
    by_key = {}
    for row in rows[1:]:
        strategy, sparsity, _, _, ppl, _ = row.split(",")
        by_key[(strategy, float(sparsity))] = float(ppl)
    model = load_checkpoint(pipeline / "lm" / "model.bin")
    stream = ingest_corpus(pipeline / "corpus.txt")
    dense = perplexity(model, None, stream.val[:1024])
    assert by_key[("local", 0.0)] == pytest.approx(dense, rel=1e-12)
    assert by_key[("global", 0.0)] == pytest.approx(dense, rel=1e-12)
    assert by_key[("local", 0.5)] >= dense


def test_rank_variance_rows(pipeline):
    rows = (pipeline / "rv" / "rank_variance.csv").read_text().splitlines()
    assert rows[0] == "layer,head,mean_rank,rank_variance"
    assert len(rows) - 1 == 8
    layers = json.loads((pipeline / "rv" / "rank_variance_layers.json").read_text())
    assert len(layers["per_layer"]) == 2


def test_fewshot_rows(pipeline):
    rows = (pipeline / "fs" / "fewshot.csv").read_text().splitlines()
    assert rows[0] == "shots,strategy,sparsity,criterion,perplexity,seed"
    # 2 shot counts x (2 strategies x 2 sparsities)
    assert len(rows) - 1 == 2 * 4


def test_oracle_rows(pipeline):
    rows = (pipeline / "oracle" / "oracle.csv").read_text().splitlines()
    assert rows[0] == "layer,kind,index,delta_loss"
    assert len(rows) - 1 == 2 * 36


# ---------------------------------------------------------------------------
# determinism


def test_repeat_runs_are_byte_identical(pipeline, tmp_path):
    cfg = str(pipeline / "cfg.json")
    corpus = str(pipeline / "corpus.txt")
    ckpt = str(pipeline / "lm" / "model.bin")
    for name, argv in [
        ("collect", ["collect", "--config", cfg, "--checkpoint", ckpt,
                     "--corpus", corpus]),
        ("sweep", ["sweep", "--config", cfg, "--checkpoint", ckpt,
                   "--corpus", corpus]),
    ]:
        out_a, out_b = tmp_path / f"{name}_a", tmp_path / f"{name}_b"
        assert main(argv + ["--out", str(out_a)]) == 0
        assert main(argv + ["--out", str(out_b)]) == 0
        files_a = sorted(p.name for p in out_a.iterdir())
        files_b = sorted(p.name for p in out_b.iterdir())
        assert files_a == files_b
        for fname in files_a:
            assert (out_a / fname).read_bytes() == (out_b / fname).read_bytes()


def test_batched_captures_do_not_depend_on_workers(pipeline, tmp_path):
    # 40 windows of 16 tokens are two capture chunks; fewshot's prompts
    # come in several lengths, so several chunks. oracle stripes units,
    # sweep and fewshot stripe masks, over one model shared by the threads
    target = tmp_path / "target.json"
    target.write_text(json.dumps({**TOY_CONFIG, "loss_on": "target"}),
                      encoding="utf-8")
    cfg = str(pipeline / "cfg.json")
    corpus = str(pipeline / "corpus.txt")
    ckpt = str(pipeline / "lm" / "model.bin")
    dejavu = tmp_path / "pred_dejavu"
    assert main(["train-predictor", "--config", cfg, "--checkpoint", ckpt,
                 "--corpus", corpus, "--topology", "dejavu",
                 "--out", str(dejavu)]) == 0
    for name, argv in [
        ("collect", ["collect", "--contextual", "--criterion", "plainact",
                     "--n-prompts", "40", "--config", cfg]),
        ("fewshot", ["fewshot", "--config", cfg]),
        ("fewshot_target", ["fewshot", "--config", str(target)]),
        ("oracle", ["oracle", "--config", cfg, "--window", "32"]),
        ("sweep", ["sweep", "--config", cfg, "--window", "32"]),
        ("rank_variance", ["rank-variance", "--config", cfg]),
    ] + [
        (f"sweep_{topology}", ["sweep", "--config", cfg, "--window", "16",
                               "--max-tokens", "256", "--predictor", str(path)])
        for topology, path in (("shadow", pipeline / "pred" / "predictor.bin"),
                               ("dejavu", dejavu / "predictor.bin"))
    ]:
        outs = [tmp_path / f"{name}_{w}" for w in (1, 3)]
        for out, workers in zip(outs, (1, 3)):
            assert main(argv + ["--checkpoint", ckpt,
                                "--corpus", corpus, "--workers", str(workers),
                                "--out", str(out)]) == 0
        files = sorted(p.name for p in outs[0].iterdir() if p.name != "manifest.json")
        assert files == sorted(p.name for p in outs[1].iterdir()
                               if p.name != "manifest.json")
        for fname in files:
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def test_nonfinite_gradient_in_train_lm_exits_1_without_a_model(
        workdir, tmp_path, monkeypatch, capsys):
    from shlm import tensor as T

    models, init, real = [], TransformerModel.__init__, T.backward

    def keep(self, *args, **kwargs):   # the model train-lm builds
        init(self, *args, **kwargs)
        models.append(self)

    def backward(loss, wrt=None):
        real(loss, wrt=wrt)
        models[0].params["h1.w_up"].grad.reshape(-1)[0] = np.inf

    monkeypatch.setattr(TransformerModel, "__init__", keep)
    monkeypatch.setattr(T, "backward", backward)
    out = tmp_path / "lm"
    assert main(["train-lm", "--config", str(workdir / "cfg.json"),
                 "--corpus", str(workdir / "corpus.txt"), "--out", str(out)]) == 1
    assert "non-finite gradient of 'h1.w_up' at step 1" in capsys.readouterr().err
    assert not (out / "model.bin").exists()


def test_retrained_model_is_byte_identical(pipeline, tmp_path):
    cfg = str(pipeline / "cfg.json")
    corpus = str(pipeline / "corpus.txt")
    out = tmp_path / "lm_again"
    assert main(["train-lm", "--config", cfg, "--corpus", corpus,
                 "--out", str(out)]) == 0
    assert (out / "model.bin").read_bytes() == \
        (pipeline / "lm" / "model.bin").read_bytes()


# ---------------------------------------------------------------------------
# misc plumbing


def test_console_entry_point(workdir):
    proc = subprocess.run(
        [sys.executable, "-m", "shlm.cli", "flops",
         "--model-preset", "opt-30b"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "19.55%" in proc.stdout


_CHURN = """
import resource, sys
import numpy as np
from shlm.cli import main

def churn():  # twelve 3 MB blocks, under numpy's 4 MB huge-page cut-off
    blocks = [np.ones(3 << 20, np.uint8) for _ in range(12)]
    del blocks

if sys.argv[1] == "cli":
    main(["flops", "--model-preset", "opt-1.3b"])
churn()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    churn()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc")
def test_cli_keeps_freed_blocks_in_its_heap():
    """Once main() has run, 36 MB freed and allocated again come back from
    the heap; under glibc's dynamic thresholds (a process that never ran
    main) the heap top is trimmed and faulted in again on every round."""
    faults = {}
    for mode in ("bare", "cli"):
        proc = subprocess.run([sys.executable, "-c", _CHURN, mode],
                              capture_output=True, text=True, check=True)
        faults[mode] = int(proc.stdout.split()[-1])
    assert faults["cli"] < 500 < faults["bare"], faults


def test_log_level_env(workdir, capfd, monkeypatch):
    monkeypatch.setenv("SHLM_LOG", "INFO")
    cfg = str(workdir / "cfg.json")
    out = workdir / "log_probe"
    assert main(["train-lm", "--config", cfg,
                 "--corpus", str(workdir / "corpus.txt"),
                 "--steps", "1", "--out", str(out)]) == 0
    assert "trained" in capfd.readouterr().err


def test_seed_flag_overrides_config(pipeline, tmp_path):
    cfg = str(pipeline / "cfg.json")
    corpus = str(pipeline / "corpus.txt")
    out = tmp_path / "lm_seed9"
    assert main(["train-lm", "--config", cfg, "--corpus", corpus,
                 "--seed", "9", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 9
    assert (out / "model.bin").read_bytes() != \
        (pipeline / "lm" / "model.bin").read_bytes()


# ---------------------------------------------------------------------------
# the benchmark's use of shlm

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def test_benchmark_checks_and_tracer_run_on_toy_pipeline(pipeline, tmp_path,
                                                         monkeypatch):
    """benchmarks/checks.py and tracer.py pass on the toy pipeline, so a
    change that breaks what they use of shlm fails here first. The spans
    and masks checked are those benchmarks/layers.py indexes: a traced
    train-predictor's dataset and feature spans, and the contextual
    sweep's predictor calls and masks at 0.5 for both strategies."""
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import checks
    import tracer

    from shlm import cli

    model = load_checkpoint(pipeline / "lm" / "model.bin")
    val = ingest_corpus(pipeline / "corpus.txt").val
    out = tmp_path / "sweep_contextual"
    common = ["--config", str(pipeline / "cfg.json"),
              "--checkpoint", str(pipeline / "lm" / "model.bin"),
              "--corpus", str(pipeline / "corpus.txt")]
    tr = tracer.Tracer()
    with tr.patched():
        # looked up on the module, so the traced main runs
        assert cli.main(["train-predictor", *common,
                         "--out", str(tmp_path / "pred")]) == 0
    names = {s.name for s in tr.spans}
    assert {"predictor.build_dataset", "predictor.extract_features"} <= names
    tr = tracer.Tracer()
    masks = []
    tr.on_mask = lambda spec, mask: masks.append((spec.strategy, spec.sparsity, mask))
    with tr.patched():
        assert cli.main([
            "sweep", *common,
            "--predictor", str(pipeline / "pred" / "predictor.bin"),
            "--sparsity", "0.0", "0.5", "--window", "16",
            "--max-tokens", "64", "--out", str(out)]) == 0
    names = [s.name for s in tr.spans]
    assert {"cli.main", "checkpoint.load_checkpoint", "text.ingest_corpus",
            "predictor.extract_features", "pruning.build_mask"} <= set(names)
    assert names.count("predictor.predict_scores") >= 1
    at_half = {strategy for strategy, sparsity, mask in masks
               if sparsity == 0.5 and isinstance(mask, MaskSet)}
    assert at_half == {"local", "global"}
    results = [
        *checks.check_reference_forward(model, [val[:64], val[:16]]),
        *checks.check_static_dense(pipeline / "sweep" / "sweep.csv", model,
                                   val[:1024]),
        *checks.check_contextual_dense(out / "sweep.csv", model, val[:64],
                                       16),
        *checks.check_oracle(pipeline / "oracle" / "oracle.csv", model,
                             val[:1024], seed=0),
    ]
    assert len(results) == 4 + 2 + 2 + checks.ORACLE_SAMPLES
    assert [r for r in results if not r[1]] == []
