import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from shlm.analytics import perplexity
from shlm.checkpoint import load_checkpoint
from shlm.cli import main
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


def test_bad_sparsity_is_config_error(tmp_path, pipeline, capsys):
    rc = main(["sweep", "--config", str(pipeline / "cfg.json"),
               "--checkpoint", str(pipeline / "lm" / "model.bin"),
               "--corpus", str(pipeline / "corpus.txt"),
               "--sparsity", "1.5", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "prune" in capsys.readouterr().err


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
