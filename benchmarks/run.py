"""shlm benchmark: runs the real CLI stages in-process on seeded inputs.

    python3 benchmarks/run.py --workload ablate --seed 1 --seconds 35 --trace 0

Run it from the root of a checkout. It generates a corpus from the seed,
builds a base checkpoint (the timed set-up, repeated), then repeats the
workload's iteration of CLI stages (see stages.py) until ``--seconds``
have passed, checks the outputs, and prints a report followed by one
JSON line. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
traces every other iteration and reports per-layer spans and the
tracing overhead instead. Results and spans are written under
``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread: the byte-deterministic single-worker path. numpy is
# first imported in main(), after this.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
CHECK_PROMPT_LEN = 16     # the short window of the reference-forward check

METRIC_UNITS = {
    "setup_s": "s",
    "workload_s": "s",
    "peak_rss_mb": "MB",
    "checks_passed_ratio": "ratio",
    "oracle.units_per_s": "units/s",
    "sweep_static.tokens_per_s": "tok/s",
    "train_lm.tokens_per_s": "tok/s",
    "collect.prompts_per_s": "prompts/s",
    "collect_grasp.prompts_per_s": "prompts/s",
    "collect_jacov.units_per_s": "units/s",
    "fewshot.prompts_per_s": "prompts/s",
    "train_predictor.prompts_per_s": "prompts/s",
    "eval_predictor.prompts_per_s": "prompts/s",
    "sweep_contextual.tokens_per_s": "tok/s",
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _digest_dir(path: Path) -> dict[str, str]:
    return {p.name: _sha256(p) for p in sorted(path.iterdir()) if p.is_file()}


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None  # a checkout without git metadata
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted((SRC / "shlm").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "seed": seed,
    }


class Run:
    """One benchmark process: set-up, timed iterations, checks, report."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        import corpus
        import stages
        from shlm import cli

        self.corpus_mod, self.stages_mod, self.cli_mod = corpus, stages, cli
        self.workload, self.seed, self.seconds, self.trace = (
            workload, seed, seconds, trace)
        self.dir = WORK / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
        self.checks: list[tuple[str, bool, str]] = []
        self.prompt_seed = corpus.prompt_seed(seed)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    def cli(self, argv, out: Path) -> int:
        """One CLI stage; an uncaught exception counts as a failed exit."""
        try:
            # looked up on each call, so a traced run sees the wrapped main
            return self.cli_mod.main([
                *argv, "--config", str(self.dir / "config.json"),
                "--seed", str(self.prompt_seed), "--workers", "1",
                "--out", str(out)])
        except Exception:
            traceback.print_exc()
            return -1

    # -- set-up -------------------------------------------------------------

    def setup_once(self) -> tuple[float, dict]:
        """Corpus generation, ingest and the base checkpoint, timed."""
        from shlm.text import ingest_corpus

        st = self.stages_mod
        setup = self.dir / "setup"
        if setup.exists():
            shutil.rmtree(setup)
        setup.mkdir(parents=True)
        t0 = time.perf_counter()
        corpus = self.corpus_mod.write_corpus(setup / "corpus.txt", self.seed,
                                              st.CORPUS_BYTES)
        self.stream = ingest_corpus(corpus)
        rc = self.cli(("train-lm", "--corpus", str(corpus),
                       "--steps", str(st.SETUP_STEPS)), setup / "lm")
        elapsed = time.perf_counter() - t0
        self.check("setup_exit_0", rc == 0, f"train-lm returned {rc}")
        digest = {"corpus.txt": _sha256(corpus), **_digest_dir(setup / "lm")}
        return elapsed, digest

    def setup(self) -> float:
        self.dir.mkdir(parents=True, exist_ok=True)
        (self.dir / "config.json").write_text(
            json.dumps(self.stages_mod.CONFIG), encoding="utf-8")
        times, digests = [], []
        for _ in range(self.stages_mod.SETUP_REPEATS):
            gc.collect()
            elapsed, digest = self.setup_once()
            times.append(elapsed)
            digests.append(digest)
        self.check("setup_repeats_byte_identical",
                   all(d == digests[0] for d in digests[1:]),
                   f"{len(digests)} set-ups")
        self.setup_digest = digests[0]
        self.corpus = self.dir / "setup" / "corpus.txt"
        self.ckpt = self.dir / "setup" / "lm" / "model.bin"
        self.plan = self.stages_mod.plan(self.workload, self.corpus, self.ckpt,
                                         self.dir / "stages")
        return statistics.median(times)

    # -- timed iterations ---------------------------------------------------

    def iteration(self, index: int, tracer=None) -> dict[str, float]:
        """Run every stage once; returns stage name -> wall seconds."""
        walls = {}
        for stage in self.plan:
            out = self.dir / "stages" / stage.name
            if out.exists():
                shutil.rmtree(out)
            gc.collect()
            span = contextlib.nullcontext()
            if tracer is not None:
                tracer.run_id = f"it{index}/{stage.name}"
                span = tracer.span(f"stage.{stage.name}")
            with span:
                t0 = time.perf_counter()
                rc = self.cli(stage.argv, out)
                walls[stage.name] = time.perf_counter() - t0
            self.check(f"it{index}_{stage.name}_exit_0", rc == 0,
                       f"returned {rc}")
            if rc == 0:
                digest = _digest_dir(out)
                first = self.digests.setdefault(stage.name, digest)
                if index > 0:
                    self.check(f"it{index}_{stage.name}_byte_identical",
                               digest == first, "vs iteration 0")
        return walls

    def measure(self) -> None:
        """Iterations until --seconds have passed, at least two of each
        kind. With --trace 1 every other iteration is traced, so the
        traced and untraced ones see the same drift in machine speed."""
        from tracer import Tracer

        self.digests: dict[str, dict] = {}
        self.untraced: list[dict] = []
        self.traced: list[dict] = []
        self.tracer = Tracer() if self.trace else None
        if self.trace:
            self.tracer.on_mask = self.record_mask
            self.masks: dict[tuple, list[float]] = {}
        t0 = time.perf_counter()
        while (len(self.untraced) < 2 or (self.trace and len(self.traced) < 2)
               or time.perf_counter() - t0 < self.seconds):
            index = len(self.untraced) + len(self.traced)
            if self.trace and index % 2:
                with self.tracer.patched():
                    self.traced.append(self.iteration(index, self.tracer))
            else:
                self.untraced.append(self.iteration(index))

    def record_mask(self, spec, mask) -> None:
        source = ("contextual" if "contextual" in self.tracer.run_id
                  else "static")
        achieved = {"heads": 1.0 - float(mask.heads.mean()),
                    "neurons": 1.0 - float(mask.neurons.mean())}
        for kind, value in achieved.items():
            key = (source, spec.strategy, kind, spec.sparsity)
            self.masks.setdefault(key, []).append(value)

    # -- results ------------------------------------------------------------

    def end_to_end(self, setup_s: float) -> dict[str, float]:
        """Rates are a group's work over its wall time summed across all
        untraced iterations, and workload_s is the mean iteration.

        On a shared host the machine's speed shifts for seconds at a time.
        The sum over the run averages those shifts, where the median of a
        handful of iterations jumps between the fast and the slow level.
        """
        iters = self.untraced
        out = {
            "setup_s": setup_s,
            "workload_s": statistics.fmean(sum(w.values()) for w in iters),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        for name in METRIC_UNITS:
            members = [s for s in self.plan if s.group == name.split(".")[0]]
            if members:
                work = len(iters) * sum(s.work for s in members)
                out[name] = work / sum(w[s.name] for w in iters
                                       for s in members)
        return out

    def run_checks(self) -> None:
        import checks
        from shlm.checkpoint import load_checkpoint

        st = self.stages_mod
        model = load_checkpoint(self.ckpt)
        val = self.stream.val
        by_name = {s.name: s for s in self.plan}
        stage_out = self.dir / "stages"
        groups = [
            ("reference_forward", checks.check_reference_forward,
             (model, [val[:model.cfg.max_seq_len], val[:CHECK_PROMPT_LEN]])),
            ("static_dense", checks.check_static_dense,
             (stage_out / "sweep_static" / "sweep.csv", model,
              val[:by_name["sweep_static"].eval_tokens])),
            ("oracle", checks.check_oracle,
             (stage_out / "oracle" / "oracle.csv", model,
              val[:by_name["oracle"].eval_tokens], self.seed)),
        ]
        for topo in st.PREDICTORS:
            name = f"sweep_contextual_{topo}"
            groups.append((f"{name}_dense", checks.check_contextual_dense,
                           (stage_out / name / "sweep.csv", model,
                            val[:by_name[name].eval_tokens],
                            st.CONTEXT_WINDOW)))
        for name, fn, fn_args in groups:
            try:
                self.checks += fn(*fn_args)
            except Exception as exc:  # a missing or malformed artifact
                traceback.print_exc()
                self.check(name, False, f"{type(exc).__name__}: {exc}")


def report(run: Run, env: dict, metrics: dict, extra: dict) -> None:
    print(f"shlm benchmark  workload={run.workload} seed={run.seed} "
          f"trace={int(run.trace)}")
    print("environment  " + "  ".join(f"{k}={v}" for k, v in env.items()))
    iters = len(run.untraced) + len(run.traced)
    print(f"iterations   {len(run.untraced)} untraced, {len(run.traced)} "
          f"traced ({iters} total)")
    failed = [c for c in run.checks if not c[1]]
    print(f"checks       {len(run.checks) - len(failed)}/{len(run.checks)} "
          f"passed, checks_failed_ratio={len(failed) / len(run.checks):.4f}")
    for name, _, detail in failed:
        print(f"  FAILED {name}: {detail}")
    for name, value in metrics.items():
        print(f"  {name:48s} {value:>14.6g} {extra['units'][name]}")
    for line in extra.get("verdicts", ()):
        print(f"  prediction {line}")
    for row in extra.get("achieved_sparsity", ()):
        print(f"  sparsity {row['source']:10s} {row['strategy']:6s} "
              f"{row['kind']:7s} requested {row['requested']:.2f} "
              f"achieved {row['achieved']:.4f} ({row['masks']} masks)")
    for name, digest in extra["artifacts"].items():
        print(f"  sha256 {name:32s} "
              + " ".join(f"{f}={h[:12]}" for f, h in digest.items()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("ablate", "score", "contextual"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "shlm" / "__init__.py").is_file():
        print(f"error: no shlm sources under {SRC}; run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import shlm

    if Path(shlm.__file__).resolve().parent != (SRC / "shlm").resolve():
        print(f"error: imported shlm from {shlm.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    env = environment(args.seed)
    setup_s = run.setup()
    run.measure()
    run.run_checks()
    failed = sum(1 for c in run.checks if not c[1])
    passed_ratio = (len(run.checks) - failed) / len(run.checks)
    if run.trace:
        import layers

        metrics, units = layers.per_layer(run)
    else:
        metrics = run.end_to_end(setup_s)
        metrics["checks_passed_ratio"] = passed_ratio
        metrics = {k: metrics[k] for k in METRIC_UNITS}
        units = METRIC_UNITS
    extra = {"units": units, "artifacts": {"setup": run.setup_digest,
                                           **run.digests}}
    if run.trace:
        extra["verdicts"] = layers.verdicts(metrics)
        extra["achieved_sparsity"] = layers.achieved_table(run)
    report(run, env, metrics, extra)

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = run.dir.name
    record = {"environment": env, "workload": run.workload,
              "iterations": {"untraced": run.untraced, "traced": run.traced},
              "stage_wall_quartiles": {
                  name: statistics.quantiles([w[name] for w in run.untraced],
                                             n=4)
                  for name in run.untraced[0]},
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()},
              "checks": run.checks, **extra}
    if run.trace:
        run.tracer.write_jsonl(results / f"{stem}.spans.jsonl")
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1),
                                          encoding="utf-8")
    shutil.rmtree(run.dir)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(run.checks),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
