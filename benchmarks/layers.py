"""Per-layer metrics from the spans of a traced run.

Counts (calls, tokens, bytes) are per iteration and repeat exactly;
times are medians over the traced iterations. Span percentiles pool
every call of the traced iterations.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

SPAN_METRICS = (
    ("model.forward.none", ("calls", "self_s", "tokens", "p50_ms", "p90_ms")),
    ("model.forward.grads", ("calls", "self_s")),
    ("model.forward.activations", ("calls", "self_s")),
    ("tensor.backward", ("calls", "self_s")),
    ("tensor.hessian_vector_product", ("calls", "self_s")),
    ("train.AdamW.step", ("calls", "self_s")),
    ("criteria.collect_criteria", ("self_s",)),
    ("criteria.score_grasp", ("self_s",)),
    ("criteria.score_jacov", ("self_s",)),
    ("predictor.extract_features", ("calls", "self_s")),
    ("predictor.predict_scores", ("calls", "self_s", "p50_ms")),
    ("pruning.build_mask", ("calls", "self_s")),
    ("predictor.build_dataset", ("self_s",)),
    ("predictor.train_predictor", ("self_s",)),
    ("predictor.predictor_fidelity", ("self_s",)),
    ("pruning.oracle_ablation", ("self_s",)),
    ("model.stream_nll", ("calls", "self_s")),
    ("analytics.perplexity", ("self_s",)),
    ("analytics.fewshot_study", ("self_s",)),
    ("checkpoint.save_checkpoint", ("calls", "self_s", "bytes")),
    ("checkpoint.load_checkpoint", ("calls", "self_s", "bytes")),
    ("text.ingest_corpus", ("calls", "self_s")),
    ("cli.main", ("calls", "self_s")),
)
UNITS = {"calls": "count", "self_s": "s", "tokens": "tok", "bytes": "B",
         "p50_ms": "ms", "p90_ms": "ms"}
PERCENTILES = {"p50_ms": 50, "p90_ms": 90}

ABLATE_STAGES = ("oracle", "sweep_static")
SCORE_STAGES = ("train_lm", "collect", "collect_grasp", "collect_jacov",
                "fewshot")
PREDICTOR_PATH = ("predictor.extract_features", "predictor.predict_scores",
                  "pruning.build_mask")
# (metric, stages, span names whose self time is summed, verdict threshold)
PREDICTIONS = (
    ("share.ablate_stages.forward_none", ABLATE_STAGES,
     ("model.forward.none",), 0.5),
    ("share.score_stages.backward_forward_grads", SCORE_STAGES,
     ("tensor.backward", "model.forward.grads"), 0.5),
    ("share.sweep_contextual.predictor_path",
     ("sweep_contextual_shadow", "sweep_contextual_dejavu"),
     ("predictor.extract_features", "predictor.predict_scores",
      "predictor.dejavu_hosts", "predictor.dejavu_window",
      "pruning.build_mask", "model.forward.activations"), 0.3),
)
ACHIEVED_AT = 0.5


def _percentile_ms(durs: list[float], q: int) -> float:
    if len(durs) < 2:
        return 1e3 * durs[0]
    return 1e3 * statistics.quantiles(durs, n=100)[q - 1]


def _iterations(spans):
    """iteration id -> stage name -> spans recorded under that stage."""
    out = defaultdict(lambda: defaultdict(list))
    for s in spans:
        it, stage = s.run_id.split("/", 1)
        out[it][stage].append(s)
    return out


def per_layer(run) -> tuple[dict[str, float], dict[str, str]]:
    from shlm.model import ModelConfig
    from shlm.predictor import PredictorConfig, predictor_flops

    iters = _iterations(run.tracer.spans)
    metrics: dict[str, float] = {}
    units: dict[str, str] = {}

    def put(name, value, unit):
        metrics[name] = float(value)
        units[name] = unit

    for span_name, fields in SPAN_METRICS:
        per_iter = defaultdict(list)
        durs = []
        for stages in iters.values():
            calls = [s for spans in stages.values() for s in spans
                     if s.name == span_name]
            per_iter["calls"].append(len(calls))
            per_iter["self_s"].append(sum(s.self_s for s in calls))
            per_iter["tokens"].append(sum(s.tokens for s in calls))
            per_iter["bytes"].append(sum(s.bytes for s in calls))
            durs += [s.dur_s for s in calls]
        for f in fields:
            if f in PERCENTILES:
                value = _percentile_ms(durs, PERCENTILES[f])
            else:
                value = statistics.median(per_iter[f])
            put(f"{span_name}.{f}", value, UNITS[f])

    def stage_dur(stages, names):
        return sum(s.dur_s for n in names for s in stages.get(n, ())
                   if s.name == f"stage.{n}")

    for metric, stage_names, span_names, _ in PREDICTIONS:
        shares = []
        for stages in iters.values():
            busy = sum(s.self_s for n in stage_names for s in stages.get(n, ())
                       if s.name in span_names)
            shares.append(busy / stage_dur(stages, stage_names))
        put(metric, statistics.median(shares), "ratio")

    call_s = {}
    for topo in ("shadow", "dejavu"):
        stage = f"sweep_contextual_{topo}"
        shares, calls = [], []
        for stages in iters.values():
            spans = stages.get(stage, ())
            path = sum(s.dur_s for s in spans if s.name in PREDICTOR_PATH)
            shares.append(path / stage_dur(stages, (stage,)))
            calls += [s.dur_s for s in spans
                      if s.name == "predictor.predict_scores"]
        put(f"predictor.share.{topo}", statistics.median(shares), "ratio")
        call_s[topo] = statistics.fmean(calls)
    # measured per-call predictor cost, next to the analytical FLOP saving
    put("predictor.saving_vs_dejavu", 1.0 - call_s["shadow"] / call_s["dejavu"],
        "ratio")
    cfg = ModelConfig()
    hidden = PredictorConfig().resolved_hidden(cfg.embed_dim)
    put("predictor.flops_reduction_vs_dejavu",
        predictor_flops(cfg, "shadow", p1=hidden).reduction_vs_dejavu, "ratio")

    for source in ("static", "contextual"):
        for strategy in ("local", "global"):
            for kind in ("heads", "neurons"):
                values = run.masks[(source, strategy, kind, ACHIEVED_AT)]
                put(f"pruning.achieved_sparsity.{source}.{strategy}.{kind}",
                    statistics.mean(values), "ratio")

    untraced = statistics.fmean(sum(w.values()) for w in run.untraced)
    traced = statistics.fmean(sum(w.values()) for w in run.traced)
    put("trace.overhead_ratio", traced / untraced - 1.0, "ratio")
    put("trace.spans_per_iteration", len(run.tracer.spans) / len(iters), "count")
    return metrics, units


def achieved_table(run) -> list[dict]:
    """Achieved vs requested sparsity for every (source, strategy, kind)."""
    return [{"source": source, "strategy": strategy, "kind": kind,
             "requested": requested, "achieved": statistics.mean(values),
             "masks": len(values)}
            for (source, strategy, kind, requested), values
            in sorted(run.masks.items())]


def verdicts(metrics: dict[str, float]) -> list[str]:
    """One line per layer prediction: the measured share and its verdict."""
    lines = []
    for metric, _, spans, threshold in PREDICTIONS:
        share = metrics[metric]
        verdict = "confirmed" if share >= threshold else "refuted"
        lines.append(f"{metric} = {share:.3f} ({' + '.join(spans)}; "
                     f"threshold {threshold}) -> {verdict}")
    return lines
