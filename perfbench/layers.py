"""Which program functions the traced run wraps, and the per-layer metrics
computed from one traced pass.

Every layer is wrapped at its module boundary.  Names that a module
imported by value are wrapped again where they are looked up:
``tokenizer.lex`` (normalize lexes through it) and ``balancer.save``
(save_balanced writes through it).  Calls that stay inside one module
through a global name, such as ``slicer.build_slice`` calling ``lex``, go
through the patched module attribute and need nothing extra.
"""

from __future__ import annotations

import math

from spans import Summary, Tracer

STRATEGIES = ("S1", "S2", "S3")

# Every per-layer metric a traced run reports, with its unit.  Layers a
# workload does not reach read 0.
UNITS = {
    "slicer.lex_s": "s", "slicer.lex_calls": "count", "slicer.lex_tokens": "count",
    "slicer.relex_ratio": "ratio", "slicer.extract_candidates_s": "s",
    "slicer.candidates": "count", "slicer.build_slice_s": "s",
    "slicer.ms_per_line.small": "ms/line", "slicer.ms_per_line.large": "ms/line",
    "tokenizer.normalize_s": "s", "tokenizer.normalize_calls": "count",
    "tokenizer.encode_s": "s", "tokenizer.encode_calls": "count",
    "tokenizer.build_vocab_s": "s", "tokenizer.normalize_per_encode": "ratio",
    "model.init_s": "s", "model.train_s": "s", "model.train_steps": "count",
    "model.train_step_ms": "ms", "model.train_samples_per_s": "samples/s",
    "model.predict_s": "s", "model.predict_samples_per_s": "samples/s",
    "corpus.load_s": "s", "corpus.load_rows_per_s": "rows/s", "corpus.save_s": "s",
    "corpus.save_rows_per_s": "rows/s", "corpus.split_s": "s",
    "balancer.balance_h1_s": "s", "balancer.balance_h2_s": "s",
    "balancer.remainder_s": "s", "balancer.save_balanced_s": "s",
    "experiments.run_s.S1": "s", "experiments.run_s.S2": "s", "experiments.run_s.S3": "s",
    "experiments.self_s": "s", "experiments.emit_s": "s",
    "experiments.f1_pct.S1": "%", "experiments.f1_pct.S2": "%", "experiments.f1_pct.S3": "%",
    "metrics.s": "s",
    "synth.pattern_corpus_s": "s", "synth.reference_corpus_s": "s",
    "cli.slice_files": "count", "cli.slice_files_failed": "count",
    "trace.overhead_s": "s", "trace.overhead_pct": "%",
}


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _train_counts(args, kwargs, result) -> dict:
    train_data = _arg(args, kwargs, 1, "train_data")
    tcfg = _arg(args, kwargs, 3, "tcfg")
    epochs = result[1].stopped_epoch
    return {"samples": epochs * len(train_data),
            "steps": epochs * math.ceil(len(train_data) / tcfg.batch_size)}


def instrument(tracer: Tracer) -> None:
    """Wrap the public entry points of every program module."""
    from slicevuln import (balancer, cli, corpus, experiments, metrics, model,
                           slicer, tokenizer)

    def tokens(args, kwargs, result):
        return {"tokens": len(result)}

    for owner in (slicer, tokenizer):
        tracer.wrap(owner, "lex", "slicer.lex", count=tokens)
    tracer.wrap(slicer, "extract_candidates", "slicer.extract_candidates",
                count=lambda a, k, r: {"candidates": len(r)})
    tracer.wrap(slicer, "build_slice", "slicer.build_slice")

    for fn in ("normalize", "encode", "build_vocab"):
        tracer.wrap(tokenizer, fn, f"tokenizer.{fn}")

    tracer.wrap(model, "init", "model.init")
    tracer.wrap(model, "train", "model.train", count=_train_counts)
    tracer.wrap(model, "predict", "model.predict",
                count=lambda a, k, r: {"samples": len(r)})

    rows_in = lambda a, k, r: {"rows": len(_arg(a, k, 0, "sset"))}  # noqa: E731
    tracer.wrap(corpus, "load", "corpus.load", count=lambda a, k, r: {"rows": len(r)})
    tracer.wrap(corpus, "save", "corpus.save", count=rows_in)
    tracer.wrap(balancer, "save", "corpus.save", count=rows_in)
    tracer.wrap(corpus, "split", "corpus.split")

    for fn in ("balance_h1", "balance_h2", "remainder", "save_balanced"):
        tracer.wrap(balancer, fn, f"balancer.{fn}")

    tracer.wrap(experiments, "run", "experiments.run",
                tag=lambda a, k: _arg(a, k, 0, "spec").id)
    tracer.wrap(experiments, "emit", "experiments.emit")

    for fn in ("confusion", "compute", "aggregate", "kind_rows", "format_metric_table",
               "csv_row", "percent"):
        tracer.wrap(metrics, fn, f"metrics.{fn}")

    tracer.wrap(cli, "main", "cli.main",
                tag=lambda a, k: (_arg(a, k, 0, "argv") or ["?"])[0],
                count=lambda a, k, r: {"exit": r})


def instrument_setup(tracer: Tracer) -> None:
    from slicevuln import synth

    for fn in ("pattern_corpus", "reference_corpus"):
        tracer.wrap(synth, fn, f"synth.{fn}")


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(spans, files: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``files`` lists the files a slice-tree pass sliced, each with its line
    count, size class and seconds; it is empty for the other workloads.
    """
    s = Summary(spans)
    m: dict[str, float] = {}

    lex_tokens = s.total("slicer.lex", "tokens")
    slicer_parents = ("slicer.extract_candidates", "slicer.build_slice")
    file_tokens = s.total("slicer.lex", "tokens", under=("slicer.extract_candidates",))
    m["slicer.lex_s"] = s.seconds("slicer.lex")
    m["slicer.lex_calls"] = s.calls("slicer.lex")
    m["slicer.lex_tokens"] = lex_tokens
    m["slicer.relex_ratio"] = (
        s.total("slicer.lex", "tokens", under=slicer_parents) / file_tokens
        if file_tokens else 0.0)
    m["slicer.extract_candidates_s"] = s.seconds("slicer.extract_candidates")
    m["slicer.candidates"] = s.total("slicer.extract_candidates", "candidates")
    m["slicer.build_slice_s"] = s.seconds("slicer.build_slice")
    for size_class in ("small", "large"):
        sel = [f for f in files if f["size_class"] == size_class and f["ok"]]
        lines = sum(f["lines"] for f in sel)
        m[f"slicer.ms_per_line.{size_class}"] = (
            1000.0 * sum(f["seconds"] for f in sel) / lines if lines else 0.0)

    encodes = s.calls("tokenizer.encode")
    m["tokenizer.normalize_s"] = s.seconds("tokenizer.normalize")
    m["tokenizer.normalize_calls"] = s.calls("tokenizer.normalize")
    m["tokenizer.encode_s"] = s.seconds("tokenizer.encode")
    m["tokenizer.encode_calls"] = encodes
    m["tokenizer.build_vocab_s"] = s.seconds("tokenizer.build_vocab")
    m["tokenizer.normalize_per_encode"] = (
        s.calls("tokenizer.normalize") / encodes if encodes else 0.0)

    train_s = s.seconds("model.train")
    steps = s.total("model.train", "steps")
    predict_s = s.seconds("model.predict")
    m["model.init_s"] = s.seconds("model.init")
    m["model.train_s"] = train_s
    m["model.train_steps"] = steps
    m["model.train_step_ms"] = 1000.0 * train_s / steps if steps else 0.0
    m["model.train_samples_per_s"] = _rate(s.total("model.train", "samples"), train_s)
    m["model.predict_s"] = predict_s
    m["model.predict_samples_per_s"] = _rate(s.total("model.predict", "samples"), predict_s)

    load_s, save_s = s.seconds("corpus.load"), s.seconds("corpus.save")
    m["corpus.load_s"] = load_s
    m["corpus.load_rows_per_s"] = _rate(s.total("corpus.load", "rows"), load_s)
    m["corpus.save_s"] = save_s
    m["corpus.save_rows_per_s"] = _rate(s.total("corpus.save", "rows"), save_s)
    m["corpus.split_s"] = s.seconds("corpus.split")

    for fn in ("balance_h1", "balance_h2", "remainder", "save_balanced"):
        m[f"balancer.{fn}_s"] = s.seconds(f"balancer.{fn}")

    for sid in STRATEGIES:
        m[f"experiments.run_s.{sid}"] = s.seconds("experiments.run", tag=sid)
    m["experiments.self_s"] = s.self_seconds("experiments.run")
    m["experiments.emit_s"] = s.seconds("experiments.emit")

    m["metrics.s"] = s.prefix_seconds("metrics.")

    slices = [sp for sp in spans if sp.name == "cli.main" and sp.tag == "slice"]
    m["cli.slice_files"] = len(slices)
    m["cli.slice_files_failed"] = sum(
        1 for sp in slices if sp.failed or sp.counts.get("exit") != 0)
    return m


def setup_metrics(spans) -> dict[str, float]:
    s = Summary(spans)
    return {f"synth.{fn}_s": s.seconds(f"synth.{fn}")
            for fn in ("pattern_corpus", "reference_corpus")}
