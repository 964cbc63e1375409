"""End-to-end strategy runs: balance, split, tokenize, train, evaluate, report.

Strategies:

* S1 -- balance under Hypothesis 1, split 80/20, test on the held-out 20%.
* S2 -- balance under Hypothesis 2, split 80/20, test on the held-out 20%.
* S3 -- same training procedure as S2, but evaluated on the full remainder
  of the corpus (everything the balanced set left out).

A run is ``fit`` (tokenize and train on a split) followed by ``score``
(predict a test set and tally per-kind metrics); S3 is S2's fit scored on
the remainder.  The held-out 20% is encoded once and serves as the
early-stopping validation set and, for S1 and S2, as the test set.  Every
random stage is keyed by the run's one seed, ``TrainConfig.seed``, so a
rerun with the same seed regenerates identical datasets, models, and metric
files; only wall time and memory readings differ.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Sequence

from . import balancer, corpus, metrics, model, tokenizer
from .corpus import KIND_ORDER, Kind, SampleSet
from .errors import DataError

STRATEGY_IDS = ("S1", "S2", "S3")
_TRAIN_FRACTION = 0.8


@dataclass
class StrategySpec:
    id: str
    model_config: model.ModelConfig = field(default_factory=model.ModelConfig)
    train_config: model.TrainConfig = field(default_factory=model.TrainConfig)
    normalize_symbols: bool = True

    def __post_init__(self):
        if self.id not in STRATEGY_IDS:
            raise ValueError(f"strategy id must be one of {STRATEGY_IDS}, got {self.id!r}")

    @property
    def hypothesis(self) -> str:
        return "H1" if self.id == "S1" else "H2"

    @property
    def seed(self) -> int:
        """The run's one seed, ``train_config.seed``: it keys balancing,
        the split, initialization, shuffling and dropout."""
        return self.train_config.seed


@dataclass
class ResourceUsage:
    wall_time: float          # seconds, training phase only
    peak_resident_memory: int  # bytes, best-effort process peak


@dataclass
class Report:
    strategy: StrategySpec
    per_kind: dict[Kind, metrics.MetricSet]
    overall: metrics.MetricSet
    per_kind_confusion: dict[Kind, metrics.ConfusionMatrix]
    resources: ResourceUsage
    fingerprints: dict
    history: model.TrainHistory


def _peak_rss_bytes() -> int:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is kilobytes on Linux, bytes on macOS
    return peak if sys.platform == "darwin" else peak * 1024


def _ids_digest(samples: Sequence[corpus.Sample]) -> str:
    h = hashlib.sha256()
    for s in samples:
        h.update(s.id.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


class _Stage:
    """Tags exceptions escaping a pipeline stage with the stage name."""

    def __init__(self, name: str):
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc is not None and not hasattr(exc, "stage"):
            exc.stage = self.name
            exc.args = (f"[stage: {self.name}] {exc}",) + exc.args[1:]
        return False


def model_texts(sset: SampleSet, normalize_symbols: bool = True) -> list[str]:
    """The text the model sees for each sample: normalized code, or the raw code."""
    if not normalize_symbols:
        return [s.code for s in sset]
    return [tokenizer.normalize(s.code) for s in sset]


def encode_set(
    sset: SampleSet, texts: Sequence[str], vocab: tokenizer.Vocab, max_len: int
) -> tokenizer.EncodedDataset:
    """Encode each sample's model text, labelled with the sample's label."""
    return tokenizer.EncodedDataset.from_encodings(
        [tokenizer.encode(text, vocab, max_len) for text in texts],
        [int(s.label) for s in sset],
    )


@dataclass
class Fitted:
    """A trained model with the vocabulary it reads and the encoded held-out
    set it validated on."""

    vocab: tokenizer.Vocab
    net: model.Model
    history: model.TrainHistory
    heldout: tokenizer.EncodedDataset
    resources: ResourceUsage


def fit(
    train_set: SampleSet,
    heldout: SampleSet,
    model_config: model.ModelConfig,
    train_config: model.TrainConfig,
    normalize_symbols: bool = True,
) -> Fitted:
    """Normalize each sample once, build the vocabulary from the training
    texts, encode both sides, then initialize from ``train_config.seed`` and
    train with early stopping on the held-out side."""
    if len(train_set) == 0 or len(heldout) == 0:
        raise DataError("training and validation sets must be non-empty")
    with _Stage("tokenize"):
        train_texts = model_texts(train_set, normalize_symbols)
        vocab = tokenizer.build_vocab(train_texts, model_config.vocab_size)
        train_data = encode_set(train_set, train_texts, vocab, model_config.max_len)
        heldout_data = encode_set(
            heldout, model_texts(heldout, normalize_symbols), vocab,
            model_config.max_len,
        )

    with _Stage("train"):
        net = model.init(model_config, train_config.seed)
        t0 = time.monotonic()
        net, history = model.train(net, train_data, heldout_data, train_config)
        resources = ResourceUsage(
            wall_time=time.monotonic() - t0,
            peak_resident_memory=_peak_rss_bytes(),
        )
    return Fitted(vocab, net, history, heldout_data, resources)


def score(
    net: model.Model, test_set: SampleSet, test_data: tokenizer.EncodedDataset
) -> tuple[dict[Kind, metrics.ConfusionMatrix], dict[Kind, metrics.MetricSet], metrics.MetricSet]:
    """Predict the test set; per-kind confusion matrices, per-kind metrics
    and the pooled overall metrics."""
    with _Stage("evaluate"):
        predictions = model.predict(net, test_data)
        per_kind_cm: dict[Kind, metrics.ConfusionMatrix] = {}
        for kind in KIND_ORDER:
            sel = [i for i, s in enumerate(test_set) if s.kind == kind]
            if not sel:
                continue
            per_kind_cm[kind] = metrics.confusion(
                [int(predictions[i]) for i in sel],
                [int(test_set.samples[i].label) for i in sel],
            )
        per_kind_ms, overall = metrics.aggregate(per_kind_cm)
    return per_kind_cm, per_kind_ms, overall


def run(spec: StrategySpec, full_corpus: SampleSet) -> Report:
    """Execute one strategy end to end and assemble its report."""
    with _Stage("balance"):
        if spec.hypothesis == "H1":
            balanced = balancer.balance_h1(full_corpus, spec.seed)
        else:
            balanced = balancer.balance_h2(full_corpus, spec.seed)

    with _Stage("split"):
        train_set, heldout = corpus.split(balanced.samples, _TRAIN_FRACTION, spec.seed)

    fitted = fit(train_set, heldout, spec.model_config, spec.train_config,
                 spec.normalize_symbols)

    if spec.id == "S3":
        with _Stage("remainder"):
            test_set = balancer.remainder(full_corpus, balanced)
        with _Stage("tokenize"):
            test_data = encode_set(
                test_set, model_texts(test_set, spec.normalize_symbols),
                fitted.vocab, spec.model_config.max_len,
            )
    else:
        test_set, test_data = heldout, fitted.heldout

    per_kind_cm, per_kind_ms, overall = score(fitted.net, test_set, test_data)

    fingerprints = {
        "strategy": spec.id,
        "hypothesis": spec.hypothesis,
        "seed": spec.seed,
        "corpus_total": len(full_corpus),
        "corpus_counts": {
            f"{k.value}/{int(l)}": n for (k, l), n in sorted(
                full_corpus.manifest.items(),
                key=lambda kv: (KIND_ORDER.index(kv[0][0]), int(kv[0][1])),
            )
        },
        "balanced_total": len(balanced),
        "balanced_counts": {
            k.value: {"vulnerable": c[0], "non_vulnerable": c[1]}
            for k, c in balanced.per_kind_counts.items()
        },
        "train_size": len(train_set),
        "val_size": len(heldout),
        "test_size": len(test_set),
        "train_ids_sha256": _ids_digest(train_set.samples),
        "test_ids_sha256": _ids_digest(test_set.samples),
        "vocab_sha256": fitted.vocab.content_hash(),
    }
    return Report(
        strategy=spec,
        per_kind=per_kind_ms,
        overall=overall,
        per_kind_confusion=per_kind_cm,
        resources=fitted.resources,
        fingerprints=fingerprints,
        history=fitted.history,
    )


def metrics_csv(rows: dict[str, metrics.MetricSet]) -> str:
    """One CSV line per metric row; percentages, undefined cells empty."""
    lines = ["category," + ",".join(m.lower() for m in metrics.METRIC_NAMES)]
    lines += [f"{name}," + metrics.csv_row(ms) for name, ms in rows.items()]
    return "\n".join(lines) + "\n"


def emit(report: Report, format: str, path: str | Path) -> Path:
    """Write a report file: 'table' and 'csv' are deterministic metric views,
    'json' additionally carries resources, history, and fingerprints."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = metrics.kind_rows(report.per_kind, report.overall)
    if format == "table":
        body = f"Strategy {report.strategy.id} ({report.strategy.hypothesis})\n"
        path.write_text(body + metrics.format_metric_table(rows) + "\n", encoding="utf-8")
    elif format == "csv":
        path.write_text(metrics_csv(rows), encoding="utf-8")
    elif format == "json":
        payload = {
            "strategy": report.strategy.id,
            "hypothesis": report.strategy.hypothesis,
            "seed": report.strategy.seed,
            "metrics": {name: ms.as_dict() for name, ms in rows.items()},
            "confusion": {
                k.value: {"tp": cm.tp, "fp": cm.fp, "tn": cm.tn, "fn": cm.fn}
                for k, cm in report.per_kind_confusion.items()
            },
            "resources": {
                "wall_time_seconds": report.resources.wall_time,
                "peak_resident_memory_bytes": report.resources.peak_resident_memory,
            },
            "history": asdict(report.history),
            "fingerprints": report.fingerprints,
        }
        path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    else:
        raise ValueError(f"unknown report format {format!r}")
    return path


def compare(payloads: Sequence[dict]) -> str:
    """comparison.csv for ``report.json`` payloads, one row each in the order
    given: overall F1 and accuracy in percent (empty when undefined),
    training wall time in seconds and peak memory in MiB."""
    lines = ["strategy,overall_f1_pct,overall_accuracy_pct,wall_time_s,peak_memory_mb"]
    for payload in payloads:
        overall = payload["metrics"]["Overall"]
        res = payload["resources"]
        lines.append(
            f"{payload['strategy']},{metrics.percent(overall['f1'], '')},"
            f"{metrics.percent(overall['accuracy'], '')},"
            f"{res['wall_time_seconds']:.2f},"
            f"{res['peak_resident_memory_bytes'] / 2**20:.1f}"
        )
    return "\n".join(lines) + "\n"
