"""End-to-end strategy runs: balance, split, tokenize, train, evaluate, report.

Strategies:

* S1 -- balance under Hypothesis 1, split 80/20, test on the held-out 20%.
* S2 -- balance under Hypothesis 2, split 80/20, test on the held-out 20%.
* S3 -- same training procedure as S2, but evaluated on the full remainder
  of the corpus (everything the balanced set left out).

A run is ``fit`` (tokenize and train on a split) followed by ``score``
(predict a test set and tally one confusion matrix per kind); S3 is S2's
fit scored on the remainder.  A report keeps only those matrices, and
``write_metrics`` derives every metric row from them.  The held-out 20% is
encoded once and serves as the early-stopping validation set and, for S1
and S2, as the test set.  Every random stage is keyed by the run's one
seed, ``TrainConfig.seed``, so a rerun with the same seed regenerates
identical datasets, models, and metric files; only wall time and memory
readings differ.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import balancer, corpus, metrics, model, tokenizer
from .corpus import CELL_ORDER, KIND_ORDER, Kind, SampleSet
from .errors import DataError, LexError, clip

STRATEGY_IDS = ("S1", "S2", "S3")


@dataclass
class StrategySpec:
    id: str
    model_config: model.ModelConfig = field(default_factory=model.ModelConfig)
    train_config: model.TrainConfig = field(default_factory=model.TrainConfig)

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
    confusion: dict[Kind, metrics.ConfusionMatrix]  # the kinds present, in KIND_ORDER
    resources: ResourceUsage
    fingerprints: dict
    history: model.TrainHistory

    @property
    def overall(self) -> metrics.MetricSet:
        """The metrics of the pooled (summed) matrix."""
        return metrics.aggregate(self.confusion)


def _peak_rss_bytes() -> int:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is kilobytes on Linux, bytes on macOS
    return peak if sys.platform == "darwin" else peak * 1024


def _digest(strings: Iterable[str]) -> str:
    """sha256 over the strings, each NUL-terminated."""
    h = hashlib.sha256()
    for text in strings:
        h.update(text.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


@contextmanager
def _stage(name: str):
    """Puts ``[stage: name] `` before an escaping exception's message; stages never nest."""
    try:
        yield
    except Exception as exc:
        exc.args = (f"[stage: {name}] {exc}",) + exc.args[1:]
        raise


def model_texts(sset: SampleSet) -> list[str]:
    """The text the model sees for each sample: its normalized code.  Code
    that does not lex is a DataError naming the sample's id and source."""
    texts = []
    for s in sset:
        try:
            texts.append(tokenizer.normalize(s.code))
        except LexError as e:
            where = f"sample {clip(repr(s.id))}" + (
                "" if s.source is None else f" (source {clip(s.source)})")
            raise DataError(f"{where}: {e}") from e
    return texts


def encode_set(
    sset: SampleSet, texts: Sequence[str], vocab: tokenizer.Vocab, max_len: int
) -> tokenizer.EncodedDataset:
    """Encode each sample's model text into one [n, max_len] array, row by
    row as it is encoded, labelled with the sample's label."""
    rows = (tokenizer.encode(text, vocab, max_len) for text in texts)
    return tokenizer.EncodedDataset(np.fromiter(rows, np.dtype((np.int64, max_len)), len(texts)),
                                    np.array([s.label for s in sset], dtype=np.int64))


def encode_test_set(
    test_set: SampleSet, vocab: tokenizer.Vocab, max_len: int, name: str
) -> tokenizer.EncodedDataset:
    """Encode a set the model is scored on but did not validate on.  An
    empty set is a DataError that names it as ``name``."""
    if len(test_set) == 0:
        raise DataError(f"{name} holds no samples to score")
    return encode_set(test_set, model_texts(test_set), vocab, max_len)


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
) -> Fitted:
    """Normalize each sample once, build the vocabulary from the training
    texts, encode both sides, then initialize from ``train_config.seed`` and
    train with early stopping on the held-out side."""
    with _stage("tokenize"):
        train_texts = model_texts(train_set)
        vocab = tokenizer.build_vocab(train_texts, model_config.vocab_size)
        train_data = encode_set(train_set, train_texts, vocab, model_config.max_len)
        heldout_data = encode_set(heldout, model_texts(heldout), vocab,
                                  model_config.max_len)

    with _stage("train"):
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
) -> dict[Kind, metrics.ConfusionMatrix]:
    """Predict the test set; one confusion matrix per kind present, in
    ``KIND_ORDER``, against the labels ``test_data`` holds."""
    with _stage("evaluate"):
        predictions = model.predict(net, test_data)
        confusion: dict[Kind, metrics.ConfusionMatrix] = {}
        for kind in KIND_ORDER:
            sel = [i for i, s in enumerate(test_set) if s.kind == kind]
            if sel:
                confusion[kind] = metrics.confusion(predictions[sel].tolist(),
                                                    test_data.labels[sel].tolist())
    return confusion


def run(spec: StrategySpec, full_corpus: SampleSet) -> Report:
    """Execute one strategy end to end and assemble its report."""
    with _stage("balance"):
        balance = balancer.balance_h1 if spec.hypothesis == "H1" else balancer.balance_h2
        balanced = balance(full_corpus, spec.seed)

    with _stage("split"):
        train_set, heldout = corpus.split(balanced.samples, spec.seed)

    fitted = fit(train_set, heldout, spec.model_config, spec.train_config)

    if spec.id == "S3":
        with _stage("remainder"):
            test_set = balancer.remainder(full_corpus, balanced)
        with _stage("tokenize"):
            test_data = encode_test_set(test_set, fitted.vocab, spec.model_config.max_len,
                                        "the S3 remainder")
    else:
        test_set, test_data = heldout, fitted.heldout

    corpus_counts = full_corpus.counts()
    fingerprints = {
        "strategy": spec.id,
        "hypothesis": spec.hypothesis,
        "seed": spec.seed,
        "corpus_total": len(full_corpus),
        "corpus_counts": {f"{k.value}/{int(l)}": corpus_counts[k, l]
                          for k, l in CELL_ORDER if (k, l) in corpus_counts},
        "balanced_total": len(balanced),
        "balanced_counts": balancer._counts_json(balanced),
        "train_size": len(train_set),
        "val_size": len(heldout),
        "test_size": len(test_set),
        "train_ids_sha256": _digest(s.id for s in train_set),
        "test_ids_sha256": _digest(s.id for s in test_set),
        "vocab_sha256": _digest((*tokenizer.Vocab.RESERVED, *fitted.vocab.tokens)),
    }
    return Report(
        strategy=spec,
        confusion=score(fitted.net, test_set, test_data),
        resources=fitted.resources,
        fingerprints=fingerprints,
        history=fitted.history,
    )


def write_metrics(
    run_dir: Path, confusion: dict[Kind, metrics.ConfusionMatrix], heading: str = ""
) -> dict[str, metrics.MetricSet]:
    """Derive the metric rows (each kind, then Overall from the summed
    matrix) and write their deterministic views: ``metrics.txt``, the table
    under ``heading``, and ``metrics.csv``, one line per row in percent with
    undefined cells empty.  Returns the rows."""
    rows = metrics.kind_rows(confusion)
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "metrics.txt").write_text(
        heading + metrics.format_metric_table(rows) + "\n", encoding="utf-8")
    lines = ["category," + ",".join(metrics.METRIC_NAMES)]
    lines += [f"{name}," + metrics.csv_row(ms) for name, ms in rows.items()]
    (run_dir / "metrics.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return rows


def emit(report: Report, run_dir: str | Path) -> Path:
    """Write a run directory: the metric views of ``write_metrics`` and
    ``report.json``, which also carries resources, history and fingerprints."""
    run_dir = Path(run_dir)
    rows = write_metrics(run_dir, report.confusion,
                         f"Strategy {report.strategy.id} ({report.strategy.hypothesis})\n")
    payload = {
        "strategy": report.strategy.id,
        "hypothesis": report.strategy.hypothesis,
        "seed": report.strategy.seed,
        "metrics": {name: asdict(ms) for name, ms in rows.items()},
        "confusion": {k.value: asdict(cm) for k, cm in report.confusion.items()},
        "resources": {
            "wall_time_seconds": report.resources.wall_time,
            "peak_resident_memory_bytes": report.resources.peak_resident_memory,
        },
        "history": asdict(report.history),
        "fingerprints": report.fingerprints,
    }
    (run_dir / "report.json").write_text(json.dumps(payload, indent=2) + "\n",
                                         encoding="utf-8")
    return run_dir


def _read(table: dict, key: str, *types: type, top: float = math.inf):
    """``table[key]`` if it is one of ``types`` and not a bool, else a
    TypeError; a number that is not finite or lies outside [0, ``top``] is a
    ValueError."""
    value = table[key]
    if isinstance(value, bool) or not isinstance(value, types):
        raise TypeError(f"{key} is a {type(value).__name__}")
    if isinstance(value, (int, float)):
        if not math.isfinite(value):
            raise ValueError(f"{key} is {value}, not finite")
        if not 0 <= value <= top:
            raise ValueError(f"{key} is {value}, outside [0, {top:g}]")
    return value


def compare(payloads: Sequence[dict]) -> str:
    """comparison.csv for ``report.json`` payloads, one row each in the order
    given: overall F1 and accuracy in percent (empty when undefined),
    training wall time in seconds and peak memory in MiB.  A strategy that
    is not a string, or a value read here that is not a number (F1 and
    accuracy may be null), is a TypeError; F1 or accuracy outside [0, 1],
    a negative or non-finite number, or a strategy not in ``STRATEGY_IDS``
    (the ids ``emit`` writes), is a ValueError."""
    lines = ["strategy,overall_f1_pct,overall_accuracy_pct,wall_time_s,peak_memory_mb"]
    for payload in payloads:
        overall, res = payload["metrics"]["Overall"], payload["resources"]
        f1, accuracy = (_read(overall, key, int, float, type(None), top=1)
                        for key in ("f1", "accuracy"))
        if (strategy := _read(payload, "strategy", str)) not in STRATEGY_IDS:
            raise ValueError(f"strategy must be one of {STRATEGY_IDS}, got {clip(repr(strategy))}")
        lines.append(
            f"{strategy},{metrics.percent(f1, '')},"
            f"{metrics.percent(accuracy, '')},"
            f"{_read(res, 'wall_time_seconds', int, float):.2f},"
            f"{_read(res, 'peak_resident_memory_bytes', int, float) / 2**20:.1f}"
        )
    return "\n".join(lines) + "\n"
