"""Confusion matrices and the six report metrics, per kind and pooled.

``confusion`` tallies one matrix and ``compute`` turns a matrix into its
metrics.  ``kind_rows`` derives every report row from the per-kind
matrices: one row per kind, then Overall, which ``aggregate`` computes
from the pooled (summed) matrix.  Vulnerable is the positive class.  A
metric whose denominator is zero is None, never silently zero.  Reports
render values as percentages with two decimals.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

from .corpus import KIND_ORDER, Kind

METRIC_NAMES = ("recall", "specificity", "precision", "f1", "mcc", "accuracy")
TABLE_HEADERS = ("Recall", "Spec.", "Prec.", "F1", "MCC", "Acc.")


@dataclass(frozen=True, slots=True)
class ConfusionMatrix:
    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self):
        for name in ("tp", "fp", "tn", "fn"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    def __add__(self, other: "ConfusionMatrix") -> "ConfusionMatrix":
        return ConfusionMatrix(
            tp=self.tp + other.tp,
            fp=self.fp + other.fp,
            tn=self.tn + other.tn,
            fn=self.fn + other.fn,
        )


@dataclass(frozen=True, slots=True)
class MetricSet:
    recall: float | None
    specificity: float | None
    precision: float | None
    f1: float | None
    mcc: float | None
    accuracy: float | None


def confusion(predictions: Sequence[int], truth: Sequence[int]) -> ConfusionMatrix:
    """Tally a confusion matrix from 0/1 labels (1 = vulnerable; any other
    label counts as negative)."""
    if len(predictions) != len(truth):
        raise ValueError(
            f"length mismatch: {len(predictions)} predictions vs {len(truth)} truths"
        )
    if len(truth) == 0:
        raise ValueError("cannot build a confusion matrix from zero samples")
    tally = Counter((t == 1, p == 1) for p, t in zip(predictions, truth))
    return ConfusionMatrix(tp=tally[True, True], fp=tally[False, True],
                           tn=tally[False, False], fn=tally[True, False])


def _ratio(num: int, den: int) -> float | None:
    return num / den if den > 0 else None


def compute(cm: ConfusionMatrix) -> MetricSet:
    """Recall, specificity, precision, F1, MCC, and accuracy for one matrix."""
    if cm.total == 0:
        raise ValueError("confusion matrix is empty")
    recall = _ratio(cm.tp, cm.tp + cm.fn)
    specificity = _ratio(cm.tn, cm.tn + cm.fp)
    precision = _ratio(cm.tp, cm.tp + cm.fp)
    if precision is None or recall is None or precision + recall == 0:
        f1 = None
    else:
        f1 = 2 * precision * recall / (precision + recall)
    den = (
        (cm.tp + cm.fp) * (cm.tp + cm.fn) * (cm.tn + cm.fp) * (cm.tn + cm.fn)
    )
    if den == 0:
        mcc = None
    else:
        mcc = (cm.tp * cm.tn - cm.fp * cm.fn) / math.sqrt(den)
    accuracy = (cm.tp + cm.tn) / cm.total
    return MetricSet(
        recall=recall,
        specificity=specificity,
        precision=precision,
        f1=f1,
        mcc=mcc,
        accuracy=accuracy,
    )


def aggregate(per_kind: Mapping[Kind, ConfusionMatrix]) -> MetricSet:
    """The Overall row: the metrics of the pooled (summed) matrix."""
    if not per_kind:
        raise ValueError("need at least one kind")
    return compute(sum(per_kind.values(), ConfusionMatrix(0, 0, 0, 0)))


def percent(value: float | None, undefined: str = "n/a") -> str:
    return undefined if value is None else f"{100.0 * value:.2f}"


def csv_row(ms: MetricSet) -> str:
    """Comma-separated percentages in table order; undefined cells empty."""
    return ",".join(percent(getattr(ms, name), undefined="") for name in METRIC_NAMES)


def format_metric_table(rows: Mapping[str, MetricSet]) -> str:
    """Aligned-text table, one named row per MetricSet."""
    name_width = max(len("Category"), *(len(n) for n in rows)) if rows else 8
    header = "Category".ljust(name_width) + "".join(h.rjust(9) for h in TABLE_HEADERS)
    lines = [header]
    for name, ms in rows.items():
        cells = "".join(percent(getattr(ms, m)).rjust(9) for m in METRIC_NAMES)
        lines.append(name.ljust(name_width) + cells)
    return "\n".join(lines)


def kind_rows(per_kind: Mapping[Kind, ConfusionMatrix]) -> dict[str, MetricSet]:
    """The metric rows of the per-kind matrices: each kind present, in
    ``KIND_ORDER`` (API, AU, PU, AE), then Overall."""
    rows = {kind.value: compute(per_kind[kind]) for kind in KIND_ORDER if kind in per_kind}
    rows["Overall"] = aggregate(per_kind)
    return rows
