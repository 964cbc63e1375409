import math
from dataclasses import asdict

import numpy as np
import pytest

from slicevuln import ConfusionMatrix, Kind, aggregate, compute, confusion
from slicevuln.metrics import csv_row, format_metric_table, kind_rows, percent


def oracle_metrics(tp, fp, tn, fn):
    """Long-form recomputation, independent of the library implementation."""
    out = {}
    out["recall"] = None if tp + fn == 0 else tp / (tp + fn)
    out["specificity"] = None if tn + fp == 0 else tn / (tn + fp)
    out["precision"] = None if tp + fp == 0 else tp / (tp + fp)
    p, r = out["precision"], out["recall"]
    if p is None or r is None or p + r == 0:
        out["f1"] = None
    else:
        out["f1"] = (2 * p * r) / (p + r)
    out["accuracy"] = (tp + tn) / (tp + fp + tn + fn)
    denom_sq = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    if denom_sq == 0:
        out["mcc"] = None
    else:
        out["mcc"] = (tp * tn - fp * fn) / math.sqrt(denom_sq)
    return out


def test_confusion_all_correct_vulnerable():
    cm = confusion([1] * 10, [1] * 10)
    assert (cm.tp, cm.fp, cm.tn, cm.fn) == (10, 0, 0, 0)


def test_confusion_complement():
    truth = [1] * 5 + [0] * 5
    preds = [1 - t for t in truth]
    cm = confusion(preds, truth)
    assert (cm.tp, cm.tn) == (0, 0)
    assert (cm.fp, cm.fn) == (5, 5)


def test_confusion_brute_force_tally():
    rng = np.random.default_rng(7)
    preds = rng.integers(0, 2, size=100).tolist()
    truth = rng.integers(0, 2, size=100).tolist()
    cm = confusion(preds, truth)
    tally = {"tp": 0, "fp": 0, "tn": 0, "fn": 0}
    for p, t in zip(preds, truth):
        key = ("t" if p == t else "f") + ("p" if p == 1 else "n")
        tally[key] += 1
    assert (cm.tp, cm.fp, cm.tn, cm.fn) == (
        tally["tp"], tally["fp"], tally["tn"], tally["fn"],
    )


def test_confusion_length_mismatch():
    with pytest.raises(ValueError):
        confusion([1], [1, 0])
    with pytest.raises(ValueError):
        confusion([], [])


def test_perfect_classifier():
    ms = compute(ConfusionMatrix(tp=50, fp=0, tn=50, fn=0))
    for name, value in asdict(ms).items():
        assert value == pytest.approx(1.0), name


def test_fixed_derived_case():
    ms = compute(ConfusionMatrix(tp=40, fn=10, tn=35, fp=15))
    assert ms.recall == pytest.approx(0.8000, abs=1e-4)
    assert ms.specificity == pytest.approx(0.7000, abs=1e-4)
    assert ms.precision == pytest.approx(0.72727, abs=1e-4)
    assert ms.f1 == pytest.approx(0.76190, abs=1e-4)
    assert ms.accuracy == pytest.approx(0.7500, abs=1e-4)
    assert ms.mcc == pytest.approx(0.50252, abs=1e-4)


def test_zero_denominators_are_undefined():
    ms = compute(ConfusionMatrix(tp=0, fp=0, tn=5, fn=5))
    assert ms.precision is None
    assert ms.mcc is None
    assert ms.specificity == 1.0
    assert ms.recall == 0.0


def test_empty_matrix_rejected():
    with pytest.raises(ValueError):
        compute(ConfusionMatrix(0, 0, 0, 0))
    with pytest.raises(ValueError):
        ConfusionMatrix(-1, 0, 0, 0)


def test_matches_oracle_on_random_matrices():
    rng = np.random.default_rng(123)
    for _ in range(1000):
        tp, fp, tn, fn = (int(v) for v in rng.integers(1, 500, size=4))
        ms = asdict(compute(ConfusionMatrix(tp, fp, tn, fn)))
        want = oracle_metrics(tp, fp, tn, fn)
        for name in ms:
            assert ms[name] == pytest.approx(want[name], abs=1e-12), name


def test_f1_between_precision_and_recall_and_mcc_bounded():
    rng = np.random.default_rng(99)
    for _ in range(500):
        tp, fp, tn, fn = (int(v) for v in rng.integers(1, 300, size=4))
        ms = compute(ConfusionMatrix(tp, fp, tn, fn))
        assert min(ms.precision, ms.recall) - 1e-12 <= ms.f1 <= max(ms.precision, ms.recall) + 1e-12
        assert -1.0 - 1e-12 <= ms.mcc <= 1.0 + 1e-12


def test_prediction_swap_negates_mcc_and_swaps_recall_specificity():
    rng = np.random.default_rng(55)
    for _ in range(200):
        tp, fp, tn, fn = (int(v) for v in rng.integers(1, 200, size=4))
        ms = compute(ConfusionMatrix(tp, fp, tn, fn))
        swapped = compute(ConfusionMatrix(tp=fn, fp=tn, tn=fp, fn=tp))
        assert swapped.mcc == pytest.approx(-ms.mcc, abs=1e-12)
        assert swapped.recall == pytest.approx(1 - ms.recall, abs=1e-12)
        assert swapped.specificity == pytest.approx(1 - ms.specificity, abs=1e-12)


def test_aggregate_single_kind_identity():
    rows = kind_rows({Kind.PU: ConfusionMatrix(10, 2, 8, 3)})
    assert list(rows) == ["PU", "Overall"]
    assert rows["PU"] == rows["Overall"]


def test_aggregate_identical_matrices():
    cm = ConfusionMatrix(10, 2, 8, 3)
    assert aggregate({Kind.PU: cm, Kind.AE: cm}) == compute(cm)


def test_aggregate_of_no_kind_is_refused():
    with pytest.raises(ValueError, match="^need at least one kind$"):
        aggregate({})


def test_aggregate_pools_matrices():
    rng = np.random.default_rng(4)
    matrices = {}
    pooled = ConfusionMatrix(0, 0, 0, 0)
    for kind in (Kind.API, Kind.AU, Kind.PU, Kind.AE):
        tp, fp, tn, fn = (int(v) for v in rng.integers(1, 100, size=4))
        matrices[kind] = ConfusionMatrix(tp, fp, tn, fn)
        pooled = pooled + matrices[kind]
    assert aggregate(matrices) == compute(pooled)


def test_aggregate_invariant_to_partitioning():
    rng = np.random.default_rng(6)
    preds = rng.integers(0, 2, size=400)
    truth = rng.integers(0, 2, size=400)
    kinds = rng.integers(0, 4, size=400)
    order = [Kind.API, Kind.AU, Kind.PU, Kind.AE]
    split_cms = {
        order[k]: confusion(
            preds[kinds == k].tolist(), truth[kinds == k].tolist()
        )
        for k in range(4)
    }
    assert aggregate(split_cms) == compute(confusion(preds.tolist(), truth.tolist()))


def test_kind_rows_orders_kinds_and_derives_each_row():
    matrices = {Kind.AE: ConfusionMatrix(5, 1, 7, 2), Kind.API: ConfusionMatrix(9, 3, 4, 1)}
    rows = kind_rows(matrices)
    assert list(rows) == ["API", "AE", "Overall"]
    for kind, cm in matrices.items():
        assert rows[kind.value] == compute(cm)
    assert rows["Overall"] == aggregate(matrices)


def test_percent_formatting():
    assert percent(0.76190476) == "76.19"
    assert percent(None) == "n/a"
    assert percent(None, undefined="") == ""


def test_csv_row_fixed_case():
    ms = compute(ConfusionMatrix(tp=40, fn=10, tn=35, fp=15))
    assert csv_row(ms) == "80.00,70.00,72.73,76.19,50.25,75.00"


def test_table_layout():
    cm = ConfusionMatrix(tp=40, fn=10, tn=35, fp=15)
    table = format_metric_table(kind_rows({Kind.PU: cm}))
    lines = table.splitlines()
    assert lines[0].split() == ["Category", "Recall", "Spec.", "Prec.", "F1", "MCC", "Acc."]
    assert lines[1].split() == ["PU", "80.00", "70.00", "72.73", "76.19", "50.25", "75.00"]
    assert lines[2].split()[0] == "Overall"
