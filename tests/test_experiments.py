import json
from dataclasses import asdict

import pytest

from slicevuln import (
    ConfusionMatrix,
    Kind,
    ModelConfig,
    Report,
    ResourceUsage,
    StrategySpec,
    TrainConfig,
    compare,
    emit,
    run,
    tokenizer,
)
from slicevuln.balancer import balance_h1, balance_h2
from slicevuln.experiments import encode_set
from slicevuln.metrics import compute
from slicevuln.model import TrainHistory
from slicevuln.synth import pattern_corpus

SMALL_COUNTS = {
    Kind.API: (30, 70),
    Kind.AU: (25, 55),
    Kind.PU: (40, 130),
    Kind.AE: (15, 60),
}


@pytest.fixture(scope="module")
def small_corpus():
    return pattern_corpus(SMALL_COUNTS, seed=5)


def small_spec(sid, seed=42, epochs=2):
    return StrategySpec(
        id=sid,
        model_config=ModelConfig(num_layers=1, hidden_dim=32, num_heads=4,
                                 ff_dim=64, max_len=48, vocab_size=256),
        train_config=TrainConfig(epochs=epochs, early_stop_patience=epochs, seed=seed),
    )


def fake_report(sid, confusion=None, wall=1.0, mem=2**20):
    return Report(
        strategy=small_spec(sid),
        confusion=confusion or {Kind.API: ConfusionMatrix(tp=9, fp=1, tn=9, fn=1)},
        resources=ResourceUsage(wall_time=wall, peak_resident_memory=mem),
        fingerprints={"seed": 42},
        history=TrainHistory(),
    )


def fake_payload(tmp_path, sid, confusion=None, **kwargs):
    run_dir = emit(fake_report(sid, confusion, **kwargs), tmp_path / sid)
    return json.loads((run_dir / "report.json").read_text())


def test_s2_sizes_match_hypothesis(small_corpus):
    report = run(small_spec("S2"), small_corpus)
    balanced = balance_h2(small_corpus, 42)
    assert report.fingerprints["balanced_total"] == len(balanced) == 8 * 15
    assert report.fingerprints["train_size"] + report.fingerprints["val_size"] == len(balanced)
    assert report.fingerprints["test_size"] == report.fingerprints["val_size"]


def test_s1_sizes_match_hypothesis(small_corpus):
    report = run(small_spec("S1"), small_corpus)
    balanced = balance_h1(small_corpus, 42)
    assert report.fingerprints["balanced_total"] == len(balanced) == 2 * (30 + 25 + 40 + 15)
    assert report.fingerprints["train_size"] + report.fingerprints["val_size"] == len(balanced)


def test_s3_tests_on_remainder_disjoint_from_training(small_corpus):
    from slicevuln import remainder, split

    report = run(small_spec("S3"), small_corpus)
    balanced = balance_h2(small_corpus, 42)
    assert report.fingerprints["test_size"] == len(small_corpus) - len(balanced)
    # regenerate both sides from the fingerprinted seed: disjoint by id
    train_set, _ = split(balanced.samples, 42)
    test_set = remainder(small_corpus, balanced)
    assert not (train_set.ids() & test_set.ids())
    import hashlib

    digest = hashlib.sha256()
    for s in train_set:
        digest.update(s.id.encode())
        digest.update(b"\0")
    assert digest.hexdigest() == report.fingerprints["train_ids_sha256"]


def test_s3_is_s2_fit_scored_on_the_remainder(small_corpus):
    s2 = run(small_spec("S2"), small_corpus)
    s3 = run(small_spec("S3"), small_corpus)
    for key in ("train_ids_sha256", "vocab_sha256", "train_size", "val_size"):
        assert s3.fingerprints[key] == s2.fingerprints[key], key
    assert s3.history == s2.history
    assert s3.fingerprints["test_ids_sha256"] != s2.fingerprints["test_ids_sha256"]


def test_vocabulary_follows_the_model_config(small_corpus):
    # the vocabulary is sized by model_config.vocab_size, so no token id can
    # fall outside the embedding table
    spec = StrategySpec(
        id="S2",
        model_config=ModelConfig(num_layers=1, hidden_dim=8, num_heads=2, ff_dim=16,
                                 max_len=32, vocab_size=16),
        train_config=TrainConfig(epochs=1, early_stop_patience=1),
    )
    report = run(spec, small_corpus)
    assert report.history.stopped_epoch == 1
    assert report.overall.accuracy is not None


def test_same_spec_twice_identical_except_wall_time(small_corpus):
    r1 = run(small_spec("S2"), small_corpus)
    r2 = run(small_spec("S2"), small_corpus)
    assert r1.confusion == r2.confusion
    assert r1.fingerprints == r2.fingerprints
    assert r1.history.train_loss == r2.history.train_loss


def test_stage_name_attached_to_errors(small_corpus):
    from slicevuln import DataError, Label, SampleSet

    # AE keeps its non-vulnerable pool but loses every vulnerable sample
    bad = SampleSet(
        s for s in small_corpus
        if not (s.kind == Kind.AE and s.label == Label.VULNERABLE)
    )
    spec = small_spec("S2")
    with pytest.raises(DataError, match=r"\[stage: balance\]"):
        run(spec, bad)


def test_emit_table_perfect_classifier(tmp_path):
    cm = ConfusionMatrix(tp=10, fp=0, tn=10, fn=0)
    report = fake_report("S2", {k: cm for k in Kind})
    body = (emit(report, tmp_path) / "metrics.txt").read_text()
    cells = [c for line in body.splitlines()[2:] for c in line.split()[1:]]
    assert cells and all(c == "100.00" for c in cells)
    assert body.splitlines()[2].split()[0] == "API"


def test_emit_csv_round_trip(tmp_path, small_corpus):
    report = run(small_spec("S2"), small_corpus)
    lines = (emit(report, tmp_path) / "metrics.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header == ["category", "recall", "specificity", "precision", "f1", "mcc", "accuracy"]
    overall_row = [l for l in lines if l.startswith("Overall,")][0].split(",")
    for name, cell in zip(header[1:], overall_row[1:]):
        value = getattr(report.overall, name)
        if cell == "":
            assert value is None
        else:
            assert float(cell) == pytest.approx(100 * value, abs=5e-3)


def test_emit_table_derived_confusion_row(tmp_path):
    report = fake_report("S1", {Kind.PU: ConfusionMatrix(tp=40, fn=10, tn=35, fp=15)})
    body = (emit(report, tmp_path) / "metrics.txt").read_text()
    row = [l for l in body.splitlines() if l.startswith("PU")][0]
    assert row.split()[1:] == ["80.00", "70.00", "72.73", "76.19", "50.25", "75.00"]


def test_emit_json_carries_resources_and_fingerprints(tmp_path, small_corpus):
    report = run(small_spec("S2"), small_corpus)
    payload = json.loads((emit(report, tmp_path) / "report.json").read_text())
    assert payload["strategy"] == "S2"
    assert payload["resources"]["wall_time_seconds"] >= 0
    assert payload["fingerprints"]["balanced_total"] == 120
    assert payload["metrics"]["Overall"]["accuracy"] is not None
    # every metric row is derived from the stored matrices, Overall from their sum
    matrices = {kind: ConfusionMatrix(**cells) for kind, cells in payload["confusion"].items()}
    assert list(payload["metrics"]) == [*matrices, "Overall"]
    for kind, cm in matrices.items():
        assert payload["metrics"][kind] == asdict(compute(cm))
    pooled = sum(matrices.values(), ConfusionMatrix(0, 0, 0, 0))
    assert payload["metrics"]["Overall"] == asdict(compute(pooled))


def test_emit_unwritable_path(tmp_path):
    target = tmp_path / "x"
    target.write_text("")
    with pytest.raises(OSError):
        emit(fake_report("S1"), target / "impossible")


def test_compare_identical_reports(tmp_path):
    a = fake_payload(tmp_path, "S1")
    b = fake_payload(tmp_path, "S1")
    lines = compare([a, b]).splitlines()
    assert len(lines) == 3
    assert lines[1] == lines[2]


def test_compare_orders_strategies(tmp_path):
    # one matrix each, with F1 90%, 80% and 60%
    payloads = [
        fake_payload(tmp_path, sid, {Kind.API: ConfusionMatrix(tp=tp, fp=fp, tn=10, fn=fn)})
        for sid, (tp, fp, fn) in zip(("S1", "S2", "S3"), ((9, 1, 1), (8, 2, 2), (6, 4, 4)))
    ]
    rows = [line.split(",") for line in compare(payloads).splitlines()[1:]]
    assert [r[0] for r in rows] == ["S1", "S2", "S3"]
    s1, s2, s3 = (float(r[1]) for r in rows)
    assert s1 > s2 > s3


def test_strategy_spec_validation():
    with pytest.raises(ValueError):
        StrategySpec(id="S9")
    assert StrategySpec(id="S1").hypothesis == "H1"
    assert StrategySpec(id="S3").hypothesis == "H2"


def test_the_train_config_seed_is_the_run_seed():
    spec = StrategySpec(id="S1", train_config=TrainConfig(seed=7))
    assert spec.seed == 7
    with pytest.raises(AttributeError):
        spec.seed = 8
    with pytest.raises(TypeError):
        StrategySpec(id="S1", seed=7)


def test_encode_set_holds_the_ids_once():
    # the rows fill one array as they are encoded: no list of rows beside it
    import tracemalloc

    samples = pattern_corpus({Kind.API: (1000, 1000)}, seed=5)
    texts = [tokenizer.normalize(s.code) for s in samples]
    vocab = tokenizer.build_vocab(texts, 256)
    tracemalloc.start()
    try:
        data = encode_set(samples, texts, vocab, 512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert data.ids.shape == (2000, 512)
    assert peak <= 1.25 * data.ids.nbytes, (
        f"encode_set peaked at {peak} bytes for {data.ids.nbytes} of ids")
