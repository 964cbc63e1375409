"""Acceptance suite: one test per release criterion, at stated tolerances.

The terminal summary (see conftest) prints one PASS/FAIL line per
criterion. Run with:  pytest tests/test_acceptance.py -v
"""

import re
import time

import numpy as np
import pytest

from slicevuln import (
    ConfusionMatrix,
    Kind,
    ModelConfig,
    StrategySpec,
    TrainConfig,
    balance_h1,
    balance_h2,
    compute,
    extract_candidates,
    grad_check,
    init,
    lex,
    predict,
    remainder,
    train,
)
from slicevuln.corpus import KIND_ORDER, Label, Sample, SampleSet
from slicevuln.experiments import emit, run
from slicevuln.slicer import C_KEYWORDS, DEFAULT_API_LIST, TokenClass
from slicevuln.synth import _make_slice, pattern_corpus, reference_corpus
from slicevuln.tokenizer import EncodedDataset, Vocab, build_vocab, encode, normalize

from golden_corpus import GOLDEN
from test_metrics import oracle_metrics


@pytest.fixture(scope="module")
def ref_corpus():
    return reference_corpus()


@pytest.fixture(scope="module")
def desk_corpus():
    return pattern_corpus(seed=42)


def desk_spec(sid: str) -> StrategySpec:
    return StrategySpec(
        id=sid,
        model_config=ModelConfig(max_len=48, vocab_size=512),
        train_config=TrainConfig(epochs=6, early_stop_patience=3, seed=42),
    )


def separable_toy_set(n: int, seed: int) -> SampleSet:
    """Tiny perfectly separable corpus for the overfit benchmark."""
    rng = np.random.default_rng(seed)
    samples = []
    for i in range(n):
        label = Label(i % 2)
        kind = KIND_ORDER[i % 4]
        code = _make_slice(kind, label, rng)
        samples.append(
            Sample(id=f"toy-{i:03d}", kind=kind, label=label, code=code, source="toy")
        )
    return SampleSet(samples)


@pytest.fixture(scope="module")
def strategy_reports(desk_corpus):
    reports = {sid: run(desk_spec(sid), desk_corpus) for sid in ("S1", "S2", "S3")}
    reports["S2_repeat"] = run(desk_spec("S2"), desk_corpus)
    return reports


def test_criterion_01_balancing_exactness(ref_corpus):
    t0 = time.monotonic()
    h1 = balance_h1(ref_corpus, seed=42)
    h2 = balance_h2(ref_corpus, seed=42)
    elapsed = time.monotonic() - t0

    h1_totals = {k.value: v + n for k, (v, n) in h1.per_kind_counts.items()}
    assert h1_totals == {"API": 27206, "AU": 21852, "PU": 56782, "AE": 6950}
    assert len(h1) == 112790

    h2_totals = {k.value: v + n for k, (v, n) in h2.per_kind_counts.items()}
    assert h2_totals == {k.value: 6950 for k in Kind}
    assert len(h2) == 27800

    assert elapsed < 5.0, f"balancing took {elapsed:.2f}s, budget is 5s"


def test_criterion_02_remainder_arithmetic(ref_corpus):
    rest = remainder(ref_corpus, balance_h2(ref_corpus, seed=42))
    assert len(rest) == 420627 - 27800 == 392827


def test_criterion_03_metric_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        tp, fp, tn, fn = (int(v) for v in rng.integers(1, 1000, size=4))
        got = compute(ConfusionMatrix(tp, fp, tn, fn)).as_dict()
        want = oracle_metrics(tp, fp, tn, fn)
        for name in got:
            assert abs(got[name] - want[name]) <= 1e-12, name

    fixed = compute(ConfusionMatrix(tp=40, fn=10, tn=35, fp=15))
    expected = dict(recall=0.8000, specificity=0.7000, precision=0.7273,
                    f1=0.7619, accuracy=0.7500, mcc=0.5025)
    for name, want in expected.items():
        assert abs(getattr(fixed, name) - want) <= 1e-4, name


def test_criterion_04_gradient_correctness():
    from conftest import random_dataset

    t0 = time.monotonic()
    cfg = ModelConfig(num_layers=1, hidden_dim=8, num_heads=2, ff_dim=32,
                      max_len=16, vocab_size=48, dropout=0.0)
    net = init(cfg, seed=11)
    data = random_dataset(cfg, 6, seed=21)
    assert all(p.dtype == np.float64 for p in net.params.values())
    err = grad_check(net, data, data.labels, epsilon=1e-5, num_samples=200)
    elapsed = time.monotonic() - t0
    assert err < 1e-4, f"max relative gradient error {err:.3e}"
    assert elapsed < 60.0


def test_criterion_05_overfit_benchmark():
    t0 = time.monotonic()
    toy = separable_toy_set(64, seed=0)
    texts = [normalize(s.code) for s in toy]
    vocab = build_vocab(texts, 512)
    cfg = ModelConfig(max_len=64, vocab_size=512)  # desk shape: 2/64/4/256
    data = EncodedDataset.from_encodings(
        [encode(t, vocab, cfg.max_len) for t in texts],
        [int(s.label) for s in toy],
    )
    tcfg = TrainConfig(epochs=100, early_stop_patience=100, seed=42)
    net, history = train(init(cfg, seed=42), data, data, tcfg)
    accuracy = float((predict(net, data) == data.labels).mean())
    elapsed = time.monotonic() - t0
    assert history.stopped_epoch <= 200
    assert accuracy == 1.0, f"train accuracy {accuracy:.3f}"
    assert elapsed < 300.0


def test_criterion_06_desk_scale_end_to_end(desk_corpus, strategy_reports):
    t0 = time.monotonic()
    assert len(desk_corpus) == 2000
    f1 = {sid: strategy_reports[sid].overall.f1 for sid in ("S1", "S2", "S3")}
    assert f1["S2"] >= 0.90, f"held-out S2 F1 {f1['S2']:.4f}"
    assert f1["S1"] > f1["S2"] > f1["S3"], f"ordering violated: {f1}"
    # fixture training time counts toward the budget; it is minutes, not hours
    assert time.monotonic() - t0 < 900.0


def test_criterion_07_slicer_golden_corpus():
    assert len(GOLDEN) == 20
    seen_kinds = set()
    for name, src, expected in GOLDEN:
        got = [(c.kind, c.focus, c.line) for c in extract_candidates(src)]
        assert got == expected, f"{name}: expected {expected}, got {got}"
        assert "".join(t.text for t in lex(src)) == src, f"{name}: round trip"
        seen_kinds.update(k for k, _, _ in expected)
    assert seen_kinds == set(Kind)
    assert any(not expected for _, _, expected in GOLDEN)  # negative cases present


def test_criterion_08_determinism(strategy_reports, tmp_path):
    a, b = strategy_reports["S2"], strategy_reports["S2_repeat"]
    files = {}
    for tag, report in (("a", a), ("b", b)):
        files[tag] = [
            emit(report, "csv", tmp_path / tag / "metrics.csv"),
            emit(report, "table", tmp_path / tag / "metrics.txt"),
        ]
    for fa, fb in zip(files["a"], files["b"]):
        assert fa.read_bytes() == fb.read_bytes(), f"{fa.name} differs between runs"


_PLACEHOLDER = re.compile(r"(?:VAR|FUN)\d+$|^(?:STR|NUM)$")


def _alpha_rename(code: str, rng: np.random.Generator) -> str:
    mapping = {}
    out = []
    for t in lex(code):
        if (
            t.cls is TokenClass.IDENTIFIER
            and t.text not in C_KEYWORDS
            and t.text not in DEFAULT_API_LIST
            and not _PLACEHOLDER.match(t.text)
        ):
            if t.text not in mapping:
                mapping[t.text] = f"ren{len(mapping)}x{int(rng.integers(100, 999))}"
            out.append(mapping[t.text])
        else:
            out.append(t.text)
    return "".join(out)


def test_criterion_09_tokenizer_properties(desk_corpus):
    rng = np.random.default_rng(7)
    samples = list(desk_corpus.samples)
    picks = rng.choice(len(samples), size=520, replace=False)
    vocab = build_vocab([normalize(samples[i].code) for i in picks[:200]], 512)

    for i in picks:
        code = samples[i].code
        norm = normalize(code)
        # idempotence
        assert normalize(norm) == norm
        # alpha-equivalent slices normalize and encode identically
        renamed = _alpha_rename(code, rng)
        assert normalize(renamed) == norm
        max_len = int(rng.integers(8, 96))
        enc_a = encode(norm, vocab, max_len)
        enc_b = encode(normalize(renamed), vocab, max_len)
        assert np.array_equal(enc_a.ids, enc_b.ids)
        assert np.array_equal(enc_a.attention_mask, enc_b.attention_mask)
        # fixed-length contract
        assert enc_a.ids.shape == (max_len,)
        assert enc_a.attention_mask.shape == (max_len,)
        assert np.array_equal(enc_a.attention_mask == 0, enc_a.ids == Vocab.PAD)
