import hashlib

import pytest

from slicevuln import (
    DataError,
    Kind,
    Label,
    Sample,
    SampleSet,
    balance_h1,
    balance_h2,
    remainder,
)
from slicevuln.balancer import save_balanced
from slicevuln.corpus import CELL_ORDER, KIND_ORDER, load, save
from slicevuln.synth import pattern_corpus, reference_corpus

from conftest import REFERENCE_CORPUS_SHA256


def make_corpus(cells):
    samples = []
    for (kind, label), n in cells.items():
        for i in range(n):
            samples.append(
                Sample(f"{kind.value}-{int(label)}-{i:05d}", kind, label, "x = 1;")
            )
    return SampleSet(samples)


def uniform_cells(vul, non):
    return {
        (k, l): (vul if l == Label.VULNERABLE else non)
        for k in KIND_ORDER
        for l in (Label.VULNERABLE, Label.NON_VULNERABLE)
    }


def test_h1_balances_each_kind():
    corpus = make_corpus(uniform_cells(10, 40))
    bset = balance_h1(corpus, seed=0)
    for kind in KIND_ORDER:
        assert bset.per_kind_counts[kind] == (10, 10)
    assert bset.samples.counts() == {cell: 10 for cell in CELL_ORDER}
    assert len(bset) == 2 * 40


def test_h1_total_is_twice_vulnerable():
    cells = uniform_cells(7, 30)
    cells[(Kind.PU, Label.VULNERABLE)] = 19
    corpus = make_corpus(cells)
    bset = balance_h1(corpus, seed=3)
    total_vul = sum(n for (k, l), n in cells.items() if l == Label.VULNERABLE)
    assert len(bset) == 2 * total_vul


def test_h1_missing_kind_and_empty_class():
    cells = {
        (Kind.API, Label.VULNERABLE): 5,
        (Kind.API, Label.NON_VULNERABLE): 9,
        (Kind.AE, Label.NON_VULNERABLE): 4,  # zero vulnerable AE
    }
    bset = balance_h1(make_corpus(cells), seed=0)
    counts = bset.samples.counts()
    assert counts[Kind.AE, Label.VULNERABLE] == 0
    assert counts[Kind.AE, Label.NON_VULNERABLE] == 0
    assert bset.per_kind_counts[Kind.AE] == (0, 0)
    assert len(bset) == 10


def test_h1_without_vulnerable_samples_rejected():
    corpus = make_corpus({(Kind.API, Label.NON_VULNERABLE): 2, (Kind.AU, Label.NON_VULNERABLE): 3})
    with pytest.raises(DataError, match="^corpus has no vulnerable samples$"):
        balance_h1(corpus, seed=0)


@pytest.mark.parametrize("balance", [balance_h1, balance_h2], ids=["h1", "h2"])
def test_empty_corpus_rejected(balance):
    with pytest.raises(DataError, match="^corpus is empty$"):
        balance(SampleSet([]), seed=0)


@pytest.mark.parametrize("balance", [balance_h1, balance_h2], ids=["h1", "h2"])
def test_insufficient_pool_names_kind(balance):
    # the quota is 10 under both: PU's vulnerable count, and the smallest one
    cells = uniform_cells(10, 40)
    cells[(Kind.PU, Label.NON_VULNERABLE)] = 9
    with pytest.raises(DataError) as err:
        balance(make_corpus(cells), seed=0)
    assert str(err.value) == "kind PU: non-vulnerable pool (9) is smaller than the quota (10)"


def test_h1_deterministic_and_seed_sensitive():
    corpus = make_corpus(uniform_cells(10, 200))
    a = balance_h1(corpus, seed=42)
    b = balance_h1(corpus, seed=42)
    c = balance_h1(corpus, seed=7)
    assert a.samples.ids() == b.samples.ids()
    assert a.samples.ids() != c.samples.ids()
    assert len(c) == len(a)  # seeds change membership, never counts


def test_h1_ignores_input_order():
    corpus = make_corpus(uniform_cells(6, 50))
    reordered = SampleSet(sorted(corpus.samples, key=lambda s: s.id[::-1]))
    assert balance_h1(corpus, seed=5).samples.ids() == \
        balance_h1(reordered, seed=5).samples.ids()


def test_h2_quota_is_min_vulnerable():
    cells = uniform_cells(20, 60)
    cells[(Kind.AE, Label.VULNERABLE)] = 9
    bset = balance_h2(make_corpus(cells), seed=1)
    for kind in KIND_ORDER:
        assert bset.per_kind_counts[kind] == (9, 9)
    assert len(bset) == 8 * 9


def test_h2_equal_counts_keeps_all_vulnerable():
    corpus = make_corpus(uniform_cells(12, 25))
    bset = balance_h2(corpus, seed=0)
    assert len(bset) == 8 * 12
    for kind in KIND_ORDER:
        vul_ids = {s.id for s in corpus if s.kind == kind and s.label == Label.VULNERABLE}
        got = {s.id for s in bset.samples if s.kind == kind and s.label == Label.VULNERABLE}
        assert got == vul_ids


def test_h2_empty_class_rejected():
    cells = uniform_cells(5, 20)
    del cells[(Kind.AU, Label.VULNERABLE)]
    with pytest.raises(DataError, match="AU"):
        balance_h2(make_corpus(cells), seed=0)


def test_h2_class_balance_exact():
    bset = balance_h2(make_corpus(uniform_cells(15, 90)), seed=8)
    for kind, (v, n) in bset.per_kind_counts.items():
        assert v == n


def test_balanced_ids_subset_of_corpus():
    corpus = make_corpus(uniform_cells(10, 50))
    for bset in (balance_h1(corpus, seed=2), balance_h2(corpus, seed=2)):
        assert bset.samples.ids() <= corpus.ids()


def test_remainder_subtraction():
    corpus = make_corpus(uniform_cells(10, 50))
    bset = balance_h2(corpus, seed=4)
    rest = remainder(corpus, bset)
    assert len(rest) == len(corpus) - len(bset)
    assert rest.ids() == corpus.ids() - bset.samples.ids()


def test_remainder_of_everything_is_empty():
    corpus = make_corpus(uniform_cells(4, 4))
    bset = balance_h2(corpus, seed=0)
    assert len(bset) == len(corpus)
    assert len(remainder(corpus, bset)) == 0


def test_remainder_of_empty_balanced_is_corpus():
    from slicevuln.balancer import BalancedSet

    corpus = make_corpus(uniform_cells(3, 3))
    empty = BalancedSet(SampleSet([]), "H1", 0, {})
    rest = remainder(corpus, empty)
    assert rest.ids() == corpus.ids()


def test_remainder_foreign_id_rejected():
    from slicevuln.balancer import BalancedSet

    corpus = make_corpus(uniform_cells(3, 3))
    foreign = BalancedSet(
        SampleSet([Sample("ghost", Kind.API, Label.VULNERABLE, "x;")]), "H1", 0, {}
    )
    with pytest.raises(DataError, match="ghost"):
        remainder(corpus, foreign)


def test_remainder_mixed_ids_names_the_foreign_one():
    from slicevuln.balancer import BalancedSet

    corpus = make_corpus(uniform_cells(3, 3))
    mixed = BalancedSet(
        SampleSet([corpus.samples[0], Sample("x", Kind.API, Label.VULNERABLE, "x;")]),
        "H1", 0, {},
    )
    with pytest.raises(DataError) as err:
        remainder(corpus, mixed)
    assert str(err.value) == ("balanced set contains 1 id(s) not present in the corpus, "
                              "e.g. 'x'")


def test_pools_are_built_once_per_corpus_and_freed_with_it(monkeypatch):
    import gc
    import weakref

    from slicevuln import balancer

    grouped = []
    group = balancer._group
    monkeypatch.setattr(balancer, "_group", lambda c: grouped.append(len(c)) or group(c))
    gc.collect()  # a corpus an earlier test left in a reference cycle goes now, not mid-test
    cached_before = len(balancer._POOLS)
    corpus = make_corpus(uniform_cells(10, 40))
    first = balance_h1(corpus, seed=0)
    balance_h2(corpus, seed=0)
    assert balance_h1(corpus, seed=0).samples.samples == first.samples.samples
    assert grouped == [len(corpus)]
    assert len(balancer._POOLS) == cached_before + 1

    ref = weakref.ref(corpus)
    del corpus
    gc.collect()
    assert ref() is None
    assert len(balancer._POOLS) == cached_before


def test_save_balanced_sidecar(tmp_path):
    import json

    bset = balance_h2(make_corpus(uniform_cells(5, 9)), seed=11)
    data_path, manifest_path = save_balanced(bset, tmp_path)
    manifest = json.loads(manifest_path.read_text())
    assert manifest["hypothesis"] == "H2"
    assert manifest["seed"] == 11
    assert manifest["total"] == len(bset)
    back = load(data_path)
    assert back.ids() == bset.samples.ids()


@pytest.fixture(scope="module")
def reference():
    return reference_corpus()


def test_reference_h1_counts(reference):
    bset = balance_h1(reference, seed=42)
    totals = {k.value: v + n for k, (v, n) in bset.per_kind_counts.items()}
    assert totals == {"API": 27206, "AU": 21852, "PU": 56782, "AE": 6950}
    assert len(bset) == 112790


def test_reference_h2_counts(reference):
    bset = balance_h2(reference, seed=42)
    assert all(c == (3475, 3475) for c in bset.per_kind_counts.values())
    assert len(bset) == 27800


def test_reference_h2_quota_shifts_with_min(reference):
    # dropping one vulnerable AE sample lowers the quota to 3,474
    drop_id = next(
        s.id for s in reference if s.kind == Kind.AE and s.label == Label.VULNERABLE
    )
    smaller = SampleSet(s for s in reference if s.id != drop_id)
    bset = balance_h2(smaller, seed=42)
    assert len(bset) == 8 * 3474 == 27792


def test_reference_remainder(reference):
    bset = balance_h2(reference, seed=42)
    assert len(remainder(reference, bset)) == 392827


def _corpus_bytes_digest(sset, tmp_path):
    return len(sset), hashlib.sha256(save(sset, tmp_path / "c.jsonl").read_bytes()).hexdigest()


def _ids_digest(bset):
    return len(bset), hashlib.sha256("\n".join(s.id for s in bset.samples).encode()).hexdigest()


@pytest.mark.parametrize("make, count, digest", [
    (lambda: pattern_corpus(seed=42), 2000,
     "fbc631136f6119ff68b3c8d826e654757f0667710d0d0edfd7d322c2a81729d9"),
    # AU absent, AE with non-vulnerable samples only
    (lambda: pattern_corpus({Kind.API: (40, 60), Kind.PU: (25, 30), Kind.AE: (0, 20)}, seed=42),
     175, "eeee85d576afc0fdfb345bf7953fd147b084055d60ae862bc71b22750cc8397a"),
    (None, 420627, REFERENCE_CORPUS_SHA256),
], ids=["desk-42", "counts", "reference"])
def test_generated_corpora_are_frozen(make, count, digest, reference, tmp_path):
    # the bytes corpus.save writes: ids, order, texts and sources of every cell
    sset = reference if make is None else make()
    assert _corpus_bytes_digest(sset, tmp_path) == (count, digest)


@pytest.mark.parametrize("corpus_seed, balance, count, digest", [
    (42, balance_h1, 880, "d0f71029f58acd4a87b4be7f9515bcca3cde31e478f6386fd6a2e73055a5b5f8"),
    (42, balance_h2, 480, "d4ee746ebb0734470fce18ae23829200b4c4d3620b6084721fbab5af29331767"),
    (7, balance_h1, 880, "b88668bc7a54c795585d91edcdfcb01f73d5dd67f4e8027648ee1c823b073b1d"),
    (7, balance_h2, 480, "9781147fa671a04ad060ef7d55f7e44a389909839186b43b74a8bb27ab8138e0"),
    (None, balance_h1, 112790,
     "f628402a22412a93b9a41e7de034cd0101bd2178dcd9d0dd9c69883ed2065100"),
    (None, balance_h2, 27800,
     "49f4aba905f4e0d85e3b896f87e7098eae16b9abda13313f6cac53c14f512d96"),
], ids=["desk-42-h1", "desk-42-h2", "desk-7-h1", "desk-7-h2", "reference-h1", "reference-h2"])
def test_balanced_selections_are_frozen(corpus_seed, balance, count, digest, reference):
    # the selected ids in set order; the desk corpus is balanced at its own seed
    if corpus_seed is None:
        bset = balance(reference, seed=42)
    else:
        bset = balance(pattern_corpus(seed=corpus_seed), seed=corpus_seed)
    assert _ids_digest(bset) == (count, digest)
