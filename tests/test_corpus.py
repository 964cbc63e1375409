import json

import pytest

from slicevuln import DataError, Kind, Label, Sample, SampleSet, load, save, split
from slicevuln.synth import REFERENCE_COUNTS, reference_corpus


def make_set(cells):
    """cells: {(kind, label): n} -> SampleSet with synthetic ids."""
    samples = []
    for (kind, label), n in cells.items():
        for i in range(n):
            samples.append(
                Sample(f"{kind.value}-{int(label)}-{i}", kind, label, "x = 1;")
            )
    return SampleSet(samples)


def test_load_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    sset = load(path)
    assert len(sset) == 0
    assert sum(sset.manifest.values()) == 0


def test_load_single_record(tmp_path):
    path = tmp_path / "one.jsonl"
    path.write_text('{"id":"s1","kind":"PU","label":1,"code":"*p = 0;"}\n')
    sset = load(path)
    assert len(sset) == 1
    assert sset.count(Kind.PU, Label.VULNERABLE) == 1
    assert sset.samples[0].code == "*p = 0;"


def test_load_reports_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id":"a","kind":"PU","label":1,"code":"x;"}\nnot json\n')
    with pytest.raises(DataError, match=":2"):
        load(path)


def test_load_unknown_kind_and_label(tmp_path):
    path = tmp_path / "weird.jsonl"
    path.write_text('{"id":"a","kind":"XX","label":1,"code":"x;"}\n')
    with pytest.raises(DataError, match="unknown kind"):
        load(path)
    path.write_text('{"id":"a","kind":"PU","label":2,"code":"x;"}\n')
    with pytest.raises(DataError, match="label"):
        load(path)


def test_duplicate_ids_rejected():
    s = Sample("dup", Kind.API, Label.VULNERABLE, "gets(s);")
    with pytest.raises(DataError, match="duplicate"):
        SampleSet([s, s])


def test_manifest_matches_recount():
    sset = make_set({(Kind.API, Label.VULNERABLE): 3, (Kind.AE, Label.NON_VULNERABLE): 5})
    recount = {}
    for s in sset:
        recount[(s.kind, s.label)] = recount.get((s.kind, s.label), 0) + 1
    assert dict(sset.manifest) == recount


def test_save_load_round_trip(tmp_path):
    sset = SampleSet(
        [
            Sample("a1", Kind.API, Label.VULNERABLE, "gets(s);", source="f.c:3"),
            Sample("a2", Kind.AE, Label.NON_VULNERABLE, "x = a + b;\ny = x;"),
        ]
    )
    path = save(sset, tmp_path / "out.jsonl")
    back = load(path)
    assert [(s.id, s.kind, s.label, s.code, s.source) for s in back] == [
        (s.id, s.kind, s.label, s.code, s.source) for s in sset
    ]


def test_gadget_text_reader(tmp_path):
    path = tmp_path / "gadgets.txt"
    path.write_text(
        "1 src/foo.c func 12\n"
        "char buf[8];\n"
        "strcpy(buf, input);\n"
        "1\n"
        "---------------\n"
        "int x = a + b;\n"
        "0\n"
        "---------------\n"
    )
    sset = load(path, format="gadget-text", default_kind=Kind.API)
    assert len(sset) == 2
    first, second = sset.samples
    assert first.label == Label.VULNERABLE
    assert first.source == "1 src/foo.c func 12"
    assert "strcpy" in first.code
    assert second.label == Label.NON_VULNERABLE
    assert second.kind == Kind.API


def test_gadget_text_bad_label(tmp_path):
    path = tmp_path / "gadgets.txt"
    path.write_text("some code\nmore code\n-----\n")
    with pytest.raises(DataError, match="label"):
        load(path, format="gadget-text")


@pytest.mark.parametrize("format,data", [
    ("jsonlines", b'{"id": "a", "kind": "AU", "label": 0, "code": "b[i] = 0;"}\n\n\n'
                  b'{"id": "b", "kind": "AU", "label": 1, "code": "caf\xe9"}\n'),
    ("gadget-text", b"char *s = 0;\n1\n-----\n/* caf\xe9 */\n0\n-----\n"),
])
def test_load_non_utf8_names_file_and_line(tmp_path, format, data):
    path = tmp_path / "latin1.txt"
    path.write_bytes(data)
    with pytest.raises(DataError, match=r"latin1\.txt:4: not UTF-8 \(byte 0xe9: "):
        load(path, format=format)


def test_unknown_format(tmp_path):
    path = tmp_path / "x.jsonl"
    path.write_text("")
    with pytest.raises(DataError, match="format"):
        load(path, format="csv")


def test_split_8_2():
    sset = make_set({(Kind.API, Label.VULNERABLE): 10})
    train, test = split(sset, 0.8, seed=1)
    assert len(train) == 8 and len(test) == 2


def test_split_is_partition():
    sset = make_set(
        {(k, l): 13 for k in (Kind.API, Kind.PU) for l in (Label.VULNERABLE, Label.NON_VULNERABLE)}
    )
    train, test = split(sset, 0.7, seed=5)
    assert len(train) + len(test) == len(sset)
    assert train.ids() | test.ids() == sset.ids()
    assert not (train.ids() & test.ids())


def test_split_deterministic():
    sset = make_set({(Kind.AU, Label.VULNERABLE): 50, (Kind.AU, Label.NON_VULNERABLE): 50})
    a = split(sset, 0.8, seed=9)
    b = split(sset, 0.8, seed=9)
    assert [s.id for s in a[0]] == [s.id for s in b[0]]
    assert [s.id for s in a[1]] == [s.id for s in b[1]]


def test_split_stratified_exact_cells():
    cells = {
        (k, l): 100
        for k in (Kind.API, Kind.AU, Kind.PU, Kind.AE)
        for l in (Label.VULNERABLE, Label.NON_VULNERABLE)
    }
    sset = make_set(cells)
    train, _ = split(sset, 0.8, seed=3)
    for key in cells:
        assert train.count(*key) == 80


def test_split_stratified_within_one_sample_per_cell():
    sset = make_set({(Kind.API, Label.VULNERABLE): 7, (Kind.PU, Label.NON_VULNERABLE): 13})
    train, test = split(sset, 0.8, seed=2)
    for kind, label, n in ((Kind.API, Label.VULNERABLE, 7), (Kind.PU, Label.NON_VULNERABLE, 13)):
        want_train = 0.8 * n
        assert abs(train.count(kind, label) - want_train) <= 1
        assert train.count(kind, label) + test.count(kind, label) == n


def test_split_bad_fraction():
    sset = make_set({(Kind.API, Label.VULNERABLE): 4})
    for frac in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            split(sset, frac, seed=0)


def test_split_empty_set_rejected():
    with pytest.raises(DataError):
        split(SampleSet([]), 0.8, seed=0)


def test_reference_corpus_matches_reference_counts():
    ref = reference_corpus()
    for kind, (n_vul, n_non) in REFERENCE_COUNTS.items():
        assert ref.count(kind, Label.VULNERABLE) == n_vul
        assert ref.count(kind, Label.NON_VULNERABLE) == n_non
    assert len(ref) == 420627


def test_counts_manifest_round_trip(tmp_path):
    from slicevuln.synth import read_counts_manifest

    path = tmp_path / "counts.json"
    path.write_text(json.dumps({
        k.value: {"vulnerable": v, "non_vulnerable": n} for k, (v, n) in REFERENCE_COUNTS.items()
    }))
    assert read_counts_manifest(path) == REFERENCE_COUNTS
