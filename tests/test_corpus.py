import contextlib
import dataclasses
import gc
import inspect
import json
import pickle
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from slicevuln import (
    DataError, Kind, Label, Sample, SampleSet, balance_h1, balance_h2, load, remainder, save,
    split,
)
from slicevuln.corpus import CELL_ORDER
from slicevuln.synth import REFERENCE_COUNTS, reference_corpus

FIXTURES = Path(__file__).resolve().parent / "fixtures"


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
    assert sset.counts() == {}


def test_load_single_record(tmp_path):
    path = tmp_path / "one.jsonl"
    path.write_text('{"id":"s1","kind":"PU","label":1,"code":"*p = 0;"}\n')
    sset = load(path)
    assert len(sset) == 1
    assert sset.counts() == {(Kind.PU, Label.VULNERABLE): 1}
    assert sset.samples[0].code == "*p = 0;"


GOOD = {"id": "a", "kind": "PU", "label": 1, "code": "*p = 0;"}


def record(**fields) -> str:
    """GOOD as one JSON line with ``fields`` changed; a field set to ... is dropped."""
    obj = {**GOOD, **fields}
    return json.dumps({k: v for k, v in obj.items() if v is not ...})


# (id, file text, the line the error names, the rest of the error message)
REJECTED = [
    ("not-json", record() + "\nnot json\n", 2, "malformed JSON record (Expecting value)"),
    ("extra-data", record() + " " + record() + "\n", 1, "malformed JSON record (Extra data)"),
    ("truncated", '{"id": "a"\n', 1, "malformed JSON record (Expecting ',' delimiter)"),
    ("bom", "\ufeff" + record() + "\n", 1,
     "malformed JSON record (Unexpected UTF-8 BOM (decode using utf-8-sig))"),
    ("not-object", record() + "\n[1, 2]\n", 2, "record is not an object"),
    ("missing-id", record(id=...) + "\n", 1, "missing field 'id'"),
    ("missing-kind", record(kind=...) + "\n", 1, "missing field 'kind'"),
    ("missing-label", record(label=...) + "\n", 1, "missing field 'label'"),
    ("missing-code", record(code=...) + "\n", 1, "missing field 'code'"),
    ("missing-all", "{}\n", 1, "missing field 'id'"),
    ("id-null", record(id=None) + "\n", 1,
     "id must be a non-empty string or an integer, got None"),
    ("id-true", record(id=True) + "\n", 1,
     "id must be a non-empty string or an integer, got True"),
    ("id-float", record(id=7.5) + "\n", 1,
     "id must be a non-empty string or an integer, got 7.5"),
    ("id-array", record(id=["a"]) + "\n", 1,
     "id must be a non-empty string or an integer, got ['a']"),
    ("id-object", record(id={"a": 1}) + "\n", 1,
     "id must be a non-empty string or an integer, got {'a': 1}"),
    ("id-empty", record(id="") + "\n", 1,
     "id must be a non-empty string or an integer, got ''"),
    ("unknown-kind", record(kind="XX") + "\n", 1, "unknown kind 'XX'"),
    ("kind-array", record(kind=["API"]) + "\n", 1, "unknown kind ['API']"),
    ("kind-object", record(kind={"API": 1}) + "\n", 1, "unknown kind {'API': 1}"),
    ("label-2", record(label=2) + "\n", 1, "label must be 0 or 1, got 2"),
    ("label-str", record(label="1") + "\n", 1, "label must be 0 or 1, got '1'"),
    ("label-list", record(label=[1]) + "\n", 1, "label must be 0 or 1, got [1]"),
    # a label is the integer 0 or 1, as an id is a string or an integer
    ("label-true", record(label=True) + "\n", 1, "label must be 0 or 1, got True"),
    ("label-float", record(label=1.0) + "\n", 1, "label must be 0 or 1, got 1.0"),
    ("label-false", record(label=False) + "\n", 1, "label must be 0 or 1, got False"),
    ("label-zero-float", record(label=0.0) + "\n", 1, "label must be 0 or 1, got 0.0"),
    ("empty-code", record(code="") + "\n", 1, "code must be a non-empty string"),
    # json.dumps writes each lone surrogate as a \\uXXXX escape
    ("surrogate-code", record() + "\n" + record(id="b", code="x\ud800") + "\n", 2,
     "code holds a lone surrogate (U+D800)"),
    ("surrogate-id", record(id="\udfffx") + "\n", 1, "id holds a lone surrogate (U+DFFF)"),
    ("surrogate-source", record(source="\ude00\ud83d") + "\n", 1,
     "source holds a lone surrogate (U+DE00)"),
    ("int-code", record(code=5) + "\n", 1, "code must be a non-empty string"),
    ("source-array", record(source=["f\ud800"]) + "\n", 1,
     "source must be a string or null, got ['f\\ud800']"),
    ("source-number", record(source=3) + "\n", 1, "source must be a string or null, got 3"),
    ("source-object", record(source={"file": "f.c"}) + "\n", 1,
     "source must be a string or null, got {'file': 'f.c'}"),
    ("after-blank-lines", "\n \t\n" + record(kind="XX") + "\n", 3, "unknown kind 'XX'"),
    ("crlf", record() + "\r\nnot json\r\n", 2, "malformed JSON record (Expecting value)"),
    ("no-final-newline", record() + "\nnot json", 2, "malformed JSON record (Expecting value)"),
    # rows are checked as they are read: the first bad line in file order wins
    ("duplicate-before-malformed", record() + "\n" + record() + "\nnot json\n", 2,
     "duplicate sample id 'a' (first on line 1)"),
    # json.dumps cannot write these, so the value is put in as text
    ("huge-int-label", record() + "\n" + record(id="b", label="L").replace('"L"', "1" * 4400)
     + "\n", 2, "malformed JSON record (Exceeds the limit (4300 digits) for integer string "
     "conversion: value has 4400 digits; use sys.set_int_max_str_digits() to increase the "
     "limit)"),
    ("huge-int-id", record(id="I").replace('"I"', "7" * 5000) + "\n", 1,
     "malformed JSON record (Exceeds the limit (4300 digits) for integer string conversion: "
     "value has 5000 digits; use sys.set_int_max_str_digits() to increase the limit)"),
    ("deep-nesting", record(code="C").replace('"C"', "[" * 100_000 + "]" * 100_000) + "\n", 1,
     "malformed JSON record (maximum recursion depth exceeded while decoding a JSON array "
     "from a unicode string)"),
]


@pytest.mark.parametrize("text,lineno,message", [r[1:] for r in REJECTED],
                         ids=[r[0] for r in REJECTED])
def test_load_rejection_names_its_line(tmp_path, text, lineno, message):
    path = tmp_path / "bad.jsonl"
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(DataError) as err:
        load(path)
    assert str(err.value) == f"{path}:{lineno}: {message}"


PU_VUL = Sample("a", Kind.PU, Label.VULNERABLE, "*p = 0;")
PU_NON = replace(PU_VUL, label=Label.NON_VULNERABLE)

# (id, file text, the samples it loads as)
ACCEPTED = [
    ("label-zero", record(label=0) + "\n", [PU_NON]),
    ("int-id", record(id=7) + "\n", [replace(PU_VUL, id="7")]),
    ("source", record(source="f.c:3") + "\n", [replace(PU_VUL, source="f.c:3")]),
    ("source-null", record(source=None) + "\n", [PU_VUL]),
    ("surrogate-pair", record(code="x\U0001f600") + "\n", [replace(PU_VUL, code="x\U0001f600")]),
    ("padded", "  " + record() + " \t\n", [PU_VUL]),
    ("blank-lines", "\n" + record() + "\n\n \t\n\x0c\n" + record(id="b") + "\n",
     [PU_VUL, replace(PU_VUL, id="b")]),
    ("crlf", record() + "\r\n" + record(id="b") + "\r\n", [PU_VUL, replace(PU_VUL, id="b")]),
    ("no-final-newline", record() + "\n" + record(id="b"), [PU_VUL, replace(PU_VUL, id="b")]),
]


@pytest.mark.parametrize("text,samples", [r[1:] for r in ACCEPTED],
                         ids=[r[0] for r in ACCEPTED])
def test_load_accepts(tmp_path, text, samples):
    path = tmp_path / "ok.jsonl"
    path.write_bytes(text.encode("utf-8"))
    loaded = load(path).samples
    assert loaded == samples
    assert [type(s.label) for s in loaded] == [Label] * len(samples)


@pytest.mark.parametrize("text,message", [
    pytest.param(record() + "\n" + record(id="b") + "\n\n" + record(kind="AU") + "\n",
                 "4: duplicate sample id 'a' (first on line 1)", id="jsonlines"),
    pytest.param("\n" + record() + "\n" + record() + "\n",
                 "3: duplicate sample id 'a' (first on line 2)", id="after-a-blank-line"),
])
def test_load_duplicate_id_names_both_lines(tmp_path, text, message):
    path = tmp_path / "dup.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(DataError) as err:
        load(path)
    assert str(err.value) == f"{path}:{message}"


def test_load_keeps_one_string_per_repeated_source(tmp_path):
    path = tmp_path / "slices.jsonl"
    path.write_text("".join(record(id=i, source=src) + "\n"
                            for i, src in (("a", "f.c"), ("b", "g.c"), ("c", "f.c"))))
    a, b, c = load(path).samples
    assert (a.source, b.source, c.source) == ("f.c", "g.c", "f.c")
    assert a.source is c.source


def test_sample_is_a_frozen_value(tmp_path):
    # Sample's __init__ is written by hand; these pin what the generated one gave
    assert [str(p) for p in inspect.signature(Sample).parameters.values()] == [
        "id: 'str'", "kind: 'Kind'", "label: 'Label'", "code: 'str'",
        "source: 'str | None' = None"]
    s = Sample("a", Kind.PU, Label.VULNERABLE, "*p = 0;", "f.c")
    for name in ("id", "kind", "label", "code", "source"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(s, name, None)
    twin = Sample(id="a", kind=Kind.PU, label=Label.VULNERABLE, code="*p = 0;", source="f.c")
    assert twin == s and hash(twin) == hash(s) and twin is not s
    assert Sample("a", Kind.PU, Label.VULNERABLE, "*p = 0;").source is None
    assert replace(s) == s and replace(s, source=None) != s
    assert pickle.loads(pickle.dumps(s)) == s
    path = tmp_path / "one.jsonl"
    path.write_text(record(source="f.c") + "\n")
    assert load(path).samples == [s]


def test_duplicate_ids_rejected():
    s = Sample("dup", Kind.API, Label.VULNERABLE, "gets(s);")
    with pytest.raises(DataError, match="duplicate"):
        SampleSet([s, s])


@pytest.mark.parametrize("ids_and_code,message", [
    ([("a", "x;"), ("b", ""), ("a", "y;")], "sample 'b' has empty code"),
    ([("a", "x;"), ("a", "y;"), ("b", "")], "duplicate sample id 'a'"),
    ([("a", "x;"), ("b", "y;"), ("b", ""), ("a", "z;")], "duplicate sample id 'b'"),
])
def test_sample_set_names_its_first_offender(ids_and_code, message):
    samples = [Sample(i, Kind.AU, Label.VULNERABLE, code) for i, code in ids_and_code]
    with pytest.raises(DataError) as err:
        SampleSet(samples)
    assert str(err.value) == message


def test_counts_match_recount():
    sset = make_set({(Kind.API, Label.VULNERABLE): 3, (Kind.AE, Label.NON_VULNERABLE): 5})
    recount = {}
    for s in sset:
        recount[(s.kind, s.label)] = recount.get((s.kind, s.label), 0) + 1
    assert sset.counts() == recount


def test_a_set_holds_only_its_samples(tmp_path):
    """No set carries state beyond its sample list, however it was made."""
    sset = make_set({(k, lab): 10 for k, lab in CELL_ORDER})
    save(sset, tmp_path / "all.jsonl")
    h1 = balance_h1(sset, seed=0)
    sets = [sset, load(tmp_path / "all.jsonl"), *split(sset, seed=0),
            h1.samples, balance_h2(sset, seed=0).samples, remainder(sset, h1)]
    for s in sets:
        assert vars(s) == {"samples": s.samples}


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


# Characters JSON must escape, and ones that str.splitlines (but not a JSON-lines
# reader) breaks lines at: NEL, LS, PS, form feed.
AWKWARD_CHARS = '"\\\x00\x01\x0b\x0c\x1c\x1f\x7f\x85\u2028\u2029\ufeff\xe9\U0001d518\U0001f600'

# fixtures/awkward.jsonl holds exactly these samples as `save` writes them.
AWKWARD = [
    Sample('q"uote', Kind.API, Label.VULNERABLE, 'puts("a\\"b");', source="f.c:1"),
    Sample("back\\slash", Kind.AU, Label.NON_VULNERABLE, "s[0] = '\\\\';\n\tt[1] = 0;"),
    Sample("ctl\x00\x1f\x7f", Kind.PU, Label.VULNERABLE, "*p = 0;\r\n\x0c*q = 1;\x0b\x1c"),
    Sample("nel\x85", Kind.AE, Label.NON_VULNERABLE, "x = a\x85+ b;\u2028y = c\u2029;",
           source="\u2028"),
    Sample("astral\U0001f600", Kind.API, Label.NON_VULNERABLE,
           "/* \U0001d518\U0001f600 caf\xe9 */ gets(s);", source=""),
    Sample("bom\ufeff", Kind.AU, Label.VULNERABLE, "\ufeffb[i] = 0;  "),
]


def test_save_matches_frozen_awkward_fixture(tmp_path):
    path = save(SampleSet(AWKWARD), tmp_path / "awkward.jsonl")
    assert path.read_bytes() == (FIXTURES / "awkward.jsonl").read_bytes()
    assert load(path).samples == AWKWARD


_awkward_text = st.text(
    st.sampled_from(AWKWARD_CHARS) | st.characters(exclude_categories=["Cs"]), max_size=12)


@settings(max_examples=200, deadline=None, database=None)
@given(st.lists(st.builds(Sample, id=_awkward_text.filter(bool), kind=st.sampled_from(Kind),
                          label=st.sampled_from(Label),
                          code=_awkward_text.filter(bool),
                          source=st.none() | _awkward_text),
                max_size=6, unique_by=lambda s: s.id))
def test_save_then_load_round_trips(samples):
    # load rejects an empty id as it rejects empty code, so neither is drawn
    with tempfile.TemporaryDirectory() as tmp:
        path = save(SampleSet(samples), Path(tmp) / "out.jsonl")
        assert load(path).samples == samples


@settings(max_examples=200, deadline=None, database=None)
@given(st.lists(st.builds(Sample, id=_awkward_text, kind=st.sampled_from(Kind),
                          label=st.sampled_from(Label),
                          code=_awkward_text.filter(bool),
                          source=st.none() | st.just("") | _awkward_text),
                max_size=6, unique_by=lambda s: s.id))
def test_save_writes_what_json_dumps_writes(samples):
    with tempfile.TemporaryDirectory() as tmp:
        path = save(SampleSet(samples), Path(tmp) / "out.jsonl")
        lines = path.read_bytes().decode("utf-8").split("\n")
    want = []
    for s in samples:
        obj = {"id": s.id, "kind": s.kind.value, "label": int(s.label), "code": s.code}
        if s.source is not None:
            obj["source"] = s.source
        want.append(json.dumps(obj, ensure_ascii=False))
    assert lines == want + [""]


@pytest.mark.parametrize("format,data", [
    ("jsonlines", b'{"id": "a", "kind": "AU", "label": 0, "code": "b[i] = 0;"}\n\n\n'
                  b'{"id": "b", "kind": "AU", "label": 1, "code": "caf\xe9"}\n'),
])
def test_load_non_utf8_names_file_and_line(tmp_path, format, data):
    # JSON-lines is the one format; the parameter only names the case
    path = tmp_path / "latin1.txt"
    path.write_bytes(data)
    with pytest.raises(DataError, match=r"latin1\.txt:4: not UTF-8 \(byte 0xe9: "):
        load(path)


def test_load_starts_no_collection(tmp_path):
    # a row holds no reference cycle, so the collector is paused while rows
    # are read: each collection would walk every row read so far
    path = save(make_set({cell: 625 for cell in CELL_ORDER}), tmp_path / "c.jsonl")
    started = []

    def count(phase, info):
        if phase == "start":
            started.append(info["generation"])

    assert gc.isenabled()
    gc.callbacks.append(count)
    try:
        assert len(load(path)) == 5000
    finally:
        gc.callbacks.remove(count)
    assert started == []


@pytest.mark.parametrize("data", [
    pytest.param(record().encode() + b"\n", id="good"),
    pytest.param(record().encode() + b"\nnot json\n", id="malformed"),
    pytest.param((record() + "\n" + record() + "\n").encode(), id="duplicate-id"),
    pytest.param(b'{"id": "a", "kind": "PU", "label": 1, "code": "caf\xe9"}\n', id="not-utf8"),
])
@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_load_leaves_the_collector_as_it_found_it(tmp_path, data, enabled):
    path = tmp_path / "c.jsonl"
    path.write_bytes(data)
    (gc.enable if enabled else gc.disable)()
    try:
        with contextlib.suppress(DataError):
            load(path)
        assert gc.isenabled() is enabled
    finally:
        gc.enable()


def test_split_8_2():
    sset = make_set({(Kind.API, Label.VULNERABLE): 10})
    train, test = split(sset, seed=1)
    assert len(train) == 8 and len(test) == 2


def test_split_is_partition():
    sset = make_set(
        {(k, l): 13 for k in (Kind.API, Kind.PU) for l in (Label.VULNERABLE, Label.NON_VULNERABLE)}
    )
    train, test = split(sset, seed=5)
    assert len(train) + len(test) == len(sset)
    assert train.ids() | test.ids() == sset.ids()
    assert not (train.ids() & test.ids())


def test_split_deterministic():
    sset = make_set({(Kind.AU, Label.VULNERABLE): 50, (Kind.AU, Label.NON_VULNERABLE): 50})
    a = split(sset, seed=9)
    b = split(sset, seed=9)
    assert [s.id for s in a[0]] == [s.id for s in b[0]]
    assert [s.id for s in a[1]] == [s.id for s in b[1]]


def test_split_stratified_exact_cells():
    cells = {
        (k, l): 100
        for k in (Kind.API, Kind.AU, Kind.PU, Kind.AE)
        for l in (Label.VULNERABLE, Label.NON_VULNERABLE)
    }
    sset = make_set(cells)
    train, _ = split(sset, seed=3)
    assert train.counts() == {key: 80 for key in cells}


def test_split_stratified_within_one_sample_per_cell():
    sset = make_set({(Kind.API, Label.VULNERABLE): 7, (Kind.PU, Label.NON_VULNERABLE): 13})
    train, test = split(sset, seed=2)
    train_counts, test_counts = train.counts(), test.counts()
    for kind, label, n in ((Kind.API, Label.VULNERABLE, 7), (Kind.PU, Label.NON_VULNERABLE, 13)):
        want_train = 0.8 * n
        assert abs(train_counts[kind, label] - want_train) <= 1
        assert train_counts[kind, label] + test_counts[kind, label] == n


def test_split_empty_set_rejected():
    with pytest.raises(DataError):
        split(SampleSet([]), seed=0)


def test_reference_corpus_matches_reference_counts():
    ref = reference_corpus()
    counts = ref.counts()
    for kind, (n_vul, n_non) in REFERENCE_COUNTS.items():
        assert counts[kind, Label.VULNERABLE] == n_vul
        assert counts[kind, Label.NON_VULNERABLE] == n_non
    assert len(ref) == 420627


def test_counts_manifest_round_trip(tmp_path):
    from slicevuln.synth import read_counts_manifest

    path = tmp_path / "counts.json"
    path.write_text(json.dumps({
        k.value: {"vulnerable": v, "non_vulnerable": n} for k, (v, n) in REFERENCE_COUNTS.items()
    }))
    assert read_counts_manifest(path) == REFERENCE_COUNTS
