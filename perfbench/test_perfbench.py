"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q

They check the harness, not the program: the C-tree generator, the span
arithmetic, failure accounting, and that BENCHMARK.json matches the
metrics the harness prints.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import ctree  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Summary, Tracer, self_times  # noqa: E402
from speed import Probe  # noqa: E402


def test_generator_is_deterministic_for_a_seed():
    assert ctree.generate(7) == ctree.generate(7)
    assert ctree.generate(7) != ctree.generate(8)


def test_generator_mix_and_hostile_minority():
    for seed in range(5):
        tree = ctree.generate(seed)
        clean = [r for r, _ in tree if r.hostile is None]
        hostile = [r for r, _ in tree if r.hostile is not None]
        assert Counter(r.size_class for r in clean) == {
            "small": len(ctree.SMALL_ANCHORS), "large": len(ctree.LARGE_ANCHORS)}
        assert sorted(r.hostile for r in hostile) == sorted(ctree.HOSTILE_CONSTRUCTS)
        assert all(r.size_class == "small" for r in hostile)
        for record, data in tree:
            assert record.lines == data.count(b"\n") + 1
            low = 100 - ctree.JITTER if record.size_class == "small" else 600 - ctree.JITTER
            assert record.lines >= low


def test_clean_files_lex_and_hostile_files_carry_their_construct():
    from slicevuln import slicer

    markers = {"dollar-identifier": b"$", "backslash-newline": b"\\\n",
               "digit-separator": b"1'000", "latin1-comment": b"\xe9"}
    for record, data in ctree.generate(3):
        if record.hostile is None:
            text = data.decode("ascii")
            assert "".join(t.text for t in slicer.lex(text)) == text
            assert slicer.extract_candidates(text)
        else:
            assert markers[record.hostile] in data


def _span(name, start, end, parent=-1):
    return Span(name, start, end, parent=parent)


def test_self_time_on_a_hand_built_tree():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("b", 3.0, 6.0, parent=0),      # overlaps a: the union counts once
        _span("a.child", 2.0, 3.0, parent=1),
        _span("late", 9.0, 12.0, parent=0),  # runs past its parent: clipped
    ]
    assert self_times(spans) == pytest.approx([10 - 5 - 1, 3 - 1, 3, 1, 3])


def test_tracer_records_parents_and_restores():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    mod = types.SimpleNamespace()

    def inner(x):
        return [x] * x

    def outer(x):
        return mod.inner(x) + mod.inner(x)

    mod.inner, mod.outer = inner, outer
    tracer.wrap(mod, "inner", "m.inner", count=lambda a, k, r: {"n": len(r)})
    tracer.wrap(mod, "outer", "m.outer", tag=lambda a, k: f"x{a[0]}")
    assert len(mod.outer(3)) == 6
    tracer.restore()
    assert mod.inner is inner and mod.outer is outer

    names = [(s.name, s.parent, s.tag) for s in tracer.spans]
    assert names == [("m.outer", -1, "x3"), ("m.inner", 0, None), ("m.inner", 0, None)]
    summary = Summary(tracer.spans)
    assert summary.seconds("m.outer", tag="x3") == 5.0   # ticks 0 .. 5
    assert summary.self_seconds("m.outer") == 3.0        # minus two 1-tick children
    assert summary.total("m.inner", "n", under=("m.outer",)) == 6
    assert summary.calls("m.inner") == 2


def test_a_raising_call_closes_its_span_and_is_marked_failed():
    tracer = Tracer()

    def boom():
        raise UnicodeDecodeError("utf-8", b"\xe9", 0, 1, "invalid")

    mod = types.SimpleNamespace(boom=boom)
    tracer.wrap(mod, "boom", "m.boom")
    with pytest.raises(UnicodeDecodeError):
        mod.boom()
    tracer.restore()
    assert tracer.spans[0].failed and tracer.spans[0].end >= tracer.spans[0].start


def _small_tree(tmp_path: Path, seed: int = 5) -> Path:
    """The hostile files of a seed's tree plus its smallest clean file."""
    ctree.write_tree(seed, tmp_path / "tree")
    files = ctree.read_manifest(tmp_path / "tree")
    keep = [f for f in files if f.hostile is not None]
    keep.append(min((f for f in files if f.hostile is None), key=lambda f: f.lines))
    (tmp_path / "tree" / "manifest.json").write_text(
        json.dumps({"seed": seed, "files": [f.__dict__ for f in keep]}), encoding="utf-8")
    return tmp_path


def test_hostile_files_are_reported_not_crashes(tmp_path):
    work = _small_tree(tmp_path)
    result = workloads.SliceTree(5, work).run_pass(0, Probe())
    assert result.ops == [None]                  # the clean file sliced and checked
    assert sorted(result.info["hostile"]) == sorted(ctree.HOSTILE_CONSTRUCTS)
    assert all(isinstance(v, str) for v in result.info["hostile"].values())


def test_a_crash_counts_as_a_failed_operation(tmp_path, monkeypatch):
    from slicevuln import cli

    def crash(argv):
        raise UnicodeDecodeError("utf-8", b"\xe9", 0, 1, "invalid continuation byte")

    work = _small_tree(tmp_path)
    monkeypatch.setattr(cli, "main", crash)
    result = workloads.SliceTree(5, work).run_pass(0, Probe())
    assert len(result.ops) == 1 and result.ops[0].endswith(
        "raised UnicodeDecodeError: 'utf-8' codec can't decode byte 0xe9 in position 0: "
        "invalid continuation byte")
    assert result.work == 0
    assert set(result.info["hostile"].values()) == {result.ops[0].split(": ", 1)[1]}


def test_a_failed_check_counts_as_a_failed_operation(tmp_path):
    work = _small_tree(tmp_path)
    wl = workloads.SliceTree(5, work)
    f = next(f for f in wl.files if f.hostile is None)
    out = tmp_path / "slices.jsonl"
    row = {"id": "x#0", "kind": "API", "focus": "nowhere", "line": 1, "code": "int x;"}
    out.write_text(json.dumps(row) + "\n", encoding="utf-8")
    assert "lacks its candidate line" in wl._check(f, out)


def test_reference_expectations():
    assert sum(workloads.h1_expected().values()) == 112_790
    per_kind = Counter()
    for (kind, _), n in workloads.h1_expected().items():
        per_kind[kind] += n
    assert per_kind == {"API": 27_206, "AU": 21_852, "PU": 56_782, "AE": 6_950}
    assert sum(workloads.h2_expected().values()) == 27_800
    total = sum(v + n for v, n in workloads.REFERENCE_COUNTS.values())
    assert total == workloads.REFERENCE_ROWS
    assert total - 27_800 == workloads.REMAINDER_SIZE


def test_benchmark_json_matches_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_layer_metrics_cover_every_unit():
    names = set(layers.layer_metrics([], [])) | set(layers.setup_metrics([]))
    extra = {"trace.overhead_s", "trace.overhead_pct"}
    extra |= {f"experiments.f1_pct.{s}" for s in layers.STRATEGIES}
    assert names | extra == set(layers.UNITS)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "slice-tree", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
