import argparse
import dataclasses
import gc
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slicevuln import Kind, ModelConfig, TrainConfig, balance_h1, cli, experiments, model
from slicevuln.cli import _build_parser, _slice_one_file, main
from slicevuln.corpus import load, save, split
from slicevuln.synth import DESK_COUNTS, pattern_corpus, reference_corpus

from conftest import refuse_to_lay_out

SRC = Path(__file__).resolve().parent.parent / "src"
FIXTURES = Path(__file__).resolve().parent / "fixtures"

SMALL = {Kind.API: (20, 50), Kind.AU: (15, 35), Kind.PU: (25, 80), Kind.AE: (10, 40)}

FAST_FLAGS = ["--max-len", "48", "--vocab-size", "256", "--hidden", "32",
              "--ff", "64", "--layers", "1", "--epochs", "2", "--patience", "2"]

# C files the slice tests run on; their slices are frozen in
# fixtures/cli_sources.slices.jsonl
SLICE_SOURCES = {
    "a.c": "void f(char *s) {\n  char b[8];\n  strcpy(b, s);\n}\n",
    "ok.c": "void f(char *s) {\n  strcpy(b, s);\n}\n",
    **{f"s{i}.c": f"void f{i}() {{\n  {body}\n}}\n"
       for i, body in enumerate(["strcpy(a, b);", "buf[i] = 0;", "*p = q;", "x = a + b;"])},
}


# JSON nested past the decoder's recursion limit
DEEP_JSON = "[" * 100_000 + "]" * 100_000


def _write_sources(directory: Path, sources: dict[str, str]) -> list[str]:
    for name, text in sources.items():
        (directory / name).write_text(text, encoding="utf-8")
    return [str(directory / name) for name in sources]


@pytest.fixture()
def small_corpus_path(tmp_path):
    path = tmp_path / "corpus.jsonl"
    save(pattern_corpus(SMALL, seed=3), path)
    return path


def _run_python(*args: str, cwd: Path | None = None) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports slicevuln from this checkout.  A
    traceback fails the test whatever the exit code."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                            timeout=60, cwd=cwd, env={**os.environ, "PYTHONPATH": path})
    assert "Traceback" not in result.stderr, result.stderr
    return result


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    return next(a for a in _build_parser()._actions if a.dest == "command").choices


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_module_entry_point_runs_main():
    result = _run_python("-m", "slicevuln.cli")
    assert result.returncode == 1
    assert "usage: slicevuln" in result.stderr


def test_unknown_flag_is_usage_error():
    assert main(["balance", "--bogus"]) == 1


def test_main_builds_the_parser_once(monkeypatch):
    built = []
    init = cli._Parser.__init__
    monkeypatch.setattr(cli._Parser, "__init__",
                        lambda self, *a, **kw: built.append(self) or init(self, *a, **kw))
    _build_parser.cache_clear()
    assert main([]) == 1
    once = len(built)
    assert main(["balance", "--bogus"]) == 1 and main([]) == 1
    assert once == 1 + len(_subcommands()) and len(built) == once  # one per subcommand


def test_each_subcommand_declares_its_handler():
    assert {name: p.get_default("run").__name__ for name, p in _subcommands().items()} == {
        "slice": "_cmd_slice", "build-dataset": "_cmd_build_dataset",
        "balance": "_cmd_balance", "train": "_cmd_train", "evaluate": "_cmd_evaluate",
        "run-strategy": "_cmd_run_strategy", "report": "_cmd_report"}


@pytest.fixture()
def run_specs(monkeypatch):
    """The specs run-strategy runs, recorded in place of the runs, so
    nothing trains or is written."""
    specs = []
    monkeypatch.setattr(experiments, "run", lambda spec, sset: specs.append(spec) or
                        SimpleNamespace(overall=SimpleNamespace(f1=None)))
    monkeypatch.setattr(experiments, "emit", lambda report, run_dir: run_dir)
    return specs


def test_no_flag_carries_from_one_call_to_the_next(tmp_path, small_corpus_path, run_specs):
    base = ["run-strategy", "--in", str(small_corpus_path), "--out", str(tmp_path / "runs")]
    assert main([*base, "--strategy", "s1", "--seed", "7", "--epochs", "1"]) == 0
    assert main(base) == 0
    assert main([*base, "--heads", "3"]) == 1  # 64 hidden units do not split into 3 heads
    assert main(base) == 0
    first, *rest = run_specs
    assert (first.id, first.seed, first.train_config.epochs) == ("S1", 7, 1)
    default = experiments.StrategySpec(id="S2", model_config=ModelConfig(),
                                       train_config=TrainConfig())
    assert rest == [default, default] and default.train_config.epochs != 1


@pytest.mark.parametrize("command, flags", [
    ("run-strategy", ["--strategy", "s2", "--heads", "3"]),
    ("run-strategy", ["--strategy", "s2", "--epochs", "0"]),
    ("train", ["--epochs", "0"]),
    ("slice", ["--seed", "1"]),
    # {text: named} stands for a flags file holding text; the error names named
    ("run-strategy", [{"--hiden 32": "--hiden"}]),
    ("run-strategy", [{"--epochs six": "--epochs"}]),
    ("run-strategy", [{"--heads 3": "num_heads 3"}]),
    ("train", ["--vocab-size", "3"]),
    ("train", ["--max-len", "1"]),
    ("run-strategy", [{"--vocab-size 3": "vocab_size must exceed the 3 reserved ids"}]),
    ("run-strategy", [{"--max-len 1": "max_len must be >= 2"}]),
    ("run-strategy", [{"--weight-decay nan": "weight_decay must be finite"}]),
    ("run-strategy", [{"--lr nan": "learning_rate must be finite"}]),
    # models too large to build, refused before any parameter table exists
    ("train", ["--vocab-size", "1000000000000000"]),
    ("run-strategy", [{"--vocab-size 1000000000000000":
                       "vocab_size 1000000000000000 give 64000000000132994 parameters"}]),
    ("run-strategy", [{"--layers 1000000000": "num_layers 1000000000, hidden_dim 64"}]),
], ids=[  # fixed ids, so adding or deleting a case renames no other case
    "run-strategy-flags0", "run-strategy-flags1", "train-flags2", "slice-flags3",
    "run-strategy-flags4", "run-strategy-flags5", "run-strategy-flags6", "train-flags7",
    "train-flags8", "run-strategy-flags9", "run-strategy-flags10", "run-strategy-flags11",
    "run-strategy-flags12", "train-huge-vocab", "run-strategy-huge-vocab",
    "run-strategy-huge-layers",
])
def test_invalid_flag_value_is_usage_error(tmp_path, small_corpus_path, capsys, monkeypatch,
                                           command, flags):
    monkeypatch.setattr(model, "_shapes", refuse_to_lay_out)  # no case gets that far
    inputs = [str(small_corpus_path)]
    if command == "slice":
        src = tmp_path / "a.c"
        src.write_text("void f(char *s) {\n  strcpy(b, s);\n}\n")
        inputs = [str(src)]
    argv, named = [], []
    for flag in flags:
        if isinstance(flag, dict):
            ((text, name),) = flag.items()
            named.append(name)
            flags_file = tmp_path / "run.flags"
            flags_file.write_text(text + "\n")
            flag = f"@{flags_file}"
        argv.append(flag)
    code = main([command, "--in", *inputs, *argv, "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert f"usage: slicevuln {command}" in err and "error:" in err
    assert "Traceback" not in err
    assert all(name in err for name in named)
    assert not (tmp_path / "out").exists()


def test_a_zero_model_dimension_is_usage_error(tmp_path, small_corpus_path, capsys):
    assert main(["train", "--in", str(small_corpus_path), "--layers", "0",
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: slicevuln train ")
    assert err.endswith("slicevuln train: error: all model dimensions must be positive\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, flags, named", [
    ("slice", ["--in", "a.c", "--out", ""], "--out"),
    ("slice", ["--in", "", "--out", "out"], "--in"),
    ("build-dataset", ["--out", ""], "--out"),
    ("build-dataset", ["--counts", "", "--out", "out"], "--counts"),
    ("balance", ["--hypothesis", "h1", "--in", "", "--out", "out"], "--in"),
    ("train", ["--in", "", "--out", "out"], "--in"),
    ("evaluate", ["--model", "", "--in", "corpus.jsonl", "--out", "out"], "--model"),
    ("run-strategy", ["--in", "", "--out", "out"], "--in"),
    ("run-strategy", ["@empty-out.flags", "--in", "corpus.jsonl"], "--out"),
    ("report", ["--in", "", "--out", "out"], "--in"),
], ids=["slice-out", "slice-in", "build-dataset-out", "build-dataset-counts", "balance-in",
        "train-in", "evaluate-model", "run-strategy-in", "run-strategy-flags-file-out",
        "report-in"])
def test_an_empty_path_is_usage_error(tmp_path, small_corpus_path, capsys, monkeypatch,
                                      command, flags, named):
    # Path("") is the current directory, so an empty path would read or
    # write there; it is refused, naming its flag, before anything runs
    monkeypatch.setattr(model, "_shapes", refuse_to_lay_out)
    monkeypatch.chdir(tmp_path)
    _write_sources(tmp_path, {"a.c": SLICE_SOURCES["a.c"], "empty-out.flags": '--out ""\n'})
    before = sorted(tmp_path.iterdir())
    assert main([command, *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage: slicevuln {command} ")
    assert err.endswith(f"slicevuln {command}: error: argument {named}: "
                        "expected a path, got ''\n")
    assert sorted(tmp_path.iterdir()) == before


def test_missing_input_is_data_error(tmp_path):
    code = main(["balance", "--hypothesis", "h1", "--in", str(tmp_path / "no.jsonl"),
                 "--out", str(tmp_path / "o")])
    assert code == 2


def test_unreadable_flags_file_is_usage_error(tmp_path, small_corpus_path, capsys):
    absent, latin1, quote = (tmp_path / f"{n}.flags" for n in ("absent", "latin1", "quote"))
    latin1.write_bytes(b"--epochs 2\n# caf\xe9\n")
    quote.write_text('--epochs 2\n--in "corpus.jsonl\n')
    for flag, named in (
        (f"@{absent}", f"No such file or directory: '{absent}'"),
        (f"@{latin1}", f"{latin1}:2: not UTF-8 (byte 0xe9"),
        (f"@{quote}", """flags file line '--in "corpus.jsonl': No closing quotation"""),
        ("@", "error: @ names no flags file"),
    ):
        code = main(["run-strategy", flag, "--in", str(small_corpus_path),
                     "--out", str(tmp_path / "runs")])
        assert code == 1
        err = capsys.readouterr().err
        assert "usage: slicevuln run-strategy" in err
        assert named in err and "Traceback" not in err


@pytest.mark.parametrize("files, typed, left", [
    ({"self.flags": "--epochs 1\n@self.flags\n"}, "@self.flags", "@self.flags"),
    ({"a.flags": "--epochs 1\n@b.flags\n", "b.flags": "--epochs 2\n@a.flags\n"},
     "@a.flags", "@b.flags"),
], ids=["names-itself", "name-each-other"])
def test_a_flags_file_holds_flags_not_flags_files(tmp_path, small_corpus_path, capsys,
                                                  monkeypatch, files, typed, left):
    # an @word inside a flags file is not read as a file, so files that name
    # themselves or each other are an unrecognized argument, not a recursion
    _write_sources(tmp_path, files)
    argv = ["run-strategy", typed, "--in", small_corpus_path.name, "--out", "runs"]
    result = _run_python("-m", "slicevuln.cli", *argv, cwd=tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    for err in (result.stderr, capsys.readouterr().err):
        assert "usage: slicevuln run-strategy" in err and "Traceback" not in err
        assert f"error: unrecognized arguments: {left}\n" in err
    assert result.returncode == 1 and not (tmp_path / "runs").exists()


def test_flags_file_may_start_with_a_byte_order_mark(tmp_path, small_corpus_path, run_specs):
    # Windows editors write one; it is dropped as slice drops it from sources
    flags_file = tmp_path / "bom.flags"
    flags_file.write_bytes(b"\xef\xbb\xbf--epochs 1\n")
    assert main(["run-strategy", f"@{flags_file}", "--in", str(small_corpus_path),
                 "--out", str(tmp_path / "runs")]) == 0
    assert [spec.train_config.epochs for spec in run_specs] == [1]


@pytest.mark.parametrize("command", ["build-dataset", "balance", "train", "run-strategy"])
@pytest.mark.parametrize("flags, named", [
    (["--seed", "-1"], "argument --seed: expected a non-negative integer, got '-1'"),
], ids=["flag-negative"])
def test_malformed_seed_is_usage_error(tmp_path, small_corpus_path, capsys, command, flags,
                                       named):
    inputs = {"build-dataset": [], "balance": ["--hypothesis", "h1"], "train": FAST_FLAGS,
              "run-strategy": FAST_FLAGS}[command]
    if command != "build-dataset":
        inputs = ["--in", str(small_corpus_path), *inputs]
    assert main([command, *inputs, *flags, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert f"usage: slicevuln {command}" in err and named in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["slice", "evaluate", "report"])
def test_seed_on_a_command_that_draws_no_random_numbers_is_usage_error(tmp_path, capsys,
                                                                       command):
    inputs = {"slice": ["--in", "a.c"], "evaluate": ["--model", "m.npz", "--in", "c.jsonl"],
              "report": ["--in", "report.json"]}[command]
    assert main([command, *inputs, "--seed", "1", "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert f"usage: slicevuln {command}" in err and "unrecognized arguments: --seed 1" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_numeric_blowup_is_exit_3(tmp_path, small_corpus_path):
    code = main(["train", "--in", str(small_corpus_path), "--seed", "1",
                 *FAST_FLAGS, "--lr", "1e12", "--epochs", "3",
                 "--out", str(tmp_path / "model")])
    assert code == 3


def test_evaluate_nonfinite_checkpoint_is_exit_3(tmp_path, small_corpus_path, capsys):
    from slicevuln import ModelConfig, build_vocab, init
    from slicevuln.experiments import model_texts
    from slicevuln.model import save_checkpoint

    vocab = build_vocab(model_texts(load(small_corpus_path)), 64)
    net = init(ModelConfig(num_layers=1, hidden_dim=8, num_heads=2, ff_dim=16,
                           max_len=16, vocab_size=64), seed=0)
    net.params["head_b"][:] = np.nan
    ckpt = save_checkpoint(net, tmp_path / "checkpoint.npz", vocab)
    code = main(["evaluate", "--model", str(ckpt), "--in", str(small_corpus_path),
                 "--out", str(tmp_path / "eval")])
    assert code == 3
    assert "non-finite logits" in capsys.readouterr().err
    assert not (tmp_path / "eval" / "metrics.csv").exists()


def test_build_dataset_desk(tmp_path):
    out = tmp_path / "corpus.jsonl"
    assert main(["build-dataset", "--preset", "desk", "--seed", "42",
                 "--out", str(out)]) == 0
    sset = load(out)
    assert len(sset) == sum(v + n for v, n in DESK_COUNTS.values())


def test_slice_writes_candidates(tmp_path):
    (src,) = _write_sources(tmp_path, {"a.c": SLICE_SOURCES["a.c"]})
    out = tmp_path / "slices"
    assert main(["slice", "--in", src, "--out", str(out)]) == 0
    rows = [json.loads(l) for l in (out / "slices.jsonl").read_text().splitlines()]
    assert {r["kind"] for r in rows} == {"PU", "AU", "API"}
    assert all(r["focus"] in r["code"] for r in rows)


def test_slice_ids_are_unique_across_files_with_one_name(tmp_path):
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        _write_sources(tmp_path / sub, {"x.c": SLICE_SOURCES["a.c"]})
    inputs = [str(tmp_path / "a" / "x.c"), str(tmp_path / "b" / "x.c")]
    out = tmp_path / "slices"
    assert main(["slice", "--in", *inputs, "--out", str(out)]) == 0
    rows = [json.loads(l) for l in (out / "slices.jsonl").read_text().splitlines()]
    assert len(rows) == 6 and len({r["id"] for r in rows}) == 6
    assert all(r["id"].startswith(f"{r['source']}#") for r in rows)
    # the slices, labelled, load as one corpus
    labelled = tmp_path / "labelled.jsonl"
    labelled.write_text("".join(json.dumps({**r, "label": 0}) + "\n" for r in rows))
    assert len(load(labelled)) == 6


def test_slice_names_the_file_that_fails_to_lex(tmp_path, capsys):
    (good,) = _write_sources(tmp_path, {"ok.c": SLICE_SOURCES["ok.c"]})
    bad = tmp_path / "bad.c"
    bad.write_text("int f() {\n  int @x;\n}\n")
    out = tmp_path / "new" / "o"
    for inputs in ([good, str(bad)], [str(bad), good]):
        assert main(["slice", "--in", *inputs, "--out", str(out)]) == 2
        assert f"{bad}: line 2: unexpected character '@'" in capsys.readouterr().err
        # neither the output nor the directories made for it are left
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.c", "ok.c"]


def test_a_failed_slice_keeps_an_earlier_output(tmp_path, capsys):
    good, bad = _write_sources(tmp_path, {"ok.c": SLICE_SOURCES["ok.c"],
                                          "bad.c": "int f() {\n  int @x;\n}\n"})
    out = tmp_path / "o"
    assert main(["slice", "--in", good, "--out", str(out)]) == 0
    before = (out / "slices.jsonl").read_bytes()
    assert main(["slice", "--in", good, bad, "--out", str(out)]) == 2
    assert "unexpected character '@'" in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == ["slices.jsonl"]
    assert (out / "slices.jsonl").read_bytes() == before


def test_slice_holds_one_files_rows_at_a_time(tmp_path, monkeypatch):
    text = (FIXTURES / "multi_function.c").read_text(encoding="utf-8")
    sources = _write_sources(tmp_path, {f"copy{i}.c": text for i in range(8)})
    rows = _slice_one_file(sources[0])
    one_files_rows = sys.getsizeof(rows) + sum(map(sys.getsizeof, rows))
    del rows

    def slice_then_collect(path):
        # CPython keeps freed tuples on free lists until a full collection,
        # and tracemalloc counts them as live; each file's index frees hundreds
        rows = _slice_one_file(path)
        gc.collect()
        return rows

    monkeypatch.setattr(cli, "_slice_one_file", slice_then_collect)
    assert main(["slice", "--in", sources[0], "--out", str(tmp_path / "warm")]) == 0
    peaks = []
    for n in (1, 8):
        tracemalloc.start()
        try:
            assert main(["slice", "--in", *sources[:n], "--out", str(tmp_path / f"o{n}")]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < one_files_rows


def test_slice_rejects_a_file_given_twice(tmp_path, capsys):
    a, ok = _write_sources(tmp_path, {n: SLICE_SOURCES[n] for n in ("a.c", "ok.c")})
    out = tmp_path / "o"
    assert main(["slice", "--in", a, ok, a, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "usage: slicevuln slice" in err and f"given more than once: {a}" in err
    assert ok not in err and not out.exists()


def test_slice_non_utf8_file_is_data_error(tmp_path, capsys):
    src = tmp_path / "latin1.c"
    src.write_bytes("int a;\nint b;\nint caf\u00e9;\n".encode("latin-1"))
    assert main(["slice", "--in", str(src), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"{src}:3: not UTF-8 (byte 0xe9" in err and "Traceback" not in err


def test_slice_rejects_a_path_that_is_not_utf8(tmp_path, capsys):
    # the row ids and sources hold the path's text, which UTF-8 cannot write
    (src,) = _write_sources(tmp_path, {os.fsdecode(b"\xff.c"): SLICE_SOURCES["ok.c"]})
    out = tmp_path / "o"
    assert main(["slice", "--in", src, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "usage: slicevuln slice" in err and "Traceback" not in err
    assert f"path is not UTF-8: {os.fsencode(src)!r}" in err
    assert not out.exists()


def test_slice_skips_a_leading_byte_order_mark(tmp_path):
    text = (FIXTURES / "multi_function.c").read_text(encoding="utf-8")
    plain, marked = _write_sources(tmp_path, {"plain.c": text, "marked.c": "\ufeff" + text})
    rows = {}
    for src in (plain, marked):
        out = tmp_path / Path(src).stem
        assert main(["slice", "--in", src, "--out", str(out)]) == 0
        rows[src] = [{k: r[k] for k in ("kind", "focus", "line", "span", "code")}
                     for r in map(json.loads, (out / "slices.jsonl").read_text().splitlines())]
    assert len(rows[plain]) > 100 and rows[marked] == rows[plain]


@pytest.mark.parametrize("expected,sources", [
    ("multi_function.slices.jsonl",
     {"multi_function.c": (FIXTURES / "multi_function.c").read_text(encoding="utf-8")}),
    ("cli_sources.slices.jsonl", SLICE_SOURCES),
    ("one_line.slices.jsonl",
     {"one_line.c": (FIXTURES / "one_line.c").read_text(encoding="utf-8")}),
], ids=["multi_function", "cli_sources", "one_line"])
def test_slice_output_is_frozen(tmp_path, monkeypatch, expected, sources):
    # the expected files were written by earlier slicers (the re-lexing one
    # for the first two, the one that rescanned a line for each arithmetic
    # operator for one_line); the output must not change by a byte
    _write_sources(tmp_path, sources)
    monkeypatch.chdir(tmp_path)  # relative --in paths keep "source" stable
    assert main(["slice", "--in", *sources, "--out", "out"]) == 0
    assert (tmp_path / "out" / "slices.jsonl").read_bytes() == (FIXTURES / expected).read_bytes()


def test_slice_output_is_the_same_in_a_fresh_process_and_in_process(tmp_path, monkeypatch):
    # a fresh process builds its parser on its first call; in-process calls reuse it
    _write_sources(tmp_path, {n: SLICE_SOURCES[n] for n in ("a.c", "ok.c")})
    result = _run_python("-m", "slicevuln.cli", "slice", "--in", "a.c", "ok.c", "--out", "d",
                         cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    monkeypatch.chdir(tmp_path)
    for out in ("e", "f"):
        assert main(["slice", "--in", "a.c", "ok.c", "--out", out]) == 0
    written = {d: (tmp_path / d / "slices.jsonl").read_bytes() for d in "def"}
    assert written["d"] == written["e"] == written["f"] and written["d"].count(b"\n") == 5


@pytest.mark.parametrize("text, named", [
    ('{"API": {"vul": 1}}', "API needs non-negative integer"),
    ('{"AU": {"vulnerable": -1, "non_vulnerable": 3}}', "AU needs non-negative integer"),
    ("[1]", "a counts manifest holds one JSON object"),
    ('{"API": [1, 2]}', "API needs non-negative integer"),
    ("{}", "a counts manifest needs at least one sample"),
    ('{"API": {"vulnerable": 0, "non_vulnerable": 0}, "AE": {"vulnerable": 0, '
     '"non_vulnerable": 0}}', "a counts manifest needs at least one sample"),
    ('{"API": {"vulnerable": ' + "1" * 5000 + ', "non_vulnerable": 3}}',
     "malformed counts manifest (Exceeds the limit (4300 digits) for integer string "
     "conversion"),
    (DEEP_JSON, "malformed counts manifest (maximum recursion depth exceeded while "
     "decoding a JSON array"),
    ('{"XX": {"vulnerable": 1, "non_vulnerable": 1}}', "unknown kind 'XX'"),
], ids=["missing-key", "negative", "not-an-object", "cell-not-an-object", "empty", "all-zero",
        "huge-int", "deep-nesting", "unknown-kind"])
def test_bad_counts_manifest_is_data_error(tmp_path, capsys, text, named):
    counts = tmp_path / "counts.json"
    counts.write_text(text)
    assert main(["build-dataset", "--counts", str(counts),
                 "--out", str(tmp_path / "c.jsonl")]) == 2
    err = capsys.readouterr().err
    assert f"{counts}: {named}" in err and "Traceback" not in err
    assert not (tmp_path / "c.jsonl").exists()


@pytest.mark.parametrize("preset", ["desk", "reference"])
def test_preset_and_counts_together_is_usage_error(tmp_path, capsys, preset):
    counts = tmp_path / "counts.json"
    counts.write_text('{"API": {"vulnerable": 2, "non_vulnerable": 3}}')
    out = tmp_path / "data" / "c.jsonl"
    assert main(["build-dataset", "--preset", preset, "--counts", str(counts),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "usage: slicevuln build-dataset" in err and "not allowed with" in err
    assert not out.parent.exists()


def test_evaluate_on_a_file_that_is_not_a_checkpoint_is_data_error(tmp_path, small_corpus_path,
                                                                   capsys):
    ckpt = tmp_path / "checkpoint.npz"
    ckpt.write_text("not an archive\n")
    assert main(["evaluate", "--model", str(ckpt),
                 "--in", str(small_corpus_path), "--out", str(tmp_path / "eval")]) == 2
    err = capsys.readouterr().err
    assert f"{ckpt}: not a checkpoint" in err and "Traceback" not in err


def test_evaluate_on_a_checkpoint_with_too_deep_metadata_is_data_error(tmp_path,
                                                                       small_corpus_path, capsys):
    ckpt = tmp_path / "checkpoint.npz"
    np.savez(ckpt, __meta__=np.frombuffer(DEEP_JSON.encode(), dtype=np.uint8))
    assert main(["evaluate", "--model", str(ckpt),
                 "--in", str(small_corpus_path), "--out", str(tmp_path / "eval")]) == 2
    err = capsys.readouterr().err
    assert f"{ckpt}: not a checkpoint (RecursionError: " in err and "Traceback" not in err
    assert not (tmp_path / "eval").exists()


def test_seed_env_var_is_not_read(tmp_path, small_corpus_path, monkeypatch):
    # --seed is the one source of the seed; without it the seed is 42
    monkeypatch.setenv("SLICEVULN_SEED", "7")
    out = tmp_path / "bal"
    assert main(["balance", "--hypothesis", "h1", "--in", str(small_corpus_path),
                 "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 42


@pytest.mark.parametrize("hypothesis", ["h1", "h2"])
def test_balance_empty_corpus_is_data_error(tmp_path, capsys, hypothesis):
    empty, out = tmp_path / "empty.jsonl", tmp_path / "bal"
    empty.write_text("")
    assert main(["balance", "--hypothesis", hypothesis, "--in", str(empty),
                 "--out", str(out)]) == 2
    assert "data error: corpus is empty" in capsys.readouterr().err
    assert not out.exists()


def test_balance_h1_without_vulnerable_samples_is_data_error(tmp_path, capsys):
    corpus, out = tmp_path / "non.jsonl", tmp_path / "bal"
    corpus.write_text('{"id": "a", "kind": "API", "label": 0, "code": "x = 1;"}\n'
                      '{"id": "b", "kind": "AU", "label": 0, "code": "b[i] = 0;"}\n')
    assert main(["balance", "--hypothesis", "h1", "--in", str(corpus),
                 "--out", str(out)]) == 2
    assert "data error: corpus has no vulnerable samples" in capsys.readouterr().err
    assert not out.exists()


def test_balance_cli_matches_library(tmp_path, small_corpus_path):
    out = tmp_path / "bal"
    assert main(["balance", "--hypothesis", "h1", "--in", str(small_corpus_path),
                 "--seed", "7", "--out", str(out)]) == 0
    cli_ids = load(out / "balanced.jsonl").ids()
    lib_ids = balance_h1(load(small_corpus_path), seed=7).samples.ids()
    assert cli_ids == lib_ids


def test_balance_non_utf8_corpus_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(b'{"id": "a", "kind": "API", "label": 0, "code": "x = 1;"}\n'
                    b'{"id": "b", "kind": "API", "label": 1, "code": "caf\xe9"}\n')
    assert main(["balance", "--in", str(bad), "--hypothesis", "h1",
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"{bad}:2: not UTF-8 (byte 0xe9" in err and "Traceback" not in err


# a well-formed row; its id is its line's index
_GOOD_ROW = st.fixed_dictionaries(
    {"kind": st.sampled_from([k.value for k in Kind]), "label": st.sampled_from([0, 1]),
     "code": st.sampled_from(["x = 1;", "b[i] = 0;"])},
    optional={"source": st.sampled_from([None, "f.c"])})
_HOSTILE_VALUE = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 2), st.just(10**400), st.floats(),
    st.sampled_from(["", "api", "\ud800", "x\udfffy"]), st.text(max_size=3),
    st.lists(st.integers(), max_size=2), st.dictionaries(st.text(max_size=2), st.integers(),
                                                        max_size=1))
# a row with id "0" and one field set to a hostile value or (as ...) dropped
_BAD_ROW = st.builds(
    lambda row, name, value: json.dumps(
        {k: v for k, v in {"id": "0", **row, name: value}.items() if v is not ...}).encode(),
    _GOOD_ROW, st.sampled_from(["id", "kind", "label", "code", "source"]),
    st.one_of(_HOSTILE_VALUE, st.just(...)))
# lines no row makes: blank, not an object, not JSON, not UTF-8
_RAW_LINE = st.sampled_from([
    b"", b"  \t", b"\x0c", b"[1, 2]", b"3", b"null", b'"x"', b"NaN", b"9" * 5000, b"{",
    b"\xff\xfe", b'{"id": "caf\xe9", "kind": "AU", "label": 0, "code": "x;"}',
    DEEP_JSON.encode(),
])


@settings(max_examples=150, deadline=None, database=None)
@given(rows=st.lists(_GOOD_ROW, max_size=12),
       bad=st.lists(st.tuples(st.integers(0, 12), st.one_of(_BAD_ROW, _RAW_LINE)), max_size=3),
       hypothesis=st.sampled_from(["h1", "h2"]))
def test_balance_on_a_hostile_corpus_exits_0_or_2(rows, bad, hypothesis):
    # one row per (kind, label) cell first, so that some corpora balance
    cells = [{"kind": k.value, "label": label, "code": "x = 1;"}
             for k in Kind for label in (0, 1)]
    lines = [json.dumps({"id": str(i), **row}).encode() for i, row in enumerate(cells + rows)]
    for at, line in bad:
        lines.insert(at, line)
    with tempfile.TemporaryDirectory() as tmp:
        corpus, out = Path(tmp) / "c.jsonl", Path(tmp) / "bal"
        corpus.write_bytes(b"\n".join(lines))
        code = main(["balance", "--hypothesis", hypothesis, "--in", str(corpus),
                     "--out", str(out)])
        assert code in (0, 2)
        assert (out / "balanced.jsonl").exists() == (code == 0)
    assert gc.isenabled()


def test_balance_lone_surrogate_is_data_error(tmp_path, capsys):
    bad = tmp_path / "sur.jsonl"
    bad.write_text('{"id": "a", "kind": "API", "label": 1, "code": "x\\ud800"}\n'
                   '{"id": "b", "kind": "API", "label": 0, "code": "y = 1;"}\n')
    assert main(["balance", "--in", str(bad), "--hypothesis", "h1",
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"{bad}:1: code holds a lone surrogate (U+D800)" in err and "Traceback" not in err


def test_balance_source_that_is_not_a_string_is_data_error(tmp_path, capsys):
    bad = tmp_path / "s.jsonl"
    bad.write_text('{"id": "a", "kind": "API", "label": 1, "code": "x;", "source": ["f\\ud800"]}\n'
                   '{"id": "b", "kind": "API", "label": 0, "code": "y = 1;"}\n')
    assert main(["balance", "--hypothesis", "h1", "--in", str(bad),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert (f"{bad}:1: source must be a string or null, got ['f\\ud800']" in err
            and "Traceback" not in err)


def test_balance_h1_reference_manifest_total(tmp_path):
    # the reference distribution balances to 112,790 under H1
    corpus_path = tmp_path / "ref.jsonl"
    save(reference_corpus(), corpus_path)
    out = tmp_path / "bal"
    assert main(["balance", "--hypothesis", "h1", "--in", str(corpus_path),
                 "--seed", "42", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["total"] == 112790
    per_kind = {
        k: c["vulnerable"] + c["non_vulnerable"]
        for k, c in manifest["per_kind_counts"].items()
    }
    assert per_kind == {"API": 27206, "AU": 21852, "PU": 56782, "AE": 6950}


def test_train_then_evaluate(tmp_path, small_corpus_path):
    model_dir = tmp_path / "model"
    assert main(["train", "--in", str(small_corpus_path), "--seed", "5",
                 *FAST_FLAGS, "--out", str(model_dir)]) == 0
    assert sorted(p.name for p in model_dir.iterdir()) == ["checkpoint.npz", "history.json"]
    history = json.loads((model_dir / "history.json").read_text())
    assert len(history["train_loss"]) == history["stopped_epoch"]

    eval_dir = tmp_path / "eval"
    assert main(["evaluate", "--model", str(model_dir / "checkpoint.npz"),
                 "--in", str(small_corpus_path), "--out", str(eval_dir)]) == 0
    lines = (eval_dir / "metrics.csv").read_text().splitlines()
    assert lines[0].startswith("category,recall")
    assert any(l.startswith("Overall,") for l in lines)


def test_evaluate_reads_its_settings_from_the_checkpoint(tmp_path, small_corpus_path):
    # train + evaluate on train's held-out side is run-strategy s2, split for split
    bal, model_dir = tmp_path / "bal", tmp_path / "model"
    assert main(["balance", "--hypothesis", "h2", "--in", str(small_corpus_path),
                 "--seed", "42", "--out", str(bal)]) == 0
    assert main(["train", "--in", str(bal / "balanced.jsonl"), "--seed", "42",
                 *FAST_FLAGS, "--out", str(model_dir)]) == 0
    _, heldout = split(load(bal / "balanced.jsonl"), 42)
    save(heldout, tmp_path / "heldout.jsonl")
    assert main(["evaluate", "--model", str(model_dir / "checkpoint.npz"),
                 "--in", str(tmp_path / "heldout.jsonl"), "--out", str(tmp_path / "eval")]) == 0
    assert main(["run-strategy", "--strategy", "s2", "--in", str(small_corpus_path),
                 "--seed", "42", *FAST_FLAGS, "--out", str(tmp_path / "runs")]) == 0
    assert ((tmp_path / "eval" / "metrics.csv").read_bytes()
            == (tmp_path / "runs" / "s2-seed42" / "metrics.csv").read_bytes())


def test_evaluate_on_an_empty_corpus_is_data_error(tmp_path, small_corpus_path, capsys):
    model_dir, empty, out = tmp_path / "model", tmp_path / "empty.jsonl", tmp_path / "eval"
    assert main(["train", "--in", str(small_corpus_path), *FAST_FLAGS,
                 "--out", str(model_dir)]) == 0
    empty.write_text("")
    assert main(["evaluate", "--model", str(model_dir / "checkpoint.npz"),
                 "--in", str(empty), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{empty} holds no samples to score" in err and "Traceback" not in err
    assert not out.exists()


def test_s3_with_an_empty_remainder_is_data_error(tmp_path, capsys):
    # H2 keeps every sample of a corpus balanced per kind, so nothing remains
    counts, corpus_path = tmp_path / "counts.json", tmp_path / "corpus.jsonl"
    counts.write_text(json.dumps({kind: {"vulnerable": 10, "non_vulnerable": 10}
                                  for kind in ("API", "AU")}))
    assert main(["build-dataset", "--counts", str(counts), "--out", str(corpus_path)]) == 0
    out = tmp_path / "runs"
    assert main(["run-strategy", "--strategy", "s3", "--in", str(corpus_path), *FAST_FLAGS,
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "the S3 remainder holds no samples to score" in err and "Traceback" not in err
    assert not out.exists()


def test_train_on_a_corpus_too_small_to_split_is_data_error(tmp_path, small_corpus_path,
                                                           capsys):
    # three samples of one (kind, label) cell: the 8/2 split holds none out
    tiny = tmp_path / "tiny.jsonl"
    tiny.write_text("".join(small_corpus_path.read_text().splitlines(keepends=True)[:3]))
    assert main(["train", "--in", str(tiny), *FAST_FLAGS, "--out", str(tmp_path / "m")]) == 2
    err = capsys.readouterr().err
    assert "training and validation sets must be non-empty" in err


def test_train_on_a_row_that_does_not_lex_names_the_row(tmp_path, small_corpus_path, capsys):
    # the code ends in a backslash that no newline follows
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "x7", "kind": "AE", "label": 1, "code": "t = 1 + \\\\", '
                   '"source": "a.c"}\n' + small_corpus_path.read_text())
    out = tmp_path / "m"
    assert main(["train", "--in", str(bad), *FAST_FLAGS, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert ("data error: [stage: tokenize] sample 'x7' (source a.c): "
            "line 1: unexpected character '\\\\'") in err
    assert "Traceback" not in err and not out.exists()


def test_run_strategy_flags_file_and_determinism(tmp_path, small_corpus_path):
    flags = ["--strategy", "s2", "--in", str(small_corpus_path), "--seed", "42", *FAST_FLAGS]
    flags_file = tmp_path / "s2.flags"
    flags_file.write_text(
        "# S2 at desk-test scale\n"
        f"--strategy s2 --in '{small_corpus_path}'\n"
        "--seed 42  # the run's one seed\n"
        + " ".join(FAST_FLAGS) + "\n")
    out1, out2, typed = tmp_path / "r1", tmp_path / "r2", tmp_path / "typed"
    assert main(["run-strategy", f"@{flags_file}", "--out", str(out1)]) == 0
    assert main(["run-strategy", f"@{flags_file}", "--out", str(out2)]) == 0
    assert main(["run-strategy", *flags, "--out", str(typed)]) == 0
    for name in ("metrics.csv", "metrics.txt"):
        a = (out1 / "s2-seed42" / name).read_bytes()
        assert a == (out2 / "s2-seed42" / name).read_bytes()
        assert a == (typed / "s2-seed42" / name).read_bytes()
    report = json.loads((out1 / "s2-seed42" / "report.json").read_text())
    assert report["seed"] == 42 and report["fingerprints"]["seed"] == 42

    # flags after the file win
    assert main(["run-strategy", f"@{flags_file}", "--seed", "7", "--out", str(out1)]) == 0
    report = json.loads((out1 / "s2-seed7" / "report.json").read_text())
    assert report["seed"] == 7 and report["fingerprints"]["seed"] == 7


def test_report_comparison(tmp_path, small_corpus_path):
    out = tmp_path / "runs"
    assert main(["run-strategy", "--strategy", "s2", "--in", str(small_corpus_path),
                 "--seed", "1", *FAST_FLAGS, "--out", str(out)]) == 0
    report = out / "s2-seed1" / "report.json"
    cmp_dir = tmp_path / "cmp"
    assert main(["report", "--in", str(report), str(report),
                 "--out", str(cmp_dir)]) == 0
    lines = (cmp_dir / "comparison.csv").read_text().splitlines()
    assert lines[0].startswith("strategy,overall_f1_pct")
    assert len(lines) == 3


def _report_with(**changes):
    """A report.json payload that ``report`` accepts, with the named
    strategy, Overall metric or resource field replaced."""
    payload = {"strategy": "S1", "metrics": {"Overall": {"f1": 0.9, "accuracy": 0.8}},
               "resources": {"wall_time_seconds": 1.5, "peak_resident_memory_bytes": 2**20}}
    for key, value in changes.items():
        table = next(t for t in (payload, payload["metrics"]["Overall"], payload["resources"])
                     if key in t)
        table[key] = value
    return payload


def _report_text(key, literal):
    """The text of ``_report_with``'s payload with ``key`` set to the JSON
    number ``literal``, written as given."""
    return json.dumps(_report_with(**{key: "?"})).replace('"?"', literal)


@pytest.mark.parametrize("text, reason", [
    ("{broken", "JSONDecodeError"),
    ('{"strategy": "S1"}', "KeyError: 'metrics'"),
    pytest.param(DEEP_JSON, "RecursionError: maximum recursion depth exceeded",
                 id="deep-nesting"),
    # booleans are not numbers, and a strategy is a string
    *(pytest.param(json.dumps(_report_with(**{key: value})), reason, id=key)
      for key, value, reason in [
          ("f1", True, "TypeError: f1 is a bool"),
          ("accuracy", False, "TypeError: accuracy is a bool"),
          ("wall_time_seconds", True, "TypeError: wall_time_seconds is a bool"),
          ("peak_resident_memory_bytes", False,
           "TypeError: peak_resident_memory_bytes is a bool"),
          ("strategy", ["S1"], "TypeError: strategy is a list"),
      ]),
    # Python's json reads NaN, Infinity and 1e400 as floats that are not finite
    *(pytest.param(_report_text(key, literal), reason, id=f"{key}={literal}")
      for key, literal, reason in [
          ("f1", "NaN", "ValueError: f1 is nan, not finite"),
          ("accuracy", "Infinity", "ValueError: accuracy is inf, not finite"),
          ("wall_time_seconds", "-Infinity", "ValueError: wall_time_seconds is -inf, not finite"),
          ("peak_resident_memory_bytes", "1e400",
           "ValueError: peak_resident_memory_bytes is inf, not finite"),
          ("f1", "1.7", "ValueError: f1 is 1.7, outside [0, 1]"),
          ("accuracy", "-0.2", "ValueError: accuracy is -0.2, outside [0, 1]"),
          ("wall_time_seconds", "-3", "ValueError: wall_time_seconds is -3, outside [0, inf]"),
          ("peak_resident_memory_bytes", "-1",
           "ValueError: peak_resident_memory_bytes is -1, outside [0, inf]"),
      ]),
    pytest.param(_report_text("peak_resident_memory_bytes", "1" + "0" * 400),
                 "OverflowError: int too large to convert to float",
                 id="peak_resident_memory_bytes=10**400"),
])
def test_report_on_a_broken_report_is_data_error(tmp_path, capsys, text, reason):
    path = tmp_path / "report.json"
    path.write_text(text)
    assert main(["report", "--in", str(path), "--out", str(tmp_path / "cmp")]) == 2
    err = capsys.readouterr().err
    assert f"{path}: not a report.json ({reason}" in err and "Traceback" not in err
    assert not (tmp_path / "cmp").exists()


def test_report_on_a_non_utf8_file_names_the_line(tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_bytes(b'{"strategy": "S1", "note": "caf\xe9"}\n')
    assert main(["report", "--in", str(path), "--out", str(tmp_path / "cmp")]) == 2
    err = capsys.readouterr().err
    assert f"{path}:1: not UTF-8 (byte 0xe9: invalid continuation byte)" in err
    assert "Traceback" not in err
    assert not (tmp_path / "cmp").exists()


def test_report_on_a_strategy_with_a_lone_surrogate_is_data_error(tmp_path, capsys):
    # json reads "\ud800" as a lone surrogate, which comparison.csv cannot hold
    path = tmp_path / "report.json"
    path.write_text(json.dumps(_report_with(strategy="S\ud800")))
    assert main(["report", "--in", str(path), "--out", str(tmp_path / "cmp")]) == 2
    err = capsys.readouterr().err
    assert (f"{path}: not a report.json (ValueError: strategy holds a lone surrogate (U+D800))"
            in err and "Traceback" not in err)
    assert not (tmp_path / "cmp").exists()


def _changed_report(changes):
    """``_report_with()``'s payload with each (key, value) of ``changes`` set
    in the table that holds the key, or the key dropped where value is ..."""
    payload = _report_with()
    tables = (payload, payload["metrics"], payload["metrics"]["Overall"], payload["resources"])
    owner = {key: table for table in tables for key in table}
    for key, value in changes:
        if value is ...:
            owner[key].pop(key, None)
        else:
            owner[key][key] = value
    return payload


_REPORT_KEY = st.sampled_from(["strategy", "metrics", "Overall", "f1", "accuracy", "resources",
                               "wall_time_seconds", "peak_resident_memory_bytes"])
# report.json text: an accepted payload with a few values made hostile or
# dropped, a hostile value alone, or a line that is not a JSON object
_REPORT_TEXT = st.one_of(
    st.builds(lambda changes: json.dumps(_changed_report(changes)).encode(),
              st.lists(st.tuples(_REPORT_KEY, st.one_of(_HOSTILE_VALUE, st.just(...))),
                       max_size=3)),
    st.builds(lambda value: json.dumps(value).encode(), _HOSTILE_VALUE),
    _RAW_LINE)


@settings(max_examples=150, deadline=None, database=None)
@given(texts=st.lists(_REPORT_TEXT, min_size=1, max_size=2))
def test_report_on_hostile_reports_exits_0_or_2(texts):
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / f"r{i}.json" for i in range(len(texts))]
        for path, text in zip(paths, texts):
            path.write_bytes(text)
        out = Path(tmp) / "cmp"
        code = main(["report", "--in", *map(str, paths), "--out", str(out)])
        assert code in (0, 2)
        assert (out / "comparison.csv").exists() == (code == 0)


def test_report_comparison_is_frozen(tmp_path):
    payloads = [
        {"strategy": "S1", "metrics": {"Overall": {"f1": 0.98765, "accuracy": 0.5}},
         "resources": {"wall_time_seconds": 12.345, "peak_resident_memory_bytes": 123456789}},
        {"strategy": "S3", "metrics": {"Overall": {"f1": None, "accuracy": 0.904525}},
         "resources": {"wall_time_seconds": 0.004, "peak_resident_memory_bytes": 1048576}},
    ]
    paths = []
    for i, payload in enumerate(payloads):
        paths.append(tmp_path / f"r{i}.json")
        paths[-1].write_text(json.dumps(payload))
    assert main(["report", "--in", *map(str, paths), "--out", str(tmp_path / "cmp")]) == 0
    assert (tmp_path / "cmp" / "comparison.csv").read_text() == (
        "strategy,overall_f1_pct,overall_accuracy_pct,wall_time_s,peak_memory_mb\n"
        "S1,98.77,50.00,12.35,117.7\n"
        "S3,,90.45,0.00,1.0\n"
    )


def test_flag_inventory():
    # every option each subcommand takes; a new knob shows up here as a diff
    sub = next(a for a in _build_parser()._actions if a.dest == "command")
    inventory = {name: [opt for action in p._actions for opt in action.option_strings]
                 for name, p in sub.choices.items()}
    model_flags = ["--layers", "--hidden", "--heads", "--ff", "--max-len", "--vocab-size",
                   "--dropout", "--lr", "--batch-size", "--epochs", "--patience",
                   "--weight-decay"]
    assert inventory == {
        "slice": ["-h", "--help", "--in", "--out"],
        "build-dataset": ["-h", "--help", "--preset", "--counts", "--seed", "--out"],
        "balance": ["-h", "--help", "--hypothesis", "--in", "--seed", "--out"],
        "train": ["-h", "--help", "--in", *model_flags, "--seed", "--out"],
        "evaluate": ["-h", "--help", "--model", "--in", "--out"],
        "run-strategy": ["-h", "--help", "--strategy", "--in", *model_flags, "--seed",
                         "--out"],
        "report": ["-h", "--help", "--in", "--out"],
    }


@pytest.mark.parametrize("demo", [
    "01_slice_c_code.py", "02_balance_hypotheses.py", "03_train_classifier.py",
    "04_run_strategies.py"])
def test_demo_runs(demo, tmp_path):
    result = _run_python(str(SRC.parent / "demos" / demo), cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    if demo == "04_run_strategies.py":  # emit writes one run directory per strategy
        assert [p.name for p in tmp_path.iterdir()] == ["demo_runs"]
        assert all((tmp_path / "demo_runs" / sid / "report.json").is_file()
                   for sid in ("s1", "s2", "s3"))
    else:
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("reader", ["corpus", "counts", "flags", "checkpoint"])
def test_an_oversized_value_is_quoted_short(tmp_path, small_corpus_path, capsys, reader):
    # a message quotes at most a fixed length of a bad value; quoting it all
    # printed hundreds of kilobytes for one oversized field
    bad, big = tmp_path / "bad", "x" * 300_000
    out = ["--out", str(tmp_path / "out")]
    if reader == "corpus":
        bad.write_text(json.dumps({"id": "a", "kind": "API", "label": [0] * 200_000,
                                   "code": "x;"}) + "\n")
        argv, code = ["balance", "--hypothesis", "h1", "--in", str(bad)], 2
        named = f"{bad}:1: label must be 0 or 1, got [0, 0, 0"
    elif reader == "counts":
        bad.write_text(json.dumps({"API": {"vulnerable": big}}))
        argv, code = ["build-dataset", "--counts", str(bad)], 2
        named = f"{bad}: API needs non-negative integer 'vulnerable' and 'non_vulnerable' counts"
    elif reader == "flags":
        bad.write_text(f'--epochs 1\n--in "{big}\n')
        argv, code = ["run-strategy", f"@{bad}"], 1
        named = f"""flags file line '--in "xxx"""
    else:
        config = {**dataclasses.asdict(ModelConfig()), "num_layers": big}
        meta = json.dumps({"version": model.CHECKPOINT_VERSION, "config": config, "vocab": []})
        bad = bad.with_suffix(".npz")
        np.savez(bad, __meta__=np.frombuffer(meta.encode(), dtype=np.uint8))
        argv, code = ["evaluate", "--model", str(bad), "--in", str(small_corpus_path)], 2
        named = f"{bad}: not a checkpoint (ValueError: num_layers must be an integer, got 'xxx"
    assert main(argv + out) == code
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err
    assert len(err.encode()) < 1024, f"{len(err.encode())} bytes of stderr"
