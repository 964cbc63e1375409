import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from slicevuln import Kind, balance_h1
from slicevuln.cli import main
from slicevuln.corpus import load, save
from slicevuln.synth import DESK_COUNTS, pattern_corpus, reference_corpus

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


def _write_sources(directory: Path, sources: dict[str, str]) -> list[str]:
    for name, text in sources.items():
        (directory / name).write_text(text, encoding="utf-8")
    return [str(directory / name) for name in sources]


@pytest.fixture()
def small_corpus_path(tmp_path):
    path = tmp_path / "corpus.jsonl"
    save(pattern_corpus(SMALL, seed=3), path)
    return path


def _run_python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports slicevuln from this checkout."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": path})


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_module_entry_point_runs_main():
    result = _run_python("-m", "slicevuln.cli")
    assert result.returncode == 1
    assert "usage: slicevuln" in result.stderr


def test_unknown_flag_is_usage_error():
    assert main(["balance", "--bogus"]) == 1


@pytest.mark.parametrize("command, flags", [
    ("run-strategy", ["--strategy", "s2", "--heads", "3"]),
    ("run-strategy", ["--strategy", "s2", "--epochs", "0"]),
    ("train", ["--train-fraction", "1.5"]),
    ("slice", ["--max-lines", "0"]),
    # {text: named} stands for a flags file holding text; the error names named
    ("run-strategy", [{"--hiden 32": "--hiden"}]),
    ("run-strategy", [{"--epochs six": "--epochs"}]),
    ("run-strategy", [{"--heads 3": "num_heads 3"}]),
])
def test_invalid_flag_value_is_usage_error(tmp_path, small_corpus_path, capsys,
                                           command, flags):
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


def test_missing_input_is_data_error(tmp_path):
    code = main(["balance", "--hypothesis", "h1", "--in", str(tmp_path / "no.jsonl"),
                 "--out", str(tmp_path / "o")])
    assert code == 2


def test_unreadable_flags_file_is_usage_error(tmp_path, small_corpus_path, capsys):
    absent, latin1, quote = (tmp_path / f"{n}.flags" for n in ("absent", "latin1", "quote"))
    latin1.write_bytes(b"--epochs 2\n# caf\xe9\n")
    quote.write_text('--epochs 2\n--in "corpus.jsonl\n')
    for flags_file, named in (
        (absent, f"No such file or directory: '{absent}'"),
        (latin1, f"{latin1}:2: not UTF-8 (byte 0xe9"),
        (quote, """flags file line '--in "corpus.jsonl': No closing quotation"""),
    ):
        code = main(["run-strategy", f"@{flags_file}", "--in", str(small_corpus_path),
                     "--out", str(tmp_path / "runs")])
        assert code == 1
        err = capsys.readouterr().err
        assert "usage: slicevuln run-strategy" in err
        assert named in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["build-dataset", "balance", "train", "run-strategy"])
@pytest.mark.parametrize("flags, env, named", [
    (["--seed", "-1"], None, "argument --seed: expected a non-negative integer, got '-1'"),
    ([], "abc", "SLICEVULN_SEED: expected a non-negative integer, got 'abc'"),
    ([], "-3", "SLICEVULN_SEED: expected a non-negative integer, got '-3'"),
], ids=["flag-negative", "env-not-a-number", "env-negative"])
def test_malformed_seed_is_usage_error(tmp_path, small_corpus_path, capsys, monkeypatch,
                                       command, flags, env, named):
    if env is None:
        monkeypatch.delenv("SLICEVULN_SEED", raising=False)
    else:
        monkeypatch.setenv("SLICEVULN_SEED", env)
    inputs = {"build-dataset": [], "balance": ["--hypothesis", "h1"], "train": FAST_FLAGS,
              "run-strategy": FAST_FLAGS}[command]
    if command != "build-dataset":
        inputs = ["--in", str(small_corpus_path), *inputs]
    assert main([command, *inputs, *flags, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert f"usage: slicevuln {command}" in err and named in err
    assert "Traceback" not in err
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
    ckpt = save_checkpoint(net, tmp_path / "checkpoint.npz", vocab.content_hash())
    code = main(["evaluate", "--model", str(ckpt), "--vocab", str(vocab.save(tmp_path / "v.txt")),
                 "--in", str(small_corpus_path), "--out", str(tmp_path / "eval")])
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


def test_slice_jobs_flag_never_changes_results(tmp_path):
    sources = _write_sources(tmp_path, {n: SLICE_SOURCES[n] for n in ("s0.c", "s1.c", "s2.c", "s3.c")})
    out1, out2 = tmp_path / "j1", tmp_path / "j2"
    assert main(["slice", "--in", *sources, "--jobs", "1", "--out", str(out1)]) == 0
    assert main(["slice", "--in", *sources, "--jobs", "4", "--out", str(out2)]) == 0
    assert (out1 / "slices.jsonl").read_bytes() == (out2 / "slices.jsonl").read_bytes()


def test_slice_jobs_reports_a_file_that_fails_to_lex(tmp_path):
    # a worker's error has to come back through the pool, not hang it
    (good,) = _write_sources(tmp_path, {"ok.c": SLICE_SOURCES["ok.c"]})
    bad = tmp_path / "bad.c"
    bad.write_text("int f() {\n  int $x;\n}\n")
    result = _run_python(
        "-c", "import sys; from slicevuln.cli import main; sys.exit(main(sys.argv[1:]))",
        "slice", "--in", good, str(bad), "--jobs", "2", "--out", str(tmp_path / "o"))
    assert result.returncode == 2
    assert f"{bad}: line 2: unexpected character '$'" in result.stderr


def test_slice_non_utf8_file_is_data_error(tmp_path, capsys):
    src = tmp_path / "latin1.c"
    src.write_bytes("int caf\u00e9;\n".encode("latin-1"))
    assert main(["slice", "--in", str(src), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"{src}: 'utf-8' codec can't decode" in err and "Traceback" not in err


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


@pytest.mark.parametrize("command, flag", [
    ("evaluate", "--vocab"),
    ("slice", "--api-list"),
])
def test_non_utf8_vocab_or_api_list_is_data_error(tmp_path, small_corpus_path, capsys,
                                                  command, flag):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(b"strcpy\t3\n# caf\xe9\n")
    (src,) = _write_sources(tmp_path, {"a.c": SLICE_SOURCES["a.c"]})
    argv = {"evaluate": ["--model", str(tmp_path / "checkpoint.npz"),
                         "--in", str(small_corpus_path)],
            "slice": ["--in", src]}[command]
    assert main([command, *argv, flag, str(bad), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"{bad}:2: not UTF-8 (byte 0xe9" in err and "Traceback" not in err


@pytest.mark.parametrize("text, named", [
    ('{"API": {"vul": 1}}', "API needs non-negative integer"),
    ('{"AU": {"vulnerable": -1, "non_vulnerable": 3}}', "AU needs non-negative integer"),
    ("[1]", "a counts manifest holds one JSON object"),
    ('{"API": [1, 2]}', "API needs non-negative integer"),
], ids=["missing-key", "negative", "not-an-object", "cell-not-an-object"])
def test_bad_counts_manifest_is_data_error(tmp_path, capsys, text, named):
    counts = tmp_path / "counts.json"
    counts.write_text(text)
    assert main(["build-dataset", "--counts", str(counts),
                 "--out", str(tmp_path / "c.jsonl")]) == 2
    err = capsys.readouterr().err
    assert f"{counts}: {named}" in err and "Traceback" not in err
    assert not (tmp_path / "c.jsonl").exists()


def test_evaluate_on_a_file_that_is_not_a_checkpoint_is_data_error(tmp_path, small_corpus_path,
                                                                   capsys):
    from slicevuln import build_vocab
    from slicevuln.experiments import model_texts

    vocab = build_vocab(model_texts(load(small_corpus_path)), 64).save(tmp_path / "v.txt")
    ckpt = tmp_path / "checkpoint.npz"
    ckpt.write_text("not an archive\n")
    assert main(["evaluate", "--model", str(ckpt), "--vocab", str(vocab),
                 "--in", str(small_corpus_path), "--out", str(tmp_path / "eval")]) == 2
    err = capsys.readouterr().err
    assert f"{ckpt}: not a checkpoint" in err and "Traceback" not in err


def test_seed_env_var_is_default_of_last_resort(tmp_path, small_corpus_path, monkeypatch):
    monkeypatch.setenv("SLICEVULN_SEED", "7")
    out = tmp_path / "bal"
    assert main(["balance", "--hypothesis", "h1", "--in", str(small_corpus_path),
                 "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 7


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
    assert (model_dir / "checkpoint.npz").exists()
    assert (model_dir / "vocab.txt").exists()
    history = json.loads((model_dir / "history.json").read_text())
    assert len(history["train_loss"]) == history["stopped_epoch"]

    eval_dir = tmp_path / "eval"
    assert main(["evaluate", "--model", str(model_dir / "checkpoint.npz"),
                 "--vocab", str(model_dir / "vocab.txt"),
                 "--in", str(small_corpus_path), "--out", str(eval_dir)]) == 0
    lines = (eval_dir / "metrics.csv").read_text().splitlines()
    assert lines[0].startswith("category,recall")
    assert any(l.startswith("Overall,") for l in lines)


def test_train_on_a_corpus_too_small_to_split_is_data_error(tmp_path, small_corpus_path,
                                                           capsys):
    # three samples of one (kind, label) cell: the 8/2 split holds none out
    tiny = tmp_path / "tiny.jsonl"
    tiny.write_text("".join(small_corpus_path.read_text().splitlines(keepends=True)[:3]))
    assert main(["train", "--in", str(tiny), *FAST_FLAGS, "--out", str(tmp_path / "m")]) == 2
    err = capsys.readouterr().err
    assert "training and validation sets must be non-empty" in err


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


@pytest.mark.parametrize("text, reason", [
    ("{broken", "JSONDecodeError"),
    ('{"strategy": "S1"}', "KeyError: 'metrics'"),
])
def test_report_on_a_broken_report_is_data_error(tmp_path, capsys, text, reason):
    path = tmp_path / "report.json"
    path.write_text(text)
    assert main(["report", "--in", str(path), "--out", str(tmp_path / "cmp")]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and reason in err and "Traceback" not in err


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
