"""The three workloads: how each makes its inputs, runs one timed pass, and
checks the program's outputs without trusting the program's own summary.

A pass returns a ``PassResult``: the seconds its program calls took, the
work it completed (the numerator of ``throughput``), and one entry per
operation attempted with the reason it failed, if it did.  An operation
fails on an exception, a non-zero exit code or a failed check; the pass
goes on regardless.  Each program call is timed through the pass's speed
probe (speed.py), which also samples the machine's speed before and
during the call.  WORKLOADS.md records why each workload exists.
"""

from __future__ import annotations

import json
import re
import shutil
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import ctree
from speed import Probe

# run-strategy flags of the acceptance spec
DESK_SPEC = ["--max-len", "48", "--vocab-size", "512", "--epochs", "6", "--patience", "3"]
# (train, validation, test) sizes per strategy on the 2,000-slice desk
# corpus; the desk counts do not depend on the seed.  H1 keeps 2 x 440
# vulnerable = 880 samples, H2 keeps 8 x 60 = 480; the held-out side of each
# (kind, label) cell is floor(0.2 n).  S3 tests on the 2,000 - 480 rest.
DESK_SIZES = {"S1": (704, 176, 176), "S2": (384, 96, 96), "S3": (384, 96, 1520)}

REFERENCE_ROWS = 420_627
# per kind: (vulnerable, non-vulnerable) of the reference distribution.  H1
# keeps 112,790 rows (API 27,206 / AU 21,852 / PU 56,782 / AE 6,950), H2
# keeps 27,800 and leaves a remainder of 392,827.
REFERENCE_COUNTS = {"API": (13603, 50800), "AU": (10926, 31303),
                    "PU": (28391, 263450), "AE": (3475, 18679)}
REMAINDER_SIZE = 392_827


@dataclass
class PassResult:
    seconds: float
    work: float
    ops: list[str | None] = field(default_factory=list)  # None = ok, else reason
    files: list[dict] = field(default_factory=list)
    info: dict = field(default_factory=dict)


def _failure(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}".splitlines()[0][:300]


def _call_cli(argv: list[str]) -> str | None:
    """Run one CLI command in-process; None on exit 0, else the reason."""
    from slicevuln import cli

    try:
        code = cli.main(argv)
    except Exception as exc:  # a crash is a failed operation, not a bench abort
        return "raised " + _failure(exc)
    return None if code == 0 else f"exit {code}"


class DeskStrategies:
    """run-strategy S1, S2, S3 on the 2,000-slice desk corpus."""

    name = "desk-strategies"
    probe_kernel = "numpy"  # training is small float64 matrix work
    unit_of_work = ("model samples: per strategy, epochs run x (train + validation)"
                    " + test samples")

    @staticmethod
    def setup(seed: int, work: Path) -> None:
        from slicevuln import corpus, synth

        corpus.save(synth.pattern_corpus(seed=seed), work / "corpus.jsonl")

    def __init__(self, seed: int, work: Path):
        self.seed, self.work = seed, work
        self.first_csv: dict[str, bytes] = {}

    def run_pass(self, k: int, probe: Probe) -> PassResult:
        out = self.work / f"pass{k}"
        outcome = {}
        for sid in DESK_SIZES:
            argv = ["run-strategy", "--strategy", sid.lower(), "--in",
                    str(self.work / "corpus.jsonl"), "--seed", str(self.seed),
                    *DESK_SPEC, "--out", str(out)]
            outcome[sid] = probe.time(lambda: _call_cli(argv))

        result = PassResult(seconds=sum(t for _, t in outcome.values()), work=0.0)
        for sid, (n_train, n_val, n_test) in DESK_SIZES.items():
            reason = outcome[sid][0]
            if reason is None:
                try:
                    reason, epochs, f1 = self._check(out / f"{sid.lower()}-seed{self.seed}",
                                                     sid, n_train, n_val, n_test)
                except Exception as exc:  # unreadable output fails the check
                    reason = "check raised " + _failure(exc)
                if reason is None:
                    result.work += epochs * (n_train + n_val) + n_test
                    result.info[f"f1_pct.{sid}"] = 100.0 * f1
            result.ops.append(None if reason is None else f"{sid}: {reason}")
        shutil.rmtree(out, ignore_errors=True)
        return result

    def _check(self, run_dir: Path, sid: str, n_train: int, n_val: int, n_test: int):
        report = json.loads((run_dir / "report.json").read_text(encoding="utf-8"))
        fp = report["fingerprints"]
        sizes = (fp["train_size"], fp["val_size"], fp["test_size"])
        if sizes != (n_train, n_val, n_test):
            return f"train/val/test sizes {sizes}, expected {(n_train, n_val, n_test)}", 0, 0
        cells = sum(sum(cm.values()) for cm in report["confusion"].values())
        if cells != n_test:
            return f"confusion cells total {cells}, test size {n_test}", 0, 0
        epochs = report["history"]["stopped_epoch"]
        if not (1 <= epochs <= 6 and len(report["history"]["train_loss"]) == epochs):
            return f"history reports {epochs} epochs", 0, 0
        f1 = report["metrics"]["Overall"]["f1"]
        if not isinstance(f1, float) or not 0.0 <= f1 <= 1.0:
            return f"overall F1 {f1!r} is not a number in [0, 1]", 0, 0
        csv = (run_dir / "metrics.csv").read_bytes()
        first = self.first_csv.setdefault(sid, csv)
        if csv != first:
            return "metrics.csv differs from the first pass of this run", 0, 0
        return None, epochs, f1


class SliceTree:
    """slice, once per file, over a seeded C tree.

    The timed region slices the clean files.  The hostile files are sliced
    right after it, untimed, and reported separately: today the lexer
    rejects all of them, and a workload that fails by design would hide a
    real failure among expected ones.
    """

    name = "slice-tree"
    probe_kernel = "python"
    unit_of_work = "source lines of the clean files that were sliced and passed the checks"

    @staticmethod
    def setup(seed: int, work: Path) -> None:
        ctree.write_tree(seed, work / "tree")

    def __init__(self, seed: int, work: Path):
        self.work = work
        self.files = ctree.read_manifest(work / "tree")

    def _argv(self, f: ctree.SourceFile, out: Path) -> list[str]:
        return ["slice", "--in", str(self.work / "tree" / f.path), "--out", str(out / f.path)]

    def run_pass(self, k: int, probe: Probe) -> PassResult:
        out = self.work / f"pass{k}"
        clean = [f for f in self.files if f.hostile is None]
        outcome = {}
        for f in clean:
            outcome[f.path] = probe.time(lambda: _call_cli(self._argv(f, out)))
        hostile = {f.hostile: _call_cli(self._argv(f, out))
                   for f in self.files if f.hostile is not None}

        result = PassResult(seconds=sum(t for _, t in outcome.values()), work=0.0)
        for f in clean:
            reason, file_seconds = outcome[f.path]
            if reason is None:
                try:
                    reason = self._check(f, out / f.path / "slices.jsonl")
                except Exception as exc:  # unreadable output fails the check
                    reason = "check raised " + _failure(exc)
            if reason is None:
                result.work += f.lines
            result.ops.append(None if reason is None else f"{f.path}: {reason}")
            result.files.append({"path": f.path, "lines": f.lines, "size_class": f.size_class,
                                 "seconds": file_seconds, "ok": reason is None})
        result.info["hostile"] = {c: r or "ok" for c, r in sorted(hostile.items())}
        shutil.rmtree(out, ignore_errors=True)
        return result

    def _check(self, f: ctree.SourceFile, path: Path) -> str | None:
        source = (self.work / "tree" / f.path).read_text(encoding="ascii").split("\n")
        source_lines = set(source)
        records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        if not records:
            return "no candidates in a file that has some"
        if len({r["id"] for r in records}) != len(records):
            return "duplicate slice ids"
        for r in records:
            if r["kind"] not in ("API", "AU", "PU", "AE"):
                return f"{r['id']}: unknown kind {r['kind']!r}"
            code = r["code"].split("\n")
            if not 1 <= r["line"] <= len(source) or source[r["line"] - 1] not in code:
                return f"{r['id']}: slice lacks its candidate line {r['line']}"
            if not re.search(rf"\b{re.escape(r['focus'])}\b", r["code"]):
                return f"{r['id']}: slice lacks its focus {r['focus']!r}"
            if not source_lines.issuperset(code):
                return f"{r['id']}: slice holds a line that is not in the source"
        return None


class ReferenceBalance:
    """Load the 420,627-row reference corpus, balance it under H1 and H2,
    take the S3 remainder and write both balanced sets."""

    name = "reference-balance"
    probe_kernel = "python"
    unit_of_work = "reference corpus rows"

    @staticmethod
    def setup(seed: int, work: Path) -> None:
        import random

        from slicevuln import corpus, synth

        rows = synth.reference_corpus().samples
        random.Random(seed).shuffle(rows)  # the row order is the seeded input
        corpus.save(corpus.SampleSet(rows), work / "reference.jsonl")

    def __init__(self, seed: int, work: Path):
        self.seed, self.work = seed, work

    def run_pass(self, k: int, probe: Probe) -> PassResult:
        from slicevuln import balancer, corpus

        out = self.work / f"pass{k}"
        done = {}
        calls = {
            "load": lambda: corpus.load(self.work / "reference.jsonl"),
            "balance_h1": lambda: balancer.balance_h1(done["load"], self.seed),
            "balance_h2": lambda: balancer.balance_h2(done["load"], self.seed),
            "remainder": lambda: balancer.remainder(done["load"], done["balance_h2"]),
            "save_h1": lambda: balancer.save_balanced(done["balance_h1"], out / "h1"),
            "save_h2": lambda: balancer.save_balanced(done["balance_h2"], out / "h2"),
        }
        seconds = 0.0
        error = None
        for step, call in calls.items():
            try:
                done[step], step_seconds = probe.time(call)
            except Exception as exc:  # later steps are reported as not reached
                error = _failure(exc)
                break
            seconds += step_seconds

        result = PassResult(seconds=seconds, work=0.0)
        checks = {
            "load": lambda v: _expect("rows", len(v), REFERENCE_ROWS),
            "balance_h1": lambda v: _check_counts(v.samples, h1_expected()),
            "balance_h2": lambda v: _check_counts(v.samples, h2_expected()),
            "remainder": lambda v: _check_remainder(v, done["balance_h2"]),
            "save_h1": lambda v: _check_written(out / "h1", h1_expected()),
            "save_h2": lambda v: _check_written(out / "h2", h2_expected()),
        }
        for step in calls:
            if step not in done:
                reason = error if error is not None else "not reached"
                error = "not reached"
            else:
                try:
                    reason = checks[step](done[step])
                except Exception as exc:  # unreadable output fails the check
                    reason = "check raised " + _failure(exc)
            result.ops.append(None if reason is None else f"{step}: {reason}")
        if all(r is None for r in result.ops):
            result.work = REFERENCE_ROWS
        done.clear()
        shutil.rmtree(out, ignore_errors=True)
        return result


def h1_expected() -> Counter:
    return Counter({(k, lab): v for k, (v, _) in REFERENCE_COUNTS.items() for lab in (0, 1)})


def h2_expected() -> Counter:
    quota = min(v for v, _ in REFERENCE_COUNTS.values())
    return Counter({(k, lab): quota for k in REFERENCE_COUNTS for lab in (0, 1)})


def _expect(what: str, got, want) -> str | None:
    return None if got == want else f"{what} {got}, expected {want}"


def _cells(samples) -> Counter:
    return Counter((s.kind.value, int(s.label)) for s in samples)


def _check_counts(samples, want: Counter) -> str | None:
    if len({s.id for s in samples}) != len(samples):
        return "duplicate ids"
    total = sum(want.values())
    return _expect("size", len(samples), total) or _expect("cell counts", _cells(samples), want)


def _check_remainder(rest, h2) -> str | None:
    taken = {s.id for s in h2.samples}
    if any(s.id in taken for s in rest):
        return "remainder shares ids with the H2 set"
    return _expect("remainder size", len(rest), REMAINDER_SIZE)


def _check_written(out: Path, want: Counter) -> str | None:
    cells: Counter = Counter()
    ids = set()
    with open(out / "balanced.jsonl", encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            cells[(row["kind"], row["label"])] += 1
            ids.add(row["id"])
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    total = sum(want.values())
    return (_expect("rows written", sum(cells.values()), total)
            or _expect("distinct ids written", len(ids), total)
            or _expect("cell counts written", cells, want)
            or _expect("manifest total", manifest["total"], total))


WORKLOADS = {w.name: w for w in (DeskStrategies, SliceTree, ReferenceBalance)}
