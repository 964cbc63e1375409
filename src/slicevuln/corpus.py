"""Sample data model, dataset I/O, and seeded stratified splits.

Two on-disk formats are supported:

* ``jsonlines`` -- one JSON object per line with fields
  ``id`` / ``kind`` / ``label`` / ``code`` and optional ``source``.
  Labels are integers (1 = vulnerable), kinds are the four canonical
  strings ``API`` / ``AU`` / ``PU`` / ``AE``.
* ``gadget-text`` -- legacy block format: the lines of one slice, then a
  line holding the 0/1 label, then a delimiter line of five or more
  ``-`` characters.  The format carries no kind field, so the reader
  assigns a caller-supplied default kind.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass
from enum import Enum, IntEnum
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .errors import DataError


class Kind(str, Enum):
    """The four vulnerability-candidate categories."""

    API = "API"  # risky API function call
    AU = "AU"    # array usage
    PU = "PU"    # pointer usage
    AE = "AE"    # arithmetic expression


KIND_ORDER = (Kind.API, Kind.AU, Kind.PU, Kind.AE)


class Label(IntEnum):
    NON_VULNERABLE = 0
    VULNERABLE = 1


@dataclass(frozen=True, slots=True)
class Sample:
    """One labeled code slice."""

    id: str
    kind: Kind
    label: Label
    code: str
    source: str | None = None


class SampleSet:
    """Ordered, immutable collection of samples with per-(kind, label) counts.

    Iteration order is insertion order.  Duplicate ids and empty code are
    rejected at construction time.
    """

    def __init__(self, samples: Iterable[Sample]):
        self.samples: list[Sample] = list(samples)
        seen: set[str] = set()
        for s in self.samples:
            if s.id in seen:
                raise DataError(f"duplicate sample id {s.id!r}")
            seen.add(s.id)
            if not s.code:
                raise DataError(f"sample {s.id!r} has empty code")
        self.manifest: Counter[tuple[Kind, Label]] = Counter(
            (s.kind, s.label) for s in self.samples
        )

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self) -> Iterator[Sample]:
        return iter(self.samples)

    def count(self, kind: Kind, label: Label) -> int:
        return self.manifest.get((kind, label), 0)

    def ids(self) -> set[str]:
        return {s.id for s in self.samples}


_KIND_NAMES = {k.value: k for k in Kind}
_GADGET_DELIM = re.compile(r"^-{5,}\s*$")
# VulDeePecker CGD header: "<number> <path> <functype-or-name> <line>"
_GADGET_HEADER = re.compile(r"^\d+\s+\S+\s+\S+\s+\d+\s*$")


def _parse_jsonl_record(obj: dict, where: str) -> Sample:
    for field in ("id", "kind", "label", "code"):
        if field not in obj:
            raise DataError(f"{where}: missing field {field!r}")
    kind = _KIND_NAMES.get(obj["kind"])
    if kind is None:
        raise DataError(f"{where}: unknown kind {obj['kind']!r}")
    if obj["label"] not in (0, 1):
        raise DataError(f"{where}: label must be 0 or 1, got {obj['label']!r}")
    code = obj["code"]
    if not isinstance(code, str) or not code:
        raise DataError(f"{where}: code must be a non-empty string")
    return Sample(
        id=str(obj["id"]),
        kind=kind,
        label=Label(obj["label"]),
        code=code,
        source=obj.get("source"),
    )


def _load_jsonlines(path: Path) -> list[Sample]:
    samples = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise DataError(f"{path}:{lineno}: malformed JSON record ({e.msg})") from e
            if not isinstance(obj, dict):
                raise DataError(f"{path}:{lineno}: record is not an object")
            samples.append(_parse_jsonl_record(obj, f"{path}:{lineno}"))
    return samples


def _load_gadget_text(path: Path, default_kind: Kind) -> list[Sample]:
    samples = []
    record: list[tuple[int, str]] = []  # (lineno, text)
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    lines.append("-----")  # sentinel so the last record is flushed

    for lineno, line in enumerate(lines, start=1):
        if _GADGET_DELIM.match(line):
            if any(text.strip() for _, text in record):
                samples.append(_gadget_record(record, default_kind, path, len(samples)))
            record = []
        else:
            record.append((lineno, line))
    return samples


def _gadget_record(
    record: list[tuple[int, str]], kind: Kind, path: Path, index: int
) -> Sample:
    body = [(n, t) for n, t in record if t.strip()]
    label_lineno, label_text = body[-1]
    if label_text.strip() not in ("0", "1"):
        raise DataError(
            f"{path}:{label_lineno}: expected 0/1 label line, got {label_text.strip()!r}"
        )
    label = Label(int(label_text.strip()))
    body = body[:-1]
    source = None
    sample_id = f"g{index + 1}"
    if body and _GADGET_HEADER.match(body[0][1].strip()):
        source = body[0][1].strip()
        sample_id = f"g{source.split()[0]}"
        body = body[1:]
    if not body:
        raise DataError(f"{path}:{label_lineno}: record has a label but no code lines")
    code = "\n".join(t for _, t in body)
    return Sample(id=sample_id, kind=kind, label=label, code=code, source=source)


def _not_utf8(path: Path) -> DataError:
    """The data error for a file that does not decode, naming its first bad
    line.  A newline byte never occurs inside a UTF-8 sequence, so decoding
    line by line finds the line the whole-file decode failed on."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as e:
                return DataError(f"{path}:{lineno}: not UTF-8 "
                                 f"(byte 0x{raw[e.start]:02x}: {e.reason})")
    return DataError(f"{path}: not UTF-8")


def load(
    path: str | Path,
    format: str = "jsonlines",
    default_kind: Kind = Kind.API,
) -> SampleSet:
    """Load a dataset from disk. ``default_kind`` applies to gadget-text only."""
    path = Path(path)
    try:
        if format == "jsonlines":
            return SampleSet(_load_jsonlines(path))
        if format == "gadget-text":
            return SampleSet(_load_gadget_text(path, default_kind))
    except UnicodeDecodeError as e:
        raise _not_utf8(path) from e
    raise DataError(f"unknown format {format!r} (expected jsonlines or gadget-text)")


def save(sset: SampleSet, path: str | Path) -> Path:
    """Write a dataset as JSON-lines, one record per sample, in set order."""
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        for s in sset:
            obj = {"id": s.id, "kind": s.kind.value, "label": int(s.label), "code": s.code}
            if s.source is not None:
                obj["source"] = s.source
            fh.write(json.dumps(obj, ensure_ascii=False) + "\n")
    return path


def _test_count(n: int, train_fraction: float) -> int:
    # floor((1 - f) * n), nudged so exact integers survive float rounding
    # (e.g. (1 - 0.8) * 10 is 1.9999... in IEEE arithmetic)
    return int((1.0 - train_fraction) * n + 1e-9)


def split(
    sset: SampleSet,
    train_fraction: float,
    seed: int,
) -> tuple[SampleSet, SampleSet]:
    """Partition into (train, test) at ``train_fraction``, stratified.

    The partition is exact: disjoint, union equals the input.  Each
    (kind, label) cell is split separately; the test side of a cell gets
    floor((1 - fraction) * n), so rounding remainders land in train.  Output
    order follows input order on both sides.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    if len(sset) == 0:
        raise DataError("cannot split an empty sample set")

    rng = np.random.default_rng(seed)
    test_idx: list[int] = []
    cells: dict[tuple[Kind, Label], list[int]] = {}
    for i, s in enumerate(sset.samples):
        cells.setdefault((s.kind, s.label), []).append(i)
    for key in sorted(cells, key=lambda kl: (KIND_ORDER.index(kl[0]), int(kl[1]))):
        idx = cells[key]
        perm = rng.permutation(len(idx))
        test_idx.extend(idx[j] for j in perm[: _test_count(len(idx), train_fraction)])

    test_mask = set(test_idx)
    train = [s for i, s in enumerate(sset.samples) if i not in test_mask]
    test = [s for i, s in enumerate(sset.samples) if i in test_mask]
    return SampleSet(train), SampleSet(test)
