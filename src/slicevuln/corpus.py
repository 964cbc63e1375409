"""Sample data model, dataset I/O, and seeded stratified splits.

A dataset on disk is JSON-lines: one JSON object per line with fields
``id`` / ``kind`` / ``label`` / ``code`` and optional ``source``.  Labels
are integers (1 = vulnerable), kinds are the four canonical strings
``API`` / ``AU`` / ``PU`` / ``AE``.
"""

from __future__ import annotations

import gc
import json
import re
from collections import Counter
from dataclasses import dataclass
from enum import Enum, IntEnum
from json.encoder import encode_basestring as _json_str
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .errors import DataError, clip, not_utf8


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


# the eight (kind, label) cells in the order splits and reports walk them
CELL_ORDER = tuple((kind, label) for kind in KIND_ORDER for label in Label)


@dataclass(frozen=True, slots=True)
class Sample:
    """One labeled code slice.

    Its ``__init__`` writes each field through its slot's descriptor: the
    generated frozen one calls ``object.__setattr__`` per field, which made
    it about a fifth of a reference-corpus ``load``."""

    id: str
    kind: Kind
    label: Label
    code: str
    source: str | None = None

    def __init__(self, id: str, kind: Kind, label: Label, code: str,
                 source: str | None = None):
        _set_id(self, id)
        _set_kind(self, kind)
        _set_label(self, label)
        _set_code(self, code)
        _set_source(self, source)


_set_id, _set_kind, _set_label, _set_code, _set_source = (
    Sample.id.__set__, Sample.kind.__set__, Sample.label.__set__, Sample.code.__set__,
    Sample.source.__set__)


class SampleSet:
    """Ordered, immutable collection of samples.

    Iteration order is insertion order.  Duplicate ids and empty code are
    rejected at construction time, naming the first offender in set order.
    The balancer keeps each set's pools, so ``samples`` must not change.
    """

    def __init__(self, samples: Iterable[Sample]):
        samples = list(samples)
        seen: set[str] = set()
        for s in samples:
            if s.id in seen:
                raise DataError(f"duplicate sample id {clip(repr(s.id))}")
            seen.add(s.id)
            if not s.code:
                raise DataError(f"sample {clip(repr(s.id))} has empty code")
        self.samples: list[Sample] = samples

    @classmethod
    def _drawn(cls, samples: list[Sample]) -> SampleSet:
        """A set of rows already checked (drawn from a valid set, or read by
        ``load``), so the ids are unique and no code is empty: the list is
        taken as it is, neither checked nor copied."""
        sset = cls.__new__(cls)
        sset.samples = samples
        return sset

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self) -> Iterator[Sample]:
        return iter(self.samples)

    def counts(self) -> Counter[tuple[Kind, Label]]:
        """The number of samples in each (kind, label) cell, counted anew."""
        return Counter((s.kind, s.label) for s in self.samples)

    def ids(self) -> set[str]:
        return {s.id for s in self.samples}


_KIND_NAMES = {k.value: k for k in Kind}
_LABELS = {0: Label.NON_VULNERABLE, 1: Label.VULNERABLE}
_FIELDS = ("id", "kind", "label", "code")
_scan_once = json.JSONDecoder().scan_once
# save's row text is JSONEncoder(ensure_ascii=False)'s: strings through
# encode_basestring, separators ", " and ": "
_KIND_TEXT = {k: f'"{k.value}"' for k in Kind}
_LABEL_TEXT = {lab: str(int(lab)) for lab in Label}
_SURROGATE = re.compile("[\ud800-\udfff]")


def _decode(line: str) -> object:
    """``json.loads(line)``.  A value that starts the line and runs to its
    end or newline takes one C scan; any other line, valid or not, goes
    through ``json.loads`` itself, so the lines accepted and every error
    message are json.loads's own."""
    try:
        obj, end = _scan_once(line, 0)
    except (StopIteration, json.JSONDecodeError):
        return json.loads(line)
    return obj if line[end:] in ("\n", "") else json.loads(line)


def _parse_jsonl_record(obj: object, path: Path, lineno: int,
                        sources: dict[str, str]) -> Sample:
    """One row as a ``Sample``; ``sources`` maps each ``source`` text seen so
    far to its first string, so rows that repeat it share one object."""
    if not isinstance(obj, dict):
        raise DataError(f"{path}:{lineno}: record is not an object")
    try:
        sample_id, kind_name, label, code = obj["id"], obj["kind"], obj["label"], obj["code"]
    except KeyError:
        missing = next(f for f in _FIELDS if f not in obj)
        raise DataError(f"{path}:{lineno}: missing field {missing!r}") from None
    if not isinstance(sample_id, str) or not sample_id:
        if type(sample_id) is not int:  # a bool is not an id
            raise DataError(f"{path}:{lineno}: id must be a non-empty string or an "
                            f"integer, got {clip(repr(sample_id))}")
        sample_id = str(sample_id)
    kind = _KIND_NAMES.get(kind_name) if isinstance(kind_name, str) else None
    if kind is None:
        raise DataError(f"{path}:{lineno}: unknown kind {clip(repr(kind_name))}")
    if type(label) is not int or label not in (0, 1):  # not a bool or a float
        raise DataError(f"{path}:{lineno}: label must be 0 or 1, got {clip(repr(label))}")
    if not isinstance(code, str) or not code:
        raise DataError(f"{path}:{lineno}: code must be a non-empty string")
    source = obj.get("source")
    if source is not None:
        if not isinstance(source, str):
            raise DataError(f"{path}:{lineno}: source must be a string or null, "
                            f"got {clip(repr(source))}")
        source = sources.setdefault(source, source)
    return Sample(sample_id, kind, _LABELS[label], code, source)


def _reject_lone_surrogates(sample: Sample, path: Path, lineno: int) -> None:
    """A ``\\ud800``-style escape decodes to a lone surrogate, which no UTF-8
    file can hold; the only way in is such an escape, so callers check only
    lines that hold one."""
    for name in ("id", "code", "source"):
        value = getattr(sample, name)
        found = _SURROGATE.search(value) if value is not None else None
        if found:
            raise DataError(f"{path}:{lineno}: {name} holds a lone surrogate "
                            f"(U+{ord(found.group()):04X})")


def _load_jsonlines(path: Path) -> list[Sample]:
    """Every row, checked as it is read, so the first bad line in file order
    raises; a repeated id names both lines."""
    samples: list[Sample] = []
    ids: set[str] = set()
    sources: dict[str, str] = {}
    blank: list[int] = []  # the lines skipped, in file order
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                obj = _decode(line)
            except (ValueError, RecursionError) as e:  # JSONDecodeError is a ValueError
                if not line.strip():
                    blank.append(lineno)
                    continue
                raise DataError(f"{path}:{lineno}: malformed JSON record "
                                f"({getattr(e, 'msg', e)})") from e
            sample = _parse_jsonl_record(obj, path, lineno, sources)
            if "\\u" in line:
                _reject_lone_surrogates(sample, path, lineno)
            if sample.id in ids:
                first = next(i for i, s in enumerate(samples) if s.id == sample.id) + 1
                for skipped in blank:  # each blank line up to it moves it down one
                    if skipped > first:
                        break
                    first += 1
                raise DataError(f"{path}:{lineno}: duplicate sample id {clip(repr(sample.id))} "
                                f"(first on line {first})")
            ids.add(sample.id)
            samples.append(sample)
    return samples


def load(path: str | Path) -> SampleSet:
    """Load a JSON-lines dataset, checking each row once as it is read.  The
    first bad line in file order is rejected, naming ``path:LINE``; a
    duplicate id names both lines.

    The cyclic garbage collector is paused while the file is read: a row
    holds only strings, a ``Kind`` and a ``Label``, so rows form no cycle,
    and each collection would walk every row read so far to free nothing.
    The collector is left as the caller had it."""
    path = Path(path)
    enabled = gc.isenabled()
    gc.disable()
    try:
        return SampleSet._drawn(_load_jsonlines(path))
    except UnicodeDecodeError as e:
        raise not_utf8(path) from e
    finally:
        if enabled:
            gc.enable()


def save(sset: SampleSet, path: str | Path) -> Path:
    """Write a dataset as JSON-lines, one record per sample, in set order."""
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(
            f'{{"id": {_json_str(s.id)}, "kind": {_KIND_TEXT[s.kind]}, '
            f'"label": {_LABEL_TEXT[s.label]}, "code": {_json_str(s.code)}'
            + ("}\n" if s.source is None else f', "source": {_json_str(s.source)}}}\n')
            for s in sset)
    return path


def split(sset: SampleSet, seed: int) -> tuple[SampleSet, SampleSet]:
    """Partition 80/20 into (train, test), stratified.

    The partition is exact: disjoint, union equals the input.  Each
    (kind, label) cell is split separately; the test side of a cell of n
    samples gets n // 5, so rounding remainders land in train.  Output
    order follows input order on both sides.
    """
    if len(sset) == 0:
        raise DataError("cannot split an empty sample set")

    rng = np.random.default_rng(seed)
    test_idx: list[int] = []
    cells: dict[tuple[Kind, Label], list[int]] = {}
    for i, s in enumerate(sset.samples):
        cells.setdefault((s.kind, s.label), []).append(i)
    for idx in (cells[cell] for cell in CELL_ORDER if cell in cells):
        perm = rng.permutation(len(idx))
        test_idx.extend(idx[j] for j in perm[: len(idx) // 5])

    test_mask = set(test_idx)
    train = [s for i, s in enumerate(sset.samples) if i not in test_mask]
    test = [s for i, s in enumerate(sset.samples) if i in test_mask]
    return SampleSet._drawn(train), SampleSet._drawn(test)
