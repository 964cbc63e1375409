"""Synthetic corpora: reference counts and planted-pattern slices.

Two generators, which expand per-kind counts through one cell expander,
``_expand``, and so share its cell order, ids and per-cell seeding:

* ``reference_corpus`` expands the bundled reference distribution into a
  corpus with exactly those per-kind counts.
  Content is minimal; it exists to exercise balancing arithmetic.
* ``pattern_corpus`` plants separable vulnerability patterns whose signal
  survives symbol normalization: unbounded vs. bounded API calls, missing
  vs. complete index guards, unchecked vs. checked dereferences, raw vs.
  guarded arithmetic.  Each kind mixes easy variants with harder ones
  (wrong-variable guards, off-by-one comparisons) so that detection
  quality grows with training-set size.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from .corpus import KIND_ORDER, Kind, Label, Sample, SampleSet
from .errors import DataError, clip, read_utf8

# Per-kind (vulnerable, non-vulnerable) counts of the reference distribution:
# a heavily imbalanced real-world-shaped corpus of 420,627 slices.
REFERENCE_COUNTS: dict[Kind, tuple[int, int]] = {
    Kind.API: (13603, 50800),
    Kind.AU: (10926, 31303),
    Kind.PU: (28391, 263450),
    Kind.AE: (3475, 18679),
}

# A 2,000-slice desk-scale distribution with the same qualitative skew:
# PU-heavy, AE smallest, non-vulnerable majority.
DESK_COUNTS: dict[Kind, tuple[int, int]] = {
    Kind.API: (120, 330),
    Kind.AU: (100, 240),
    Kind.PU: (160, 680),
    Kind.AE: (60, 310),
}


def read_counts_manifest(path: str | Path) -> dict[Kind, tuple[int, int]]:
    """Per-kind counts from a JSON object mapping kind names to
    ``{"vulnerable": n, "non_vulnerable": n}`` with non-negative integer
    counts, at least one of them positive; anything else is a DataError
    naming the file."""
    try:
        payload = json.loads(read_utf8(path))
    except (ValueError, RecursionError) as e:  # JSONDecodeError is a ValueError
        raise DataError(f"{path}: malformed counts manifest ({getattr(e, 'msg', e)})") from e
    if not isinstance(payload, dict):
        raise DataError(f"{path}: a counts manifest holds one JSON object")
    counts = {}
    for name, cell in payload.items():
        if name not in Kind._value2member_map_:
            raise DataError(f"{path}: unknown kind {clip(repr(name))}")
        if not (isinstance(cell, dict) and all(
                type(cell.get(key)) is int and cell[key] >= 0
                for key in ("vulnerable", "non_vulnerable"))):
            raise DataError(f"{path}: {name} needs non-negative integer 'vulnerable' "
                            f"and 'non_vulnerable' counts, got {clip(repr(cell))}")
        counts[Kind(name)] = (cell["vulnerable"], cell["non_vulnerable"])
    if not any(v + n for v, n in counts.values()):
        raise DataError(f"{path}: a counts manifest needs at least one sample")
    return counts


def _expand(
    counts: Mapping[Kind, tuple[int, int]],
    source: str,
    write: Callable[[Kind, Label, np.random.Generator], str],
    seed: int = 0,
) -> SampleSet:
    """A corpus with ``counts[kind]`` (vulnerable, non-vulnerable) samples
    of each kind, cells in KIND_ORDER, vulnerable first; an absent kind
    counts (0, 0).  ``write`` gives each text, drawing from one generator
    per cell keyed by (seed, kind, label); ids run ``{kind}-{v|n}-{i:06d}``
    from 0 in each cell."""
    samples = []
    for kind in KIND_ORDER:
        cells = zip((Label.VULNERABLE, Label.NON_VULNERABLE), "vn", counts.get(kind, (0, 0)))
        for label, tag, n in cells:
            rng = np.random.default_rng(np.random.SeedSequence(
                entropy=seed, spawn_key=(KIND_ORDER.index(kind), int(label))))
            samples.extend(
                Sample(f"{kind.value}-{tag}-{i:06d}", kind, label, write(kind, label, rng), source)
                for i in range(n)
            )
    return SampleSet(samples)


_REFERENCE_LINES = {
    Kind.API: 'strcpy(buf, src);',
    Kind.AU: 'buf[idx] = val;',
    Kind.PU: '*ptr = val;',
    Kind.AE: 'total = count * width;',
}


def reference_corpus() -> SampleSet:
    """Expand the reference count table into a corpus with exactly those
    per-cell counts."""
    return _expand(REFERENCE_COUNTS, "reference",
                    lambda kind, label, rng: _REFERENCE_LINES[kind])


_NAMES = [
    "buf", "data", "tmp", "out", "msg", "name", "key", "val", "dst", "src",
    "len", "size", "count", "idx", "pos", "num", "total", "width", "line",
    "ptr", "node", "item", "rec", "arg", "field", "entry", "cur", "limit",
]
_SIZES = [8, 16, 32, 64, 128, 256]
_CAPS = [1024, 2048, 4096]

# Template tables: (weight, template). Placeholders are filled with random
# names/sizes per sample. Weights below 1.0 mark the harder variants.
_TEMPLATES: dict[tuple[Kind, Label], list[tuple[float, str]]] = {
    (Kind.API, Label.VULNERABLE): [
        (1.0, "char {d}[{N}];\nstrcpy({d}, {s});"),
        (1.0, "char {d}[{N}];\ngets({d});"),
        (1.0, "char {d}[{N}];\nsprintf({d}, \"%s\", {s});"),
        (0.8, "strcat({d}, {s});"),
        (0.5, "if ({n} > 0) strcpy({d}, {s});"),
        (0.5, "memcpy({d}, {s}, {n});"),
    ],
    (Kind.API, Label.NON_VULNERABLE): [
        (1.0, "char {d}[{N}];\nstrncpy({d}, {s}, sizeof({d}) - 1);"),
        (1.0, "char {d}[{N}];\nfgets({d}, sizeof({d}), stdin);"),
        (1.0, "char {d}[{N}];\nsnprintf({d}, sizeof({d}), \"%s\", {s});"),
        (0.8, "strncat({d}, {s}, {N});"),
        (0.5, "if ({n} < sizeof({d})) memcpy({d}, {s}, {n});"),
        (0.5, "memset({d}, 0, sizeof({d}));"),
    ],
    (Kind.AU, Label.VULNERABLE): [
        (1.0, "int {i} = atoi({s});\n{a}[{i}] = {v};"),
        (1.0, "{a}[{i} + {N}] = {v};"),
        (0.8, "for (int {i} = 0; {i} <= {n}; {i}++) {a}[{i}] = 0;"),
        (0.5, "if ({i} < {n}) {a}[{i}] = {v};"),
    ],
    (Kind.AU, Label.NON_VULNERABLE): [
        (1.0, "if ({i} >= 0 && {i} < {N}) {a}[{i}] = {v};"),
        (1.0, "for (int {i} = 0; {i} < {N}; {i}++) {a}[{i}] = 0;"),
        (0.8, "char {a}[{N}];\n{a}[{N} - 1] = {v};"),
        (0.5, "int {i} = {n} % {N};\n{a}[{i}] = {v};"),
    ],
    (Kind.PU, Label.VULNERABLE): [
        (1.0, "char *{p} = lookup({k});\n*{p} = {v};"),
        (1.0, "free({p});\n*{p} = {v};"),
        (0.8, "{p} = {q};\n{p}->next = {v};"),
        (0.5, "if ({q} != 0) *{p} = {v};"),
    ],
    (Kind.PU, Label.NON_VULNERABLE): [
        (1.0, "if ({p} != 0) *{p} = {v};"),
        (1.0, "if ({p} == 0) return;\n*{p} = {v};"),
        (0.8, "char *{p} = malloc({N});\nif ({p} != 0) *{p} = {v};"),
        (0.5, "while ({p} != 0) {{ *{p} = {v}; {p} = {p}->next; }}"),
    ],
    (Kind.AE, Label.VULNERABLE): [
        (1.0, "{t} = {a} * {b};\nchar *{p} = malloc({t});"),
        (1.0, "int {a} = atoi({s});\nint {t} = {a} + {b};"),
        (0.8, "unsigned {t} = {a} - {b};"),
        (0.5, "if ({a} > 0) {t} = {a} * {b};"),
    ],
    (Kind.AE, Label.NON_VULNERABLE): [
        (1.0, "if ({a} < {M} / {b}) {t} = {a} * {b};"),
        (1.0, "long {t} = (long){a} + {b};"),
        (0.8, "if ({a} >= {b}) {t} = {a} - {b};"),
        (0.5, "{t} = {a} * sizeof(int);"),
    ],
}

_FILLERS = [
    "int {x} = {small};",
    "char {x}[{N}];",
    "{x} = {y};",
    "return {x};",
]


def _fill(template: str, rng: np.random.Generator) -> str:
    names = list(rng.choice(_NAMES, size=10, replace=False))
    fields = dict(
        d=names[0], s=names[1], a=names[2], i=names[3], v=names[4], n=names[5],
        p=names[6], q=names[7], k=names[8], t=names[9], b=names[1], x=names[2],
        y=names[4],
        N=int(rng.choice(_SIZES)), M=int(rng.choice(_CAPS)),
        small=int(rng.integers(0, 10)),
    )
    return template.format(**fields)


def _make_slice(kind: Kind, label: Label, rng: np.random.Generator) -> str:
    weights = np.array([w for w, _ in _TEMPLATES[(kind, label)]])
    templates = [t for _, t in _TEMPLATES[(kind, label)]]
    choice = rng.choice(len(templates), p=weights / weights.sum())
    body = _fill(templates[choice], rng)
    lines = []
    for _ in range(int(rng.integers(0, 3))):
        lines.append(_fill(str(rng.choice(_FILLERS)), rng))
    lines.append(body)
    if rng.random() < 0.4:
        lines.append(_fill(str(rng.choice(_FILLERS)), rng))
    return "\n".join(lines)


def pattern_corpus(
    counts: Mapping[Kind, tuple[int, int]] | None = None, seed: int = 0
) -> SampleSet:
    """Corpus of planted-pattern slices with the given per-cell counts."""
    return _expand(DESK_COUNTS if counts is None else counts, "synthetic", _make_slice, seed)
