"""Seeded generator of a C source tree for the slice-tree workload.

Functions are assembled from synth-style pattern lines: short statement
templates whose placeholders are filled with names and sizes drawn from a
seeded generator, one template table per candidate kind (API, AU, PU, AE)
plus neutral filler lines.  A tree has a fixed mix of small and large
clean files and one extra small file per hostile construct; the seed
jitters each length, draws every statement, places the hostile construct
and shuffles the file order.  WORKLOADS.md says why each property was
chosen.

Only the standard library is used, so generating a tree never imports the
program under test.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass
from pathlib import Path

# Clean files: a fixed mix of sizes, each anchor jittered by a few lines
# per seed.  Cost per line grows with file size, so a fixed mix keeps the
# tree's lines per second comparable across seeds.
SMALL_ANCHORS = (100, 114, 128, 143, 157, 171, 186, 200)
LARGE_ANCHORS = (600, 620)
JITTER = 4
HOSTILE_LINES = (100, 200)

# One extra small file per construct, so the clean mix stays the same
# whatever the hostile files cost.  Each construct is found in real C
# trees; the lexer rejects all four.
HOSTILE_CONSTRUCTS = ("dollar-identifier", "backslash-newline", "digit-separator",
                      "latin1-comment")

_NAMES = [
    "buf", "data", "tmp", "out", "msg", "name", "key", "val", "dst", "src",
    "len", "size", "count", "idx", "pos", "num", "total", "width", "line",
    "ptr", "node", "item", "rec", "arg", "field", "entry", "cur", "limit",
    "head", "tail", "off", "step", "base", "span", "mark", "slot",
]
_FUNCS = ["parse", "copy", "load", "store", "scan", "fill", "merge", "pack",
          "emit", "check", "walk", "read", "format", "update", "reset", "probe"]
_SUFFIXES = ["header", "record", "block", "entry", "table", "frame", "field",
             "list", "chunk", "token", "path", "queue"]
_SIZES = [8, 16, 32, 64, 128, 256]

# Statement templates per candidate kind.  Placeholders: {d} {s} char
# buffers, {i} {n} {v} {t} {a} {b} ints, {p} int pointer, {q} node pointer,
# {N} a buffer size, {k} a small constant.
_PATTERNS = {
    "API": [
        "strcpy({d}, {s});",
        "strncpy({d}, {s}, sizeof({d}) - 1);",
        "memcpy({d}, {s}, {n});",
        "snprintf({d}, sizeof({d}), \"%s:%d\", {s}, {v});",
        "{n} = strlen({s});",
        "fgets({d}, sizeof({d}), stdin);",
        "strcat({d}, {s});",
        "{p} = malloc({n} * sizeof(int));",
        "memset({d}, 0, sizeof({d}));",
        "{v} = atoi({s});",
    ],
    "AU": [
        "{d}[{i}] = {s}[{i}];",
        "if ({i} < {N}) {d}[{i}] = 0;",
        "{v} = {d}[{i} + 1];",
        "{d}[{n} - 1] = '\\0';",
        "{s}[{k}] = {d}[{i}];",
    ],
    "PU": [
        "*{p} = {v};",
        "if ({p} != NULL) *{p} = {t};",
        "{v} = *{p} + {k};",
        "{q}->count = {n};",
        "{q} = {q}->next;",
        "free({p});",
    ],
    "AE": [
        "{t} = {a} * {b};",
        "{t} = {n} + {v} - {k};",
        "{a} = {t} / {b};",
        "{v} = {i} % {N};",
        "{b} = {a} - {n};",
        "{t} += {a} * {k};",
    ],
}
_FILLERS = [
    "{i} = 0;",
    "{v} = {t};",
    "/* {note} */",
    "// {note}",
    "{a} = {k};",
]
_NOTES = ["bounds are checked by the caller", "keep the old value",
          "fast path", "see the header for the format", "reuse the buffer"]


@dataclass
class SourceFile:
    """One generated file: relative path, line count, size class, and the
    hostile construct it carries (None for a clean file)."""

    path: str
    lines: int
    size_class: str
    hostile: str | None


def _fill(template: str, names: dict, rng: random.Random) -> str:
    return template.format(**names, N=rng.choice(_SIZES), k=rng.randint(1, 9),
                           note=rng.choice(_NOTES))


def _function(rng: random.Random, fname: str, statements: int) -> list[str]:
    """One function of statements + 10 or 12 lines: declarations, then
    statements drawn from the pattern tables, some inside a braced block."""
    pick = rng.sample(_NAMES, 12)
    names = dict(d=pick[0], s=pick[1], i=pick[2], n=pick[3], v=pick[4], t=pick[5],
                 a=pick[6], b=pick[7], p=pick[8], q=pick[9])
    lines = [f"static int {fname}(char *{names['s']}, int {names['n']})", "{"]
    lines.append(f"    char {names['d']}[{rng.choice(_SIZES)}];")
    lines.append(f"    int {names['i']} = 0, {names['v']} = 0, {names['t']} = 0;")
    lines.append(f"    int {names['a']} = {rng.randint(1, 9)}, {names['b']} = {rng.randint(1, 9)};")
    lines.append(f"    int *{names['p']} = NULL;")
    lines.append(f"    struct node *{names['q']} = NULL;")
    body = []
    for _ in range(statements):
        if rng.random() < 0.2:
            body.append(_fill(rng.choice(_FILLERS), names, rng))
        else:
            kind = rng.choice(list(_PATTERNS))
            body.append(_fill(rng.choice(_PATTERNS[kind]), names, rng))
    if len(body) > 6 and rng.random() < 0.5:
        start = rng.randrange(0, len(body) - 3)
        end = start + rng.randint(2, 3)
        guard = f"if ({names['i']} < {names['n']}) {{"
        body = (body[:start] + [guard] + ["    " + b for b in body[start:end]] + ["}"]
                + body[end:])
    lines += ["    " + b for b in body]
    lines += [f"    return {names['t']};", "}", ""]
    return lines


_HEADER = [
    "#include <stdio.h>",
    "#include <stdlib.h>",
    "#include <string.h>",
    "",
    "struct node { int count; struct node *next; };",
    "",
]


def _source_lines(rng: random.Random, target: int) -> list[str]:
    """Functions appended until the file reaches target lines; the last
    one is shortened so that the file ends within three lines of it."""
    lines = [f"/* generated source, about {target} lines */"] + list(_HEADER)
    used: set[str] = set()
    while len(lines) < target:
        statements = min(rng.randint(5, 31), max(target - len(lines) - 12, 3))
        fname = f"{rng.choice(_FUNCS)}_{rng.choice(_SUFFIXES)}"
        while fname in used:
            fname += "_x"
        used.add(fname)
        lines += _function(rng, fname, statements)
    return lines


def _inject(lines: list[str], construct: str, rng: random.Random) -> list[str]:
    """Insert one hostile construct after a statement line of a function."""
    spots = [n for n, text in enumerate(lines) if text.startswith("    ") and text.endswith(";")]
    at = rng.choice(spots) + 1
    if construct == "dollar-identifier":
        new = ["    int tmp$1 = 0;"]
    elif construct == "backslash-newline":
        new = ["    tmp_total = 1 + \\", "        2;"]
    elif construct == "digit-separator":
        new = ["    tmp_limit = 1'000;"]
    else:  # latin1-comment: the byte is written by write_tree
        new = ["    /* résumé of the buffer */"]
    return lines[:at] + new + lines[at:]


def generate(seed: int) -> list[tuple[SourceFile, bytes]]:
    """The tree for a seed as (file record, file bytes) pairs, in path order."""
    rng = random.Random(seed)
    specs = [("small", a + rng.randint(-JITTER, JITTER), None) for a in SMALL_ANCHORS]
    specs += [("large", a + rng.randint(-JITTER, JITTER), None) for a in LARGE_ANCHORS]
    specs += [("small", rng.randint(*HOSTILE_LINES), c)
              for c in rng.sample(HOSTILE_CONSTRUCTS, len(HOSTILE_CONSTRUCTS))]
    rng.shuffle(specs)
    tree = []
    for n, (size_class, target, construct) in enumerate(specs):
        lines = _source_lines(rng, target)
        if construct is not None:
            lines = _inject(lines, construct, rng)
        text = "\n".join(lines)
        data = text.encode("latin-1" if construct == "latin1-comment" else "ascii")
        record = SourceFile(path=f"src{n:02d}_{size_class}.c", lines=len(lines),
                            size_class=size_class, hostile=construct)
        tree.append((record, data))
    return tree


def write_tree(seed: int, root: Path) -> list[SourceFile]:
    """Write the tree and its manifest.json under root; return the records."""
    root.mkdir(parents=True, exist_ok=True)
    records = []
    for record, data in generate(seed):
        (root / record.path).write_bytes(data)
        records.append(record)
    manifest = {"seed": seed, "files": [asdict(r) for r in records]}
    (root / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
    return records


def read_manifest(root: Path) -> list[SourceFile]:
    payload = json.loads((root / "manifest.json").read_text(encoding="utf-8"))
    return [SourceFile(**f) for f in payload["files"]]
