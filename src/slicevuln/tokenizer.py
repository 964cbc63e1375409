"""Symbol normalization, vocabulary construction, and fixed-length encoding.

Normalization renames user identifiers to VAR1, VAR2, ... and user
function names to FUN1, FUN2, ... in first-occurrence order, so that
classification keys on code structure rather than naming.  C keywords and
risky-API names survive; string literals collapse to STR; numeric
literals longer than four characters collapse to NUM.  The output is a
single line of space-separated tokens and is idempotent under repeated
normalization.
"""

from __future__ import annotations

import hashlib
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError, read_utf8
from .slicer import DEFAULT_API_LIST, TokenClass, lex, significant

_PLACEHOLDER = re.compile(r"(VAR|FUN)(\d+)$")
_KEEP_NUMBER_CHARS = 4


def normalize(slice_text: str) -> str:
    """Rename user symbols to canonical placeholders; drop comments."""
    toks = significant(lex(slice_text))
    # fresh placeholder numbering starts above anything already present so
    # re-normalizing (or normalizing partially normalized text) cannot
    # capture an existing name
    next_idx = {"VAR": 1, "FUN": 1}
    for t in toks:
        m = _PLACEHOLDER.match(t.text)
        if m and t.cls is TokenClass.IDENTIFIER:
            prefix, idx = m.group(1), int(m.group(2))
            next_idx[prefix] = max(next_idx[prefix], idx + 1)

    renames: dict[str, str] = {}
    out: list[str] = []
    for i, t in enumerate(toks):
        if t.cls is TokenClass.STRING:
            out.append("STR")
        elif t.cls is TokenClass.NUMBER:
            out.append(t.text if len(t.text) <= _KEEP_NUMBER_CHARS else "NUM")
        elif t.cls is TokenClass.IDENTIFIER:
            name = t.text
            if name in DEFAULT_API_LIST or name in ("STR", "NUM") or _PLACEHOLDER.match(name):
                out.append(name)
                continue
            if name not in renames:
                is_call = i + 1 < len(toks) and toks[i + 1].text == "("
                prefix = "FUN" if is_call else "VAR"
                renames[name] = f"{prefix}{next_idx[prefix]}"
                next_idx[prefix] += 1
            out.append(renames[name])
        else:
            out.append(t.text)
    return " ".join(out)


class Vocab:
    """Token-to-id mapping with fixed reserved ids PAD=0, UNK=1, CLS=2."""

    PAD = 0
    UNK = 1
    CLS = 2
    RESERVED = ("[PAD]", "[UNK]", "[CLS]")

    def __init__(self, tokens: Sequence[str]):
        self._tokens = list(tokens)
        self._ids = {tok: i + len(self.RESERVED) for i, tok in enumerate(self._tokens)}
        if len(self._ids) != len(self._tokens):
            raise DataError("vocabulary contains duplicate tokens")

    def __len__(self) -> int:
        return len(self._tokens) + len(self.RESERVED)

    def lookup(self, token: str) -> int:
        return self._ids.get(token, self.UNK)

    def token_of(self, idx: int) -> str:
        if idx < len(self.RESERVED):
            return self.RESERVED[idx]
        return self._tokens[idx - len(self.RESERVED)]

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self)):
                fh.write(f"{self.token_of(i)}\t{i}\n")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "Vocab":
        tokens = []
        for lineno, line in enumerate(read_utf8(path).splitlines(), 1):
            if not line:
                continue
            try:
                token, idx = line.rsplit("\t", 1)
                idx = int(idx)
            except ValueError as e:
                raise DataError(f"{path}:{lineno}: malformed vocab line") from e
            if idx != lineno - 1:
                raise DataError(f"{path}:{lineno}: non-contiguous vocab id {idx}")
            if idx < len(cls.RESERVED):
                if token != cls.RESERVED[idx]:
                    raise DataError(f"{path}:{lineno}: reserved slot {idx} holds {token!r}")
            else:
                tokens.append(token)
        return cls(tokens)

    def content_hash(self) -> str:
        h = hashlib.sha256()
        for i in range(len(self)):
            h.update(self.token_of(i).encode("utf-8"))
            h.update(b"\0")
        return h.hexdigest()


def build_vocab(corpus: Iterable[str], max_size: int = 4096) -> Vocab:
    """Keep the most frequent whitespace-delimited tokens, ties broken
    lexicographically, up to max_size - 3 entries after the reserved ids."""
    if max_size < 4:
        raise ValueError(f"max_size must be >= 4, got {max_size}")
    counts: Counter[str] = Counter()
    for text in corpus:
        counts.update(text.split())
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return Vocab([tok for tok, _ in ranked[: max_size - len(Vocab.RESERVED)]])


@dataclass(slots=True)
class Encoding:
    """Fixed-length id sequence with its attention mask."""

    ids: np.ndarray
    attention_mask: np.ndarray


def encode(text: str, vocab: Vocab, max_len: int = 512) -> Encoding:
    """[CLS] + token ids, truncated to max_len and padded with PAD."""
    if max_len < 2:
        raise ValueError(f"max_len must be >= 2, got {max_len}")
    ids = [Vocab.CLS] + [vocab.lookup(tok) for tok in text.split()]
    ids = ids[:max_len]
    real = len(ids)
    ids.extend([Vocab.PAD] * (max_len - real))
    mask = [1] * real + [0] * (max_len - real)
    return Encoding(
        ids=np.asarray(ids, dtype=np.int64),
        attention_mask=np.asarray(mask, dtype=np.int64),
    )


@dataclass(slots=True)
class EncodedDataset:
    """A batchable dataset: stacked encodings plus integer labels."""

    ids: np.ndarray            # [n, max_len] int64
    attention_mask: np.ndarray  # [n, max_len] int64
    labels: np.ndarray          # [n] int64

    def __len__(self) -> int:
        return self.ids.shape[0]

    @classmethod
    def from_encodings(
        cls, encodings: Sequence[Encoding], labels: Sequence[int]
    ) -> "EncodedDataset":
        if len(encodings) != len(labels):
            raise ValueError("encodings and labels differ in length")
        return cls(
            ids=np.stack([e.ids for e in encodings]),
            attention_mask=np.stack([e.attention_mask for e in encodings]),
            labels=np.asarray(labels, dtype=np.int64),
        )
