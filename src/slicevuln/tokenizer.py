"""Symbol normalization, vocabulary construction, and fixed-length encoding.

Normalization renames user identifiers to VAR1, VAR2, ... and user
function names to FUN1, FUN2, ... in first-occurrence order, so that
classification keys on code structure rather than naming.  C keywords and
risky-API names survive; string literals collapse to STR; numeric
literals longer than four characters collapse to NUM.  The output is a
single line of space-separated tokens and is idempotent under repeated
normalization.

Encoding maps a normalized slice to one fixed-length id row: CLS, then
the token ids, truncated or padded with PAD.  Only padding is PAD (0):
UNK is 1, CLS is 2 and vocabulary ids start at 3, so the row itself says
where the sequence ends and no separate attention mask travels with it.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError, clip
from .slicer import DEFAULT_API_LIST, TokenClass, lex

_PLACEHOLDER = re.compile(r"(VAR|FUN)(\d+)$")
_KEEP_NUMBER_CHARS = 4
_IDENTIFIER, _NUMBER, _STRING = TokenClass.IDENTIFIER, TokenClass.NUMBER, TokenClass.STRING


def normalize(slice_text: str) -> str:
    """Rename user symbols to canonical placeholders; drop comments."""
    toks = lex(slice_text, layout=False)
    # fresh placeholder numbering starts above anything already present so
    # re-normalizing (or normalizing partially normalized text) cannot
    # capture an existing name
    next_idx = {"VAR": 1, "FUN": 1}
    for t in toks:
        m = _PLACEHOLDER.match(t.text)
        if m and t.cls is _IDENTIFIER:
            prefix, idx = m.group(1), int(m.group(2))
            next_idx[prefix] = max(next_idx[prefix], idx + 1)

    renames: dict[str, str] = {}
    out: list[str] = []
    for i, t in enumerate(toks):
        if t.cls is _STRING:
            out.append("STR")
        elif t.cls is _NUMBER:
            out.append(t.text if len(t.text) <= _KEEP_NUMBER_CHARS else "NUM")
        elif t.cls is _IDENTIFIER:
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
        self.tokens = tuple(tokens)  # the ids from len(RESERVED) up, in order
        self._ids = {tok: i + len(self.RESERVED) for i, tok in enumerate(self.tokens)}
        if len(self._ids) != len(self.tokens):
            dup = next(tok for tok, n in Counter(self.tokens).items() if n > 1)
            raise DataError(f"vocabulary repeats the token {clip(repr(dup))}")

    def __len__(self) -> int:
        return len(self.tokens) + len(self.RESERVED)

    def lookup(self, token: str) -> int:
        return self._ids.get(token, self.UNK)


def build_vocab(corpus: Iterable[str], max_size: int) -> Vocab:
    """Keep the most frequent whitespace-delimited tokens, ties broken
    lexicographically, up to max_size - 3 entries after the reserved ids."""
    if max_size < 4:
        raise ValueError(f"max_size must be >= 4, got {max_size}")
    counts: Counter[str] = Counter()
    for text in corpus:
        counts.update(text.split())
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return Vocab([tok for tok, _ in ranked[: max_size - len(Vocab.RESERVED)]])


def encode(text: str, vocab: Vocab, max_len: int) -> np.ndarray:
    """[CLS] + token ids, truncated to max_len and padded with PAD, as a
    [max_len] int64 row."""
    if max_len < 2:
        raise ValueError(f"max_len must be >= 2, got {max_len}")
    ids = [Vocab.CLS] + [vocab.lookup(tok) for tok in text.split()]
    ids = ids[:max_len]
    ids.extend([Vocab.PAD] * (max_len - len(ids)))
    return np.asarray(ids, dtype=np.int64)


@dataclass(slots=True)
class EncodedDataset:
    """A batchable dataset: one id array, a row per sample, plus integer labels."""

    ids: np.ndarray     # [n, max_len] int64
    labels: np.ndarray  # [n] int64

    def __len__(self) -> int:
        return self.ids.shape[0]
