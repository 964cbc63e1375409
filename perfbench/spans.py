"""In-memory span recorder that instruments a program from outside.

``Tracer.wrap(owner, attr, name)`` replaces ``owner.attr`` with a wrapper
that records one span per call: name, start, end, the span that was open
when the call began (its parent), an optional tag and optional counts
derived from the arguments and result.  A function that another module
imported by value (``from .slicer import lex``) is a separate attribute of
the importing module, so it has to be wrapped there as well, under the
same span name.  ``restore`` puts every original attribute back.

Spans are kept in a list and summarised when the traced pass ends; nothing
is written while the program runs.  Single-threaded use only.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1  # index of the enclosing span, -1 for a root
    tag: str | None = None
    counts: dict = field(default_factory=dict)
    failed: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str,
             count: Callable[[tuple, dict, object], dict] | None = None,
             tag: Callable[[tuple, dict], str] | None = None) -> None:
        """Record a span around every call made through ``owner.attr``."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = tracer._begin(name, tag(args, kwargs) if tag else None)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer.spans[idx].failed = True
                raise
            finally:
                tracer._finish(idx)
            if count is not None:
                tracer.spans[idx].counts = count(args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        """Undo every wrap, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _begin(self, name: str, tag: str | None) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, self.clock(), parent=parent, tag=tag))
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _finish(self, idx: int) -> None:
        self.spans[idx].end = self.clock()
        self._open.pop()


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it covered by its children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            p = spans[s.parent]
            start, end = max(s.start, p.start), min(s.end, p.end)
            if end > start:
                children.setdefault(s.parent, []).append((start, end))
    return [s.duration - _union_length(children.get(i, [])) for i, s in enumerate(spans)]


def _outermost(spans: list[Span], match: Callable[[Span], bool]) -> list[Span]:
    """Matching spans with no matching ancestor, so nested calls count once."""
    out = []
    for s in spans:
        if not match(s):
            continue
        p = s.parent
        while p >= 0 and not match(spans[p]):
            p = spans[p].parent
        if p < 0:
            out.append(s)
    return out


class Summary:
    """Totals over one traced pass."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self._self = self_times(spans)

    def seconds(self, name: str, tag: str | None = None) -> float:
        """Inclusive time of the named spans."""
        return sum(s.duration for s in _outermost(
            self.spans, lambda s: s.name == name and (tag is None or s.tag == tag)))

    def prefix_seconds(self, prefix: str) -> float:
        """Inclusive time of every span whose name starts with prefix."""
        return sum(s.duration for s in _outermost(
            self.spans, lambda s: s.name.startswith(prefix)))

    def self_seconds(self, name: str) -> float:
        return sum(t for s, t in zip(self.spans, self._self) if s.name == name)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def total(self, name: str, key: str, under: tuple[str, ...] | None = None) -> float:
        """Sum of a count over the named spans, optionally only those whose
        direct parent has one of the names in ``under``."""
        return sum(s.counts.get(key, 0) for s in self.spans if s.name == name
                   and (under is None or (s.parent >= 0 and self.spans[s.parent].name in under)))
