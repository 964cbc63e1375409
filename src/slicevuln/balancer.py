"""Seeded downsampling under the two balancing hypotheses.

Both hypotheses are one rule with different numbers: each kind gets a
quota, and a uniform draw of that many samples from each of its two
classes.  Under Hypothesis 1 a kind's quota is its vulnerable count, so
every vulnerable sample is kept and matched 1:1 from the kind's
non-vulnerable pool.  Under Hypothesis 2 every kind's quota is the
smallest per-kind vulnerable count.

Selection uses a counter-based Philox generator keyed by (seed, kind,
label), and pools are sorted by id before sampling, so results depend on
neither load order nor the other kinds' pools.  A pool as large as its
quota is kept whole.  A corpus is grouped and sorted into its pools once,
on its first balance; the pools are freed with the corpus.
"""

from __future__ import annotations

import json
import weakref
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path

import numpy as np

from .corpus import KIND_ORDER, Kind, Label, Sample, SampleSet, save
from .errors import DataError, clip


@dataclass
class BalancedSet:
    samples: SampleSet
    hypothesis: str  # "H1" or "H2"
    seed: int
    per_kind_counts: dict[Kind, tuple[int, int]]  # kind -> (vulnerable, non-vulnerable)

    def __len__(self) -> int:
        return len(self.samples)


_Pools = dict[tuple[Kind, Label], list[Sample]]

# weakly keyed: an entry must not keep its corpus alive into the next load
_POOLS: weakref.WeakKeyDictionary[SampleSet, _Pools] = weakref.WeakKeyDictionary()


def _pools(corpus: SampleSet) -> _Pools:
    """The corpus's (kind, label) cells; an empty corpus has none to balance."""
    if len(corpus) == 0:
        raise DataError("corpus is empty")
    pools = _POOLS.get(corpus)
    if pools is None:
        pools = _POOLS[corpus] = _group(corpus)
    return pools


def _group(corpus: SampleSet) -> _Pools:
    """The samples of each (kind, label) cell, sorted by id."""
    pools: _Pools = {}
    for s in corpus:
        pools.setdefault((s.kind, s.label), []).append(s)
    for pool in pools.values():
        pool.sort(key=attrgetter("id"))
    return pools


def _draw(pool: list[Sample], count: int, seed: int, kind: Kind, label: Label) -> list[Sample]:
    if count == len(pool):
        return list(pool)
    rng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(
            entropy=seed, spawn_key=(KIND_ORDER.index(kind), int(label))))
    )
    chosen = rng.choice(len(pool), size=count, replace=False)
    return [pool[i] for i in sorted(int(i) for i in chosen)]


def _balance(pools: _Pools, seed: int, hypothesis: str, quotas: dict[Kind, int]) -> BalancedSet:
    """Draw each kind's quota from both of its classes: the one rule of both
    hypotheses."""
    out: list[Sample] = []
    for kind, quota in quotas.items():
        non = pools.get((kind, Label.NON_VULNERABLE), [])
        if len(non) < quota:
            raise DataError(
                f"kind {kind.value}: non-vulnerable pool ({len(non)}) is smaller "
                f"than the quota ({quota})"
            )
        out += _draw(pools.get((kind, Label.VULNERABLE), []), quota, seed, kind, Label.VULNERABLE)
        out += _draw(non, quota, seed, kind, Label.NON_VULNERABLE)
    counts = {kind: (quota, quota) for kind, quota in quotas.items()}
    return BalancedSet(SampleSet._drawn(out), hypothesis, seed, counts)


def _kinds(pools: _Pools) -> list[Kind]:
    """The kinds with at least one sample, in KIND_ORDER."""
    return [k for k in KIND_ORDER
            if (k, Label.VULNERABLE) in pools or (k, Label.NON_VULNERABLE) in pools]


def balance_h1(corpus: SampleSet, seed: int) -> BalancedSet:
    """All vulnerable samples per kind, matched 1:1 by sampled non-vulnerable."""
    pools = _pools(corpus)
    quotas = {k: len(pools.get((k, Label.VULNERABLE), [])) for k in _kinds(pools)}
    if not any(quotas.values()):
        raise DataError("corpus has no vulnerable samples")
    return _balance(pools, seed, "H1", quotas)


def balance_h2(corpus: SampleSet, seed: int) -> BalancedSet:
    """Uniform quota per kind and class: the smallest per-kind vulnerable count."""
    pools = _pools(corpus)
    kinds = _kinds(pools)
    for kind in kinds:
        for label in (Label.VULNERABLE, Label.NON_VULNERABLE):
            if not pools.get((kind, label)):
                raise DataError(f"kind {kind.value}: class {int(label)} is empty")
    quota = min(len(pools[(k, Label.VULNERABLE)]) for k in kinds)
    return _balance(pools, seed, "H2", dict.fromkeys(kinds, quota))


def remainder(corpus: SampleSet, balanced: BalancedSet) -> SampleSet:
    """The corpus minus the balanced selection, by id, in corpus order."""
    taken = balanced.samples.ids()
    rest = [s for s in corpus if s.id not in taken]
    if len(corpus) - len(rest) != len(taken):
        missing = taken - corpus.ids()
        raise DataError(
            f"balanced set contains {len(missing)} id(s) not present in the corpus, "
            f"e.g. {clip(repr(sorted(missing)[0]))}"
        )
    return SampleSet._drawn(rest)


def _counts_json(bset: BalancedSet) -> dict[str, dict[str, int]]:
    """Per-kind counts as manifest.json and report.json write them."""
    return {kind.value: {"vulnerable": v, "non_vulnerable": n}
            for kind, (v, n) in bset.per_kind_counts.items()}


def save_balanced(bset: BalancedSet, out_dir: str | Path) -> tuple[Path, Path]:
    """Write balanced.jsonl plus a manifest sidecar; returns both paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    data_path = save(bset.samples, out_dir / "balanced.jsonl")
    manifest = {
        "hypothesis": bset.hypothesis,
        "seed": bset.seed,
        "per_kind_counts": _counts_json(bset),
        "total": len(bset),
    }
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return data_path, manifest_path
