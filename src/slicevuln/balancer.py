"""Seeded downsampling under the two balancing hypotheses.

Hypothesis 1 keeps every vulnerable sample of each kind and draws an
equal-sized uniform subset of that kind's non-vulnerable pool.  Hypothesis
2 applies a uniform quota to both classes of every kind, equal to the
smallest per-kind vulnerable count.

Selection uses a counter-based Philox generator keyed by (seed, kind), and
pools are sorted by id before sampling, so results depend on neither load
order nor the other kinds' pools.  A corpus is grouped and sorted into its
pools once, on its first balance; the pools are freed with the corpus.
"""

from __future__ import annotations

import json
import weakref
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path

import numpy as np

from .corpus import KIND_ORDER, Kind, Label, Sample, SampleSet, save
from .errors import DataError


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


def balance_h1(corpus: SampleSet, seed: int) -> BalancedSet:
    """All vulnerable samples per kind, matched 1:1 by sampled non-vulnerable."""
    pools = _pools(corpus)
    out: list[Sample] = []
    counts: dict[Kind, tuple[int, int]] = {}
    for kind in KIND_ORDER:
        vul = pools.get((kind, Label.VULNERABLE), [])
        non = pools.get((kind, Label.NON_VULNERABLE), [])
        if not vul and not non:
            continue
        if len(non) < len(vul):
            raise DataError(
                f"kind {kind.value}: non-vulnerable pool ({len(non)}) is smaller "
                f"than the vulnerable count ({len(vul)})"
            )
        picked = _draw(non, len(vul), seed, kind, Label.NON_VULNERABLE)
        out.extend(vul)
        out.extend(picked)
        counts[kind] = (len(vul), len(picked))
    if not out:
        raise DataError("corpus has no vulnerable samples")
    return BalancedSet(SampleSet._drawn(out), "H1", seed, counts)


def balance_h2(corpus: SampleSet, seed: int) -> BalancedSet:
    """Uniform quota per kind and class: the smallest per-kind vulnerable count."""
    pools = _pools(corpus)
    kinds = [k for k in KIND_ORDER
             if (k, Label.VULNERABLE) in pools or (k, Label.NON_VULNERABLE) in pools]
    for kind in kinds:
        for label in (Label.VULNERABLE, Label.NON_VULNERABLE):
            if not pools.get((kind, label)):
                raise DataError(f"kind {kind.value}: class {int(label)} is empty")
    quota = min(len(pools[(k, Label.VULNERABLE)]) for k in kinds)
    out: list[Sample] = []
    counts: dict[Kind, tuple[int, int]] = {}
    for kind in kinds:
        non = pools[(kind, Label.NON_VULNERABLE)]
        if len(non) < quota:
            raise DataError(
                f"kind {kind.value}: non-vulnerable pool ({len(non)}) is smaller "
                f"than the quota ({quota})"
            )
        vul_pick = _draw(pools[(kind, Label.VULNERABLE)], quota, seed, kind, Label.VULNERABLE)
        non_pick = _draw(non, quota, seed, kind, Label.NON_VULNERABLE)
        out.extend(vul_pick)
        out.extend(non_pick)
        counts[kind] = (quota, quota)
    return BalancedSet(SampleSet._drawn(out), "H2", seed, counts)


def remainder(corpus: SampleSet, balanced: BalancedSet) -> SampleSet:
    """The corpus minus the balanced selection, by id, in corpus order."""
    taken = balanced.samples.ids()
    rest = [s for s in corpus if s.id not in taken]
    if len(corpus) - len(rest) != len(taken):
        missing = taken - corpus.ids()
        raise DataError(
            f"balanced set contains {len(missing)} id(s) not present in the corpus, "
            f"e.g. {sorted(missing)[0]!r}"
        )
    return SampleSet._drawn(rest)


def save_balanced(bset: BalancedSet, out_dir: str | Path) -> tuple[Path, Path]:
    """Write balanced.jsonl plus a manifest sidecar; returns both paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    data_path = save(bset.samples, out_dir / "balanced.jsonl")
    manifest = {
        "hypothesis": bset.hypothesis,
        "seed": bset.seed,
        "per_kind_counts": {
            kind.value: {"vulnerable": c[0], "non_vulnerable": c[1]}
            for kind, c in bset.per_kind_counts.items()
        },
        "total": len(bset),
    }
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return data_path, manifest_path
