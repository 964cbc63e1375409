#!/usr/bin/env python3
"""The two downsampling hypotheses on the bundled reference distribution.

Run:  python demos/02_balance_hypotheses.py
"""

from slicevuln import Label, balance_h1, balance_h2, remainder
from slicevuln.synth import REFERENCE_COUNTS, reference_corpus

print("building the reference corpus (bundled per-kind counts)...")
corpus = reference_corpus()
print(f"  {len(corpus):,} samples total")
counts = corpus.counts()
for kind, (vul, non) in REFERENCE_COUNTS.items():
    assert counts[kind, Label.VULNERABLE] == vul
    assert counts[kind, Label.NON_VULNERABLE] == non
    print(f"  {kind.value:<4} vulnerable {vul:>7,}   non-vulnerable {non:>8,}")
print()

# Hypothesis 1: keep all vulnerable samples of each kind, sample an equal
# number of non-vulnerable samples of the same kind.
h1 = balance_h1(corpus, seed=42)
print(f"H1 balanced set: {len(h1):,} samples")
for kind, (vul, non) in h1.per_kind_counts.items():
    print(f"  {kind.value:<4} {vul:>6,} + {non:>6,} = {vul + non:>7,}")
print()

# Hypothesis 2: a uniform quota per kind and class, equal to the smallest
# per-kind vulnerable count (here the AE class).
h2 = balance_h2(corpus, seed=42)
quota = h2.per_kind_counts[next(iter(h2.per_kind_counts))][0]
print(f"H2 balanced set: {len(h2):,} samples (quota {quota:,} per kind per class)")
print()

# What H2 leaves behind is the generalization test pool.
rest = remainder(corpus, h2)
print(f"remainder after H2: {len(corpus):,} - {len(h2):,} = {len(rest):,} samples")

# Same seed, same selection; different seed, same counts.
assert balance_h2(corpus, seed=42).samples.ids() == h2.samples.ids()
assert len(balance_h2(corpus, seed=7)) == len(h2)
print("determinism checks passed")
