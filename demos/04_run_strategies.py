#!/usr/bin/env python3
"""The three evaluation strategies, end to end, on a 2,000-slice corpus.

S1 trains on the large per-kind-balanced set, S2 on the minimal uniform
subset, S3 reuses S2's training but answers for the entire remainder.
Expect the F1 ordering S1 > S2 > S3: more data helps, and a heavily
imbalanced test pool punishes precision.

Run:  python demos/04_run_strategies.py   (about ten seconds; writes demo_runs/)
"""

import json
from pathlib import Path

from slicevuln import ModelConfig, StrategySpec, TrainConfig
from slicevuln.experiments import compare, emit, run
from slicevuln.metrics import percent
from slicevuln.synth import pattern_corpus

corpus = pattern_corpus(seed=42)
print(f"corpus: {len(corpus)} slices")

out_dir = Path("demo_runs")
for sid in ("S1", "S2", "S3"):
    spec = StrategySpec(
        id=sid,
        model_config=ModelConfig(max_len=48, vocab_size=512),
        train_config=TrainConfig(epochs=6, early_stop_patience=3, seed=42),  # the run's seed
    )
    report = run(spec, corpus)
    fp = report.fingerprints
    print(
        f"{sid}: balanced {fp['balanced_total']:>4}  "
        f"train {fp['train_size']:>4}  test {fp['test_size']:>5}  "
        f"F1 {percent(report.overall.f1)}%  "
        f"({report.resources.wall_time:.1f}s)"
    )
    emit(report, out_dir / sid.lower())  # metrics.txt, metrics.csv, report.json

# The same comparison.csv that `slicevuln report` writes.
print()
print(compare([json.loads((out_dir / sid / "report.json").read_text(encoding="utf-8"))
               for sid in ("s1", "s2", "s3")]), end="")
print(f"per-strategy reports written under {out_dir}/")
