#!/usr/bin/env python3
"""Tokenize, verify gradients, and train the compact encoder classifier.

Run:  python demos/03_train_classifier.py   (a few seconds)
"""

from slicevuln import Kind, ModelConfig, TrainConfig, aggregate, grad_check, init, split
from slicevuln.experiments import fit, score
from slicevuln.synth import pattern_corpus
from slicevuln.tokenizer import normalize

counts = {Kind.API: (60, 60), Kind.AU: (60, 60), Kind.PU: (60, 60), Kind.AE: (60, 60)}
corpus = pattern_corpus(counts, seed=1)
train_set, test_set = split(corpus, seed=1)  # 80/20
print(f"{len(corpus)} slices -> {len(train_set)} train / {len(test_set)} test")

# Symbol normalization hides naming, keeps structure:
sample = train_set.samples[0]
print("\nraw slice:")
print(sample.code)
print("normalized:", normalize(sample.code))

# fit normalizes every slice once, builds the vocabulary from the training
# side, encodes both sides and trains with early stopping on the test side.
cfg = ModelConfig(max_len=48, vocab_size=512)  # 2 layers, 64 hidden, 4 heads
tcfg = TrainConfig(learning_rate=1e-3, epochs=6, early_stop_patience=3, seed=42)
fitted = fit(train_set, test_set, cfg, tcfg)  # initialized from tcfg.seed
print(f"\nvocabulary: {len(fitted.vocab)} entries")
print(f"model: {fitted.net.num_parameters():,} parameters")

# The backward pass agrees with finite differences (on a fresh tiny model).
tiny = ModelConfig(num_layers=1, hidden_dim=8, num_heads=2, ff_dim=16,
                   max_len=48, vocab_size=512, dropout=0.0)
err = grad_check(init(tiny, seed=0), fitted.heldout)
print(f"gradient check, max relative error: {err:.2e}")

history = fitted.history
for epoch, (tl, vl, va) in enumerate(
    zip(history.train_loss, history.val_loss, history.val_accuracy), start=1
):
    print(f"  epoch {epoch}: train loss {tl:.4f}  val loss {vl:.4f}  val acc {va:.3f}")

# score tallies one confusion matrix per kind; aggregate scores their sum
ms = aggregate(score(fitted.net, test_set, fitted.heldout))
print(f"\nheld-out: precision {ms.precision:.3f}  recall {ms.recall:.3f}  "
      f"F1 {ms.f1:.3f}  MCC {ms.mcc:.3f}")
