import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # golden_corpus import

from slicevuln.tokenizer import EncodedDataset


def random_batch(cfg, n, seed):
    """Random id rows for a given ModelConfig: CLS + tokens + PAD tail."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n):
        length = int(rng.integers(2, cfg.max_len))
        ids = np.zeros(cfg.max_len, dtype=np.int64)
        ids[0] = 2  # CLS
        ids[1:length] = rng.integers(3, cfg.vocab_size, size=length - 1)
        rows.append(ids)
    labels = rng.integers(0, 2, size=n)
    return rows, labels


def random_dataset(cfg, n, seed):
    rows, labels = random_batch(cfg, n, seed)
    return EncodedDataset(ids=np.stack(rows), labels=labels)


@pytest.fixture
def tiny_cfg():
    from slicevuln import ModelConfig

    return ModelConfig(num_layers=1, hidden_dim=8, num_heads=2, ff_dim=16,
                       max_len=16, vocab_size=32, dropout=0.0)


# sha256 of the reference corpus file, as corpus.save writes it
REFERENCE_CORPUS_SHA256 = "ca77a3748e709bcf80e1ec51146ac615bf9ea33d7f5a11b05570fda10a29b76c"


def refuse_to_lay_out(cfg):
    """Patched over model._shapes where a test of a size check must not
    build the table the check guards against."""
    raise AssertionError(f"a parameter layout was asked for: {cfg}")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    rows = []
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            name = rep.nodeid.split("::")[-1]
            if "test_acceptance" in rep.nodeid and name.startswith("test_criterion"):
                rows.append((name, "PASS" if outcome == "passed" else "FAIL"))
    if rows:
        terminalreporter.write_line("")
        terminalreporter.write_line("acceptance criteria:")
        for name, verdict in sorted(rows):
            terminalreporter.write_line(f"  {verdict}  {name}")
