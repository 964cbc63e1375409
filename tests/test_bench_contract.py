"""The benchmark's traced run wraps program functions by module attribute
(perfbench/layers.py).  A rename there would break only that run, so wrap
and restore every one of them here against the real package."""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_attribute_exists():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import layers
        import spans

        from slicevuln import tokenizer

        original = tokenizer.normalize
        tracer = spans.Tracer()
        try:
            layers.instrument(tracer)
            layers.instrument_setup(tracer)
            assert tokenizer.normalize is not original
        finally:
            tracer.restore()
        assert tokenizer.normalize is original
    finally:
        sys.path.remove(str(PERFBENCH))
