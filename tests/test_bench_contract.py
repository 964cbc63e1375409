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


def test_slicing_and_normalizing_each_lex_once_through_a_traced_attribute(tmp_path):
    # slice-tree's slicer.lex_* metrics come from the wrapped slicer.lex and
    # tokenizer.lex: a scan reached through any other name would read 0
    source = tmp_path / "traced.c"
    source.write_text("void traced_path(char *s) {\n    char b[8];  /* buffer */\n"
                      "    strcpy(b, s);\n}\n", encoding="utf-8")
    sys.path.insert(0, str(PERFBENCH))
    try:
        import layers
        import spans

        from slicevuln import cli, tokenizer

        tracer = spans.Tracer()
        try:
            layers.instrument(tracer)
            assert cli.main(["slice", "--in", str(source), "--out", str(tmp_path / "out")]) == 0
            tokenizer.normalize("int traced_path = 1;  /* note */")
        finally:
            tracer.restore()
    finally:
        sys.path.remove(str(PERFBENCH))
    lexed = [(tracer.spans[sp.parent].name, sp.counts) for sp in tracer.spans
             if sp.name == "slicer.lex"]
    # the file's significant tokens, then the text's
    assert lexed == [("slicer.extract_candidates", {"tokens": 22}),
                     ("tokenizer.normalize", {"tokens": 5})]
