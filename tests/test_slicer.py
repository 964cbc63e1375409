import dataclasses
import gc
import hashlib
import json
import string
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slicevuln import (
    Kind,
    LexError,
    Token,
    TokenClass,
    build_slice,
    extract_candidates,
    lex,
    normalize,
)
from slicevuln.slicer import DEFAULT_API_LIST
from golden_corpus import GOLDEN

FIXTURES = Path(__file__).resolve().parent / "fixtures"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Lexer-relevant pieces that random printable characters rarely combine
# into (comment, literal and directive delimiters, continuations,
# multi-character operators, number shapes), plus characters C does not use.
C_FRAGMENTS = ["/*", "*/", "//", '"', "'", "\\", "\\\n", "#", "#define X ", "\n", "\r\n",
               " ", "\t", "->", "<<=", "...", "++", "0x1F", "1e+5", ".5", "10UL", "int", "x_1",
               "(", ")", "{", "}", "[", "]", ";", "*", "$", "@", "`", "\u00e9"]


def test_lex_empty():
    assert lex("") == []


def test_lex_arrow():
    toks = [t for t in lex("a->b") if t.cls is not TokenClass.WHITESPACE]
    assert [(t.text, t.cls) for t in toks] == [
        ("a", TokenClass.IDENTIFIER),
        ("->", TokenClass.OPERATOR),
        ("b", TokenClass.IDENTIFIER),
    ]


def test_lex_round_trip_function():
    src = (
        "/* copy helper */\n"
        "static int copy_all(char *dst, const char *src, size_t n) {\n"
        "    size_t i;\n"
        "    if (!dst || !src) return -1;\n"
        "    for (i = 0; i < n; i++) {\n"
        "        dst[i] = src[i];  // byte copy\n"
        "    }\n"
        '    dst[n] = \'\\0\';\n'
        "    printf(\"copied %zu\\n\", n);\n"
        "    return 0;\n"
        "}\n"
    )
    assert "".join(t.text for t in lex(src)) == src


def test_token_shape():
    assert Token._fields == ("text", "cls", "line")
    tok = lex("x")[0]
    assert tok == Token("x", TokenClass.IDENTIFIER, 1)
    with pytest.raises(AttributeError):
        tok.line = 2


# C splices a backslash-newline inside a literal too (translation phase 2)
SPLICED_STRING = 'char *s = "ab\\\ncd";\nstrcpy(d, s);'
SPLICED_STRING_CRLF = 'char *s = "ab\\\r\ncd";\r\nstrcpy(d, s);'
SPLICED_CHAR = "char c = '\\\nn';\nstrcpy(d, s);"


def _assert_positions(src: str, toks) -> None:
    """Each token's line is that of its start offset in src, counted from
    the newlines before it."""
    offset = 0
    for tok in toks:
        assert tok.line == src.count("\n", 0, offset) + 1, tok
        offset += len(tok.text)


def test_lex_positions_are_one_based():
    toks = lex("ab\n cd")
    assert toks[0].line == 1
    cd = [t for t in toks if t.text == "cd"][0]
    assert cd.line == 2


@pytest.mark.parametrize("src, message, line", [
    ("int x;\n/* never closed", "unterminated block comment", 2),
    ('char *s = "oops', "unterminated string literal", 1),
    ('s = "ab\\\ncd;', "unterminated string literal", 1),  # spliced, never closed
    ("int x;\nchar c = 'a;", "unterminated character literal", 2),
    ("int f() {\n  int @x;\n}", "unexpected character '@'", 2),
    ("x = a \\ b;", "unexpected character '\\\\'", 1),  # not before a newline
    ("int x; #define A 1", "unexpected character '#'", 1),
    ("x = 1; \\\n#define A 1", "unexpected character '#'", 2),  # spliced onto the code line
    ("int x; /* c */ #define A 1", "unexpected character '#'", 1),
    ("x; /* a\n b */ #define W", "unexpected character '#'", 2),  # the comment's newline vanishes
], ids=["block-comment", "string", "string-splice", "char", "stray-at", "stray-backslash",
        "directive-after-code", "directive-after-splice", "directive-after-code-and-comment",
        "directive-after-code-and-two-line-comment"])
def test_lex_error_message_and_line(src, message, line):
    with pytest.raises(LexError) as info:
        lex(src)
    assert (info.value.message, info.value.line) == (message, line)


@pytest.mark.parametrize("src, text, cls", [
    ("int a$b = 0;", "a$b", TokenClass.IDENTIFIER),
    ("$x = 1;", "$x", TokenClass.IDENTIFIER),
    ("x = 1'000'000;", "1'000'000", TokenClass.NUMBER),
    ("x = 0xFF'FF;", "0xFF'FF", TokenClass.NUMBER),
    ("x = a + \\\n    b;", " \\\n    ", TokenClass.WHITESPACE),
    ("x = a + \\\r\n    b;", " \\\r\n    ", TokenClass.WHITESPACE),
    # a comment stands for one space, so the '#' still opens its line
    ("/* c */ #define X 1\nint x;", "#define X 1", TokenClass.DIRECTIVE),
    ("/* a\n b */ #define W\nint x;", "#define W", TokenClass.DIRECTIVE),
    ("int x;\n  /* c */ /* d */ #define X 1\n", "#define X 1", TokenClass.DIRECTIVE),
    ("// note\n/* c */#define X 1", "#define X 1", TokenClass.DIRECTIVE),
    # C splices lines before it strips comments: the call is commented out
    ("// old: \\\nstrcpy(a, b);", "// old: \\\nstrcpy(a, b);", TokenClass.COMMENT),
    ("// a \\\r\nstrcpy(a, b);", "// a \\\r\nstrcpy(a, b);", TokenClass.COMMENT),
    # only the backslash right before the newline splices
    ("// a \\\\\nstrcpy(a, b);", "// a \\\\\nstrcpy(a, b);", TokenClass.COMMENT),
    ("#define X \\", "#define X \\", TokenClass.DIRECTIVE),
    ("// c \\", "// c \\", TokenClass.COMMENT),
    # a spliced literal is one token
    (SPLICED_STRING, '"ab\\\ncd"', TokenClass.STRING),
    (SPLICED_STRING_CRLF, '"ab\\\r\ncd"', TokenClass.STRING),
    (SPLICED_CHAR, "'\\\nn'", TokenClass.CHAR),
], ids=["dollar-inside", "dollar-first", "digit-separators", "hex-digit-separator",
        "backslash-newline", "backslash-crlf", "directive-after-comment",
        "directive-after-two-line-comment", "directive-after-two-comments",
        "directive-after-line-comment-and-comment", "line-comment-splice",
        "line-comment-crlf-splice", "line-comment-double-backslash-splice",
        "directive-backslash-at-end-of-file", "line-comment-backslash-at-end-of-file",
        "string-splice", "string-crlf-splice", "char-splice"])
def test_lex_real_world_constructs(src, text, cls):
    toks = lex(src)
    assert "".join(t.text for t in toks) == src
    assert [t.cls for t in toks if t.text == text] == [cls]
    _assert_positions(src, toks)
    if text == src:  # one comment or directive holds no candidate
        assert extract_candidates(src) == []


def test_lex_backslash_newline_keeps_lines_and_directives():
    toks = lex("int x = \\\n  1;\n#define A 1\n")
    assert [(t.text, t.line) for t in toks if t.text in ("1", "#define A 1")] == [
        ("1", 2), ("#define A 1", 3)]
    assert toks[-2].cls is TokenClass.DIRECTIVE


@pytest.mark.parametrize("src, text, line", [
    ("/* one\n two */ x", "x", 2),
    ("#define M(a) \\\n  (a)\nint y;", "int", 3),
    ("a = \\\n   b;", "b", 2),
    ("a;\r\n  b;", "b", 2),
    # the first b is inside the spliced comment
    ("// a \\\nb;\n b;", "b", 3),
    ("// a \\\r\nb;\r\n b;", "b", 3),
    (SPLICED_STRING, "strcpy", 3),
    (SPLICED_STRING_CRLF, "strcpy", 3),
    (SPLICED_CHAR, "strcpy", 3),
], ids=["two-line-block-comment", "directive-continuation", "backslash-newline", "crlf",
        "line-comment-splice", "line-comment-crlf-splice", "string-splice",
        "string-crlf-splice", "char-splice"])
def test_lex_position_after_a_multi_line_token(src, text, line):
    toks = lex(src)
    (tok,) = [t for t in toks if t.text == text]
    assert tok.line == line
    _assert_positions(src, toks)


@pytest.mark.parametrize("src", [SPLICED_STRING, SPLICED_STRING_CRLF, SPLICED_CHAR],
                         ids=["string-splice", "string-crlf-splice", "char-splice"])
def test_candidate_after_a_spliced_literal_keeps_its_line(src):
    assert [(c.line, c.focus) for c in extract_candidates(src) if c.kind is Kind.API] == [
        (3, "strcpy")]


def test_lex_quote_after_a_digit_still_opens_a_char_literal():
    toks = [t for t in lex("f(1,'a')") if t.cls is not TokenClass.WHITESPACE]
    assert [(t.text, t.cls) for t in toks] == [
        ("f", TokenClass.IDENTIFIER), ("(", TokenClass.PUNCTUATION),
        ("1", TokenClass.NUMBER), (",", TokenClass.PUNCTUATION),
        ("'a'", TokenClass.CHAR), (")", TokenClass.PUNCTUATION),
    ]


def test_lex_directive_single_token():
    toks = lex("#include <stdio.h>\nint x;")
    assert toks[0].cls is TokenClass.DIRECTIVE
    assert toks[0].text == "#include <stdio.h>"


def test_lex_directive_with_continuation():
    src = "#define ADD(a, b) \\\n    ((a) + (b))\nint y;"
    toks = lex(src)
    assert toks[0].cls is TokenClass.DIRECTIVE
    assert "((a) + (b))" in toks[0].text
    assert "".join(t.text for t in lex(src)) == src


def test_lex_round_trip_random_printable():
    rng = np.random.default_rng(1234)
    alphabet = string.ascii_letters + string.digits + " \t\n+-*/%<>=!&|;,(){}[]._"
    checked = 0
    for _ in range(300):
        n = int(rng.integers(1, 60))
        s = "".join(alphabet[i] for i in rng.integers(0, len(alphabet), size=n))
        try:
            toks = lex(s)
        except LexError:
            continue
        assert "".join(t.text for t in toks) == s
        checked += 1
    assert checked > 100


@settings(max_examples=400, deadline=None, database=None)
@given(st.text(alphabet=string.printable, max_size=80)
       | st.lists(st.sampled_from(C_FRAGMENTS + list(string.printable)), max_size=40).map("".join))
def test_lex_round_trips_or_raises_lex_error(src):
    # any other exception escapes and fails the test
    try:
        toks = lex(src)
    except LexError:
        return
    assert "".join(t.text for t in toks) == src
    _assert_positions(src, toks)


# pieces that make lex's layout tokens span lines or sit next to each other:
# block comments across lines, splices, and directives after comments
LAYOUT_FRAGMENTS = ["/* a\nb */", "/*\n\n*/", "\\\n", "\\\r\n", "/* c */#define Y 1\n",
                    "/* c */ # x\n", "\n#if X\n", "// c \\\nd\n", "/* c */\n#x\n"]
_LAYOUT = {TokenClass.WHITESPACE, TokenClass.COMMENT, TokenClass.DIRECTIVE}


@settings(max_examples=400, deadline=None, database=None)
@given(st.text(alphabet=string.printable, max_size=80)
       | st.lists(st.sampled_from(C_FRAGMENTS + LAYOUT_FRAGMENTS + list(string.printable)),
                  max_size=40).map("".join))
def test_lex_without_layout_is_the_significant_tokens_of_lex(src):
    try:
        tokens = lex(src)
    except LexError as e:
        with pytest.raises(LexError) as info:
            lex(src, layout=False)
        assert (info.value.message, info.value.line) == (e.message, e.line)
        return
    assert lex(src, layout=False) == [t for t in tokens if t.cls not in _LAYOUT]


@pytest.mark.parametrize("name,src,expected", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_golden_candidates_exact(name, src, expected):
    got = [(c.kind, c.focus, c.line) for c in extract_candidates(src)]
    assert got == expected
    assert "".join(t.text for t in lex(src)) == src


def test_candidates_deterministic():
    src = GOLDEN[17][1]
    assert extract_candidates(src) == extract_candidates(src)


def test_candidate_focus_on_line():
    for _, src, _ in GOLDEN:
        for cand in extract_candidates(src):
            line_text = src.split("\n")[cand.line - 1]
            assert cand.focus in line_text


def test_api_call_span_covers_multiline_call():
    src = "memcpy(dst,\n        src,\n        n);"
    (cand,) = extract_candidates(src)
    assert cand.kind == Kind.API
    assert cand.span == (1, 3)


def test_one_api_list_decides_candidates_and_normalization():
    # a listed name is an API site and keeps its name through normalization;
    # a call to any other name is neither
    for name in sorted(DEFAULT_API_LIST):
        assert [c.focus for c in extract_candidates(f"{name}(x);")
                if c.kind == Kind.API] == [name]
        assert normalize(f"{name}(x);") == f"{name} ( VAR1 ) ;"
    assert not [c for c in extract_candidates("my_alloc(x);") if c.kind == Kind.API]
    assert normalize("my_alloc(x);") == "FUN1 ( VAR1 ) ;"


def test_double_star_collapses_to_one_candidate():
    cands = extract_candidates("**pp = 0;")
    assert [(c.kind, c.focus) for c in cands] == [(Kind.PU, "pp")]


def test_build_slice_single_line():
    src = "strcpy(a, b);"
    (cand,) = extract_candidates(src)
    assert build_slice(cand) == src


def test_build_slice_def_use_example():
    src = "int n = 10;\nchar b[8];\nmemcpy(b, s, n);"
    cand = [c for c in extract_candidates(src) if c.kind == Kind.API][0]
    assert build_slice(cand) == src


def test_build_slice_excludes_unrelated_lines():
    src = "int n = 10;\nint other = 5;\nmemcpy(b, s, n);"
    cand = [c for c in extract_candidates(src) if c.kind == Kind.API][0]
    out = build_slice(cand)
    assert "other" not in out
    assert "memcpy" in out and "int n = 10;" in out


def test_build_slice_reaches_two_hops_not_three():
    # each line shares one identifier with the next: d -> c -> b -> the call
    src = "void f(void) {\n    int d = 4;\n    int c = d;\n    int b = c;\n    strcpy(a, b);\n}"
    cand = [c for c in extract_candidates(src) if c.kind == Kind.API][0]
    assert build_slice(cand) == "    int c = d;\n    int b = c;\n    strcpy(a, b);"


def test_build_slice_truncates_to_max_lines():
    body = "\n".join(f"    x = x + {i};" for i in range(100))
    src = f"void f(int x) {{\n{body}\n}}"
    cands = extract_candidates(src)
    cand = cands[len(cands) // 2]
    out = build_slice(cand)
    lines = out.split("\n")
    assert len(lines) <= 30
    assert src.split("\n")[cand.line - 1] in lines


def test_build_slice_stays_inside_function():
    src = (
        "int helper(int q) {\n"
        "    return q + 1;\n"
        "}\n"
        "void main_op(char *s) {\n"
        "    char buf[16];\n"
        "    strcpy(buf, s);\n"
        "}\n"
    )
    cand = [c for c in extract_candidates(src) if c.kind == Kind.API][0]
    out = build_slice(cand)
    assert "helper" not in out
    assert "strcpy(buf, s);" in out


def test_function_regions_ignore_call_brace_patterns_in_bodies():
    from slicevuln.slicer import _function_regions, _match_brackets

    src = (
        "int outer(int n) {\n"
        "    point p = (point){1, 2};\n"
        "    if (n) { n = n - 1; }\n"
        "    return n;\n"
        "}\n"
        "void second(char *s) {\n"
        "    strcpy(buf, s);\n"
        "}"
    )
    toks = lex(src, layout=False)
    assert _function_regions(toks, _match_brackets(toks)) == [(1, 5), (6, 8)]


def test_slicing_a_file_lexes_it_once(monkeypatch):
    from slicevuln import cli, slicer

    calls = []

    def counting_lex(source, **kwargs):
        calls.append(source)
        return real_lex(source, **kwargs)

    real_lex = slicer.lex
    monkeypatch.setattr(slicer, "lex", counting_lex)
    records = cli._slice_one_file(str(FIXTURES / "multi_function.c"))
    assert len(records) > 100
    assert len(calls) == 1


def test_slicing_one_file_after_another_was_detected_lexes_neither_again(monkeypatch):
    # each candidate carries its own file's index, so the order in which
    # files are detected and sliced costs no second lex
    from slicevuln import slicer

    calls = []
    real_lex = slicer.lex
    monkeypatch.setattr(slicer, "lex",
                        lambda source, **kwargs: calls.append(source) or real_lex(source, **kwargs))
    first = extract_candidates("void f(char *s) {\n    char b[8];\n    strcpy(b, s);\n}\n")
    second = extract_candidates("int g(int *p) {\n    return *p + 1;\n}\n")
    slices = [build_slice(cand) for cand in first]
    assert slices[-1] == "void f(char *s) {\n    char b[8];\n    strcpy(b, s);"
    assert len(calls) == 2 and second


def test_a_files_index_is_freed_with_its_candidates():
    src = (FIXTURES / "multi_function.c").read_text(encoding="utf-8")
    cands = extract_candidates(src)
    assert all(build_slice(cand) for cand in cands)
    index = weakref.ref(cands[0].file)
    assert all(cand.file is index() for cand in cands)
    del cands
    gc.collect()
    assert index() is None


def test_the_index_is_no_part_of_a_candidates_value():
    src = "void f(void) {\n    strcpy(b, s);\n}\n"
    (a,), (b,) = extract_candidates(src), extract_candidates(src)
    assert a.file is not b.file
    assert a == b and hash(a) == hash(b)
    assert repr(a) == "Candidate(kind=<Kind.API: 'API'>, line=2, focus='strcpy', span=(2, 2))"


def _frontier_slice(cand) -> str:
    """build_slice's answer by one frontier walk from the focus and the
    identifiers on its line, hop by hop."""
    from slicevuln.slicer import _DEF_USE_HOPS, _MAX_SLICE_LINES

    idx = cand.file
    uses = idx.uses(*idx.region_of.get(cand.line, (1, len(idx.lines))))
    reachable = {cand.focus} | idx.line_ids.get(cand.line, set())
    selected, added = {cand.line}, reachable
    for _ in range(_DEF_USE_HOPS):
        hit = {n for ident in added for n in uses.get(ident, ())} - selected
        if not hit:
            break
        selected |= hit
        added = set().union(*(idx.line_ids[n] for n in hit)) - reachable
        reachable |= added
    ordered = sorted(selected)
    if len(ordered) > _MAX_SLICE_LINES:
        center = ordered.index(cand.line)
        start = min(max(center - (_MAX_SLICE_LINES - 1) // 2, 0),
                    len(ordered) - _MAX_SLICE_LINES)
        ordered = ordered[start:start + _MAX_SLICE_LINES]
    return "\n".join(idx.lines[n - 1] for n in ordered)


_NAMES = ["a", "b", "c", "n", "p", "buf", "len"]
_STATEMENTS = ["{0} = {1} + {2};", "{0}[{1}] = {2};", "*{0} = {1};", "strcpy({0}, {1});",
               "{0} = {1} * {2};", "int {0} = {1};", "{0}->next = {1};", "if ({0}) {1} = {2} - 1;"]
_statement = st.builds(lambda form, names: form.format(*names), st.sampled_from(_STATEMENTS),
                       st.lists(st.sampled_from(_NAMES), min_size=3, max_size=3))
# a function of up to 45 statements, or one statement at file scope
_unit = (st.lists(_statement, min_size=1, max_size=45).map(
            lambda body: "void f(int {0}) {{\n{1}\n}}".format(
                _NAMES[len(body) % len(_NAMES)], "\n".join("    " + b for b in body)))
         | _statement)


@settings(max_examples=60, deadline=None, database=None)
@given(st.lists(_unit, min_size=1, max_size=5).map("\n".join))
def test_build_slice_matches_a_frontier_walk(src):
    for cand in extract_candidates(src):
        assert build_slice(cand) == _frontier_slice(cand)


def test_an_identifiers_reach_is_walked_once_per_region(monkeypatch):
    # each candidate line repeats the same identifiers, so slicing n copies
    # looks up no more use lists than slicing one
    from slicevuln import slicer

    lookups = []

    class CountingUses(dict):
        def get(self, key, default=None):
            lookups.append(key)
            return super().get(key, default)

    real_uses = slicer._FileIndex.uses
    monkeypatch.setattr(slicer._FileIndex, "uses",
                        lambda self, lo, hi: CountingUses(real_uses(self, lo, hi)))

    def count(n):
        src = "void f(char *buf, int i, int x) {\n" + "    buf[i] = x + 1;\n" * n + "}\n"
        lookups.clear()
        cands = extract_candidates(src)
        assert len(cands) == 2 * n + 1
        for cand in cands:
            build_slice(cand)
        return len(lookups)

    assert count(40) == count(1) > 0


def test_build_slice_focus_always_present():
    for _, src, _ in GOLDEN:
        for cand in extract_candidates(src):
            assert cand.focus in build_slice(cand)


def test_build_slice_line_out_of_range():
    src = "strcpy(a, b);"
    (cand,) = extract_candidates(src)
    bad = dataclasses.replace(cand, line=99, span=(99, 99))
    with pytest.raises(ValueError, match="out of range"):
        build_slice(bad)


@pytest.mark.parametrize("seed, count, digest", [
    (42, 1745, "45c1a96ac81b77ec006c66846169cf410a959ec9b03e5efc5e35d70aca20158a"),
    (313, 1705, "9edd7d3854f4fb9c6deae4e07affbec9934bd9b0f3f6e1df3e797e1b37e579a0"),
])
def test_slices_of_a_generated_tree_are_frozen(tmp_path, seed, count, digest):
    # the benchmark's seeded C tree (about 3,000 clean lines per seed), sliced
    # file by file; the digest covers every candidate and slice, not the paths
    sys.path.insert(0, str(PERFBENCH))
    try:
        import ctree
    finally:
        sys.path.remove(str(PERFBENCH))
    h = hashlib.sha256()
    n = 0
    for record in ctree.write_tree(seed, tmp_path):
        if record.hostile is None:
            src = (tmp_path / record.path).read_text(encoding="utf-8")
            for cand in extract_candidates(src):
                row = [cand.kind.value, cand.line, cand.focus, list(cand.span),
                       build_slice(cand)]
                h.update(json.dumps(row).encode() + b"\n")
                n += 1
    assert (n, h.hexdigest()) == (count, digest)
