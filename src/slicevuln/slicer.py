"""C/C++ lexer, vulnerability-candidate detection, and lightweight slicing.

The lexer is lossless: concatenating the text of every token (whitespace
and comments included) reproduces the input exactly.  With
``layout=False`` it returns only the significant tokens: it builds none
for whitespace, comments or directives, which neither candidate detection,
slicing nor normalization reads.  As in C, a backslash
right before a newline splices two lines, so a ``//`` comment, a directive
or a string or character literal runs on past it.  Candidate detection runs
over the token stream with four rules:

* API -- an identifier from the risky-API list immediately followed by ``(``.
* AU  -- an identifier immediately followed by ``[`` (subscript or array
  declarator).
* PU  -- unary ``*`` applied to an identifier (dereference or pointer
  declarator), or an ``->`` member access.
* AE  -- a binary ``+ - * / %`` whose neighboring operands are identifiers
  or numbers, outside array subscripts.

Each token starts at most one candidate, and candidates come out in token
order.  Each candidate carries its file's index, built from one ``lex``
of the source, so slicing it lexes nothing again and the index is freed
with the file's candidates.

Slicing is an intra-procedural identifier-sharing approximation: starting
from the candidate's focus identifier, lines are pulled in for a bounded
number of def-use hops.  Each identifier's hops are walked once per
function region and shared by every candidate of the file that reads them.
This is a declared stand-in for dependence-graph slicing, good enough to
produce realistic classifier inputs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

from .corpus import Kind
from .errors import LexError


class TokenClass(str, Enum):
    IDENTIFIER = "identifier"
    KEYWORD = "keyword"
    NUMBER = "number"
    STRING = "string-literal"
    CHAR = "char-literal"
    OPERATOR = "operator"
    PUNCTUATION = "punctuation"
    COMMENT = "comment"
    WHITESPACE = "whitespace"
    DIRECTIVE = "directive"  # whole preprocessor line, never yields candidates


# the members the per-token loops test, bound once: a global name is read
# several times faster than an attribute of the enum class
_IDENTIFIER, _KEYWORD, _NUMBER, _OPERATOR = (
    TokenClass.IDENTIFIER, TokenClass.KEYWORD, TokenClass.NUMBER, TokenClass.OPERATOR)
_COMMENT, _WHITESPACE, _DIRECTIVE = TokenClass.COMMENT, TokenClass.WHITESPACE, TokenClass.DIRECTIVE


class Token(NamedTuple):
    text: str
    cls: TokenClass
    line: int


C_KEYWORDS = frozenset(
    """
    auto break case char const continue default do double else enum extern
    float for goto if inline int long register restrict return short signed
    sizeof static struct switch typedef union unsigned void volatile while
    _Bool _Complex _Imaginary bool true false class namespace new delete
    template typename using public private protected virtual operator this
    """.split()
)

# Classic risky C library functions.  The one risky-API list: the API
# candidate rule matches calls to these names, and normalization keeps them.
DEFAULT_API_LIST = frozenset(
    """
    strcpy strncpy strcat strncat sprintf vsprintf snprintf gets fgets
    memcpy memmove memset bcopy bzero alloca scanf sscanf fscanf vscanf
    vsscanf vfscanf getwd realpath strtok strlen printf fprintf vprintf
    malloc calloc realloc free system popen execl execlp execle execv
    execvp execve atoi atol getenv read recv recvfrom setbuf getchar
    """.split()
)

# a slice holds at most this many lines, reached in at most this many hops
_MAX_SLICE_LINES = 30
_DEF_USE_HOPS = 2


@dataclass(frozen=True, slots=True)
class Candidate:
    kind: Kind
    line: int
    focus: str
    span: tuple[int, int]
    # what build_slice reads; not part of the candidate's value
    file: _FileIndex = field(repr=False, compare=False)


# The rest of a logical line.  C splices a backslash-newline away in
# translation phase 2, before comments and directives exist, so a line
# runs on past each one; a backslash at the end of the file ends it.
_LOGICAL_LINE = r"[^\n\\]*(?:\\(?:\r?\n)?[^\n\\]*)*"

# The one statement of the lexical rules: each alternative is named for its
# TokenClass, first match wins.  A directive and a ``//`` comment each
# consume a whole logical line; a directive only counts at line start, which
# the lexer enforces.  Two alternatives are errors: a ``/*`` the comment
# alternative could not close, and, last, any other character.
_TOKEN_RE = re.compile(
    rf"""
    (?P<DIRECTIVE>\#{_LOGICAL_LINE})
  | (?P<COMMENT>//{_LOGICAL_LINE}|/\*(?:[^*]|\*(?!/))*\*/)
  | (?P<STRING>"(?:\\(?:\r?\n|.)|[^"\\\n])*")
  | (?P<CHAR>'(?:\\(?:\r?\n|.)|[^'\\\n])+')
  | (?P<NUMBER>(?:0[xX][0-9a-fA-F](?:'?[0-9a-fA-F])*|(?:\d(?:'?\d)*\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)[uUlLfF]*)
  | (?P<IDENTIFIER>[A-Za-z_$][\w$]*)
  | (?P<UNCLOSED>/\*)
  | (?P<OPERATOR><<=|>>=|\.\.\.|->|\+\+|--|<<|>>|<=|>=|==|!=|&&|\|\||\+=|-=|\*=|/=|%=|&=|\|=|\^=|[-+*/%=<>!&|^~?.:])
  | (?P<PUNCTUATION>[()\[\]{{}};,])
  | (?P<WHITESPACE>(?:\s|\\\r?\n)+)
  | (?P<UNEXPECTED>(?s:.))
    """,
    re.VERBOSE,
)

_CLASS_OF_GROUP = dict(TokenClass.__members__)
_LEX_ERRORS = {
    "/*": "unterminated block comment",
    '"': "unterminated string literal",
    "'": "unterminated character literal",
}
# the classes lex(layout=False) leaves out: nothing past the lexer reads them
_LAYOUT = {_WHITESPACE, _COMMENT, _DIRECTIVE}


def lex(source: str, *, layout: bool = True) -> list[Token]:
    """Tokenize C/C++ source; raises LexError with a line number.

    With ``layout`` (the default) the tokens are lossless: their texts
    concatenate to ``source``.  ``layout=False`` returns only the
    significant tokens, the same ones with the same lines: no token is
    built for whitespace, comments or directives, though their newlines
    still count and a directive is still checked to start its line.

    Each newline a token holds moves the line count: a whitespace, comment
    or directive token may hold several, and a string or character literal
    one per backslash-newline splice."""
    tokens: list[Token] = []
    line = 1
    # no significant token since the last unspliced newline; a comment stands
    # for one space, so it neither clears this nor, spanning lines, sets it
    at_line_start = True
    for m in _TOKEN_RE.finditer(source):
        text = m.group()
        cls = _CLASS_OF_GROUP.get(m.lastgroup)
        if cls is None or (cls is _DIRECTIVE and not at_line_start):
            raise LexError(_LEX_ERRORS.get(text, f"unexpected character {text[0]!r}"), line)
        if cls in _LAYOUT:
            if layout:
                tokens.append(Token(text, cls, line))
        else:
            if cls is _IDENTIFIER and text in C_KEYWORDS:
                cls = _KEYWORD
            tokens.append(Token(text, cls, line))
            at_line_start = False
        if "\n" in text:
            newlines = text.count("\n")
            line += newlines
            # a backslash-newline splices two lines
            if cls is _WHITESPACE and newlines > text.count("\\"):
                at_line_start = True
    return tokens


_OPENER = {")": "(", "]": "[", "}": "{"}


def _match_brackets(toks: list[Token]) -> list[int | None]:
    """Index of the token closing the bracket opened at each position, or
    None.  Each bracket type is matched on its own stack, blind to the
    other two, so an unbalanced ``(`` never disturbs ``{}`` matching."""
    closing: list[int | None] = [None] * len(toks)
    open_at: dict[str, list[int]] = {"(": [], "[": [], "{": []}
    for i, tok in enumerate(toks):
        if tok.text in open_at:
            open_at[tok.text].append(i)
        elif tok.text in _OPENER:
            stack = open_at[_OPENER[tok.text]]
            if stack:
                closing[stack.pop()] = i
    return closing


def _function_regions(toks: list[Token], closing: list[int | None]) -> list[tuple[int, int]]:
    """(start line, end line) of each top-level ``name(args) {...}`` block
    in the significant tokens ``toks``."""
    regions = []
    depth = 0
    i = 0
    while i < len(toks):
        tok = toks[i]
        if tok.text == "{":
            depth += 1
        elif tok.text == "}":
            depth = max(0, depth - 1)
        elif depth == 0 and tok.cls is _IDENTIFIER and i + 1 < len(toks) and toks[i + 1].text == "(":
            close = closing[i + 1]
            if close is not None and close + 1 < len(toks) and toks[close + 1].text == "{":
                end = closing[close + 1]
                if end is not None:
                    regions.append((tok.line, toks[end].line))
                    # resume at the opening brace so depth tracking sees it
                    i = close
        i += 1
    return regions


class _FileIndex:
    """What slicing reads from one source text, given its significant
    tokens and their bracket matches: the source lines, the identifiers on
    each line and the function region of each line.  Each region's use
    lists and each identifier's reach are built when first asked for."""

    def __init__(self, source: str, sig: list[Token], closing: list[int | None]):
        self.lines = source.split("\n")
        self.line_ids: dict[int, set[str]] = {}
        for tok in sig:
            if tok.cls is _IDENTIFIER:
                self.line_ids.setdefault(tok.line, set()).add(tok.text)
        # a line shared by two regions belongs to the first, as it is found first
        self.region_of: dict[int, tuple[int, int]] = {}
        for start, end in _function_regions(sig, closing):
            for n in range(start, end + 1):
                self.region_of.setdefault(n, (start, end))
        self._uses: dict[tuple[int, int], dict[str, list[int]]] = {}
        self._reach: dict[tuple[tuple[int, int], str], tuple[int, ...]] = {}

    def uses(self, lo: int, hi: int) -> dict[str, list[int]]:
        """Identifier -> the lines in lo..hi that mention it, built once per
        region."""
        uses = self._uses.get((lo, hi))
        if uses is None:
            uses = self._uses[lo, hi] = {}
            for n in range(lo, hi + 1):
                for ident in self.line_ids.get(n, ()):
                    uses.setdefault(ident, []).append(n)
        return uses

    def reach(self, region: tuple[int, int], ident: str) -> tuple[int, ...]:
        """The lines of ``region`` within _DEF_USE_HOPS def-use hops of
        ``ident``, built once per (region, identifier).

        Hop 1 is every line mentioning ``ident``, hop 2 every line
        mentioning an identifier hop 1 added, and so on.  Each hop looks up
        only the identifiers the previous hop added: lines that mention
        older ones are already reached."""
        reached = self._reach.get((region, ident))
        if reached is None:
            uses = self.uses(*region)
            lines: set[int] = set()
            known, added = {ident}, {ident}
            for _ in range(_DEF_USE_HOPS):
                hit = {n for i in added for n in uses.get(i, ())} - lines
                if not hit:
                    break
                lines |= hit
                added = set().union(*(self.line_ids[n] for n in hit)) - known
                known |= added
            # kept as a tuple: a set of a dozen lines takes five times the memory
            reached = self._reach[region, ident] = tuple(lines)
        return reached


_AE_OPS = {"+", "-", "*", "/", "%"}
_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "<<=", ">>=", "&=", "|=", "^="}
# token classes that can end an expression; an operator after one of these
# is in binary position
_OPERAND_END = {TokenClass.IDENTIFIER, TokenClass.NUMBER, TokenClass.STRING, TokenClass.CHAR}


def _is_binary_position(prev: Token | None) -> bool:
    if prev is None:
        return False
    if prev.cls in _OPERAND_END:
        return True
    return prev.text in (")", "]", "++", "--")


def extract_candidates(source: str) -> list[Candidate]:
    """Detect API/AU/PU/AE candidates in token order.  The rules are
    exclusive branches of one test per token, so no two share a token.
    Every candidate holds the one index of ``source`` that build_slice
    reads."""
    toks = lex(source, layout=False)
    closing = _match_brackets(toks)
    idx = _FileIndex(source, toks, closing)
    found: list[Candidate] = []

    bracket_depth = 0
    # per line, so far: the first identifier of the current statement, and
    # whether an assignment was seen and the first identifier of its statement
    line, stmt_first, assigned, assign_focus = 0, None, False, None
    for i, tok in enumerate(toks):
        prev = toks[i - 1] if i > 0 else None
        nxt = toks[i + 1] if i + 1 < len(toks) else None

        if tok.line != line:
            line, stmt_first, assigned = tok.line, None, False
        if tok.text == ";":
            stmt_first = None
        elif tok.cls is _IDENTIFIER and stmt_first is None:
            stmt_first = tok.text
        elif tok.cls is _OPERATOR and tok.text in _ASSIGN_OPS:
            assigned, assign_focus = True, stmt_first

        if tok.text == "[":
            bracket_depth += 1
        elif tok.text == "]":
            bracket_depth = max(0, bracket_depth - 1)

        if tok.cls is _IDENTIFIER and nxt is not None:
            if nxt.text == "(" and tok.text in DEFAULT_API_LIST:
                kind = Kind.API
            elif nxt.text == "[":
                kind = Kind.AU
            else:
                continue
            close = closing[i + 1]
            end_line = toks[close].line if close is not None else tok.line
            found.append(Candidate(kind, tok.line, tok.text, (tok.line, end_line), idx))

        elif tok.cls is _OPERATOR:
            if tok.text == "->" and prev is not None and prev.cls is _IDENTIFIER:
                found.append(Candidate(Kind.PU, tok.line, prev.text, (tok.line, tok.line), idx))
            elif tok.text == "*" and not _is_binary_position(prev):
                # dereference or pointer declarator; collapse a ** run to
                # one candidate at the first star
                if prev is not None and prev.text == "*":
                    continue
                j = i
                while j < len(toks) and toks[j].text == "*":
                    j += 1
                if j < len(toks) and toks[j].cls is _IDENTIFIER:
                    found.append(Candidate(Kind.PU, tok.line, toks[j].text,
                                           (tok.line, tok.line), idx))
            elif (
                tok.text in _AE_OPS
                and bracket_depth == 0
                and prev is not None
                and prev.cls in (_IDENTIFIER, _NUMBER)
                and nxt is not None
                and nxt.cls in (_IDENTIFIER, _NUMBER)
            ):
                # the assigned variable when the line has an assignment before
                # the operator, else the nearest identifier operand on its line
                focus = assign_focus if assigned else next(
                    (t.text for t in (prev, nxt)
                     if t.cls is _IDENTIFIER and t.line == tok.line), None)
                if focus is not None:
                    found.append(Candidate(Kind.AE, tok.line, focus, (tok.line, tok.line), idx))

    return found


def build_slice(candidate: Candidate) -> str:
    """Assemble the candidate line plus def-use-related lines of the file
    ``extract_candidates`` found it in, in order.

    Related lines are found by identifier sharing: hop 1 pulls in every
    line mentioning an identifier on the candidate line, hop 2 every line
    mentioning an identifier hop 1 added, and so on up to _DEF_USE_HOPS.
    The result is truncated to _MAX_SLICE_LINES lines centered on the
    candidate line.
    """
    idx = candidate.file
    lines = idx.lines
    if not 1 <= candidate.line <= len(lines):
        raise ValueError(f"candidate line {candidate.line} out of range 1..{len(lines)}")
    region = idx.region_of.get(candidate.line, (1, len(lines)))

    # the lines within reach of a set of identifiers are the union of those
    # within reach of each: here the focus and everything on its line
    selected = {candidate.line, *idx.reach(region, candidate.focus)}
    for ident in idx.line_ids.get(candidate.line, ()):
        selected.update(idx.reach(region, ident))

    ordered = sorted(selected)
    if len(ordered) > _MAX_SLICE_LINES:
        center = ordered.index(candidate.line)
        start = min(max(center - (_MAX_SLICE_LINES - 1) // 2, 0),
                    len(ordered) - _MAX_SLICE_LINES)
        ordered = ordered[start:start + _MAX_SLICE_LINES]
    return "\n".join(lines[n - 1] for n in ordered)
