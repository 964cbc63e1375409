"""C/C++ lexer, vulnerability-candidate detection, and lightweight slicing.

The lexer is lossless: concatenating the text of every token (whitespace
and comments included) reproduces the input exactly.  Candidate detection
runs over the token stream with four rules:

* API -- an identifier from the risky-API list immediately followed by ``(``.
* AU  -- an identifier immediately followed by ``[`` (subscript or array
  declarator).
* PU  -- unary ``*`` applied to an identifier (dereference or pointer
  declarator), or an ``->`` member access.
* AE  -- a binary ``+ - * / %`` whose neighboring operands are identifiers
  or numbers, outside array subscripts.

Slicing is an intra-procedural identifier-sharing approximation: starting
from the candidate's focus identifier, lines are pulled in for a bounded
number of def-use hops.  This is a declared stand-in for dependence-graph
slicing, good enough to produce realistic classifier inputs.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from .corpus import Kind
from .errors import LexError, read_utf8


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


@dataclass(frozen=True, slots=True)
class Token:
    text: str
    cls: TokenClass
    line: int
    column: int


C_KEYWORDS = frozenset(
    """
    auto break case char const continue default do double else enum extern
    float for goto if inline int long register restrict return short signed
    sizeof static struct switch typedef union unsigned void volatile while
    _Bool _Complex _Imaginary bool true false class namespace new delete
    template typename using public private protected virtual operator this
    """.split()
)

# Classic risky C library functions; the API candidate rule matches calls
# to these names.  User-overridable via SliceConfig / load_api_list.
DEFAULT_API_LIST = frozenset(
    """
    strcpy strncpy strcat strncat sprintf vsprintf snprintf gets fgets
    memcpy memmove memset bcopy bzero alloca scanf sscanf fscanf vscanf
    vsscanf vfscanf getwd realpath strtok strlen printf fprintf vprintf
    malloc calloc realloc free system popen execl execlp execle execv
    execvp execve atoi atol getenv read recv recvfrom setbuf getchar
    """.split()
)


def load_api_list(path: str | Path) -> frozenset[str]:
    """Read a risky-function list: one name per line, '#' starts a comment."""
    names = []
    for raw in read_utf8(path).splitlines():
        name = raw.split("#", 1)[0].strip()
        if name:
            names.append(name)
    return frozenset(names)


@dataclass(frozen=True)
class SliceConfig:
    api_list: frozenset[str] = DEFAULT_API_LIST
    max_slice_lines: int = 30
    def_use_hops: int = 2

    def __post_init__(self):
        if self.max_slice_lines < 1:
            raise ValueError("max_slice_lines must be >= 1")
        if self.def_use_hops < 0:
            raise ValueError("def_use_hops must be >= 0")


@dataclass(frozen=True, slots=True)
class Candidate:
    kind: Kind
    line: int
    focus: str
    span: tuple[int, int]
    column: int = field(default=0, compare=False)


# Longest-match-first token table.  A directive consumes the whole logical
# line including backslash continuations; it only fires at line start,
# which the lexer enforces before using the match.
_TOKEN_RE = re.compile(
    r"""
    (?P<directive>\#(?:[^\n\\]|\\\r?\n|\\.)*)
  | (?P<comment>//[^\n]*|/\*(?:[^*]|\*(?!/))*\*/)
  | (?P<string>"(?:\\.|[^"\\\n])*")
  | (?P<char>'(?:\\.|[^'\\\n])+')
  | (?P<number>(?:0[xX][0-9a-fA-F]+|(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)[uUlLfF]*)
  | (?P<identifier>[A-Za-z_]\w*)
  | (?P<operator><<=|>>=|\.\.\.|->|\+\+|--|<<|>>|<=|>=|==|!=|&&|\|\||\+=|-=|\*=|/=|%=|&=|\|=|\^=|[-+*/%=<>!&|^~?.:])
  | (?P<punctuation>[()\[\]{};,])
  | (?P<whitespace>\s+)
    """,
    re.VERBOSE,
)

_GROUP_CLS = {
    "directive": TokenClass.DIRECTIVE,
    "comment": TokenClass.COMMENT,
    "string": TokenClass.STRING,
    "char": TokenClass.CHAR,
    "number": TokenClass.NUMBER,
    "identifier": TokenClass.IDENTIFIER,
    "operator": TokenClass.OPERATOR,
    "punctuation": TokenClass.PUNCTUATION,
    "whitespace": TokenClass.WHITESPACE,
}


def lex(source: str) -> list[Token]:
    """Tokenize C/C++ source losslessly; raises LexError with a line number."""
    tokens: list[Token] = []
    pos = 0
    line = 1
    col = 1
    at_line_start = True  # only whitespace seen since the last newline
    n = len(source)
    while pos < n:
        # the regex would fall through to '/' '*' operators here
        if source.startswith("/*", pos) and source.find("*/", pos + 2) == -1:
            raise LexError("unterminated block comment", line)
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            ch = source[pos]
            if ch == '"':
                raise LexError("unterminated string literal", line)
            if ch == "'":
                raise LexError("unterminated character literal", line)
            raise LexError(f"unexpected character {ch!r}", line)
        if m.lastgroup == "directive" and not at_line_start:
            raise LexError("unexpected character '#'", line)
        text = m.group()
        cls = _GROUP_CLS[m.lastgroup]
        if cls is TokenClass.IDENTIFIER and text in C_KEYWORDS:
            cls = TokenClass.KEYWORD
        tokens.append(Token(text, cls, line, col))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            col = len(text) - text.rfind("\n")
            at_line_start = cls is TokenClass.WHITESPACE
        else:
            col += len(text)
            if cls is not TokenClass.WHITESPACE:
                at_line_start = False
        pos = m.end()
    return tokens


_INSIGNIFICANT = {TokenClass.WHITESPACE, TokenClass.COMMENT, TokenClass.DIRECTIVE}


def significant(tokens: list[Token]) -> list[Token]:
    """Drop whitespace, comments, and preprocessor directives."""
    return [t for t in tokens if t.cls not in _INSIGNIFICANT]


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
        elif depth == 0 and tok.cls is TokenClass.IDENTIFIER and i + 1 < len(toks) and toks[i + 1].text == "(":
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
    """What candidate detection and slicing read from one source text,
    built from a single ``lex``: the significant tokens, their bracket
    matches, the source lines, the identifiers on each line and the
    function region of each line."""

    def __init__(self, source: str):
        tokens = lex(source)
        self.sig = significant(tokens)
        self.closing = _match_brackets(self.sig)
        self.lines = source.split("\n")
        self.line_ids: dict[int, set[str]] = {}
        for tok in tokens:
            if tok.cls is TokenClass.IDENTIFIER:
                self.line_ids.setdefault(tok.line, set()).add(tok.text)
        # a line shared by two regions belongs to the first, as it is found first
        self.region_of: dict[int, tuple[int, int]] = {}
        for start, end in _function_regions(self.sig, self.closing):
            for n in range(start, end + 1):
                self.region_of.setdefault(n, (start, end))
        self._uses: dict[tuple[int, int], dict[str, list[int]]] = {}

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


@functools.lru_cache(maxsize=1)
def _index(source: str) -> _FileIndex:
    """The index of the last file seen: extract_candidates followed by
    build_slice for each candidate lexes the file once."""
    return _FileIndex(source)


_AE_OPS = {"+", "-", "*", "/", "%"}
_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "<<=", ">>=", "&=", "|=", "^="}
# token classes that can end an expression; an operator after one of these
# is in binary position
_OPERAND_END = {TokenClass.IDENTIFIER, TokenClass.NUMBER, TokenClass.STRING, TokenClass.CHAR}
_KIND_PRECEDENCE = {Kind.API: 0, Kind.AU: 1, Kind.PU: 2, Kind.AE: 3}


def _is_binary_position(prev: Token | None) -> bool:
    if prev is None:
        return False
    if prev.cls in _OPERAND_END:
        return True
    return prev.text in (")", "]", "++", "--")


def extract_candidates(source: str, cfg: SliceConfig | None = None) -> list[Candidate]:
    """Detect API/AU/PU/AE candidate sites in the token stream.

    Each site yields at most one candidate; when two rules claim the same
    (line, column) the precedence API > AU > PU > AE wins.  Output is
    sorted by (line, column).
    """
    cfg = cfg or SliceConfig()
    idx = _index(source)
    toks = idx.sig
    found: dict[tuple[int, int], Candidate] = {}

    def claim(kind: Kind, tok: Token, focus: str, span: tuple[int, int]):
        site = (tok.line, tok.column)
        cand = Candidate(kind=kind, line=tok.line, focus=focus, span=span, column=tok.column)
        held = found.get(site)
        if held is None or _KIND_PRECEDENCE[kind] < _KIND_PRECEDENCE[held.kind]:
            found[site] = cand

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
        elif tok.cls is TokenClass.IDENTIFIER and stmt_first is None:
            stmt_first = tok.text
        elif tok.cls is TokenClass.OPERATOR and tok.text in _ASSIGN_OPS:
            assigned, assign_focus = True, stmt_first

        if tok.text == "[":
            bracket_depth += 1
        elif tok.text == "]":
            bracket_depth = max(0, bracket_depth - 1)

        if tok.cls is TokenClass.IDENTIFIER and nxt is not None:
            if nxt.text == "(" and tok.text in cfg.api_list:
                close = idx.closing[i + 1]
                end_line = toks[close].line if close is not None else tok.line
                claim(Kind.API, tok, tok.text, (tok.line, end_line))
            elif nxt.text == "[":
                close = idx.closing[i + 1]
                end_line = toks[close].line if close is not None else tok.line
                claim(Kind.AU, tok, tok.text, (tok.line, end_line))

        elif tok.cls is TokenClass.OPERATOR:
            if tok.text == "->" and prev is not None and prev.cls is TokenClass.IDENTIFIER:
                claim(Kind.PU, tok, prev.text, (tok.line, tok.line))
            elif tok.text == "*" and not _is_binary_position(prev):
                # dereference or pointer declarator; collapse a ** run to
                # one candidate at the first star
                if prev is not None and prev.text == "*":
                    continue
                j = i
                while j < len(toks) and toks[j].text == "*":
                    j += 1
                if j < len(toks) and toks[j].cls is TokenClass.IDENTIFIER:
                    claim(Kind.PU, tok, toks[j].text, (tok.line, tok.line))
            elif (
                tok.text in _AE_OPS
                and bracket_depth == 0
                and _is_binary_position(prev)
                and prev is not None
                and prev.cls in (TokenClass.IDENTIFIER, TokenClass.NUMBER)
                and nxt is not None
                and nxt.cls in (TokenClass.IDENTIFIER, TokenClass.NUMBER)
            ):
                # the assigned variable when the line has an assignment before
                # the operator, else the nearest identifier operand on its line
                focus = assign_focus if assigned else next(
                    (t.text for t in (prev, nxt)
                     if t.cls is TokenClass.IDENTIFIER and t.line == tok.line), None)
                if focus is not None:
                    claim(Kind.AE, tok, focus, (tok.line, tok.line))

    return sorted(found.values(), key=lambda c: (c.line, c.column))


def build_slice(source: str, candidate: Candidate, cfg: SliceConfig | None = None) -> str:
    """Assemble the candidate line plus def-use-related lines, in order.

    Related lines are found by identifier sharing: hop 1 pulls in every
    identifier on a line mentioning the focus, hop 2 expands once more,
    and so on up to cfg.def_use_hops.  The result is truncated to
    cfg.max_slice_lines lines centered on the candidate line.
    """
    cfg = cfg or SliceConfig()
    idx = _index(source)
    lines = idx.lines
    if not 1 <= candidate.line <= len(lines):
        raise ValueError(f"candidate line {candidate.line} out of range 1..{len(lines)}")
    uses = idx.uses(*idx.region_of.get(candidate.line, (1, len(lines))))

    # hop 0: the focus plus everything co-located with it on its line.  Each
    # hop looks up only the identifiers the previous hop added: lines that
    # mention older ones are already selected.
    reachable = {candidate.focus} | idx.line_ids.get(candidate.line, set())
    selected = {candidate.line}
    added = reachable
    for _ in range(cfg.def_use_hops):
        hit = {n for ident in added for n in uses.get(ident, ())} - selected
        if not hit:
            break
        selected |= hit
        added = set().union(*(idx.line_ids[n] for n in hit)) - reachable
        reachable |= added

    ordered = sorted(selected)
    if len(ordered) > cfg.max_slice_lines:
        center = ordered.index(candidate.line)
        start = min(max(center - (cfg.max_slice_lines - 1) // 2, 0),
                    len(ordered) - cfg.max_slice_lines)
        ordered = ordered[start:start + cfg.max_slice_lines]
    return "\n".join(lines[n - 1] for n in ordered)
