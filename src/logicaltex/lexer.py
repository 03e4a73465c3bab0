"""Lossless LaTeX tokenizer and block-structure parser.

The tokenizer never fails and never alters bytes: concatenating the
lexemes of the emitted tokens reproduces the input exactly.  Structural
problems (unbalanced groups, mismatched environments, unterminated math)
surface as diagnostics on the block tree, never as exceptions.

Category codes are fixed to the standard ones; ``\\catcode`` changes are
not interpreted and macros are never expanded.
"""

from __future__ import annotations

import re
from collections import namedtuple
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Iterator, NamedTuple, Union

# One token per match; the alternatives tile any input.  A text run is
# ordinary characters, with spaces and tabs between them belonging to the
# run; whitespace at a boundary is its own token.  The classes are spelled
# out because ``\s`` is wider than TeX's blanks (space, tab, CR, LF, FF).
_TOKEN = re.compile(
    r"(?P<text>[^\\{}$&~^_#% \t\r\n\x0c]+(?:[ \t]+[^\\{}$&~^_#% \t\r\n\x0c]+)*)"
    r"|(?P<blank>[ \t\r\n\x0c]+)"
    r"|(?P<word>\\[A-Za-z]+)"
    r"|(?P<symbol>\\(?s:.)?)"
    r"|(?P<begin_group>\{)"
    r"|(?P<end_group>\})"
    r"|(?P<math_shift>\$)"
    r"|(?P<alignment>&)"
    r"|(?P<active_char>[~^_])"
    r"|(?P<comment>%[^\n]*)"
    r"|(?P<parameter>\#)"
)

# What may stand between \begin or \end and its {name}: the blanks and
# comments the tree builder skips there.  A blank run that is a paragraph
# break (two LF, or two CR without an LF) ends the search for a name.
_BLANK_RUN = r"(?:[ \t\x0c\r]*\n[ \t\x0c\r]*|[ \t\x0c]*(?:\r[ \t\x0c]*)?)"
_BEFORE_NAME = r"(?:" + _BLANK_RUN + r"%[^\n]*(?=\n))*" + _BLANK_RUN

# Environments whose whole extent is treated as an opaque math region.
MATH_ENVIRONMENTS = frozenset({
    "equation", "align", "gather", "multline", "eqnarray",
    "displaymath", "math", "alignat",
})

# Environments captured verbatim: their body is a single opaque text token
# and is excluded from all downstream pattern detection, like math.
VERBATIM_ENVIRONMENTS = ("verbatim", "Verbatim", "lstlisting", "minted", "alltt")

_VERBATIM_BEGIN = re.compile(
    r"\\begin" + _BEFORE_NAME + r"\{\s*(" + "|".join(VERBATIM_ENVIRONMENTS) + r")(\*?)\s*\}"
)


class Span(namedtuple("Span", "start end")):
    """Half-open offset range [start, end) into the decoded source text.

    Offsets index the decoded text; when the input arrived as bytes it
    was decoded with UTF-8/surrogateescape, so re-encoding reproduces the
    original bytes.  ``TokenStream.line_of`` turns an offset into a line
    number where a report prints one.  A span is a tuple, so it equals
    the plain pair ``(start, end)``.
    """

    __slots__ = ()

    def __new__(cls, start: int, end: int):
        if start > end:
            raise ValueError(f"span start {start} > end {end}")
        return tuple.__new__(cls, (start, end))

    @property
    def length(self) -> int:
        return self.end - self.start

    def contains(self, offset: int) -> bool:
        return self.start <= offset < self.end

    def contains_span(self, other: "Span") -> bool:
        return self.start <= other.start and other.end <= self.end

    def intersects(self, other: "Span") -> bool:
        return self.start < other.end and other.start < self.end


class TokenKind(Enum):
    CONTROL_WORD = "control-word"
    CONTROL_SYMBOL = "control-symbol"
    BEGIN_GROUP = "begin-group"
    END_GROUP = "end-group"
    MATH_SHIFT = "math-shift"
    ALIGNMENT = "alignment"
    PARAMETER = "parameter"
    COMMENT = "comment"
    PAR_BREAK = "par-break"
    WHITESPACE = "whitespace"
    TEXT = "text"
    ACTIVE_CHAR = "active-char"

    # Members are singletons that compare by identity, so the identity
    # hash serves; Enum's own hashes the name in Python code, which would
    # dominate a test of a kind's membership in a set.
    __hash__ = object.__hash__


class Token(NamedTuple):
    kind: TokenKind
    span: Span
    value: str | None = None

    def is_control_word(self, *names: str) -> bool:
        return self.kind is TokenKind.CONTROL_WORD and self.value in names


@dataclass
class TokenStream:
    """Token sequence plus the decoded source it tiles exactly."""

    source: str
    tokens: list[Token]
    verbatim_spans: list[Span] = field(default_factory=list)

    def lexeme(self, token: Token) -> str:
        return self.source[token.span.start:token.span.end]

    def text(self, span: Span) -> str:
        return self.source[span.start:span.end]

    def line_of(self, offset: int) -> int:
        """1-based line number of ``offset``."""
        return self.source.count("\n", 0, offset) + 1

    def reassemble(self) -> str:
        return "".join(self.lexeme(t) for t in self.tokens)

    def __iter__(self) -> Iterator[Token]:
        return iter(self.tokens)


def decode_source(source: str | bytes) -> str:
    """Decode input bytes without ever losing information.

    Arbitrary byte values survive via surrogateescape and are restored
    exactly by ``encode_source``.
    """
    if isinstance(source, bytes):
        return source.decode("utf-8", errors="surrogateescape")
    return source


def encode_source(text: str) -> bytes:
    return text.encode("utf-8", errors="surrogateescape")


# Old sources are often Latin-1; their high bytes surface as lone
# surrogates after the tolerant decode.  For *analysis* (never for
# output) map the printable range back to the Latin-1 characters.
_LATIN1_FALLBACK = {cp: cp - 0xDC00 for cp in range(0xDCA0, 0xDD00)}


def latin1_fallback(text: str) -> str:
    return text.translate(_LATIN1_FALLBACK)


# The kind of each group of ``_TOKEN``'s tokens; a blank run of two line
# ends is a paragraph break instead.
_GROUP_KINDS = {
    "text": TokenKind.TEXT,
    "blank": TokenKind.WHITESPACE,
    "word": TokenKind.CONTROL_WORD,
    "symbol": TokenKind.CONTROL_SYMBOL,
    "begin_group": TokenKind.BEGIN_GROUP,
    "end_group": TokenKind.END_GROUP,
    "math_shift": TokenKind.MATH_SHIFT,
    "alignment": TokenKind.ALIGNMENT,
    "active_char": TokenKind.ACTIVE_CHAR,
    "comment": TokenKind.COMMENT,
    "parameter": TokenKind.PARAMETER,
}


class _Scanner:
    def __init__(self, source: str):
        self.s = source
        self.tokens: list[Token] = []
        self.verbatim_spans: list[Span] = []

    def run(self) -> TokenStream:
        self._scan(0, len(self.s))
        return TokenStream(self.s, self.tokens, self.verbatim_spans)

    def _scan(self, pos: int, endpos: int):
        """Tokenize ``s[pos:endpos]``.  A construct that reads past its
        own match (a parameter digit, ``\\verb``, a verbatim environment)
        restarts the match loop after it."""
        s = self.s
        add = self.tokens.append
        kinds = _GROUP_KINDS
        # A match's offsets are ordered, so its records skip Span's check.
        new = tuple.__new__
        while pos < endpos:
            for m in _TOKEN.finditer(s, pos, endpos):
                group = m.lastgroup
                kind = kinds[group]
                span = new(Span, m.span())
                if group == "text" or group == "comment" or group == "active_char":
                    add(new(Token, (kind, span, m.group())))
                elif group == "blank":
                    start, end = m.span()
                    if (s.count("\n", start, end) or s.count("\r", start, end)) >= 2:
                        kind = TokenKind.PAR_BREAK
                    add(new(Token, (kind, span, None)))
                elif group == "word":
                    name = m.group()[1:]
                    add(new(Token, (kind, span, name)))
                    if name == "begin":
                        verbatim = _VERBATIM_BEGIN.match(s, span.start)
                        if verbatim:
                            pos = self._verbatim_environment(span.start, span.end, verbatim)
                            break
                    elif name == "verb":
                        pos = self._verb_argument(span.start, span.end)
                        break
                elif group == "symbol":
                    add(new(Token, (kind, span, m.group()[1:])))
                elif group == "parameter" and span.end < endpos and s[span.end].isdigit():
                    pos = span.end + 1
                    add(Token(kind, Span(span.start, pos), s[span.end]))
                    break
                else:
                    add(new(Token, (kind, span, None)))
            else:
                return

    def _verb_argument(self, cmd_start: int, arg_start: int) -> int:
        # \verb<delim>...<delim> (or \verb* form); the delimited body is one
        # opaque text token, never scanned for specials.
        s, n = self.s, len(self.s)
        k = arg_start
        if k < n and s[k] == "*":
            k += 1
        if k >= n or s[k] == "\n":
            return arg_start
        delim = s[k]
        close = s.find(delim, k + 1)
        eol = s.find("\n", k + 1)
        if eol == -1:
            eol = n
        if close == -1 or close > eol:
            end = eol
        else:
            end = close + 1
        self.tokens.append(Token(TokenKind.TEXT, Span(arg_start, end), s[arg_start:end]))
        self.verbatim_spans.append(Span(cmd_start, end))
        return end

    def _verbatim_environment(self, construct_start: int, name_start: int,
                              begin_match: re.Match) -> int:
        # Scan the {name} part normally, then swallow everything up to the
        # matching \end{name} as one opaque text token.
        s, n = self.s, len(self.s)
        name = begin_match.group(1) + begin_match.group(2)
        body_start = begin_match.end()
        self._scan(name_start, body_start)
        end_re = re.compile(r"\\end" + _BEFORE_NAME + r"\{\s*" + re.escape(name) + r"\s*\}")
        m = end_re.search(s, body_start)
        body_end = m.start() if m else n
        if body_end > body_start:
            self.tokens.append(Token(TokenKind.TEXT, Span(body_start, body_end),
                                     s[body_start:body_end]))
        self.verbatim_spans.append(Span(construct_start, m.end() if m else n))
        return body_end


def tokenize(source: str | bytes) -> TokenStream:
    """Tokenize LaTeX source losslessly.

    Total and deterministic: any byte sequence yields a stream whose
    concatenated lexemes reproduce the input exactly.
    """
    return _Scanner(decode_source(source)).run()


# ---------------------------------------------------------------------------
# Block tree
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class GroupNode:
    children: list["Node"]
    span: Span
    inner: Span


@dataclass(slots=True)
class EnvNode:
    name: str
    children: list["Node"]
    span: Span
    inner: Span


@dataclass(slots=True)
class MathNode:
    kind: str  # "inline" or "display"
    span: Span


Node = Union[Token, GroupNode, EnvNode, MathNode]


@dataclass(frozen=True)
class Diagnostic:
    kind: str
    detail: str
    span: Span

    def key(self) -> tuple[str, str]:
        """Position-independent identity, for before/after comparison."""
        return (self.kind, self.detail)


@dataclass
class BlockTree:
    nodes: list[Node]
    diagnostics: list[Diagnostic]
    stream: TokenStream


class _Frame(NamedTuple):
    kind: str  # "group" or "env"
    name: str | None
    start: int
    inner_start: int
    children: list[Node]


def _env_name(stream: TokenStream, i: int) -> tuple[str, int, int] | None:
    """Read the {name} after a \\begin/\\end token at index ``i``.

    Returns (name, index of the closing brace token, offset after it),
    or None when no well-formed name group follows.
    """
    toks = stream.tokens
    j = i + 1
    while j < len(toks) and toks[j].kind in (TokenKind.WHITESPACE, TokenKind.COMMENT):
        j += 1
    if j >= len(toks) or toks[j].kind is not TokenKind.BEGIN_GROUP:
        return None
    parts = []
    k = j + 1
    while k < len(toks):
        t = toks[k]
        if t.kind is TokenKind.END_GROUP:
            return ("".join(parts).strip(), k, t.span.end)
        if t.kind is TokenKind.BEGIN_GROUP:
            return None
        parts.append(stream.lexeme(t))
        k += 1
    return None


class _TreeBuilder:
    def __init__(self, stream: TokenStream):
        self.stream = stream
        self.toks = stream.tokens
        self.diags: list[Diagnostic] = []
        self.root: list[Node] = []
        self.stack: list[_Frame] = []

    def sink(self) -> list[Node]:
        return self.stack[-1].children if self.stack else self.root

    def build(self) -> BlockTree:
        toks = self.toks
        root = self.root
        stack = self.stack
        n = len(toks)
        # Loading an Enum member through its class costs more than the
        # rest of a plain token's handling, so the kinds are locals.
        CONTROL_WORD = TokenKind.CONTROL_WORD
        CONTROL_SYMBOL = TokenKind.CONTROL_SYMBOL
        BEGIN_GROUP = TokenKind.BEGIN_GROUP
        END_GROUP = TokenKind.END_GROUP
        MATH_SHIFT = TokenKind.MATH_SHIFT
        # A group's closing brace follows its opening one, so its spans
        # skip Span's check; its frame is built the same way.
        new = tuple.__new__
        sink = root  # the children of the innermost open frame
        i = 0
        while i < n:
            t = toks[i]
            k = t.kind
            if k is CONTROL_WORD:
                if t.value == "begin":
                    i = self._begin(i)
                    sink = self.sink()
                elif t.value == "end":
                    i = self._end(i)
                    sink = self.sink()
                else:
                    sink.append(t)
                    i += 1
            elif k is BEGIN_GROUP:
                start, end = t.span
                sink = []
                stack.append(new(_Frame, ("group", None, start, end, sink)))
                i += 1
            elif k is END_GROUP:
                if stack and stack[-1].kind == "group":
                    f = stack.pop()
                    sink = stack[-1].children if stack else root
                    start, end = t.span
                    sink.append(GroupNode(f.children, new(Span, (f.start, end)),
                                          new(Span, (f.inner_start, start))))
                else:
                    self.diags.append(Diagnostic("unmatched-end-group", "", t.span))
                    sink.append(t)
                i += 1
            elif k is MATH_SHIFT:
                i = self._dollar_math(i)
            elif k is CONTROL_SYMBOL and t.value in "([":
                i = self._bracket_math(i)
            elif k is CONTROL_SYMBOL and t.value in ")]":
                self.diags.append(Diagnostic("math-close-without-open", t.value or "", t.span))
                sink.append(t)
                i += 1
            else:
                sink.append(t)
                i += 1
        self._unwind(len(self.stream.source))
        return BlockTree(self.root, self.diags, self.stream)

    def _unwind(self, eof: int):
        while self.stack:
            f = self.stack.pop()
            span = Span(f.start, eof)
            inner = Span(f.inner_start, eof)
            if f.kind == "group":
                self.diags.append(Diagnostic("unclosed-group", "", Span(f.start, f.start + 1)))
                self.sink().append(GroupNode(f.children, span, inner))
            else:
                self.diags.append(Diagnostic("unclosed-environment", f.name or "", Span(f.start, f.start + 1)))
                self.sink().append(EnvNode(f.name or "", f.children, span, inner))

    def _dollar_math(self, i: int) -> int:
        toks, n = self.toks, len(self.toks)
        open_tok = toks[i]
        display = (
            i + 1 < n
            and toks[i + 1].kind is TokenKind.MATH_SHIFT
            and toks[i + 1].span.start == open_tok.span.end
        )
        j = i + 2 if display else i + 1
        close_end = None
        while j < n:
            t = toks[j]
            if t.kind is TokenKind.PAR_BREAK:
                break
            if t.kind is TokenKind.MATH_SHIFT:
                if display:
                    if (
                        j + 1 < n
                        and toks[j + 1].kind is TokenKind.MATH_SHIFT
                        and toks[j + 1].span.start == t.span.end
                    ):
                        close_end = toks[j + 1].span.end
                        j += 2
                        break
                else:
                    close_end = t.span.end
                    j += 1
                    break
            j += 1
        kind = "display" if display else "inline"
        if close_end is None:
            end = toks[j].span.start if j < n else len(self.stream.source)
            self.diags.append(Diagnostic("unterminated-math", kind, Span(open_tok.span.start, end)))
            self.sink().append(MathNode(kind, Span(open_tok.span.start, end)))
            return j
        self.sink().append(MathNode(kind, Span(open_tok.span.start, close_end)))
        return j

    def _bracket_math(self, i: int) -> int:
        toks, n = self.toks, len(self.toks)
        open_tok = toks[i]
        closing = ")" if open_tok.value == "(" else "]"
        kind = "inline" if open_tok.value == "(" else "display"
        j = i + 1
        close_end = None
        while j < n:
            t = toks[j]
            if t.kind is TokenKind.PAR_BREAK:
                break
            if t.kind is TokenKind.CONTROL_SYMBOL and t.value == closing:
                close_end = t.span.end
                j += 1
                break
            j += 1
        if close_end is None:
            end = toks[j].span.start if j < n else len(self.stream.source)
            self.diags.append(Diagnostic("unterminated-math", kind, Span(open_tok.span.start, end)))
            self.sink().append(MathNode(kind, Span(open_tok.span.start, end)))
            return j
        self.sink().append(MathNode(kind, Span(open_tok.span.start, close_end)))
        return j

    def _begin(self, i: int) -> int:
        t = self.toks[i]
        named = _env_name(self.stream, i)
        if named is None:
            self.sink().append(t)
            return i + 1
        name, name_idx, after = named
        if name.rstrip("*") in MATH_ENVIRONMENTS:
            return self._math_environment(i, name, name_idx)
        self.stack.append(_Frame("env", name, t.span.start, after, []))
        return name_idx + 1

    def _math_environment(self, i: int, name: str, name_idx: int) -> int:
        toks, n = self.toks, len(self.toks)
        start = toks[i].span.start
        j = name_idx + 1
        while j < n:
            if toks[j].is_control_word("end"):
                named = _env_name(self.stream, j)
                if named is not None and named[0] == name:
                    self.sink().append(MathNode("display", Span(start, named[2])))
                    return named[1] + 1
            j += 1
        end = len(self.stream.source)
        self.diags.append(Diagnostic("unclosed-environment", name, Span(start, start + 1)))
        self.sink().append(MathNode("display", Span(start, end)))
        return n

    def _end(self, i: int) -> int:
        t = self.toks[i]
        named = _env_name(self.stream, i)
        if named is None:
            self.sink().append(t)
            return i + 1
        name, name_idx, after = named
        depth = None
        for d in range(len(self.stack) - 1, -1, -1):
            if self.stack[d].kind == "env" and self.stack[d].name == name:
                depth = d
                break
        if depth is None:
            self.diags.append(Diagnostic("end-without-begin", name, t.span))
            self.sink().extend(self.toks[i:name_idx + 1])
            return name_idx + 1
        while len(self.stack) - 1 > depth:
            f = self.stack.pop()
            span = Span(f.start, t.span.start)
            inner = Span(f.inner_start, t.span.start)
            if f.kind == "group":
                self.diags.append(Diagnostic("group-crosses-boundary", name, Span(f.start, f.start + 1)))
                self.sink().append(GroupNode(f.children, span, inner))
            else:
                self.diags.append(Diagnostic("unclosed-environment", f.name or "", Span(f.start, f.start + 1)))
                self.sink().append(EnvNode(f.name or "", f.children, span, inner))
        f = self.stack.pop()
        self.sink().append(EnvNode(
            name,
            f.children,
            Span(f.start, after),
            Span(f.inner_start, t.span.start),
        ))
        return name_idx + 1


def build_tree(stream: TokenStream) -> BlockTree:
    """Build the nested group/environment tree; problems become diagnostics."""
    return _TreeBuilder(stream).build()


def parse(source: str | bytes) -> BlockTree:
    """Tokenize and build the tree in one step.

    The last two trees are reused for the same decoded text, which is
    safe because no stage mutates a tree it is given."""
    return _parse_text(decode_source(source))


@lru_cache(maxsize=2)
def _parse_text(text: str) -> BlockTree:
    return build_tree(tokenize(text))


def walk(nodes: list[Node]) -> Iterator[Node]:
    """Yield every node in document order, depth first.

    The open child lists are an explicit stack, so any depth is walked
    and each node costs the same wherever it sits."""
    pending = [iter(nodes)]
    while pending:
        for node in pending[-1]:
            yield node
            if isinstance(node, (GroupNode, EnvNode)):
                pending.append(iter(node.children))
                break
        else:
            pending.pop()


def math_spans(tree: BlockTree) -> list[Span]:
    """All math region spans, sorted and non-overlapping."""
    spans = [n.span for n in walk(tree.nodes) if isinstance(n, MathNode)]
    return sorted(spans, key=lambda s: s.start)


def comment_spans(tree: BlockTree) -> list[Span]:
    comment = TokenKind.COMMENT
    return [t.span for t in tree.stream.tokens if t.kind is comment]


def merge_spans(spans: list[Span]) -> list[Span]:
    """Sort and coalesce overlapping or touching spans."""
    out: list[Span] = []
    for s in sorted(spans, key=lambda s: (s.start, s.end)):
        if out and s.start <= out[-1].end:
            if s.end > out[-1].end:
                out[-1] = Span(out[-1].start, s.end)
        else:
            out.append(s)
    return out


def protected_spans(tree: BlockTree) -> list[Span]:
    """Math, verbatim and comment regions: never the target of a rewrite."""
    spans = math_spans(tree) + list(tree.stream.verbatim_spans) + comment_spans(tree)
    return merge_spans(spans)
