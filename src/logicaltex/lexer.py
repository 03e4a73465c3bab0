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
from bisect import bisect_left, bisect_right
from collections import namedtuple
from enum import Enum
from functools import lru_cache
from itertools import accumulate
from typing import NamedTuple, Union

# One token per match; the alternatives tile any input.  A text run is
# ordinary characters, with spaces and tabs between them belonging to the
# run; whitespace at a boundary is its own token.  The classes are spelled
# out because ``\s`` is wider than TeX's blanks (space, tab, CR, LF, FF).
# The pattern captures nothing, so ``findall`` returns the lexemes, and
# each alternative is told apart by its first character.
_TOKEN = re.compile(
    r"[^\\{}$&~^_#% \t\r\n\x0c]+(?:[ \t]+[^\\{}$&~^_#% \t\r\n\x0c]+)*"
    r"|[ \t\r\n\x0c]+"
    r"|\\[A-Za-z]+"
    r"|\\(?s:.)?"
    r"|%[^\n]*"
    r"|[{}$&~^_#]"
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


@lru_cache(maxsize=None)
def _verbatim_end(name: str) -> re.Pattern:
    """The ``\\end{name}`` that closes the verbatim environment ``name``,
    one of ``VERBATIM_ENVIRONMENTS`` with or without its star."""
    return re.compile(r"\\end" + _BEFORE_NAME + r"\{\s*" + re.escape(name) + r"\s*\}")


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
    """One lexeme: its kind, its offsets and, where the kind has one, its
    value (a text run's characters, a control sequence's name)."""

    kind: TokenKind
    start: int
    end: int
    value: str | None = None

    @property
    def span(self) -> Span:
        return Span(self.start, self.end)

    def is_control_word(self, *names: str) -> bool:
        return self.kind is TokenKind.CONTROL_WORD and self.value in names


class TokenStream:
    """Token sequence plus the decoded source it tiles exactly.

    ``structural`` holds, in order, the indices of the tokens the tree
    builder acts on: braces, ``$``, paragraph breaks, ``\\begin``,
    ``\\end`` and the math delimiters ``\\(`` ``\\)`` ``\\[`` ``\\]``;
    ``words`` the indices of the control words, in order."""

    __slots__ = ("source", "tokens", "structural", "words", "verbatim_spans")

    def __init__(self, source: str, tokens: list[Token], structural: list[int],
                 words: list[int], verbatim_spans: list[Span] | None = None):
        self.source = source
        self.tokens = tokens
        self.structural = structural
        self.words = words
        self.verbatim_spans = [] if verbatim_spans is None else verbatim_spans

    def lexeme(self, token: Token) -> str:
        return self.source[token.start:token.end]

    def text(self, span: Span) -> str:
        return self.source[span.start:span.end]

    def line_of(self, offset: int) -> int:
        """1-based line number of ``offset``."""
        return self.source.count("\n", 0, offset) + 1

    def reassemble(self) -> str:
        return "".join(self.lexeme(t) for t in self.tokens)


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
    # No key of the table is ASCII, so ASCII text maps to itself.
    return text if text.isascii() else text.translate(_LATIN1_FALLBACK)


# The characters TeX reads as blanks.  Raw text is trimmed of these only:
# ``str.strip`` also drops characters such as a vertical tab, which the
# lexer reads as text, and with them the line end that closes a comment.
BLANKS = " \t\r\n\x0c"

# The kind of a lexeme by its first character; any other first character
# starts a text run.  A backslash starts a control word when an ASCII
# letter follows it, and a control symbol otherwise.
_FIRST_KINDS = {
    **dict.fromkeys(BLANKS, TokenKind.WHITESPACE),
    "\\": TokenKind.CONTROL_WORD,
    "{": TokenKind.BEGIN_GROUP, "}": TokenKind.END_GROUP, "$": TokenKind.MATH_SHIFT,
    "&": TokenKind.ALIGNMENT, **dict.fromkeys("~^_", TokenKind.ACTIVE_CHAR),
    "%": TokenKind.COMMENT, "#": TokenKind.PARAMETER,
}
_WORD_LETTERS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz")
# The kinds the scanner holds in locals, in the order it unpacks them.
_SCAN_KINDS = (TokenKind.TEXT, TokenKind.WHITESPACE, TokenKind.PAR_BREAK, TokenKind.CONTROL_WORD,
               TokenKind.CONTROL_SYMBOL, TokenKind.PARAMETER, TokenKind.ALIGNMENT)
# Kinds whose every token is structural.
_STRUCTURAL_KINDS = frozenset({TokenKind.BEGIN_GROUP, TokenKind.END_GROUP,
                               TokenKind.MATH_SHIFT})

# The control symbols that open or close math.
_MATH_DELIMITERS = frozenset({"(", "[", ")", "]"})

# The window read after a restart that neither is a lexeme boundary of
# the window it fell in nor falls in one of its text runs.  A window read
# to its end is followed by one twice as large, so the lexemes a restart
# discards never outnumber those read before it by more than a constant
# factor.
_RESTART_WINDOW = 64


class _Scanner:
    def __init__(self, source: str):
        self.s = source
        self.tokens: list[Token] = []
        self.structural: list[int] = []
        self.words: list[int] = []
        self.verbatim_spans: list[Span] = []

    def run(self) -> TokenStream:
        self._scan(0, len(self.s))
        return TokenStream(self.s, self.tokens, self.structural, self.words, self.verbatim_spans)

    def _scan(self, pos: int, endpos: int):
        """Tokenize ``s[pos:endpos]``, one window of lexemes at a time: the
        first window is the whole range, and each lexeme is dispatched on
        its first character.

        A construct that reads past its own lexeme (a parameter digit,
        ``\\verb``, a verbatim environment) restarts the scan where it
        ends.  The scan goes on in the same window when a lexeme of the
        window starts there or the offset falls inside a text run of it,
        and otherwise reads a new window from there."""
        s = self.s
        tokens = self.tokens
        add = tokens.append
        mark = self.structural.append
        word = self.words.append
        findall = _TOKEN.findall
        first = _FIRST_KINDS.get
        letters = _WORD_LETTERS
        structural = _STRUCTURAL_KINDS
        # Loading an Enum member through its class costs more than the
        # rest of a lexeme's handling, so the kinds are locals.
        TEXT, WHITESPACE, PAR_BREAK, BACKSLASH, CONTROL_SYMBOL, PARAMETER, ALIGNMENT = _SCAN_KINDS
        new = tuple.__new__
        window = endpos - pos
        while pos < endpos:
            cut = min(pos + window, endpos)
            lexemes = findall(s, pos, cut)
            if cut < endpos:
                # The cut may shorten the last lexeme, or split a text run
                # whose inner blank reaches it into two; neither is kept.
                del lexemes[-2:]
                if not lexemes:
                    window *= 2
                    continue
            # The lexemes tile the window, so each starts where the one
            # before it ended.
            start = pos
            it = iter(lexemes)
            while True:
                for lex in it:
                    end = start + len(lex)
                    kind = first(lex[0], TEXT)
                    if kind is TEXT:
                        add(new(Token, (TEXT, start, end, lex)))
                    elif kind is WHITESPACE:
                        if end - start > 1 and (lex.count("\n") or lex.count("\r")) >= 2:
                            mark(len(tokens))
                            add(new(Token, (PAR_BREAK, start, end, None)))
                        else:
                            add(new(Token, (WHITESPACE, start, end, None)))
                    elif kind is BACKSLASH:
                        # A backslash at the very end has the empty name.
                        name = lex[1:]
                        if name[:1] not in letters:
                            if name in _MATH_DELIMITERS:
                                mark(len(tokens))
                            add(new(Token, (CONTROL_SYMBOL, start, end, name)))
                        elif name == "begin":
                            mark(len(tokens))
                            word(len(tokens))
                            add(new(Token, (kind, start, end, name)))
                            verbatim = _VERBATIM_BEGIN.match(s, start)
                            if verbatim:
                                restart = self._verbatim_environment(start, end, verbatim)
                                break
                        elif name == "end":
                            mark(len(tokens))
                            word(len(tokens))
                            add(new(Token, (kind, start, end, name)))
                        else:
                            word(len(tokens))
                            add(new(Token, (kind, start, end, name)))
                            if name == "verb":
                                restart = self._verb_argument(start, end)
                                break
                    elif kind in structural:
                        mark(len(tokens))
                        add(new(Token, (kind, start, end, None)))
                    elif kind is PARAMETER and end < endpos and s[end].isdigit():
                        restart = end + 1
                        add(new(Token, (kind, start, restart, s[end])))
                        break
                    elif kind is PARAMETER or kind is ALIGNMENT:
                        add(new(Token, (kind, start, end, None)))
                    else:
                        # A comment or an active character.
                        add(new(Token, (kind, start, end, lex)))
                    start = end
                else:
                    # Every lexeme kept was read: the next window starts
                    # after them and is twice as large.
                    pos = start
                    window *= 2
                    break
                # A restart: skip the window's lexemes before it.
                start = end
                while start < restart and (lex := next(it, None)) is not None:
                    start += len(lex)
                if start == restart:
                    continue
                if restart < start and first(lex[0], TEXT) is TEXT:
                    # The rest of a text run is a blank, when one starts
                    # it, and a text run that ends where the run ended.
                    rest = findall(s, restart, start)
                    if len(rest) == 2:
                        add(new(Token, (WHITESPACE, restart, restart + len(rest[0]), None)))
                        restart += len(rest[0])
                    add(new(Token, (TEXT, restart, start, rest[-1])))
                    continue
                pos = restart
                window = _RESTART_WINDOW
                break

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
        self.tokens.append(tuple.__new__(Token, (TokenKind.TEXT, arg_start, end,
                                                 s[arg_start:end])))
        self.verbatim_spans.append(tuple.__new__(Span, (cmd_start, end)))
        return end

    def _verbatim_environment(self, construct_start: int, name_start: int,
                              begin_match: re.Match) -> int:
        # Scan the {name} part normally, then swallow everything up to the
        # matching \end{name} as one opaque text token.
        s, n = self.s, len(self.s)
        name = begin_match.group(1) + begin_match.group(2)
        body_start = begin_match.end()
        self._scan(name_start, body_start)
        m = _verbatim_end(name).search(s, body_start)
        body_end = m.start() if m else n
        if body_end > body_start:
            self.tokens.append(tuple.__new__(Token, (TokenKind.TEXT, body_start, body_end,
                                                     s[body_start:body_end])))
        self.verbatim_spans.append(tuple.__new__(Span, (construct_start, m.end() if m else n)))
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


class GroupNode(NamedTuple):
    """A brace group.  A node holds its offsets as a token does, so a
    mixed list of nodes reads ``start`` and ``end`` uniformly; its
    ``span`` is made when read."""

    children: list[Node]
    start: int
    end: int
    # The offsets inside the braces.
    inner_start: int
    inner_end: int

    @property
    def span(self) -> Span:
        return Span(self.start, self.end)

    @property
    def inner(self) -> Span:
        return Span(self.inner_start, self.inner_end)


class EnvNode(NamedTuple):
    name: str
    children: list[Node]
    start: int
    end: int
    # The offsets between \\begin{name} and \\end{name}.
    inner_start: int
    inner_end: int

    @property
    def span(self) -> Span:
        return Span(self.start, self.end)

    @property
    def inner(self) -> Span:
        return Span(self.inner_start, self.inner_end)


class MathNode(NamedTuple):
    kind: str  # "inline" or "display"
    start: int
    end: int

    @property
    def span(self) -> Span:
        return Span(self.start, self.end)


Node = Union[Token, GroupNode, EnvNode, MathNode]


class Diagnostic(NamedTuple):
    """One structural problem the parser met and recovered from."""

    kind: str
    detail: str
    span: Span

    def key(self) -> tuple[str, str]:
        """Position-independent identity, for before/after comparison."""
        return (self.kind, self.detail)


class BlockTree:
    """A parse: the node tree, its diagnostics, its token stream, and what
    the tree builder recorded while placing the tokens."""

    __slots__ = ("nodes", "diagnostics", "stream", "math", "left_out", "closed")

    def __init__(self, nodes: list[Node], diagnostics: list[Diagnostic], stream: TokenStream,
                 math: list[Span], left_out: list[tuple[int, int]], closed: list[EnvNode]):
        self.nodes = nodes
        self.diagnostics = diagnostics
        self.stream = stream
        # The spans of the tree's math nodes, in document order.
        self.math = math
        # The half-open token index ranges no node holds, in order: each
        # math region, and the \begin{name} and \end{name} of each
        # environment node.
        self.left_out = left_out
        # The environment nodes, in the order they were closed.
        self.closed = closed


# Nodes are built by ``tuple.__new__``, without the Python-level
# constructor of a NamedTuple.
_new = tuple.__new__


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
            return ("".join(parts).strip(), k, t.end)
        if t.kind is TokenKind.BEGIN_GROUP:
            return None
        parts.append(stream.lexeme(t))
        k += 1
    return None


class _TreeBuilder:
    """Places the stream's tokens in a tree, visiting only the structural
    ones: the tokens between two of them go to the innermost open group
    or environment as one slice.

    An open group is the plain tuple ``(start, inner_start, children)``
    and an open environment ``(start, inner_start, children, name)``, so
    the length of a frame tells the two apart.  ``envs`` maps the name
    of each open environment to the stack depths of its frames,
    innermost last, so an ``\\end`` finds its ``\\begin`` without a scan
    of the stack."""

    def __init__(self, stream: TokenStream):
        self.stream = stream
        self.toks = stream.tokens
        self.structural = stream.structural
        self.diags: list[Diagnostic] = []
        self.root: list[Node] = []
        self.stack: list[tuple] = []
        self.envs: dict[str, list[int]] = {}
        self.math: list[Span] = []
        self.left_out: list[tuple[int, int]] = []
        self.closed: list[EnvNode] = []

    def sink(self) -> list[Node]:
        return self.stack[-1][2] if self.stack else self.root

    def build(self) -> BlockTree:
        toks = self.toks
        root = self.root
        stack = self.stack
        # Loading an Enum member through its class costs more than the
        # rest of a token's handling, so the kinds are locals.
        BEGIN_GROUP = TokenKind.BEGIN_GROUP
        END_GROUP = TokenKind.END_GROUP
        MATH_SHIFT = TokenKind.MATH_SHIFT
        CONTROL_WORD = TokenKind.CONTROL_WORD
        PAR_BREAK = TokenKind.PAR_BREAK
        new = _new
        sink = root  # the children of the innermost open frame
        pos = 0  # the tokens before it are placed
        for si, i in enumerate(self.structural):
            if i < pos:
                continue  # inside a construct already placed
            t = toks[i]
            k = t.kind
            if k is PAR_BREAK:
                continue  # it ends math only
            if pos < i:
                sink += toks[pos:i]
            pos = i + 1
            if k is BEGIN_GROUP:
                sink = []
                stack.append((t.start, t.end, sink))
            elif k is END_GROUP:
                if stack and len(stack[-1]) == 3:
                    start, inner_start, children = stack.pop()
                    sink = stack[-1][2] if stack else root
                    sink.append(new(GroupNode, (children, start, t.end, inner_start, t.start)))
                else:
                    self.diags.append(Diagnostic("unmatched-end-group", "", t.span))
                    sink.append(t)
            elif k is MATH_SHIFT:
                pos = self._dollar_math(si)
            elif k is CONTROL_WORD:
                pos = self._begin(i) if t.value == "begin" else self._end(i)
                sink = self.sink()
            elif t.value == "(" or t.value == "[":
                pos = self._bracket_math(si)
            else:
                self.diags.append(Diagnostic("math-close-without-open", t.value, t.span))
                sink.append(t)
        sink += toks[pos:]
        self._unwind(len(self.stream.source))
        return BlockTree(self.root, self.diags, self.stream, self.math, self.left_out,
                         self.closed)

    def _unwind(self, eof: int):
        while self.stack:
            self._close(eof, "unclosed-group", "")

    def _close(self, end: int, group_kind: str, group_detail: str):
        """Close the innermost open frame at ``end``, where no closing
        token ends it, and record a diagnostic: ``group_kind`` with
        ``group_detail`` for a group, an unclosed environment for an
        environment."""
        f = self.stack.pop()
        if len(f) == 3:
            start, inner_start, children = f
            self.diags.append(Diagnostic(group_kind, group_detail, Span(start, start + 1)))
            node = _new(GroupNode, (children, start, end, inner_start, end))
        else:
            start, inner_start, children, name = f
            self.envs[name].pop()
            self.diags.append(Diagnostic("unclosed-environment", name, Span(start, start + 1)))
            node = _new(EnvNode, (name, children, start, end, inner_start, end))
            self.closed.append(node)
        self.sink().append(node)

    def _math(self, kind: str, i: int, end: int | None, stop: int) -> int:
        """Place a math node for the tokens from index ``i`` up to
        ``stop``, spanning from the start of the token at ``i`` to ``end``;
        an unterminated one (``end`` None) runs to the token at ``stop``, or
        to the end of the text.  Returns ``stop``."""
        start = self.toks[i].start
        self.left_out.append((i, stop))
        if end is None:
            end = self.toks[stop].start if stop < len(self.toks) else len(self.stream.source)
            self.diags.append(Diagnostic("unterminated-math", kind, Span(start, end)))
        self.math.append(Span(start, end))
        self.sink().append(_new(MathNode, (kind, start, end)))
        return stop

    def _dollar_math(self, si: int) -> int:
        toks, structural = self.toks, self.structural
        i = structural[si]
        open_tok = toks[i]
        n = len(toks)
        display = (
            i + 1 < n
            and toks[i + 1].kind is TokenKind.MATH_SHIFT
            and toks[i + 1].start == open_tok.end
        )
        kind = "display" if display else "inline"
        for sj in range(si + 2 if display else si + 1, len(structural)):
            j = structural[sj]
            t = toks[j]
            if t.kind is TokenKind.PAR_BREAK:
                return self._math(kind, i, None, j)
            if t.kind is TokenKind.MATH_SHIFT:
                if not display:
                    return self._math(kind, i, t.end, j + 1)
                if (
                    j + 1 < n
                    and toks[j + 1].kind is TokenKind.MATH_SHIFT
                    and toks[j + 1].start == t.end
                ):
                    return self._math(kind, i, toks[j + 1].end, j + 2)
        return self._math(kind, i, None, n)

    def _bracket_math(self, si: int) -> int:
        toks, structural = self.toks, self.structural
        i = structural[si]
        open_tok = toks[i]
        closing = ")" if open_tok.value == "(" else "]"
        kind = "inline" if open_tok.value == "(" else "display"
        for sj in range(si + 1, len(structural)):
            j = structural[sj]
            t = toks[j]
            if t.kind is TokenKind.PAR_BREAK:
                return self._math(kind, i, None, j)
            if t.kind is TokenKind.CONTROL_SYMBOL and t.value == closing:
                return self._math(kind, i, t.end, j + 1)
        return self._math(kind, i, None, len(toks))

    def _begin(self, i: int) -> int:
        t = self.toks[i]
        named = _env_name(self.stream, i)
        if named is None:
            self.sink().append(t)
            return i + 1
        name, name_idx, after = named
        if name.rstrip("*") in MATH_ENVIRONMENTS:
            return self._math_environment(i, name, name_idx)
        self.envs.setdefault(name, []).append(len(self.stack))
        self.stack.append((t.start, after, [], name))
        self.left_out.append((i, name_idx + 1))
        return name_idx + 1

    def _math_environment(self, i: int, name: str, name_idx: int) -> int:
        toks, structural = self.toks, self.structural
        start = toks[i].start
        for sj in range(bisect_right(structural, name_idx), len(structural)):
            j = structural[sj]
            if toks[j].is_control_word("end"):
                named = _env_name(self.stream, j)
                if named is not None and named[0] == name:
                    return self._math("display", i, named[2], named[1] + 1)
        self.diags.append(Diagnostic("unclosed-environment", name, Span(start, start + 1)))
        return self._math("display", i, len(self.stream.source), len(toks))

    def _end(self, i: int) -> int:
        t = self.toks[i]
        named = _env_name(self.stream, i)
        if named is None:
            self.sink().append(t)
            return i + 1
        name, name_idx, after = named
        depths = self.envs.get(name)
        if not depths:
            self.diags.append(Diagnostic("end-without-begin", name, t.span))
            self.sink().extend(self.toks[i:name_idx + 1])
            return name_idx + 1
        # The frames above the innermost one of this name are closed here,
        # each once, so every \end costs what it closes.
        depth = depths.pop()
        while len(self.stack) - 1 > depth:
            self._close(t.start, "group-crosses-boundary", name)
        start, inner_start, children, _ = self.stack.pop()
        node = _new(EnvNode, (name, children, start, after, inner_start, t.start))
        self.closed.append(node)
        self.sink().append(node)
        self.left_out.append((i, name_idx + 1))
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


def math_spans(tree: BlockTree) -> list[Span]:
    """All math region spans, sorted and non-overlapping: the tree
    builder records each as it places the region."""
    return tree.math


def comment_spans(tree: BlockTree) -> list[Span]:
    comment = TokenKind.COMMENT
    return [Span(t.start, t.end) for t in tree.stream.tokens if t.kind is comment]


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


class SpanIndex:
    """Spans sorted once by start, with the running maximum of their ends,
    so each query is one bisection and stays exact however the spans
    overlap, nest or are empty."""

    __slots__ = ("starts", "reach")

    def __init__(self, spans):
        ordered = sorted(spans)
        self.starts = [s.start for s in ordered]
        # reach[i]: the furthest end among the first i + 1 spans.
        self.reach = list(accumulate([s.end for s in ordered], max))

    def _reach(self, before: int, lo: int = 0) -> tuple[int, int]:
        """How many spans start before ``before``, and the furthest end
        among them (-1 when none does)."""
        i = bisect_left(self.starts, before, lo)
        return i, self.reach[i - 1] if i else -1

    def intersects(self, span: Span) -> bool:
        """Whether a span shares an offset with ``span``."""
        return self._reach(span.end)[1] > span.start

    def covers(self, span: Span) -> bool:
        """Whether a span contains ``span``."""
        i = bisect_right(self.starts, span.start)
        return bool(i) and self.reach[i - 1] >= span.end

    def straddles(self, span: Span) -> bool:
        """Whether a span crosses an edge of ``span``: it shares an offset
        with ``span`` but does not lie inside it."""
        i, reach = self._reach(span.start)
        return reach > span.start or self._reach(span.end, i)[1] > span.end


def protected_spans(tree: BlockTree) -> list[Span]:
    """Math, verbatim and comment regions: never the target of a rewrite."""
    spans = math_spans(tree) + list(tree.stream.verbatim_spans) + comment_spans(tree)
    return merge_spans(spans)
