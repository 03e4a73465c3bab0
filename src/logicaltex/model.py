"""Front-matter value types and the author/affiliation mapping.

Covers marker normalization (the footnote-like symbols linking authors to
affiliations), styled-text stripping, and extraction of already-logical
metadata commands from a parsed document.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum

from .lexer import (
    BlockTree,
    EnvNode,
    GroupNode,
    Node,
    Span,
    Token,
    TokenKind,
    TokenStream,
    latin1_fallback,
    tokenize,
)


class MarkerSymbol(Enum):
    ASTERISK = "asterisk"
    DAGGER = "dagger"
    DDAGGER = "ddagger"
    SECTION_SIGN = "section-sign"
    PILCROW = "pilcrow"
    PARALLEL = "parallel"
    DIGIT = "digit"
    LETTER = "letter"


@dataclass(frozen=True)
class Marker:
    """A canonical author/affiliation marker.

    Distinct source renderings of the same symbol compare equal; the
    rendering is kept for reporting only.
    """

    symbol: MarkerSymbol
    value: str = ""
    rendering: str = field(default="", compare=False)

    def __str__(self) -> str:
        if self.value:
            return f"{self.symbol.value}({self.value})"
        return self.symbol.value


_SYMBOL_FORMS = {
    MarkerSymbol.ASTERISK: {"*", "**", "***", r"\ast", r"\star", "\u2217",
                            r"\textasteriskcentered"},
    MarkerSymbol.DAGGER: {r"\dag", r"\dagger", "\u2020", r"\textdagger"},
    MarkerSymbol.DDAGGER: {r"\ddag", r"\ddagger", "\u2021", r"\textdaggerdbl"},
    MarkerSymbol.SECTION_SIGN: {r"\S", "\u00a7"},
    MarkerSymbol.PILCROW: {r"\P", "\u00b6"},
    MarkerSymbol.PARALLEL: {r"\|", r"\parallel", r"\Vert", "\u2016", "||"},
}

_FOOTNOTEMARK = re.compile(r"\\footnotemark\s*\[\s*([0-9]+|\*+)\s*\]")
_TEXTSUPERSCRIPT = re.compile(r"\\textsuperscript\s*\{(.*)\}", re.DOTALL)


def _peel(text: str) -> tuple[str, bool]:
    """Strip $, ^, braces and whitespace wrappers; report whether any
    superscript-like wrapper was present."""
    s = text.strip()
    wrapped = False
    changed = True
    while changed:
        changed = False
        if len(s) >= 2 and s.startswith("$") and s.endswith("$"):
            s = s[1:-1].strip()
            wrapped = True
            changed = True
        if s.startswith("^"):
            s = s[1:].strip()
            wrapped = True
            changed = True
        if len(s) >= 2 and s.startswith("{") and s.endswith("}"):
            s = s[1:-1].strip()
            wrapped = True
            changed = True
    return s, wrapped


def _core_marker(core: str, wrapped: bool, rendering: str) -> Marker | None:
    for symbol, forms in _SYMBOL_FORMS.items():
        if core in forms:
            return Marker(symbol, rendering=rendering)
    if core.isdigit():
        return Marker(MarkerSymbol.DIGIT, core.lstrip("0") or "0", rendering)
    if wrapped and len(core) == 1 and core.isalpha():
        return Marker(MarkerSymbol.LETTER, core, rendering)
    return None


def normalize_marker(rendering: str) -> Marker | None:
    """Map one marker rendering to its canonical value, or None."""
    s = latin1_fallback(rendering.strip())
    if not s:
        return None
    m = _FOOTNOTEMARK.fullmatch(s)
    if m:
        v = m.group(1)
        if v.isdigit():
            return Marker(MarkerSymbol.DIGIT, v.lstrip("0") or "0", rendering)
        return Marker(MarkerSymbol.ASTERISK, rendering=rendering)
    m = _TEXTSUPERSCRIPT.fullmatch(s)
    if m:
        core, _ = _peel(m.group(1))
        return _core_marker(core, True, rendering)
    core, wrapped = _peel(s)
    return _core_marker(core, wrapped, rendering)


def extract_markers(rendering: str) -> list[Marker]:
    """All markers in a rendering, honoring comma lists like $^{1,2}$."""
    s = latin1_fallback(rendering.strip())
    if not s:
        return []
    m = _FOOTNOTEMARK.fullmatch(s)
    if m:
        single = normalize_marker(s)
        return [single] if single else []
    sup = _TEXTSUPERSCRIPT.fullmatch(s)
    if sup:
        core, wrapped = _peel(sup.group(1))
        wrapped = True
    else:
        core, wrapped = _peel(s)
    out = []
    for piece in core.split(","):
        piece = piece.strip()
        if not piece:
            continue
        mk = _core_marker(piece, wrapped, rendering)
        if mk is None:
            return []
        out.append(mk)
    return out


# ---------------------------------------------------------------------------
# Styled text
# ---------------------------------------------------------------------------

# Declarations dropped when deriving plain text.
STYLE_DECLS = frozenset({
    "bf", "bfseries", "it", "itshape", "em", "sl", "slshape", "sc", "scshape",
    "rm", "rmfamily", "sf", "sffamily", "tt", "ttfamily", "upshape", "mdseries",
    "normalfont",
})
SIZE_DECLS = frozenset({
    "tiny", "scriptsize", "footnotesize", "small", "normalsize",
    "large", "Large", "LARGE", "huge", "Huge",
})
_DECOR_WORDS = frozenset({
    "centering", "raggedright", "raggedleft", "noindent", "indent",
    "smallskip", "medskip", "bigskip", "par", "centerline", "mbox", "hbox",
    "textbf", "textit", "textsl", "textrm", "texttt", "textsf", "textsc",
    "textup", "textmd", "emph", "textnormal", "uppercase", "MakeUppercase",
    "boldmath", "unboldmath", "ignorespaces", "strut",
})
_SPACE_WORDS = frozenset({"quad", "qquad", "hfill", "hskip", "vskip", "enspace",
                          "thinspace", "linebreak", "newline", "smallbreak"})
# Accent commands keep their lexeme and braced argument verbatim.
ACCENT_WORDS = frozenset({"H", "u", "v", "c", "d", "b", "k", "r", "t", "textcommabelow"})
ACCENT_SYMBOLS = frozenset("'`\"^~=.")
LETTER_WORDS = frozenset({
    "ss", "ae", "AE", "oe", "OE", "o", "O", "aa", "AA", "l", "L", "i", "j",
    "dj", "DJ", "ng", "NG", "th", "TH", "dh", "DH",
})


def strip_styling(raw: str) -> str:
    """Deterministic plain form: styling dropped, whitespace collapsed,
    accent and letter commands preserved verbatim.  Idempotent."""
    stream = tokenize(raw)
    return plain_text(stream.tokens, stream.source)


# The kinds ``plain_text`` tests each token against.  Loading an Enum
# member through its class costs several times a global's load.
(_TEXT, _WHITESPACE, _PAR_BREAK, _COMMENT, _BEGIN_GROUP, _END_GROUP, _MATH_SHIFT,
 _ALIGNMENT, _ACTIVE_CHAR, _PARAMETER, _CONTROL_SYMBOL, _CONTROL_WORD) = (
    TokenKind.TEXT, TokenKind.WHITESPACE, TokenKind.PAR_BREAK, TokenKind.COMMENT,
    TokenKind.BEGIN_GROUP, TokenKind.END_GROUP, TokenKind.MATH_SHIFT,
    TokenKind.ALIGNMENT, TokenKind.ACTIVE_CHAR, TokenKind.PARAMETER,
    TokenKind.CONTROL_SYMBOL, TokenKind.CONTROL_WORD)


def plain_text(toks: list[Token], source: str) -> str:
    """The plain form of a run of tokens lexed from ``source``.  A token
    run that tiles a span of a larger stream gives the same result as
    ``strip_styling`` of that span's text, without lexing it again."""
    parts: list[str] = []
    keep_group_depths: list[int] = []
    depth = 0
    i = 0
    n = len(toks)
    while i < n:
        t = toks[i]
        k = t.kind
        if k is _TEXT:
            parts.append(t.value or "")
        elif k is _WHITESPACE or k is _PAR_BREAK:
            parts.append(" ")
        elif k is _COMMENT:
            pass
        elif k is _BEGIN_GROUP:
            depth += 1
        elif k is _END_GROUP:
            if keep_group_depths and keep_group_depths[-1] == depth:
                parts.append("}")
                keep_group_depths.pop()
            depth -= 1
        elif k is _MATH_SHIFT:
            pass
        elif k is _ALIGNMENT:
            parts.append(" ")
        elif k is _ACTIVE_CHAR:
            if t.value == "~":
                parts.append(" ")
            else:
                parts.append(t.value or "")
        elif k is _PARAMETER:
            parts.append(source[t.start:t.end])
        elif k is _CONTROL_SYMBOL:
            v = t.value or ""
            if v in ACCENT_SYMBOLS:
                parts.append(source[t.start:t.end])
                j = i + 1
                if j < n and toks[j].kind is _BEGIN_GROUP:
                    parts.append("{")
                    depth += 1
                    keep_group_depths.append(depth)
                    i = j
            elif v == "\\":
                parts.append(" ")
                j = i + 1
                if j < n and toks[j].kind is _TEXT and (toks[j].value or "").startswith("["):
                    m = re.match(r"\[[^\]]*\]", toks[j].value or "")
                    if m and m.end() == len(toks[j].value or ""):
                        i = j
            elif v in ",;:! ":
                parts.append(" ")
            elif v in "&%$#_{}":
                parts.append(source[t.start:t.end])
        elif k is _CONTROL_WORD:
            name = t.value or ""
            if name in ACCENT_WORDS:
                parts.append(source[t.start:t.end])
                j = i + 1
                while j < n and toks[j].kind is _WHITESPACE:
                    j += 1
                if j < n and toks[j].kind is _BEGIN_GROUP:
                    parts.append("{")
                    depth += 1
                    keep_group_depths.append(depth)
                    i = j
            elif name in LETTER_WORDS:
                parts.append(source[t.start:t.end])
                if i + 1 < n and toks[i + 1].kind is _TEXT:
                    parts.append(" ")
            elif name in STYLE_DECLS or name in SIZE_DECLS or name in _DECOR_WORDS:
                pass
            elif name in _SPACE_WORDS:
                parts.append(" ")
            elif name in ("vspace", "hspace"):
                j = i + 1
                while j < n and toks[j].kind is _WHITESPACE:
                    j += 1
                if j < n and toks[j].kind is _BEGIN_GROUP:
                    d = 1
                    j += 1
                    while j < n and d:
                        if toks[j].kind is _BEGIN_GROUP:
                            d += 1
                        elif toks[j].kind is _END_GROUP:
                            d -= 1
                        j += 1
                    i = j - 1
            else:
                parts.append(source[t.start:t.end])
                nxt = toks[i + 1] if i + 1 < n else None
                if nxt is not None and nxt.kind is _TEXT:
                    parts.append(" ")
        i += 1
    out = "".join(parts)
    return re.sub(r"\s+", " ", out).strip()


@dataclass(frozen=True)
class StyledText:
    raw: str
    plain: str

    @classmethod
    def from_raw(cls, raw: str) -> "StyledText":
        return cls(raw=raw.strip(), plain=strip_styling(raw))


@dataclass
class Author:
    name: StyledText
    markers: set[Marker]
    span: Span


@dataclass
class Affiliation:
    text: StyledText
    marker: Marker | None
    span: Span


@dataclass
class FrontMatter:
    title: StyledText | None = None
    authors: list[Author] = field(default_factory=list)
    affiliations: list[Affiliation] = field(default_factory=list)
    author_affiliation_edges: set[tuple[int, int]] = field(default_factory=set)
    frontmatter_end: Span | None = None
    unresolved_markers: list[tuple[int, Marker]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


@dataclass
class ResolutionResult:
    edges: set[tuple[int, int]]
    unresolved: list[tuple[int, Marker]]
    notes: list[str]


def resolve_affiliations(authors: list[Author], affiliations: list[Affiliation]) -> ResolutionResult:
    """Connect authors to affiliations by normalized marker symbol only.

    Markerless fallbacks: a single affiliation claims every markerless
    author list; multiple markerless affiliations attach to every author
    (a flagged superset rather than a guess).
    """
    edges: set[tuple[int, int]] = set()
    unresolved: list[tuple[int, Marker]] = []
    notes: list[str] = []
    by_marker: dict[Marker, int] = {}
    for j, aff in enumerate(affiliations):
        if aff.marker is not None:
            if aff.marker in by_marker:
                notes.append(f"duplicate affiliation marker {aff.marker}")
            else:
                by_marker[aff.marker] = j
    for i, author in enumerate(authors):
        for mk in sorted(author.markers, key=str):
            j = by_marker.get(mk)
            if j is None:
                unresolved.append((i, mk))
            else:
                edges.add((i, j))
    markerless = [j for j, aff in enumerate(affiliations) if aff.marker is None]
    if len(affiliations) == 1 and markerless and all(not a.markers for a in authors):
        edges |= {(i, 0) for i in range(len(authors))}
    elif markerless and authors:
        for j in markerless:
            for i in range(len(authors)):
                edges.add((i, j))
        if len(markerless) > 1 or len(authors) > 1:
            notes.append(
                "affiliations without markers were attached to every author"
            )
    return ResolutionResult(edges, unresolved, notes)


# ---------------------------------------------------------------------------
# Logical metadata extraction
# ---------------------------------------------------------------------------


@dataclass
class LogicalAuthor:
    name_raw: str
    affiliations_raw: list[str]


@dataclass
class LogicalSection:
    level: int
    heading_raw: str
    span: Span
    starred: bool


@dataclass
class LogicalDocument:
    """Positions and raw contents of the logical structure commands."""

    title_raw: str | None = None
    title_span: Span | None = None  # whole \title{...} construct
    date_span: Span | None = None
    authors: list[LogicalAuthor] = field(default_factory=list)
    author_block_spans: list[Span] = field(default_factory=list)
    abstract_raw: str | None = None
    abstract_span: Span | None = None  # whole environment
    maketitle_span: Span | None = None
    sections: list[LogicalSection] = field(default_factory=list)
    emphases: list[tuple[str, Span]] = field(default_factory=list)

    @property
    def title_plain(self) -> str | None:
        return strip_styling(self.title_raw) if self.title_raw is not None else None


_SECTION_LEVELS = {"section": 1, "subsection": 2, "subsubsection": 3}


class _NodeCursor:
    """Sequential reader over a node list for command-argument parsing."""

    def __init__(self, nodes: list[Node], stream: TokenStream):
        self.nodes = nodes
        self.stream = stream
        self.i = 0
        # Index of a text node whose leading "*" was taken by take_star.
        self.star_at = -1

    def skip_ws(self):
        while self.i < len(self.nodes):
            nd = self.nodes[self.i]
            if isinstance(nd, Token) and nd.kind in (TokenKind.WHITESPACE, TokenKind.COMMENT):
                self.i += 1
            else:
                break

    def peek(self) -> Node | None:
        return self.nodes[self.i] if self.i < len(self.nodes) else None

    def take_optional_bracket(self):
        nd = self.peek()
        if isinstance(nd, Token) and nd.kind is TokenKind.TEXT:
            text = (nd.value or "")[1 if self.star_at == self.i else 0:]
            if text.startswith("[") and text.rstrip().endswith("]"):
                self.i += 1

    def take_group(self) -> GroupNode | None:
        self.skip_ws()
        self.take_optional_bracket()
        self.skip_ws()
        nd = self.peek()
        if isinstance(nd, GroupNode):
            self.i += 1
            return nd
        return None

    def take_star(self) -> bool:
        nd = self.peek()
        if isinstance(nd, Token) and nd.kind is TokenKind.TEXT and (nd.value or "").startswith("*"):
            if nd.value == "*":
                self.i += 1
            else:
                self.star_at = self.i
            return True
        return False


def _split_author_group(group: GroupNode, stream: TokenStream) -> list[LogicalAuthor]:
    """Split an \\author argument on top-level \\and (or commas when no
    \\and is present) and peel per-author \\thanks groups."""
    src = stream.source
    seps: list[tuple[int, int]] = []
    has_and = False
    for nd in group.children:
        if isinstance(nd, Token) and nd.is_control_word("and"):
            seps.append((nd.start, nd.end))
            has_and = True
    if not has_and:
        for nd in group.children:
            if isinstance(nd, Token) and nd.kind is TokenKind.TEXT:
                text = nd.value or ""
                for m in re.finditer(",", text):
                    seps.append((nd.start + m.start(), nd.start + m.end()))
    seps.sort()
    bounds = [group.inner_start] + [e for _, e in seps] + [group.inner_end]
    starts = [group.inner_start] + [s for s, _ in seps]
    out: list[LogicalAuthor] = []
    for k in range(len(starts)):
        seg_start = bounds[k]
        seg_end = starts[k + 1] if k + 1 < len(starts) else group.inner_end
        if seg_end <= seg_start:
            continue
        seg_nodes = [nd for nd in group.children
                     if nd.start >= seg_start and nd.end <= seg_end]
        thanks: list[str] = []
        cut: list[Span] = []
        j = 0
        while j < len(seg_nodes):
            nd = seg_nodes[j]
            if isinstance(nd, Token) and nd.is_control_word("thanks"):
                g = seg_nodes[j + 1] if j + 1 < len(seg_nodes) else None
                if isinstance(g, GroupNode):
                    thanks.append(src[g.inner_start:g.inner_end].strip())
                    cut.append(Span(nd.start, g.end))
                    j += 2
                    continue
            j += 1
        name = splice_out(src, seg_start, seg_end, cut).strip()
        if name or thanks:
            out.append(LogicalAuthor(name_raw=name, affiliations_raw=thanks))
    return out


def splice_out(src: str, start: int, end: int, cuts: list[Span]) -> str:
    """``src[start:end]`` with the ``cuts`` spans removed."""
    parts = []
    pos = start
    for c in sorted(cuts, key=lambda s: s.start):
        parts.append(src[pos:c.start])
        pos = c.end
    parts.append(src[pos:end])
    return "".join(parts)


def extract_logical(tree: BlockTree) -> LogicalDocument:
    """Read \\title, \\author(+\\thanks/\\affiliation), the abstract
    environment, \\maketitle, section commands and \\emph occurrences."""
    stream = tree.stream
    src = stream.source
    doc = LogicalDocument()

    # Depth first over a stack of cursors, one per open child list; a
    # command's argument group is taken with the command, not entered.
    cursors = [_NodeCursor(tree.nodes, stream)]
    control_word = TokenKind.CONTROL_WORD
    while cursors:
        cur = cursors[-1]
        nodes = cur.nodes
        if cur.i >= len(nodes):
            cursors.pop()
            continue
        nd = nodes[cur.i]
        if isinstance(nd, (EnvNode, GroupNode)):
            if isinstance(nd, EnvNode) and nd.name == "abstract" and doc.abstract_raw is None:
                doc.abstract_raw = src[nd.inner_start:nd.inner_end].strip()
                doc.abstract_span = nd.span
            cur.i += 1
            cursors.append(_NodeCursor(nd.children, stream))
            continue
        if not isinstance(nd, Token) or nd.kind is not control_word:
            cur.i += 1
            continue
        name = nd.value or ""
        if name == "title" and doc.title_raw is None:
            cur.i += 1
            g = cur.take_group()
            if g is not None:
                doc.title_raw = src[g.inner_start:g.inner_end].strip()
                doc.title_span = Span(nd.start, g.end)
            continue
        if name == "date" and doc.date_span is None:
            cur.i += 1
            g = cur.take_group()
            if g is not None:
                doc.date_span = Span(nd.start, g.end)
            continue
        if name == "author":
            cur.i += 1
            g = cur.take_group()
            if g is not None:
                doc.authors.extend(_split_author_group(g, stream))
                doc.author_block_spans.append(Span(nd.start, g.end))
            continue
        if name in ("affiliation", "address", "institute") and doc.authors:
            cur.i += 1
            g = cur.take_group()
            if g is not None:
                doc.authors[-1].affiliations_raw.append(
                    src[g.inner_start:g.inner_end].strip())
                doc.author_block_spans.append(Span(nd.start, g.end))
            continue
        if name == "maketitle" and doc.maketitle_span is None:
            doc.maketitle_span = nd.span
            cur.i += 1
            continue
        if name in _SECTION_LEVELS:
            cur.i += 1
            starred = cur.take_star()
            g = cur.take_group()
            if g is not None:
                doc.sections.append(LogicalSection(
                    level=_SECTION_LEVELS[name],
                    heading_raw=src[g.inner_start:g.inner_end].strip(),
                    span=Span(nd.start, g.end),
                    starred=starred,
                ))
            continue
        if name == "emph":
            cur.i += 1
            g = cur.take_group()
            if g is not None:
                doc.emphases.append((
                    src[g.inner_start:g.inner_end],
                    Span(nd.start, g.end),
                ))
            continue
        cur.i += 1

    return doc
