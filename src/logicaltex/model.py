"""Front-matter value types and the author/affiliation mapping.

Covers marker normalization (the footnote-like symbols linking authors to
affiliations), the control-word vocabulary, plain text and its one accent
fold, and extraction of already-logical metadata commands from a tree.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from enum import Enum
from functools import cached_property
from operator import attrgetter
from typing import TYPE_CHECKING, NamedTuple

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

if TYPE_CHECKING:
    from .detector import Segment


class MarkerSymbol(Enum):
    ASTERISK = "asterisk"
    DAGGER = "dagger"
    DDAGGER = "ddagger"
    SECTION_SIGN = "section-sign"
    PILCROW = "pilcrow"
    PARALLEL = "parallel"
    DIGIT = "digit"
    LETTER = "letter"


class Marker(NamedTuple):
    """A canonical author/affiliation marker: distinct source renderings
    of the same symbol compare equal."""

    symbol: MarkerSymbol
    value: str = ""

    def __str__(self) -> str:
        if self.value:
            return f"{self.symbol.value}({self.value})"
        return self.symbol.value


# The control words that are marker symbols on their own.
MARKER_WORDS = frozenset({"dag", "ddag", "S", "P", "ast", "dagger", "ddagger", "star"})
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


def _core_marker(core: str, wrapped: bool) -> Marker | None:
    for symbol, forms in _SYMBOL_FORMS.items():
        if core in forms:
            return Marker(symbol)
    if core.isdigit():
        return Marker(MarkerSymbol.DIGIT, core.lstrip("0") or "0")
    if wrapped and len(core) == 1 and core.isalpha():
        return Marker(MarkerSymbol.LETTER, core)
    return None


def extract_markers(rendering: str) -> list[Marker]:
    """All markers in a rendering, honoring comma lists like $^{1,2}$."""
    s = latin1_fallback(rendering.strip())
    if not s:
        return []
    m = _FOOTNOTEMARK.fullmatch(s)
    if m:
        v = m.group(1)
        if v.isdigit():
            return [Marker(MarkerSymbol.DIGIT, v.lstrip("0") or "0")]
        return [Marker(MarkerSymbol.ASTERISK)]
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
        mk = _core_marker(piece, wrapped)
        if mk is None:
            return []
        out.append(mk)
    return out


# ---------------------------------------------------------------------------
# Styled text
# ---------------------------------------------------------------------------

# The one table of styling control words: word -> (look, how).  A look is
# the flag the detector's style peeling sets.  The detector peels every
# word but the unpeeled ones, with what it reads, from the head of a line;
# a style wraps what it reads.  ``plain_text`` drops every word but the
# layout ones, which it keeps verbatim, and a decoration's arguments; so
# a layout word's look, ``layout``, notes that the peeling took off a word
# that ``plain_text`` keeps.
STYLE_WORDS: dict[str, tuple[str | None, str]] = {word: style for style, words in {
    ("bold", "style"): "bf bfseries textbf",
    ("italic", "style"): "it itshape em sl slshape textit textsl",
    ("large", "style"): "large Large LARGE huge Huge",
    (None, "style"): "tiny scriptsize footnotesize small textsc",
    ("centered", "style"): "centering",
    (None, "decoration"): "noindent indent smallskip medskip bigskip strut ignorespaces "
                          "vspace hspace vskip hskip",
    ("layout", "layout"): "vfill relax sloppy frenchspacing leavevmode",
    (None, "unpeeled"): "sc scshape rm rmfamily sf sffamily tt ttfamily upshape mdseries "
                        "normalfont normalsize raggedright raggedleft par centerline mbox "
                        "hbox textrm texttt textsf textup textmd emph textnormal uppercase "
                        "MakeUppercase boldmath unboldmath",
}.items() for word in words.split()}
_DROPPED = frozenset(w for w, (_, how) in STYLE_WORDS.items() if how != "layout")
_DECORATIONS = frozenset(w for w, (_, how) in STYLE_WORDS.items() if how == "decoration")
PAR, CENTERLINE = "par", "centerline"
# The optional skip after a line break, as in ``\\[2mm]``.
BREAK_SKIP = re.compile(r"\[[^\]]*\]")
_SPACE_WORDS = frozenset({"quad", "qquad", "hfill", "hskip", "vskip", "enspace",
                          "thinspace", "linebreak", "newline", "smallbreak"})
# Accent commands keep their lexeme and braced argument verbatim.
ACCENT_WORDS = frozenset({"H", "u", "v", "c", "d", "b", "k", "r", "t", "textcommabelow"})
ACCENT_SYMBOLS = frozenset("'`\"^~=.")
# Each letter command and the Unicode letter it sets.  ``fold_accents``
# reads both spellings as the command's name: ``\o`` and ``ø`` read
# ``o``, and ``\aa`` and ``å`` read ``aa``, although NFKD would split
# ``å`` into ``a`` and a ring.
LETTER_WORDS = {
    "ss": "ß", "ae": "æ", "AE": "Æ", "oe": "œ", "OE": "Œ", "o": "ø", "O": "Ø",
    "aa": "å", "AA": "Å", "l": "ł", "L": "Ł", "i": "ı", "j": "ȷ",
    "dj": "đ", "DJ": "Đ", "ng": "ŋ", "NG": "Ŋ", "th": "þ", "TH": "Þ", "dh": "ð", "DH": "Ð",
}
# Logical front matter, sectioning, and what separates authors on a line.
TITLE, AUTHOR, MAKETITLE, THANKS = "title", "author", "maketitle", "thanks"
AFFILIATION_WORDS = ("affiliation", "address", "institute")
FRONT_MATTER_WORDS = (TITLE, AUTHOR, MAKETITLE, "date", THANKS, *AFFILIATION_WORDS)
SECTION_LEVELS = {"section": 1, "subsection": 2, "subsubsection": 3}
AUTHOR_SEPARATORS = frozenset({"and", "quad", "qquad"})
# What TeX reads after each known control word, in the argument-spec
# letters of LaTeX3's xparse: ``s`` a star, ``o`` an optional ``[...]``
# and ``m`` a braced argument; and this table's own ``g``, TeX glue
# (``2mm``, ``6pt plus 1pt minus 1pt``, ``0.5\baselineskip``).  The
# peeled style words read nothing unless named here.  A word missing
# from the table is a macro whose arguments are not known.
ARGUMENTS: dict[str, str] = {
    **{word: "" for word, (_, how) in STYLE_WORDS.items() if how != "unpeeled"},
    **dict.fromkeys(SECTION_LEVELS, "som"),
    **dict.fromkeys((TITLE, "date", AUTHOR, *AFFILIATION_WORDS, "emph"), "om"),
    **dict.fromkeys(("textbf", "textit", "textsl", "textsc", CENTERLINE,
                     "textsuperscript", THANKS), "m"),
    "vspace": "sm", "hspace": "sm", "vskip": "g", "hskip": "g",
    "footnotemark": "o", MAKETITLE: "",
}
# Each degradation profile's name and the code that tags its pairs' file
# names.  The degrader's table, kept here so that the command line can
# name the profiles without loading the degrader.
PROFILE_CODES = {
    "centerline-style": "cl",
    "center-env": "ce",
    "numbered-markers": "nm",
    "symbol-markers": "sm",
    "unlabeled-abstract": "ua",
    "bold-solitary-sections": "bs",
    "inline-emphasis": "ie",
}


def collapse_blanks(text: str) -> str:
    """``text`` with each run of whitespace one space, and none at either
    end.  ``str.split`` and ``re``'s ``\\s`` test the same Unicode
    whitespace."""
    return " ".join(text.split())


# The characters that make a string lex to more than text and blank runs.
_SPECIALS = "\\{}$&~^_#%"


def strip_styling(raw: str) -> str:
    """Deterministic plain form: styling dropped, whitespace collapsed,
    accent and letter commands preserved verbatim.  Idempotent.  Text
    without a special character lexes to text and blank runs only, whose
    plain form is the text with its blanks collapsed, so it is not lexed."""
    for special in _SPECIALS:
        if special in raw:
            stream = tokenize(raw)
            return plain_text(stream.tokens, stream.source)
    return collapse_blanks(raw)


# The kinds ``plain_text`` tests each token against.  Loading an Enum
# member through its class costs several times a global's load.
(_TEXT, _WHITESPACE, _PAR_BREAK, _COMMENT, _BEGIN_GROUP, _END_GROUP, _MATH_SHIFT,
 _ALIGNMENT, _ACTIVE_CHAR, _PARAMETER, _CONTROL_SYMBOL, _CONTROL_WORD) = (
    TokenKind.TEXT, TokenKind.WHITESPACE, TokenKind.PAR_BREAK, TokenKind.COMMENT,
    TokenKind.BEGIN_GROUP, TokenKind.END_GROUP, TokenKind.MATH_SHIFT,
    TokenKind.ALIGNMENT, TokenKind.ACTIVE_CHAR, TokenKind.PARAMETER,
    TokenKind.CONTROL_SYMBOL, TokenKind.CONTROL_WORD)
_START = attrgetter("start")  # a token's offset, as a search key

# TeX glue: a dimension, then an optional stretch and shrink, each a
# keyword and a dimension.  A dimension is a factor and a unit, or a
# register (``\baselineskip``) with or without a factor.  Keywords and
# units are case-insensitive.  The one dimension pattern serves all
# three parts, so it is compiled once.
_FACTOR = r"(?:[-+][ \t]*)*(?:[0-9]+(?:[.,][0-9]*)?|[.,][0-9]+)"
_DIMEN = re.compile(
    rf"[ \t]*(?:{_FACTOR}[ \t]*(?:(?:true[ \t]*)?(?:pt|pc|in|bp|cm|mm|dd|cc|sp|ex|em|mu)"
    rf"|fil+)|(?:{_FACTOR}[ \t]*)?\\[A-Za-z]+)", re.IGNORECASE)
_STRETCH_SHRINK = (re.compile(r"[ \t]*plus", re.IGNORECASE),
                   re.compile(r"[ \t]*minus", re.IGNORECASE))


def read_arguments(nodes: list[Node], i: int) -> tuple[int, int, bool, GroupNode | None]:
    """Read what the known command ``nodes[i - 1]`` reads by its
    ``ARGUMENTS`` entry from the nodes after it, tree nodes or tokens.
    Blanks and comments may stand before any argument but a star.
    Reading stops at the first braced argument or glue missing.  Returns
    the index of the first node not wholly read, the offset where reading
    stopped (inside that node when a star, a bracket or glue ends inside
    a text run), whether a star was read, and the braced argument if it
    is a tree node."""
    n, end = len(nodes), nodes[i - 1].end
    star, group = False, None
    for letter in ARGUMENTS[nodes[i - 1].value]:
        j = i
        if letter != "s" and (j == n or nodes[j].start == end):
            # At a node's edge: blanks and comments before the argument.
            while j < n and nodes[j].__class__ is Token and (
                    nodes[j].kind is _WHITESPACE or nodes[j].kind is _COMMENT):
                j += 1
        nd = nodes[j] if j < n else None
        stop = None
        if nd.__class__ is GroupNode:
            if letter == "m":
                group, stop = nd, nd.end
        elif nd.__class__ is Token:
            at = max(end - nd.start, 0)  # where the unread part of a text run starts
            if letter == "g":
                stop = _glue_end(nodes, j, at)
            elif letter == "m":
                if nd.kind is _BEGIN_GROUP:  # a group of tokens, to its closing brace
                    depth = 0
                    for k in range(j, n):
                        depth += (nodes[k].kind is _BEGIN_GROUP) - (nodes[k].kind is _END_GROUP)
                        if not depth:
                            break
                    stop = nodes[k].end
            elif nd.kind is _TEXT and nd.value.startswith("*" if letter == "s" else "[", at):
                close = at if letter == "s" else nd.value.find("]", at)
                stop = nd.start + close + 1 if close >= 0 else None
        if stop is None:
            if letter in "mg":
                break
            continue  # an optional argument left out
        star, end = star or letter == "s", stop
        while nodes[j].end < end:
            j += 1
        i = j + (nodes[j].end == end)
    return i, end, star, group


def _glue_end(nodes: list[Node], j: int, at: int) -> int | None:
    """Where glue that starts ``at`` characters into ``nodes[j]`` ends, or
    None when none starts there.  It is matched over the text of a dozen
    adjoining text runs, blanks and control words at most."""
    text = ""
    for k in range(j, min(j + 12, len(nodes))):
        t = nodes[k]
        if t.__class__ is not Token or k > j and t.start != nodes[k - 1].end:
            break
        if t.kind is _TEXT:
            text += t.value
        elif t.kind is _WHITESPACE:
            text += " " * (t.end - t.start)  # a line end reads as a space
        elif t.kind is _CONTROL_WORD:
            text += "\\" + t.value
        else:
            break
    end = _match_glue(text, at)
    return None if end is None else nodes[j].start + end


def _match_glue(text: str, at: int) -> int | None:
    """Where glue that starts at offset ``at`` of ``text`` ends, or None."""
    m = _DIMEN.match(text, at)
    if m is None:
        return None
    end = m.end()
    for keyword in _STRETCH_SHRINK:
        k = keyword.match(text, end)
        if k and (m := _DIMEN.match(text, k.end())):
            end = m.end()
    return end


def after_command(nodes: list[Node]) -> tuple[list[Node], GroupNode | None]:
    """The nodes after the known command ``nodes[0]`` and what it reads,
    and its braced argument if it read one.  A text run that reading
    stopped inside keeps its part after the reading."""
    i, end, _, group = read_arguments(nodes, 1)
    if i < len(nodes) and nodes[i].start < end:
        t = nodes[i]
        return [Token(_TEXT, end, t.end, t.value[end - t.start:]), *nodes[i + 1:]], group
    return nodes[i:], group


def plain_text(toks: list[Token], source: str) -> str:
    """The plain form of a run of tokens lexed from ``source``.  A token
    run that tiles a span of a larger stream gives the same result as
    ``strip_styling`` of that span's text, without lexing it again."""
    parts: list[str] = []
    keep_group_depths: list[int] = []
    # The index in ``parts`` after each kept control word, accents included.
    words: list[int] = []
    depth = 0
    i = 0
    n = len(toks)
    while i < n:
        t = toks[i]
        k = t.kind
        if k is _TEXT:
            parts.append(t.value or "")
        elif k is _WHITESPACE or k is _PAR_BREAK or k is _ALIGNMENT:
            parts.append(" ")
        elif k is _COMMENT or k is _MATH_SHIFT:
            pass
        elif k is _BEGIN_GROUP:
            depth += 1
        elif k is _END_GROUP:
            if keep_group_depths and keep_group_depths[-1] == depth:
                parts.append("}")
                keep_group_depths.pop()
            depth -= 1
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
                if j < n and toks[j].kind is _TEXT and BREAK_SKIP.fullmatch(toks[j].value):
                    i = j
            elif v in ",;:! ":
                parts.append(" ")
            elif v in "&%$#_{}":
                parts.append(source[t.start:t.end])
        elif k is _CONTROL_WORD:
            name = t.value or ""
            if name in ACCENT_WORDS:
                parts.append(source[t.start:t.end])
                words.append(len(parts))
                j = i + 1
                while j < n and toks[j].kind is _WHITESPACE:
                    j += 1
                if j < n and toks[j].kind is _BEGIN_GROUP:
                    parts.append("{")
                    depth += 1
                    keep_group_depths.append(depth)
                    i = j
            elif name in _DECORATIONS:
                # Dropped with its arguments, which are lengths; a skip
                # still reads as a space.
                if name in _SPACE_WORDS:
                    parts.append(" ")
                j, end, _, _ = read_arguments(toks, i + 1)
                if j < n and toks[j].start < end:
                    parts.append(toks[j].value[end - toks[j].start:])
                    j += 1
                i = j - 1
            elif name in _DROPPED:
                pass
            elif name in _SPACE_WORDS:
                parts.append(" ")
            else:
                # A kept word, letter commands included.
                parts.append(source[t.start:t.end])
                words.append(len(parts))
        i += 1
    # Text written right after a kept word, whatever was dropped between
    # them, is parted from it by a space, so that a letter cannot lengthen
    # its name.
    for k in words:
        while k < len(parts) and not parts[k]:
            k += 1
        if k < len(parts) and parts[k][0] not in _SPECIALS and not parts[k][0].isspace():
            parts[k] = " " + parts[k]
    return collapse_blanks("".join(parts))


def span_plain(stream: TokenStream, span: Span, cuts=()) -> str:
    """``strip_styling`` of the text of ``span`` with the ``cuts`` spans
    removed, from the tokens the stream already holds.  An edge may fall
    inside a text run, which keeps its part on the edge's side, or inside
    a blank run, which reads the same in part."""
    toks, run, pos = stream.tokens, [], span.start
    for cut_start, cut_end in (*sorted(cuts), (span.end, span.end)):
        if pos < cut_start:
            i = bisect_right(toks, pos, key=_START) - 1
            part = toks[i:bisect_left(toks, cut_start, i, key=_START)]
            for k in {0, len(part) - 1}:
                t = part[k]
                if t.kind is _TEXT and (t.start < pos or t.end > cut_start):
                    a, b = max(t.start, pos), min(t.end, cut_start)
                    part[k] = Token(_TEXT, a, b, t.value[a - t.start:b - t.start])
            run += part
        pos = max(pos, cut_end)
    return plain_text(run, stream.source)


_ACCENTED = re.compile(
    r"\\(?:(?:" + "|".join(sorted(ACCENT_WORDS))
    + r")\s*\{\s*([^{}]*?)\s*\}|[" + re.escape("".join(sorted(ACCENT_SYMBOLS)))
    + r"]\s*(?:\{\s*([A-Za-z]?)\s*\}|([A-Za-z])))")
_LETTER = re.compile(r"\\(" + "|".join(sorted(LETTER_WORDS)) + r")(?![A-Za-z]) ?")
_UNICODE_LETTER = str.maketrans({letter: word for word, letter in LETTER_WORDS.items()})


def fold_accents(plain: str) -> str:
    """A plain form with its letter and accent commands, and the Unicode
    letters of ``LETTER_WORDS``, as base letters and its braces dropped:
    ``Erd\\H{o}s``, ``Mart\\'{\\i}n``, ``S\\o ren`` and ``Søren`` read
    ``Erdos``, ``Martin``, ``Soren`` and ``Soren``.  A command is a whole
    control word, so ``\\log``, ``\\LaTeX`` and ``\\infty`` stay."""
    s = _LETTER.sub(r"\1", plain)
    if not s.isascii():  # no key of the table is ASCII
        s = s.translate(_UNICODE_LETTER)
    s = _ACCENTED.sub(lambda m: m[1] or m[2] or m[3] or "", s)
    return s.replace("{", "").replace("}", "")


class Affiliation:
    """One affiliation as found in visual front matter: its source text,
    its marker if it has one, and the lines it was read from."""

    __slots__ = ("raw", "marker", "span")

    def __init__(self, raw: str, marker: Marker | None, span: Span):
        self.raw = raw
        self.marker = marker
        self.span = span


class FrontMatter:
    """The authors and affiliations of visual front matter and how they
    connect.  An author is the detector's ``Segment`` of an accepted
    author line, with its raw and plain name, markers and span."""

    __slots__ = ("authors", "affiliations", "author_affiliation_edges", "unresolved_markers",
                 "notes")

    def __init__(self):
        self.authors: list[Segment] = []
        self.affiliations: list[Affiliation] = []
        self.author_affiliation_edges: set[tuple[int, int]] = set()
        self.unresolved_markers: list[tuple[int, Marker]] = []
        self.notes: list[str] = []


def resolve_affiliations(fm: FrontMatter) -> None:
    """Connect ``fm``'s authors to its affiliations by normalized marker
    symbol only, and record the edges, the markers left unmatched and the
    notes on ``fm``.  A marker given twice on one author counts once.

    Markerless fallbacks: a single affiliation claims every markerless
    author list; multiple markerless affiliations attach to every author
    (a flagged superset rather than a guess).
    """
    authors, affiliations = fm.authors, fm.affiliations
    edges = fm.author_affiliation_edges
    by_marker: dict[Marker, int] = {}
    for j, aff in enumerate(affiliations):
        if aff.marker is not None:
            if aff.marker in by_marker:
                fm.notes.append(f"duplicate affiliation marker {aff.marker}")
            else:
                by_marker[aff.marker] = j
    for i, author in enumerate(authors):
        for mk in sorted(set(author.markers), key=str):
            j = by_marker.get(mk)
            if j is None:
                fm.unresolved_markers.append((i, mk))
            else:
                edges.add((i, j))
    markerless = [j for j, aff in enumerate(affiliations) if aff.marker is None]
    if len(affiliations) == 1 and markerless and all(not a.markers for a in authors):
        edges.update((i, 0) for i in range(len(authors)))
    elif markerless and authors:
        edges.update((i, j) for j in markerless for i in range(len(authors)))
        if len(markerless) > 1 or len(authors) > 1:
            fm.notes.append(
                "affiliations without markers were attached to every author"
            )


# ---------------------------------------------------------------------------
# Logical metadata extraction
# ---------------------------------------------------------------------------


class LogicalAuthor:
    """One ``\\author`` entry of a logical document, with its affiliations."""

    def __init__(self, name_raw: str, affiliations_raw: list[str], stream: TokenStream,
                 name_span: Span):
        self.name_raw = name_raw
        self.affiliations_raw = affiliations_raw
        # The plain forms are read on first use from the tree's tokens: the
        # name's span less its cuts (the \thanks), and each affiliation's span.
        self.stream = stream
        self.name_span = name_span
        self.name_cuts: list[Span] = []
        self.affiliation_spans: list[Span] = []

    @cached_property
    def name_plain(self) -> str:
        return span_plain(self.stream, self.name_span, self.name_cuts)

    @cached_property
    def affiliations_plain(self) -> list[str]:
        return [span_plain(self.stream, span) for span in self.affiliation_spans]

    def add_affiliation(self, group: GroupNode) -> None:
        self.affiliations_raw.append(self.stream.text(group.inner).strip())
        self.affiliation_spans.append(group.inner)


class LogicalSection:
    """One sectioning command of a logical document; sections compare by
    their fields, their stream aside."""

    def __init__(self, level: int, heading_raw: str, span: Span, starred: bool,
                 stream: TokenStream, heading_span: Span):
        self.level = level
        self.heading_raw = heading_raw
        self.span = span
        self.starred = starred
        self.stream = stream
        self.heading_span = heading_span

    def __eq__(self, other) -> bool:
        if other.__class__ is not LogicalSection:
            return NotImplemented
        return (self.level, self.heading_raw, self.span, self.starred, self.heading_span) \
            == (other.level, other.heading_raw, other.span, other.starred, other.heading_span)

    @cached_property
    def heading_plain(self) -> str:
        return span_plain(self.stream, self.heading_span)


class LogicalDocument:
    """Positions, raw contents and plain forms of the logical structure
    commands; a plain form is read from the tree's tokens on first use."""

    def __init__(self, stream: TokenStream):
        self.stream = stream
        self.title_raw: str | None = None
        self.title_inner: Span | None = None
        self.title_span: Span | None = None  # whole \title{...} construct
        self.date_span: Span | None = None
        self.authors: list[LogicalAuthor] = []
        self.author_block_spans: list[Span] = []
        self.abstract_raw: str | None = None
        self.abstract_inner: Span | None = None
        self.abstract_span: Span | None = None  # whole environment
        self.maketitle_span: Span | None = None
        self.sections: list[LogicalSection] = []
        self.emphases: list[tuple[str, Span]] = []

    @cached_property
    def title_plain(self) -> str | None:
        return self.title_inner and span_plain(self.stream, self.title_inner)

    @cached_property
    def abstract_plain(self) -> str | None:
        return self.abstract_inner and span_plain(self.stream, self.abstract_inner)


def _split_author_group(group: GroupNode, stream: TokenStream) -> list[LogicalAuthor]:
    """Split an \\author argument on top-level \\and (or commas when no
    \\and is present) and peel per-author \\thanks groups."""
    src, children = stream.source, group.children
    seps: list[tuple[int, int]] = []
    for nd in children:
        if isinstance(nd, Token) and nd.is_control_word("and"):
            seps.append((nd.start, nd.end))
    if not seps:
        for nd in children:
            if isinstance(nd, Token) and nd.kind is TokenKind.TEXT:
                text = nd.value or ""
                for m in re.finditer(",", text):
                    seps.append((nd.start + m.start(), nd.start + m.end()))
    seps.sort()
    # The children are disjoint and in order: a segment's nodes are one
    # slice, each end found by bisection.
    child_starts = [nd.start for nd in children]
    child_ends = [nd.end for nd in children]
    out: list[LogicalAuthor] = []
    for seg_start, seg_end in zip([group.inner_start] + [e for _, e in seps],
                                  [s for s, _ in seps] + [group.inner_end]):
        if seg_end <= seg_start:
            continue
        seg_nodes = children[bisect_left(child_starts, seg_start):
                             bisect_right(child_ends, seg_end)]
        author = LogicalAuthor("", [], stream, Span(seg_start, seg_end))
        j = 0
        while j < len(seg_nodes):
            nd = seg_nodes[j]
            if isinstance(nd, Token) and nd.is_control_word(THANKS):
                after, _, _, g = read_arguments(seg_nodes, j + 1)
                if g is not None:
                    author.add_affiliation(g)
                    author.name_cuts.append(Span(nd.start, g.end))
                    j = after
                    continue
            j += 1
        author.name_raw = spliced(src, author.name_span,
                                  [(cut, "") for cut in author.name_cuts]).strip()
        if author.name_raw or author.affiliations_raw:
            out.append(author)
    return out


def spliced(text: str, span: Span, edits) -> str:
    """The text of ``span`` with each of ``edits``, (span, replacement)
    pairs inside it, in place of its span's text."""
    parts, pos = [], span.start
    for (start, end), replacement in sorted(edits):
        parts.append(text[pos:start])
        parts.append(replacement)
        pos = end
    parts.append(text[pos:span.end])
    return "".join(parts)


def extract_logical(tree: BlockTree) -> LogicalDocument:
    """Read \\title, \\author(+\\thanks/\\affiliation), the abstract
    environment, \\maketitle, section commands and \\emph occurrences."""
    stream = tree.stream
    src = stream.source
    doc = LogicalDocument(stream)

    # Depth first over a stack of open child lists, each with the index of
    # its next node; a command's argument group is read with the command,
    # not entered.
    lists = [[tree.nodes, 0]]
    control_word = TokenKind.CONTROL_WORD
    while lists:
        top = lists[-1]
        nodes, i = top
        # Skip to the next container or control word.
        n = len(nodes)
        while i < n:
            nd = nodes[i]
            cls = nd.__class__
            if cls is Token:
                if nd.kind is control_word:
                    break
            elif cls is GroupNode or cls is EnvNode:
                break
            i += 1
        else:
            lists.pop()
            continue
        top[1] = i + 1
        if cls is not Token:
            if cls is EnvNode and nd.name == "abstract" and doc.abstract_raw is None:
                doc.abstract_raw = src[nd.inner_start:nd.inner_end].strip()
                doc.abstract_inner = nd.inner
                doc.abstract_span = nd.span
            lists.append([nd.children, 0])
            continue
        name = nd.value
        if name == MAKETITLE:
            if doc.maketitle_span is None:
                doc.maketitle_span = nd.span
            continue
        if not (name == TITLE and doc.title_raw is None or name == "date" and doc.date_span is None
                or name == AUTHOR or name in AFFILIATION_WORDS and doc.authors
                or name in SECTION_LEVELS or name == "emph"):
            continue
        top[1], _, starred, g = read_arguments(nodes, i + 1)
        if g is None:
            continue
        if name == TITLE:
            doc.title_raw = src[g.inner_start:g.inner_end].strip()
            doc.title_inner = g.inner
            doc.title_span = Span(nd.start, g.end)
        elif name == "date":
            doc.date_span = Span(nd.start, g.end)
        elif name == AUTHOR:
            doc.authors.extend(_split_author_group(g, stream))
            doc.author_block_spans.append(Span(nd.start, g.end))
        elif name in AFFILIATION_WORDS:
            doc.authors[-1].add_affiliation(g)
            doc.author_block_spans.append(Span(nd.start, g.end))
        elif name in SECTION_LEVELS:
            doc.sections.append(LogicalSection(
                level=SECTION_LEVELS[name],
                heading_raw=src[g.inner_start:g.inner_end].strip(),
                span=Span(nd.start, g.end),
                starred=starred,
                stream=stream,
                heading_span=g.inner,
            ))
        elif name == "emph":
            doc.emphases.append((src[g.inner_start:g.inner_end], Span(nd.start, g.end)))

    return doc
