"""Find visually formatted elements and classify whole documents.

Detection is context-aware on purpose: a bold group inside math, verbatim
text, a comment, or bibliographic markup is never a finding.  Every
detection carries the cues that justify it and a confidence derived from
a fixed scoring table, so rewriting can be gated conservatively.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from enum import Enum
from functools import cached_property
from typing import NamedTuple

from .lexer import (
    BLANKS,
    BlockTree,
    EnvNode,
    GroupNode,
    MathNode,
    Node,
    Span,
    SpanIndex,
    Token,
    TokenKind,
    TokenStream,
    latin1_fallback,
    protected_spans,
)
from .model import (
    ACCENT_SYMBOLS,
    AFFILIATION_WORDS,
    ARGUMENTS,
    AUTHOR,
    AUTHOR_SEPARATORS,
    BREAK_SKIP,
    CENTERLINE,
    FRONT_MATTER_WORDS,
    MAKETITLE,
    MARKER_WORDS,
    PAR,
    SECTION_LEVELS,
    STYLE_WORDS,
    TITLE,
    Affiliation,
    FrontMatter,
    Marker,
    extract_markers,
    fold_accents,
    after_command,
    read_arguments,
    resolve_affiliations,
    span_plain,
    spliced,
)


class CueKind(Enum):
    CENTERED = "centered"
    BOLD = "bold"
    ITALIC = "italic"
    LARGE_FONT = "large-font"
    SOLITARY_PARAGRAPH = "solitary-paragraph"
    NUMBER_PREFIX = "number-prefix"
    MARKER_SYMBOL = "marker-symbol"
    LEADING_KEYWORD = "leading-keyword"
    NEAR_DOCUMENT_START = "near-document-start"
    INSIDE_TITLEPAGE = "inside-titlepage"


# Fixed scoring table, in integer hundredths to keep sums exact.
CUE_WEIGHTS = {
    CueKind.CENTERED: 30,
    CueKind.BOLD: 20,
    CueKind.ITALIC: 20,
    CueKind.LARGE_FONT: 20,
    CueKind.SOLITARY_PARAGRAPH: 20,
    CueKind.NUMBER_PREFIX: 20,
    CueKind.MARKER_SYMBOL: 30,
    CueKind.LEADING_KEYWORD: 40,
    CueKind.NEAR_DOCUMENT_START: 20,
    CueKind.INSIDE_TITLEPAGE: 20,
}

AUTO_APPLY_THRESHOLD = 0.5


class Cue(NamedTuple):
    """One piece of evidence for a finding: its kind, where it is, and the word that gave it."""

    kind: CueKind
    span: Span
    word: str = ""


class DetectionKind(Enum):
    TITLE = "title"
    AUTHOR_LINE = "author-line"
    AFFILIATION_LINE = "affiliation-line"
    ABSTRACT = "abstract"
    SECTION_HEADER = "section-header"
    EMPHASIS = "emphasis"
    THEOREM_LIKE = "theorem-like"


class Detection:
    """One finding: its kind, span, cues and confidence, and the converter's
    skip reason.  Findings compare by their fields."""

    __slots__ = ("kind", "span", "cues", "confidence", "level", "keyword", "data",
                 "skip_reason")

    def __init__(self, kind: DetectionKind, span: Span, cues: frozenset[Cue], confidence: float,
                 level: int = 1, keyword: str = "", data: dict | None = None):
        self.kind = kind
        self.span = span
        self.cues = cues
        self.confidence = confidence
        self.level = level
        self.keyword = keyword
        self.data = {} if data is None else data
        # Set by the converter's gate: why this detection is not rewritten,
        # or None when it is accepted.
        self.skip_reason: str | None = None

    def __eq__(self, other) -> bool:
        if other.__class__ is not Detection:
            return NotImplemented
        return (self.kind, self.span, self.cues, self.confidence, self.level, self.keyword,
                self.data, self.skip_reason) \
            == (other.kind, other.span, other.cues, other.confidence, other.level,
                other.keyword, other.data, other.skip_reason)


def score_cues(cues) -> float:
    points = sum(CUE_WEIGHTS[c.kind] for c in cues)
    return min(100, points) / 100.0


def _scored(kind: DetectionKind, span: Span, cues, **fields) -> Detection:
    return Detection(kind, span, frozenset(cues), score_cues(cues), **fields)


def passes(confidence: float, threshold: float) -> bool:
    return confidence + 1e-9 >= threshold


class DocumentClass(Enum):
    LOGICAL = "logical"
    MIXED = "mixed"
    VISUAL = "visual"


class FormattingClass(NamedTuple):
    """A document's class and the visual score and counts that decided it."""

    label: DocumentClass
    score: float
    visual_count: int = 0
    logical_count: int = 0


class Contents:
    """Where a tree's control words start and its environments lie, by
    name and in document order."""

    __slots__ = ("words", "envs", "_starts")

    def __init__(self, words: dict[str, list[int]], envs: dict[str, list[Span]]):
        self.words = words
        self.envs = envs
        # The sorted starts of each queried pair of name sets, built on first
        # use; the sets are hashable, as frozensets and tuples are.
        self._starts: dict[tuple, list[int]] = {}

    def __eq__(self, other) -> bool:
        if other.__class__ is not Contents:
            return NotImplemented
        return (self.words, self.envs) == (other.words, other.envs)

    def within(self, span: Span, words=(), envs=()) -> bool:
        """Whether one of the named control words or environments starts
        inside ``span``.  The tree nests, so over a span of whole sibling
        nodes this is a search of those nodes and their descendants."""
        starts = self._starts.get((words, envs))
        if starts is None:
            starts = sorted([s for name in words for s in self.words.get(name, ())]
                            + [s.start for name in envs for s in self.envs.get(name, ())])
            self._starts[words, envs] = starts
        i = bisect_left(starts, span.start)
        return i < len(starts) and starts[i] < span.end


def index_contents(tree: BlockTree) -> Contents:
    """The tree's contents, read from what the lexer recorded, without a
    walk of the tree: the tree holds every control word of the stream but
    those in the token ranges it leaves out, and the environments its
    builder closed."""
    toks, positions = tree.stream.tokens, tree.stream.words
    kept: list[int] = []
    at = 0
    for a, b in tree.left_out:
        cut = bisect_left(positions, a, at)
        kept += positions[at:cut]
        at = bisect_left(positions, b, cut)
    kept += positions[at:]
    words: dict[str, list[int]] = {}
    for i in kept:
        t = toks[i]
        words.setdefault(t.value, []).append(t.start)
    envs: dict[str, list[Span]] = {}
    for nd in sorted(tree.closed, key=lambda nd: nd.start):
        envs.setdefault(nd.name, []).append(Span(nd.start, nd.end))
    return Contents(words, envs)


class Region:
    """A stretch of the document body, its lines sliced from the body's one
    segmentation, plus the document's protected and damaged spans and its
    contents; every detector reads them from here."""

    __slots__ = ("span", "lines", "protected", "damaged", "contents", "whole_body_fallback",
                 "abstract", "rest")

    def __init__(self, span: Span, lines: list[Line], protected: SpanIndex, damaged: SpanIndex,
                 contents: Contents, whole_body_fallback: bool = False,
                 rest: list[Line] | None = None):
        self.span = span
        self.lines = lines
        # Math, verbatim and comment spans, and damaged text: the spans of
        # structural diagnostics.  Detectors ask ``admits`` and ``clear``.
        self.protected = protected
        self.damaged = damaged
        self.contents = contents
        self.whole_body_fallback = whole_body_fallback
        # The front matter's abstract, found while bounding the region.
        self.abstract: Detection | None = None
        # The body's lines after the region, cut from the same segmentation.
        self.rest = [] if rest is None else rest

    # No rewrite meets damaged text: it could carry an unclosed construct
    # into the command it writes.

    def admits(self, span: Span) -> bool:
        """Whether a front-matter candidate may cover ``span``: a protected
        span may travel verbatim inside it, but not cross its edges."""
        return not self.damaged.intersects(span) and not self.protected.straddles(span)

    def clear(self, span: Span) -> bool:
        """Whether a body candidate may cover ``span``: no protected span
        meets it."""
        return not self.damaged.intersects(span) and not self.protected.intersects(span)


# ---------------------------------------------------------------------------
# Shared vocabulary
# ---------------------------------------------------------------------------

# What the style peeling reads a word missing from ``STYLE_WORDS`` as.
_NO_STYLE = (None, "unpeeled")
SKIP_ENVIRONMENTS = frozenset({
    "thebibliography", "tabular", "tabular*", "array", "figure", "figure*",
    "table", "table*", "filecontents", "filecontents*", "thanks",
})
BIB_DENYLIST = frozenset({"bibinfo", "bibitem", "newblock", "bibliography"})
# What no emphasis group may hold: a bibliography word or an environment.
_EMPHASIS_DENYLIST = BIB_DENYLIST | {"begin", "end"}

INSTITUTION_KEYWORDS = (
    "universit", "universidad", "institut", "department", "dipartimento",
    "laborator", "school", "center", "centre", "college", "academy",
    "observator", "facult",
)

ABSTRACT_LABEL_RE = re.compile(r"^(abstract|summary)\s*[.:]?\s*$", re.IGNORECASE)
THEOREM_KEYWORDS = (
    "Definition", "Theorem", "Lemma", "Proposition", "Corollary", "Remark", "Example",
)
THEOREM_LABEL_RE = re.compile(
    r"^(" + "|".join(THEOREM_KEYWORDS) + r")\s*(\d+(?:\.\d+)*)?\s*[.:]?\s*$"
)
NUMBER_PREFIX_RE = re.compile(
    r"^\s*(?:\u00a7\s*)?(?P<num>\d+(?:\.\d+)*|[IVXLC]+)\s*[.):]?(?:[\s~]+)(?P<rest>\S.*)$",
    re.DOTALL,
)
# What stands before and after the number in a raw core.
_NUMBER_LEAD_RE = re.compile(r"\s*(?:\u00a7\s*)?")
_NUMBER_TAIL_RE = re.compile(r"\s*[.):]?(?:[\s~]+)")
CAPTION_PREFIX_RE = re.compile(r"^(table|figure|fig\.)\b", re.IGNORECASE)

NAME_PARTICLES = frozenset({
    "van", "von", "de", "del", "della", "der", "den", "da", "di", "la", "le",
    "ter", "ten", "bin", "al", "el", "dos", "das", "du", "af", "av", "zu",
    "and",
})
_WORD_RE = re.compile(r"^[A-Z][A-Za-z'\u00c0-\u024f\-]*\.?$")

PHRASE_MAX = 160
NEAR_START_WINDOW = 500

def looks_like_person_names(plain: str) -> bool:
    """2-6 capitalized words (initials, accents and name particles allowed),
    free of institution keywords."""
    flat = fold_accents(latin1_fallback(plain)).strip().rstrip(",")
    low = flat.casefold()
    if any(k in low for k in INSTITUTION_KEYWORDS):
        return False
    if "@" in flat or any(ch.isdigit() for ch in flat):
        return False
    words = flat.split()
    if not 2 <= len(words) <= 6:
        return False
    caps = 0
    for w in words:
        if w in NAME_PARTICLES:
            continue
        if not _WORD_RE.match(w):
            return False
        caps += 1
    return caps >= 1


# ---------------------------------------------------------------------------
# Line segmentation
# ---------------------------------------------------------------------------


class Line:
    """One visual line of the body: its nodes, container and styles."""

    def __init__(self, stream: TokenStream, span: Span, content_nodes: list[Node],
                 centered: bool, in_titlepage: bool, container: str,
                 container_span: Span | None = None, sep_span: Span | None = None,
                 bold: bool = False, italic: bool = False, large: bool = False,
                 core_nodes: list[Node] | None = None, layout: bool = False):
        self.stream = stream
        self.span = span
        self.content_nodes = content_nodes
        self.centered = centered
        self.in_titlepage = in_titlepage
        self.container = container  # "centerline" | "center-env" | "paragraph"
        self.container_span = container_span
        self.sep_span = sep_span
        self.line_index = 0
        self.env_line_count = 1
        self.only_line_in_block = True
        self.bold = bold
        self.italic = italic
        self.large = large
        self.core_nodes = [] if core_nodes is None else core_nodes
        # Whether a layout word was peeled off the core.
        self.layout = layout
        self.label: Label | None = None
        # The top-level nodes of the paragraph block the line was cut from.
        self.block: list[Node] = []

    @property
    def raw(self) -> str:
        return self.stream.text(self.span)

    @cached_property
    def plain(self) -> str:
        # Only the front matter's detectors read it.  ``plain_text`` reads
        # the wrappers peeled off the core as blanks at most, so the core's
        # text is the line's unless a layout word, which it keeps, was
        # peeled.  Else a label that is the whole line has the same text,
        # computed once for both, or the line's own tokens give it: lines
        # are made of whole nodes, so their spans fall on token boundaries.
        if not self.layout:
            return self.core_plain
        if self.label is not None and self.label.span == self.span:
            return self.label.plain
        return span_plain(self.stream, self.span)

    @cached_property
    def segments(self) -> list[Segment]:
        return split_author_segments(self, self.stream)

    @property
    def core_raw(self) -> str:
        return self.stream.text(_nodes_span(self.core_nodes)) if self.core_nodes else ""

    @cached_property
    def core_plain(self) -> str:
        # A label whose core is the line's reads the same text when no
        # layout word was peeled, computed once for both.
        if self.label is not None and self.label.core is self.core_nodes and not self.layout:
            return self.label.plain
        return span_plain(self.stream, _nodes_span(self.core_nodes)) if self.core_nodes else ""

    @property
    def isolated(self) -> bool:
        if self.container in ("centerline", "center-env"):
            return True
        return self.only_line_in_block

    @property
    def solitary_bold(self) -> bool:
        """Whether the line is a paragraph of its own set bold or large: a
        heading's shape, so neither emphasis nor a theorem label."""
        return self.container == "paragraph" and self.only_line_in_block \
            and (self.bold or self.large)


_NEUTRAL_KINDS = frozenset({TokenKind.WHITESPACE, TokenKind.COMMENT, TokenKind.PAR_BREAK})


def _trim(nodes: list[Node]) -> list[Node]:
    """``nodes`` without its leading and trailing neutral tokens: the list
    itself when it has none, else a copy."""
    n = len(nodes)
    a, b = 0, n
    while a < b and nodes[a].__class__ is Token and nodes[a].kind in _NEUTRAL_KINDS:
        a += 1
    while b > a and nodes[b - 1].__class__ is Token and nodes[b - 1].kind in _NEUTRAL_KINDS:
        b -= 1
    return nodes if b - a == n else nodes[a:b]


def _nodes_span(nodes: list[Node]) -> Span:
    return Span(nodes[0].start, nodes[-1].end)


class Label:
    """A styled keyword construct opening a line, such as
    ``{\\bf Abstract.}``, the core its styles wrap, whether a layout word
    was peeled off it, and the line's nodes after it."""

    def __init__(self, stream: TokenStream, span: Span, bold: bool, italic: bool,
                 content: list[Node], core: list[Node], layout: bool):
        self.stream = stream
        self.span = span
        self.bold = bold
        self.italic = italic
        self.content = content
        self.core = core
        self.layout = layout

    @cached_property
    def plain(self) -> str:
        # Read where the label may open an abstract or a theorem.  Its text
        # is its core's unless a layout word was peeled, as a line's is.
        if self.layout:
            return span_plain(self.stream, self.span)
        return span_plain(self.stream, _nodes_span(self.core))


class _StyleInfo:
    """The styles peeled off a line's content, and the core they wrap."""

    __slots__ = ("bold", "italic", "large", "centered", "layout", "core")

    def __init__(self):
        self.bold = False
        self.italic = False
        self.large = False
        self.centered = False
        self.layout = False
        self.core: list[Node] = []


def analyze_styles(content: list[Node]) -> _StyleInfo:
    """Peel style wrappers that cover the whole content; the remainder is
    the core."""
    info = _StyleInfo()
    nodes = _trim(content)
    control_word = TokenKind.CONTROL_WORD
    # Each turn peels one wrapper off the trimmed remainder.
    while nodes:
        head = nodes[0]
        cls = head.__class__
        if cls is Token:
            if head.kind is not control_word:
                break
            # A look is the name of the flag it sets.
            look, how = STYLE_WORDS.get(head.value, _NO_STYLE)
            if how == "unpeeled":
                break
            rest, group = after_command(nodes)
            rest = _trim(rest)
            if how == "style" and ARGUMENTS[head.value]:
                # A style's argument is what it styles: it is peeled only
                # when it is all of the content.
                if group is None or rest:
                    break
                rest = group.children
            nodes = rest
            if look:
                setattr(info, look, True)
        elif cls is GroupNode and len(nodes) == 1:
            nodes = head.children
        else:
            break
        nodes = _trim(nodes)
    info.core = nodes
    return info


class _Segmenter:
    def __init__(self, stream: TokenStream):
        self.stream = stream
        self.lines: list[Line] = []

    def run(self, nodes: list[Node]) -> list[Line]:
        for block in self._blocks(nodes):
            self._emit_block(block)
        return self.lines

    @staticmethod
    def _blocks(nodes: list[Node]) -> list[list[Node]]:
        """The trimmed runs of ``nodes`` between paragraph breaks and
        ``\\par``, the empty ones left out."""
        par_break, control_word = TokenKind.PAR_BREAK, TokenKind.CONTROL_WORD
        blocks: list[list[Node]] = []
        block: list[Node] = []
        for nd in nodes:
            if nd.__class__ is Token and (
                nd.kind is par_break or nd.kind is control_word and nd.value == PAR
            ):
                block = _trim(block)
                if block:
                    blocks.append(block)
                block = []
            else:
                block.append(nd)
        block = _trim(block)
        if block:
            blocks.append(block)
        return blocks

    def _emit_block(self, block: list[Node]):
        first = len(self.lines)
        top = block

        def flush(block: list[Node], start: int, end: int, in_titlepage: bool):
            # The block's nodes from ``start`` to ``end`` are one line of
            # running text.
            content = _trim(block if end - start == len(block) else block[start:end])
            if content:
                self._add_line(content, centered=False, in_titlepage=in_titlepage,
                               container="paragraph")

        control_word = TokenKind.CONTROL_WORD
        # (block, next index, inside a titlepage): a titlepage's blocks go
        # on top and are emitted before the rest of the block holding it.
        pending = [(block, 0, False)]
        while pending:
            block, i, in_titlepage = pending.pop()
            n = len(block)
            run = i  # where the running text not yet emitted starts
            while i < n:
                nd = block[i]
                cls = nd.__class__
                if cls is Token:
                    if nd.kind is control_word and nd.value == CENTERLINE:
                        j, _, _, group = read_arguments(block, i + 1)
                        if group is not None:
                            flush(block, run, i, in_titlepage)
                            self._add_line(
                                group.children, centered=True, in_titlepage=in_titlepage,
                                container="centerline",
                                span=Span(nd.start, group.end),
                            )
                            i = run = j
                            continue
                elif cls is EnvNode:
                    if nd.name in ("center", "centering"):
                        flush(block, run, i, in_titlepage)
                        self._center_env(nd, in_titlepage)
                        i = run = i + 1
                        continue
                    if nd.name == "titlepage":
                        flush(block, run, i, in_titlepage)
                        pending.append((block, i + 1, in_titlepage))
                        pending.extend((sub, 0, True)
                                       for sub in reversed(self._blocks(nd.children)))
                        break
                i += 1
            else:
                flush(block, run, n, in_titlepage)
        # A titlepage's lines count towards the block that holds it.
        emitted = self.lines[first:]
        for ln in emitted:
            ln.only_line_in_block = len(emitted) == 1
            ln.block = top

    def _center_env(self, env: EnvNode, in_titlepage: bool):
        rows: list[tuple[list[Node], Span | None]] = []
        current: list[Node] = []
        children = list(env.children)
        i = 0
        while i < len(children):
            nd = children[i]
            is_break = isinstance(nd, Token) and (
                (nd.kind is TokenKind.CONTROL_SYMBOL and nd.value == "\\")
                or nd.kind is TokenKind.PAR_BREAK
            )
            if is_break:
                sep_start, sep_end = nd.start, nd.end
                if nd.kind is TokenKind.CONTROL_SYMBOL and i + 1 < len(children):
                    nxt = children[i + 1]
                    if isinstance(nxt, Token) and nxt.kind is TokenKind.TEXT \
                            and BREAK_SKIP.fullmatch(nxt.value):
                        sep_end = nxt.end
                        i += 1
                rows.append((current, Span(sep_start, sep_end)))
                current = []
            else:
                current.append(nd)
            i += 1
        rows.append((current, None))
        made = []
        for content, sep in rows:
            content = _trim(content)
            if not content:
                continue
            made.append(self._add_line(
                content, centered=True, in_titlepage=in_titlepage,
                container="center-env", container_span=env.span, sep_span=sep,
            ))
        for idx, ln in enumerate(made):
            ln.line_index = idx
            ln.env_line_count = len(made)

    def _add_line(self, content: list[Node], *, centered: bool, in_titlepage: bool,
                  container: str, span: Span | None = None,
                  container_span: Span | None = None, sep_span: Span | None = None) -> Line:
        stream = self.stream
        if span is None:
            span = _nodes_span(content)
        info = analyze_styles(content)
        line = Line(
            stream=stream,
            span=span,
            content_nodes=content,
            centered=centered or info.centered,
            in_titlepage=in_titlepage,
            container=container,
            container_span=container_span,
            sep_span=sep_span,
            bold=info.bold,
            italic=info.italic,
            large=info.large,
            core_nodes=info.core,
            layout=info.layout,
        )
        line.label = _leading_label(line, stream)
        self.lines.append(line)
        return line


def document_body(tree: BlockTree) -> tuple[list[Node], Span]:
    for nd in tree.nodes:
        if isinstance(nd, EnvNode) and nd.name == "document":
            return nd.children, nd.inner
    return tree.nodes, Span(0, len(tree.stream.source))


def segment_lines(tree: BlockTree) -> list[Line]:
    """The document body's lines in document order, each holding the block
    it was cut from."""
    nodes, _ = document_body(tree)
    return _Segmenter(tree.stream).run(nodes)


def _split(lines: list[Line], stream: TokenStream, at: int) -> tuple[list[Line], list[Line]]:
    """The lines of the body's top-level nodes that start before ``at``,
    and those of the nodes that start at or after it.  A whole block keeps
    its lines; the block ``at`` cuts, if any, is segmented as its two
    parts, so each side reads as if it had been segmented on its own."""
    i = bisect_left(lines, at, key=lambda ln: ln.block[-1].start)
    j = bisect_left(lines, at, i, key=lambda ln: ln.block[0].start)
    if i == j:
        return lines[:i], lines[i:]
    block = lines[i].block
    k = bisect_left(block, at, key=lambda nd: nd.start)
    return (lines[:i] + _Segmenter(stream).run(block[:k]),
            _Segmenter(stream).run(block[k:]) + lines[j:])


def _region(body: Region, stream: TokenStream, end: int, whole_body_fallback: bool) -> Region:
    """The part of the whole-body region ``body`` that ends at ``end``."""
    head, rest = _split(body.lines, stream, end)
    return Region(Span(body.span.start, end), head, body.protected, body.damaged, body.contents,
                  whole_body_fallback, rest=rest)


_STRUCTURE_WORDS = frozenset({*FRONT_MATTER_WORDS, *SECTION_LEVELS, "abstract"})


def _line_has_logical_commands(line: Line, contents: Contents) -> bool:
    """Lines already carrying structural commands are never candidates;
    this also keeps a second conversion pass from re-claiming its own
    output."""
    return contents.within(line.span, _STRUCTURE_WORDS, ("abstract",))


# ---------------------------------------------------------------------------
# Marker scanning on lines
# ---------------------------------------------------------------------------


class Segment:
    """One author's part of an author line: raw name, markers and their
    spans.  The front matter's record of an accepted author."""

    def __init__(self, stream: TokenStream, span: Span, name_raw: str, markers: list[Marker],
                 marker_spans: list[Span], leading_marker: bool):
        self.stream = stream
        self.span = span
        self.name_raw = name_raw
        self.markers = markers
        self.marker_spans = marker_spans
        self.leading_marker = leading_marker

    @cached_property
    def name_plain(self) -> str:
        # The edits ``_scan_segment`` makes to an author's raw name, made
        # to the plain text of the same tokens.
        plain = re.sub(r"\s+,", ",", span_plain(self.stream, self.span, self.marker_spans))
        return plain.strip(",").strip()


def _marker_construct(nodes: list[Node], i: int, stream: TokenStream) -> tuple[list[Marker], Span] | None:
    nd = nodes[i]
    if isinstance(nd, MathNode):
        found = extract_markers(stream.text(nd.span))
        if found:
            return found, nd.span
        return None
    if isinstance(nd, Token) and nd.kind is TokenKind.CONTROL_WORD:
        name = nd.value or ""
        if name in MARKER_WORDS:
            found = extract_markers("\\" + name)
            if found:
                return found, nd.span
        if name == "footnotemark" or name == "textsuperscript":
            end = read_arguments(nodes, i + 1)[1]
            found = extract_markers(stream.text(Span(nd.start, end))) if end > nd.end else []
            if found:
                return found, Span(nd.start, end)
    return None


def _scan_segment(nodes: list[Node], span: Span, stream: TokenStream,
                  strip_commas: bool = True) -> Segment:
    markers: list[Marker] = []
    spans: list[Span] = []
    leading = False
    i = 0
    first_real = True
    while i < len(nodes):
        nd = nodes[i]
        if nd.__class__ is Token and nd.kind in _NEUTRAL_KINDS:
            i += 1
            continue
        hit = _marker_construct(nodes, i, stream)
        if hit:
            found, mspan = hit
            markers.extend(found)
            spans.append(mspan)
            if first_real:
                leading = True
            while i < len(nodes) and nodes[i].start < mspan.end:
                i += 1
            first_real = False
            continue
        first_real = False
        i += 1
    name_raw = spliced(stream.source, span, [(s, "") for s in spans]).strip()
    name_raw = re.sub(r"\s+,", ",", name_raw).strip()
    if strip_commas:
        name_raw = name_raw.strip(",").strip()
    return Segment(
        stream=stream,
        span=span,
        name_raw=name_raw,
        markers=markers,
        marker_spans=spans,
        leading_marker=leading,
    )


_AND_SPLIT = re.compile(r",|\s+and\s+")


def split_author_segments(line: Line, stream: TokenStream) -> list[Segment]:
    """Split a line's core on top-level separators; each piece keeps the
    marker constructs found inside it."""
    nodes = line.core_nodes
    if not nodes:
        return []
    whole = _nodes_span(nodes)
    cuts: list[tuple[int, int]] = []
    # Textual separators are matched over the joined top-level text so a
    # separator may straddle token boundaries; anything inside a group,
    # math or command argument is off limits.
    mask: list[tuple[int, int]] = []
    for nd in nodes:
        if isinstance(nd, Token) and nd.kind is TokenKind.CONTROL_WORD \
                and nd.value in AUTHOR_SEPARATORS:
            cuts.append((nd.start, nd.end))
        elif isinstance(nd, Token) and nd.kind in (TokenKind.TEXT, TokenKind.WHITESPACE):
            if mask and mask[-1][1] == nd.start:
                mask[-1] = (mask[-1][0], nd.end)
            else:
                mask.append((nd.start, nd.end))
    # The runs are disjoint and in order, as are the nodes: a separator is
    # looked up in the run that starts last at or before it, and a
    # segment's nodes are one slice, each found by bisection.
    run_starts = [r0 for r0, _ in mask]
    raw = stream.text(whole)
    for m in _AND_SPLIT.finditer(raw):
        a, b = whole.start + m.start(), whole.start + m.end()
        k = bisect_right(run_starts, a) - 1
        if k >= 0 and b <= mask[k][1]:
            cuts.append((a, b))
    cuts.sort()
    bounds = [whole.start]
    for s, e in cuts:
        bounds.extend([s, e])
    bounds.append(whole.end)
    starts = [nd.start for nd in nodes]
    ends = [nd.end for nd in nodes]
    segments = []
    for k in range(0, len(bounds), 2):
        a, b = bounds[k], bounds[k + 1]
        if b <= a:
            continue
        # Separators may fall inside a text token, so the segment range is
        # character-based; marker constructs never straddle a separator.
        seg_nodes = nodes[bisect_left(starts, a):bisect_right(ends, b)]
        seg = _scan_segment(seg_nodes, Span(a, b), stream)
        if seg.name_raw or seg.markers:
            segments.append(seg)
    return segments


# ---------------------------------------------------------------------------
# Front-matter region
# ---------------------------------------------------------------------------


def frontmatter_region(tree: BlockTree) -> Region:
    """Span from the start of the document body to the earliest of the
    first sectioning command, an existing \\maketitle, the end of a
    titlepage environment, the first line of body text (a numbered heading
    or a theorem-like label), or the end of the abstract.  The body is
    segmented once; the region holds the lines before its end, keeps the
    lines after it for ``body_region``, and keeps the abstract detected
    while bounding it."""
    _, body = document_body(tree)
    contents = index_contents(tree)
    # Nodes of the body are exactly those that start inside it.
    boundaries = [start for name in (*SECTION_LEVELS, MAKETITLE)
                  for start in contents.words.get(name, []) if body.contains(start)]
    boundaries += [span.end for name in ("titlepage", "abstract")
                   for span in contents.envs.get(name, []) if body.contains(span.start)]
    end = min(boundaries, default=body.end)
    stream = tree.stream
    # A lone backslash at the very end is no diagnostic, but it would
    # escape the closing brace of an edit that covers it.
    damaged = [d.span for d in tree.diagnostics] + [
        t.span for t in stream.tokens[-1:] if t.kind is TokenKind.CONTROL_SYMBOL and not t.value]
    whole = Region(body, segment_lines(tree), SpanIndex(protected_spans(tree)),
                   SpanIndex(damaged), contents)
    # Only lines of blocks wholly before the boundary are segmented alike
    # on either side of it.
    before = bisect_left(whole.lines, end, key=lambda ln: ln.block[-1].start)
    evidence = next((ln.span.start for ln in whole.lines[:before]
                     if _is_body_text(ln, whole)), None)
    if evidence is not None:
        end = min(end, evidence)
    coarse = _region(whole, stream, end, not boundaries and evidence is None)
    det = detect_abstract(tree, coarse)
    if det is not None and det.data["construct_end"] < end:
        # The abstract ends the region.  A search of the shorter region
        # would find it again: its lines are a prefix of these, and the
        # one candidate it can add, its own last titlepage paragraph, is
        # a candidate here already if centred, and else scores 0.20.  A
        # winner here scores that little only as this region's last
        # titlepage paragraph, which then stays the shorter one's last.
        coarse = _region(whole, stream, det.data["construct_end"], False)
    coarse.abstract = det
    return coarse


def body_region(tree: BlockTree, fm: Region) -> Region:
    _, body = document_body(tree)
    return Region(Span(fm.span.end, body.end), fm.rest, fm.protected, fm.damaged,
                  fm.contents)


def _is_body_text(line: Line, region: Region) -> bool:
    """Whether the line is one that only a body holds: a heading
    ``detect_section_headers`` takes, whose core opens with a heading
    number, or a paragraph opened by a theorem-like label.  A titlepage's
    lines are front matter."""
    if line.in_titlepage:
        return False
    if _is_heading(line, region):
        return _opens_with_heading_number(line.core_plain)
    return _theorem_label(line) is not None


def _opens_with_heading_number(core_plain: str) -> bool:
    """Whether a line's core opens with a heading number: one with a digit
    (``1 Introduction``, ``2.1. Setup``), or a Roman numeral of two letters
    or more that a stop follows (``II. Results``).  A lone I, V, X, L or C
    is as often a word or an initial (``I Am``, ``L. Zhang``), so it is
    never a number."""
    m = NUMBER_PREFIX_RE.match(core_plain)
    if m is None:
        return False
    num = m.group("num")
    if any(ch.isdigit() for ch in num):
        return True
    return len(num) > 1 and core_plain[m.end("num"):].lstrip()[:1] in ".):"


# ---------------------------------------------------------------------------
# Detection operations
# ---------------------------------------------------------------------------


# Each style flag of a line, a label or a peeled group, and the cue it gives.
_FLAG_CUES = {"centered": CueKind.CENTERED, "bold": CueKind.BOLD, "italic": CueKind.ITALIC,
              "large": CueKind.LARGE_FONT, "in_titlepage": CueKind.INSIDE_TITLEPAGE}


def _flag_cues(styled, span: Span, flags=tuple(_FLAG_CUES)) -> set[Cue]:
    """The cue of each of ``flags`` that ``styled`` sets, each at ``span``."""
    return {Cue(_FLAG_CUES[flag], span) for flag in flags if getattr(styled, flag)}


def _line_cues(line: Line) -> set[Cue]:
    cues = _flag_cues(line, line.span)
    if line.isolated and len(line.plain) <= PHRASE_MAX:
        cues.add(Cue(CueKind.SOLITARY_PARAGRAPH, line.span))
    return cues


def _front_matter_text(line: Line, region: Region) -> bool:
    """Whether a line may be a title, author or affiliation line: 1 to 250
    characters of plain text and no abstract label, with no structure
    command in it, that the region admits."""
    plain = line.plain
    return (0 < len(plain) <= 250 and not ABSTRACT_LABEL_RE.match(plain)
            and not _line_has_logical_commands(line, region.contents)
            and region.admits(line.span))


def _lists_person_names(line: Line) -> bool:
    """Whether the line is one to eight segments, each a person's name."""
    segs = line.segments
    return 0 < len(segs) <= 8 and all(looks_like_person_names(s.name_plain) for s in segs)


def detect_title(tree: BlockTree, region: Region) -> list[Detection]:
    """Title candidates ranked by confidence, then position."""
    if TITLE in region.contents.words:
        return []
    out: list[Detection] = []
    for line in region.lines:
        if not (line.centered or line.bold or line.large):
            continue
        if not _front_matter_text(line, region):
            continue
        if _opens_with_heading_number(line.core_plain):
            continue  # a numbered heading
        segs = line.segments
        if segs and segs[0].leading_marker:
            continue
        cues = _line_cues(line)
        if line.span.start - region.span.start <= NEAR_START_WINDOW:
            cues.add(Cue(CueKind.NEAR_DOCUMENT_START, line.span))
        out.append(_scored(
            DetectionKind.TITLE,
            line.span,
            cues,
            data={"core_raw": line.core_raw, "line": line},
        ))
    out.sort(key=lambda d: (-d.confidence, d.span.start))
    return out


def detect_authors_affiliations(
    tree: BlockTree, region: Region, title: Detection | None,
) -> tuple[list[Detection], list[Detection]]:
    """Author lines (name-shaped, optionally markered) and affiliation
    lines (institution keywords or marker-led), searched below the title."""
    words = region.contents.words
    if AUTHOR in words:
        return [], []  # an \\author command already states both
    stream = tree.stream
    affils_suppressed = any(name in words for name in AFFILIATION_WORDS)
    start = title.span.end if title is not None else region.span.start
    author_dets: list[Detection] = []
    affil_dets: list[Detection] = []
    for line in region.lines:
        if line.span.start < start or not _front_matter_text(line, region):
            continue
        if line.label is not None and ABSTRACT_LABEL_RE.match(line.label.plain):
            continue  # an abstract-labeled paragraph, not a person or place
        segs = line.segments
        if not segs:
            continue
        low = line.plain.casefold()
        keyworded = any(k in low for k in INSTITUTION_KEYWORDS)
        leading = segs[0].leading_marker
        cues = _line_cues(line)
        marker_spans = [s for seg in segs for s in seg.marker_spans]
        if marker_spans:
            cues.add(Cue(CueKind.MARKER_SYMBOL, marker_spans[0]))
        if keyworded or leading:
            if affils_suppressed:
                continue
            whole = _scan_segment(line.core_nodes, _nodes_span(line.core_nodes),
                                  stream, strip_commas=False)
            affil_dets.append(_scored(
                DetectionKind.AFFILIATION_LINE,
                line.span,
                cues,
                data={
                    "text_raw": whole.name_raw,
                    "marker": whole.markers[0] if whole.leading_marker and whole.markers else None,
                    "line": line,
                },
            ))
            continue
        if _lists_person_names(line):
            author_dets.append(_scored(
                DetectionKind.AUTHOR_LINE,
                line.span,
                cues,
                data={"segments": segs, "line": line},
            ))
    return author_dets, affil_dets


def _leading_label(line: Line, stream: TokenStream) -> Label | None:
    """The styled keyword construct opening the line, after its
    decorations and layout words and what they read, or None."""
    nodes = _trim(line.content_nodes)
    while nodes and nodes[0].__class__ is Token and nodes[0].kind is TokenKind.CONTROL_WORD \
            and STYLE_WORDS.get(nodes[0].value, _NO_STYLE)[1] in ("decoration", "layout"):
        nodes = _trim(after_command(nodes)[0])
    head = nodes[0] if nodes else None
    if head.__class__ is GroupNode:
        label_nodes, content = [head], _trim(nodes[1:])
    elif head.__class__ is Token and head.kind is TokenKind.CONTROL_WORD \
            and STYLE_WORDS.get(head.value, _NO_STYLE)[1] == "style" \
            and (read := after_command(nodes))[1] is not None:
        label_nodes, content = [head, read[1]], _trim(read[0])
    else:
        return None
    if content:
        info = analyze_styles(label_nodes)
        bold, italic, core, layout = info.bold, info.italic, info.core, info.layout
    else:
        # The label is all the line holds after its decorations, so the
        # line's own styles (peeled past the same decorations) are its.
        bold, italic, core, layout = line.bold, line.italic, line.core_nodes, line.layout
    if not core:
        return None
    return Label(stream, _nodes_span(label_nodes), bold, italic, content, core, layout)


def detect_abstract(tree: BlockTree, region: Region) -> Detection | None:
    """The abstract: a keyword-labeled paragraph, a label line followed by
    a paragraph, or an unlabeled centered paragraph (below the auto-apply
    threshold on its own)."""
    if "abstract" in region.contents.envs:
        return None
    stream = tree.stream
    lines = region.lines
    candidates: list[Detection] = []

    def candidate(span: Span, cues, label_span: Span | None, content_raw: str,
                  construct_end: int, **data):
        candidates.append(_scored(DetectionKind.ABSTRACT, span, cues, data={
            "label_span": label_span, "content_raw": content_raw.strip(BLANKS),
            "construct_end": construct_end, **data}))

    trailing_titlepage: Line | None = None
    for ln in lines:
        if ln.in_titlepage and ln.container == "paragraph" and len(ln.plain) >= 80 \
                and not _line_has_logical_commands(ln, region.contents):
            trailing_titlepage = ln
    for idx, line in enumerate(lines):
        if _line_has_logical_commands(line, region.contents):
            continue
        if not region.admits(line.span):
            continue
        label = line.label
        if label is not None and label.content and ABSTRACT_LABEL_RE.match(label.plain):
            content = label.content
            cues = {Cue(CueKind.LEADING_KEYWORD, label.span, "Abstract"),
                    *_flag_cues(label, label.span, ("bold",)),
                    *_flag_cues(line, line.span, ("centered", "in_titlepage"))}
            content_span = _nodes_span(content)
            cinfo = analyze_styles(content)
            if cinfo.italic or label.italic:
                cues.add(Cue(CueKind.ITALIC, content_span))
            content_raw = stream.text(_nodes_span(cinfo.core)) if cinfo.core else ""
            candidate(content_span, cues, label.span, content_raw, line.span.end)
            continue
        if (line.bold or line.italic or line.centered) and ABSTRACT_LABEL_RE.match(line.plain):
            nxt = lines[idx + 1] if idx + 1 < len(lines) else None
            if nxt is not None and nxt.container == "paragraph" and len(nxt.plain) >= 40 \
                    and region.admits(nxt.span):
                cues = {Cue(CueKind.LEADING_KEYWORD, line.span, "Abstract"),
                        *_flag_cues(line, line.span, ("bold", "italic", "centered"))}
                candidate(nxt.span, cues, line.span, nxt.core_raw or nxt.raw, nxt.span.end)
                continue
        unlabeled_centered = (line.centered and len(line.plain) >= 60
                              and line.container != "centerline")
        if unlabeled_centered or line is trailing_titlepage:
            # Unlabeled paragraph: long centered running text, or the
            # trailing paragraph of a titlepage; never a marker-led line,
            # an institution line or a list of person names.
            segs = line.segments
            if segs and segs[0].leading_marker:
                continue
            if any(k in line.plain[:60].casefold() for k in INSTITUTION_KEYWORDS):
                continue
            if _lists_person_names(line):
                continue
            cues = _flag_cues(line, line.span, ("centered", "in_titlepage"))
            span = line.container_span if (
                line.container == "center-env" and line.env_line_count == 1) else line.span
            candidate(line.span, cues, None, line.core_raw or line.raw, span.end,
                      replace_span=span)
    if not candidates:
        return None
    candidates.sort(key=lambda d: (-d.confidence, d.span.start))
    return candidates[0]


def _number_prefix(core_plain: str, core_raw: str):
    m = NUMBER_PREFIX_RE.match(core_plain)
    if not m:
        return None
    num = m.group("num")
    # The number opens with a digit or a Roman letter, so it can stand in
    # the raw core only after all of the blanks and the section sign.
    at = _NUMBER_LEAD_RE.match(core_raw).end()
    raw_m = _NUMBER_TAIL_RE.match(core_raw, at + len(num)) \
        if core_raw.startswith(num, at) else None
    heading_raw = core_raw[raw_m.end():] if raw_m else m.group("rest")
    if num.isdigit() or "." in num:
        level = min(num.rstrip(".").count(".") + 1, 3)
    else:
        level = 1
    return num, level, heading_raw.strip(BLANKS)


def _is_heading(line: Line, region: Region) -> bool:
    """Whether a line reads as a section heading: a solitary bold or large
    paragraph that the region holds clear, whose core is no caption,
    theorem label or bibliography entry."""
    if not line.solitary_bold or not line.core_nodes or not region.clear(line.span):
        return False
    core_plain = line.core_plain
    if not core_plain or len(core_plain) > 120:
        return False
    if CAPTION_PREFIX_RE.match(core_plain) or THEOREM_LABEL_RE.match(core_plain):
        return False
    return not region.contents.within(line.span, BIB_DENYLIST)


def detect_section_headers(tree: BlockTree, region: Region) -> list[Detection]:
    """Solitary bold/large paragraphs in the body, optionally number
    prefixed; level follows the numbering depth."""
    out: list[Detection] = []
    for line in region.lines:
        if not _is_heading(line, region):
            continue
        core_raw = line.core_raw
        cues = {Cue(CueKind.SOLITARY_PARAGRAPH, line.span),
                *_flag_cues(line, line.span, ("bold", "large", "italic"))}
        numbered = _number_prefix(line.core_plain, core_raw)
        if numbered:
            num, level, heading_raw = numbered
            cues.add(Cue(CueKind.NUMBER_PREFIX, line.span, num))
        else:
            level, heading_raw = 1, core_raw.strip(BLANKS)
        out.append(_scored(
            DetectionKind.SECTION_HEADER,
            line.span,
            cues,
            level=level,
            data={"heading_raw": heading_raw, "numbered": bool(numbered)},
        ))
    return out


def _theorem_label(line: Line) -> re.Match | None:
    """The keyword match of a paragraph opened by a bold theorem-like label
    such as ``{\\bf Theorem 1.}``, or None."""
    if line.container != "paragraph" or line.solitary_bold:
        return None
    label = line.label
    if label is None or not label.bold or not label.content:
        return None
    return THEOREM_LABEL_RE.match(label.plain)


def _is_argument(siblings: list[Node], group: GroupNode) -> bool:
    """Whether TeX reads ``group``, one of ``siblings``, as a command's
    argument.  Read back over blanks, comments, groups and text to the
    nearest other node: a known control word reads its ``ARGUMENTS``
    entry, which may or may not reach the group.  Any other control word
    or an accent symbol is taken to read every group up to it, passing
    bracketed optional arguments but no other text, since a macro's
    arguments are not known.  A macro reads at most nine arguments, so
    the search passes at most eight groups and texts, and a row of groups
    costs linear time."""
    k = bisect_left(siblings, group.start, key=lambda nd: nd.start)
    passed = 0
    brackets_only = True
    while k and passed < 9:
        k -= 1
        nd = siblings[k]
        cls = nd.__class__
        if cls is GroupNode:
            passed += 1
            continue
        if cls is not Token:
            return False
        kind = nd.kind
        if kind is TokenKind.WHITESPACE or kind is TokenKind.COMMENT:
            continue
        if kind is TokenKind.TEXT:
            passed += 1
            brackets_only = brackets_only and nd.value.startswith("[") and nd.value.endswith("]")
            continue
        if kind is TokenKind.CONTROL_WORD and nd.value in ARGUMENTS:
            return read_arguments(siblings, k + 1)[1] >= group.end
        return brackets_only and (kind is TokenKind.CONTROL_WORD
                                  or kind is TokenKind.CONTROL_SYMBOL and nd.value in ACCENT_SYMBOLS)
    return False


def detect_emphasis_and_theorems(tree: BlockTree, region: Region) -> list[Detection]:
    """Old-style {\\bf ...}/{\\it ...} groups in running text, and
    paragraphs opened by a bold theorem-like keyword."""
    stream = tree.stream
    out: list[Detection] = []
    claimed: list[Span] = []

    for line in region.lines:
        if line.solitary_bold:
            claimed.append(line.span)  # section candidates are not emphasis
            continue
        m = _theorem_label(line)
        if not m:
            continue
        label = line.label
        if not region.clear(line.span):
            claimed.append(label.span)
            continue
        keyword = m.group(1)
        content_span = _nodes_span(label.content)
        content_raw = stream.text(content_span).lstrip(" .:-\u2014")
        cues = {
            Cue(CueKind.BOLD, label.span),
            Cue(CueKind.LEADING_KEYWORD, label.span, keyword),
        }
        out.append(_scored(
            DetectionKind.THEOREM_LIKE,
            line.span,
            cues,
            keyword=keyword,
            data={"content_raw": content_raw.strip(BLANKS), "label_span": label.span},
        ))
        claimed.append(label.span)

    def group_candidates(nodes: list[Node]):
        # Depth first over an explicit stack of open child lists; an
        # old-style group is a candidate, with whether it is an argument,
        # and is not entered.
        start, end = region.span
        lists, pending = [nodes], [iter(nodes)]
        while pending:
            for nd in pending[-1]:
                cls = nd.__class__
                if cls is EnvNode:
                    if nd.name in SKIP_ENVIRONMENTS:
                        continue
                elif cls is GroupNode:
                    if start <= nd.start < end:
                        style = _old_style_group(nd)
                        if style is not None:
                            yield nd, style, _is_argument(lists[-1], nd)
                            continue
                else:
                    continue
                # A node's descendants start inside it, so a node that
                # ends before the region or starts after it holds none.
                if nd.end <= start or nd.start >= end:
                    continue
                lists.append(nd.children)
                pending.append(iter(nd.children))
                break
            else:
                lists.pop()
                pending.pop()

    def _old_style_group(group: GroupNode):
        kids = _trim(group.children)
        if not kids:
            return None
        head = kids[0]
        if head.__class__ is Token and head.kind is TokenKind.CONTROL_WORD:
            look, how = STYLE_WORDS.get(head.value, _NO_STYLE)
            if how == "style" and look in ("bold", "italic") and not ARGUMENTS[head.value]:
                return look
        return None

    body_nodes, _ = document_body(tree)
    taken = SpanIndex(claimed)
    for group, style, argument in group_candidates(body_nodes):
        span = group.span
        if taken.intersects(span):
            continue
        if not region.clear(span):
            continue
        info = analyze_styles([group])
        if not info.core:
            continue
        if region.contents.within(span, _EMPHASIS_DENYLIST):
            continue
        content_span = _nodes_span(info.core)
        content_raw = stream.text(content_span)
        if not span_plain(stream, content_span):
            continue
        out.append(_scored(
            DetectionKind.EMPHASIS,
            span,
            _flag_cues(info, span, ("bold", "italic")),
            data={"content_raw": content_raw.strip(BLANKS), "argument": argument},
        ))
    out.sort(key=lambda d: d.span.start)
    return out


# ---------------------------------------------------------------------------
# Whole-document runs
# ---------------------------------------------------------------------------


class DetectionSet:
    """Every finding of one document, by kind, and the front-matter region they came from."""

    __slots__ = ("region", "title_candidates", "title", "authors", "affiliations", "abstract",
                 "sections", "emphases", "theorems")

    def __init__(self, region: Region, title_candidates: list[Detection],
                 title: Detection | None, authors: list[Detection],
                 affiliations: list[Detection], abstract: Detection | None,
                 sections: list[Detection], emphases: list[Detection],
                 theorems: list[Detection]):
        self.region = region
        self.title_candidates = title_candidates
        self.title = title
        self.authors = authors
        self.affiliations = affiliations
        self.abstract = abstract
        self.sections = sections
        self.emphases = emphases
        self.theorems = theorems

    def all(self) -> list[Detection]:
        items: list[Detection] = []
        items.extend(self.title_candidates)
        items.extend(self.authors)
        items.extend(self.affiliations)
        if self.abstract:
            items.append(self.abstract)
        items.extend(self.sections)
        items.extend(self.emphases)
        items.extend(self.theorems)
        return items


def detect_all(tree: BlockTree) -> DetectionSet:
    region = frontmatter_region(tree)
    titles = detect_title(tree, region)
    chosen = titles[0] if titles else None
    authors, affils = detect_authors_affiliations(tree, region, chosen)
    body = body_region(tree, region)
    sections = detect_section_headers(tree, body)
    emph_thm = detect_emphasis_and_theorems(tree, body)
    return DetectionSet(
        region=region,
        title_candidates=titles,
        title=chosen,
        authors=authors,
        affiliations=affils,
        abstract=region.abstract,
        sections=sections,
        emphases=[d for d in emph_thm if d.kind is DetectionKind.EMPHASIS],
        theorems=[d for d in emph_thm if d.kind is DetectionKind.THEOREM_LIKE],
    )


_LOGICAL_STRUCTURE_WORDS = (TITLE, AUTHOR, MAKETITLE, *SECTION_LEVELS)


def classify(tree: BlockTree) -> FormattingClass:
    """Logical / Mixed / Visual, scored as the fraction of structural
    elements that are expressed visually."""
    return classify_detections(detect_all(tree))


def classify_detections(dets: DetectionSet) -> FormattingClass:
    """``classify`` for a tree whose detections are already at hand."""
    structural: list[Detection] = []
    if dets.title is not None:
        structural.append(dets.title)
    structural.extend(dets.authors)
    structural.extend(dets.affiliations)
    if dets.abstract is not None:
        structural.append(dets.abstract)
    structural.extend(dets.sections)
    structural.extend(dets.theorems)
    visual = len(structural) + len(dets.emphases)

    contents = dets.region.contents
    logical = len(contents.envs.get("abstract", [])) + sum(
        len(contents.words.get(name, [])) for name in _LOGICAL_STRUCTURE_WORDS)

    score = visual / (visual + logical) if visual else 0.0
    if visual == 0:
        return FormattingClass(DocumentClass.LOGICAL, 0.0, visual, logical)
    fm_logical = "abstract" in contents.envs \
        or any(name in contents.words for name in FRONT_MATTER_WORDS)
    if score >= 0.8 and not fm_logical:
        return FormattingClass(DocumentClass.VISUAL, score, visual, logical)
    return FormattingClass(DocumentClass.MIXED, score, visual, logical)


def _accepted(dets: list[Detection]) -> list[Detection]:
    return [d for d in dets if d.skip_reason is None]


def extract_frontmatter(dets: DetectionSet) -> FrontMatter:
    """Assemble authors, affiliations and their mapping from the detections
    the converter's gate did not skip."""
    fm = FrontMatter()
    for det in _accepted(dets.authors):
        fm.authors += det.data["segments"]
    for det in _accepted(dets.affiliations):
        marker, raw = det.data["marker"], det.data["text_raw"]
        prev = fm.affiliations[-1] if fm.affiliations else None
        # A markerless line continues an affiliation that has a marker or
        # whose text ends with a comma.
        if marker is None and prev and (prev.marker is not None or prev.raw.endswith(",")):
            prev.raw += " " + raw
            prev.span = Span(prev.span.start, det.span.end)
        else:
            fm.affiliations.append(Affiliation(raw, marker, det.span))
    resolve_affiliations(fm)
    if dets.region.whole_body_fallback:
        fm.notes.append("no front-matter boundary found; whole body considered")
    return fm
