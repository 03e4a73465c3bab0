"""Turn accepted detections into a span-edit plan and apply it byte-exactly.

Span edits are the only mechanism that changes output bytes: everything
outside an edit span is copied through unchanged, which makes body
preservation checkable rather than hoped for.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from enum import Enum
from functools import cached_property
from typing import NamedTuple

from .detector import (
    AUTO_APPLY_THRESHOLD,
    Detection,
    DetectionKind,
    DetectionSet,
    FormattingClass,
    classify,
    classify_detections,
    detect_all,
    extract_frontmatter,
    passes,
)
from .lexer import (
    BLANKS,
    BlockTree,
    EnvNode,
    Span,
    SpanIndex,
    TokenKind,
    TokenStream,
    decode_source,
    encode_source,
    env_name,
    parse,
    pauses_collector,
)
from .model import MAKETITLE, SECTION_LEVELS, TITLE, TOKEN_START, FrontMatter, closed

MARKER_RESIDUE = re.compile(
    r"\$\s*\^|\\dag\b|\\ddag\b|\\dagger\b|\\ddagger\b|\\footnotemark\b|\\textsuperscript\b"
)


class OverlapError(Exception):
    """Two edits claim intersecting spans; a detector bug, never expected."""


class PolicyViolation(Exception):
    """An edit was planned outside what the policy allows."""


class Scope(Enum):
    METADATA_ONLY = "metadata"
    FULL = "full"


class ConversionPolicy(NamedTuple):
    """What a conversion may rewrite, and how sure a finding must be to apply."""

    scope: Scope = Scope.METADATA_ONLY
    affiliation_command: str = "thanks"  # "thanks" or "affiliation"
    apply_threshold: float = AUTO_APPLY_THRESHOLD
    aggressive: bool = False


class Edit(NamedTuple):
    """One replacement of a source span, tagged with what made it."""

    span: Span
    replacement: str
    origin: str


class RewritePlan:
    """Edits in source order that do not overlap; applying them is the whole rewrite."""

    __slots__ = ("edits",)

    def __init__(self, edits: tuple[Edit, ...]):
        self.edits = edits
        prev_end = -1
        prev = None
        for e in self.edits:
            if e.span.start < prev_end:
                raise OverlapError(f"edit at {e.span} overlaps {prev}")
            prev_end = e.span.end
            prev = e


def apply(source: str | bytes, plan: RewritePlan) -> str | bytes:
    """Replace each edit span; every byte outside the spans is unchanged."""
    text = decode_source(source)
    prev_end = -1
    for e in plan.edits:  # defensive re-check
        if e.span.start < prev_end or e.span.end > len(text):
            raise OverlapError(f"invalid edit span {e.span}")
        prev_end = e.span.end
    parts = []
    pos = 0
    for e in plan.edits:
        parts.append(text[pos:e.span.start])
        parts.append(e.replacement)
        pos = e.span.end
    parts.append(text[pos:])
    out = "".join(parts)
    return encode_source(out) if isinstance(source, bytes) else out


class ConversionReport:
    """What a conversion applied and skipped, and why, with the classes before and after."""

    def __init__(self, applied: list[tuple[Detection, Edit]], skipped: list[tuple[Detection, str]],
                 warnings: list[str], class_before: FormattingClass, plan: RewritePlan):
        self.applied = applied
        self.skipped = skipped
        self.warnings = warnings
        self.class_before = class_before
        self.plan = plan
        # The output text when it differs from the input, else None; set by convert.
        self.changed_text: str | None = None

    @cached_property
    def class_after(self) -> FormattingClass:
        """The output's class, analysed on first read.  The analysis reads
        only the text, so an unchanged text keeps its class."""
        if self.changed_text is None:
            return self.class_before
        return classify(parse(self.changed_text))


_SECTION_COMMANDS = {level: name for name, level in SECTION_LEVELS.items()}
_PAR = re.compile(r"\\par(?![a-zA-Z])")
_FRONT_MATTER_LINES = (DetectionKind.TITLE, DetectionKind.AUTHOR_LINE,
                       DetectionKind.AFFILIATION_LINE)
# The data field each kind's replacement is built from, and its name.
_CONTENT = {
    DetectionKind.TITLE: ("core_raw", TITLE),
    DetectionKind.AFFILIATION_LINE: ("text_raw", "affiliation"),
    DetectionKind.ABSTRACT: ("content_raw", "abstract"),
    DetectionKind.SECTION_HEADER: ("heading_raw", "heading"),
    DetectionKind.THEOREM_LIKE: ("content_raw", "statement"),
    DetectionKind.EMPHASIS: ("content_raw", "emphasis"),
}
# The resolver's two skip reasons, and the reason an affiliation line is
# left in place when no accepted author line would carry its text.
OVERLAP_SKIP = "overlaps a higher-ranked edit"
SCOPE_SKIP = "ends past the front matter under metadata-only scope"
UNCARRIED_SKIP = "no accepted author line carries this affiliation"


def _content(det: Detection) -> str:
    return det.data.get(_CONTENT[det.kind][0], "").strip(BLANKS)


def _gate(dets: DetectionSet, policy: ConversionPolicy) -> None:
    """Record on each detection why it is not rewritten, if it is not:
    the policy skips it, or it has nothing to rewrite to."""
    body_kinds = (DetectionKind.SECTION_HEADER, DetectionKind.EMPHASIS,
                  DetectionKind.THEOREM_LIKE)
    for det in dets.all():
        if det.kind is DetectionKind.TITLE and det is not dets.title:
            det.skip_reason = "superseded by a higher-ranked title candidate"
        elif det.kind in body_kinds and policy.scope is Scope.METADATA_ONLY:
            det.skip_reason = "outside metadata-only scope"
        elif det.kind is DetectionKind.THEOREM_LIKE and not policy.aggressive:
            det.skip_reason = "theorem rewriting requires --aggressive"
        elif not policy.aggressive and not passes(det.confidence, policy.apply_threshold):
            det.skip_reason = f"confidence {det.confidence:.2f} below apply threshold"
        elif det.kind in _CONTENT and not _content(det):
            det.skip_reason = f"empty {_CONTENT[det.kind][1]} content"
        else:
            det.skip_reason = None


def _author_block(fm: FrontMatter, policy: ConversionPolicy, warnings: list[str]) -> str:
    per_author_affs: list[list[int]] = [[] for _ in fm.authors]
    for (i, j) in sorted(fm.author_affiliation_edges):
        per_author_affs[i].append(j)
    for i, mk in fm.unresolved_markers:
        warnings.append(
            f"author '{fm.authors[i].name_plain}' carries marker {mk} with no matching "
            "affiliation; no affiliation attached")
    pieces: list[str] = []
    if policy.affiliation_command == "affiliation":
        for i, author in enumerate(fm.authors):
            pieces.append(f"\\author{{{closed(author.name_raw)}}}")
            for j in per_author_affs[i]:
                pieces.append(f"\\affiliation{{{closed(fm.affiliations[j].raw)}}}")
        block = "\n".join(pieces)
    else:
        entries = []
        for i, author in enumerate(fm.authors):
            entry = closed(author.name_raw)
            for j in per_author_affs[i]:
                entry += f"\\thanks{{{closed(fm.affiliations[j].raw)}}}"
            entries.append(entry)
        block = "\\author{" + " \\and ".join(entries) + "}"
    if MARKER_RESIDUE.search(block):
        warnings.append("marker rendering survived into an author command")
    return block


class _Claim:
    """The span one edit would replace and the detections it rewrites."""

    __slots__ = ("span", "dets", "origin")

    def __init__(self, span: Span, dets: tuple[Detection, ...], origin: str):
        self.span = span
        self.dets = dets
        self.origin = origin


def _edit_span(det: Detection, source: str) -> Span:
    """The span a detection's own edit replaces."""
    line = det.data.get("line")
    if line is not None:
        return Span(line.span.start, (line.sep_span or line.span).end)
    if det.kind is DetectionKind.ABSTRACT:
        replace = det.data.get("replace_span") or det.span
        label = det.data.get("label_span") or replace
        return Span(min(replace.start, label.start), max(replace.end, label.end))
    if det.kind is DetectionKind.SECTION_HEADER and (trailer := _PAR.match(source, det.span.end)):
        return Span(det.span.start, trailer.end())
    return det.span


def _claims(dets: DetectionSet, source: str) -> list[_Claim]:
    """A claim for each accepted detection, in emission order: loose
    front-matter lines, centred environments, the abstract, sections,
    theorems, emphasis.  An environment whose lines are all accepted is
    one claim on the whole environment, so it collapses into one edit."""
    accepted = [d for d in dets.all() if d.skip_reason is None]
    claims: list[_Claim] = []
    by_container: dict[int, list[Detection]] = {}
    for det in accepted:
        line = det.data.get("line")
        if line is not None and line.container == "center-env":
            by_container.setdefault(line.container_span.start, []).append(det)
        elif det.kind in _FRONT_MATTER_LINES:
            claims.append(_Claim(_edit_span(det, source), (det,), det.kind.value))
    for group in by_container.values():
        line = group[0].data["line"]
        if line.container_span is not None and \
                {d.data["line"].line_index for d in group} == set(range(line.env_line_count)):
            group.sort(key=lambda d: d.data["line"].line_index)
            claims.append(_Claim(line.container_span, tuple(group), "front-matter-block"))
        else:
            claims += [_Claim(_edit_span(d, source), (d,), d.kind.value) for d in group]
    for det in (dets.abstract, *dets.sections, *dets.theorems, *dets.emphases):
        if det is not None and det.skip_reason is None:
            claims.append(_Claim(_edit_span(det, source), (det,), det.kind.value))
    return claims


def _resolve(claims: list[_Claim], limit: int | None) -> list[_Claim]:
    """Accept claims in rank order, higher confidence first and emission
    order among equals.  A claim that ends past ``limit`` (the front
    matter's end, under metadata-only scope) or intersects a claim already
    accepted is skipped, and the reason recorded on each detection it
    covers.  Returns the accepted claims in emission order."""
    taken: list[Span] = []  # sorted; disjoint, so their ends are sorted too
    for claim in sorted(claims, key=lambda c: -max([d.confidence for d in c.dets])):
        span = claim.span
        at = bisect_left(taken, span)
        if limit is not None and span.end > limit:
            reason = SCOPE_SKIP
        elif any(span.intersects(t) for t in taken[max(at - 1, 0):at + 1]):
            reason = OVERLAP_SKIP
        else:
            taken.insert(at, span)
            continue
        for det in claim.dets:
            det.skip_reason = reason
    return [c for c in claims if c.dets[0].skip_reason is None]


def _skip_uncarried(dets: DetectionSet, fm: FrontMatter) -> bool:
    """Skip each accepted affiliation line that no author of ``fm``
    carries, since its edit would delete the text; say whether any was."""
    carried = SpanIndex(fm.affiliations[j].span for _, j in fm.author_affiliation_edges)
    uncarried = [d for d in dets.affiliations
                 if d.skip_reason is None and not carried.covers(d.span)]
    for det in uncarried:
        det.skip_reason = UNCARRIED_SKIP
    return bool(uncarried)


def _render(det: Detection, author_block: str | None) -> str:
    """The replacement text for one accepted detection."""
    if det.kind is DetectionKind.TITLE:
        return f"\\title{{{closed(_content(det))}}}"
    if det.kind is DetectionKind.AUTHOR_LINE:
        return author_block or ""
    if det.kind is DetectionKind.ABSTRACT:
        return "\\begin{abstract}\n" + _content(det) + "\n\\end{abstract}"
    if det.kind is DetectionKind.SECTION_HEADER:
        cmd = _SECTION_COMMANDS.get(det.level, "subsubsection")
        star = "" if det.data.get("numbered") else "*"
        return f"\\{cmd}{star}{{{closed(_content(det))}}}"
    if det.kind is DetectionKind.THEOREM_LIKE:
        env = det.keyword.lower()
        return f"\\begin{{{env}}}\n{_content(det)}\n\\end{{{env}}}"
    if det.kind is DetectionKind.EMPHASIS:
        # A command's argument keeps its braces, so the command still
        # reads the whole emphasis.
        emph = f"\\emph{{{closed(_content(det))}}}"
        return f"{{{emph}}}" if det.data.get("argument") else emph
    return ""  # an affiliation line moves into the author block


def _declared_theorems(stream: TokenStream, starts: list[int]) -> set[str]:
    """The environments declared by the ``\\newtheorem`` commands that
    start at ``starts``, starred or not, each name read as the tree
    builder reads an environment's."""
    toks, names = stream.tokens, set()
    for start in starts:
        i = j = bisect_left(toks, start, key=TOKEN_START)
        while j + 1 < len(toks) and toks[j + 1].kind in (TokenKind.WHITESPACE, TokenKind.COMMENT):
            j += 1
        if j + 1 < len(toks) and toks[j + 1].kind is TokenKind.TEXT and toks[j + 1].value == "*":
            i = j + 1
        named = env_name(stream, i)
        if named is not None:
            names.add(named[0])
    return names


def plan(tree: BlockTree, dets: DetectionSet, policy: ConversionPolicy) -> ConversionReport:
    """Resolve the claims of the detections the gate accepted, then build
    the ordered, non-overlapping edit list of the accepted ones, with
    \\maketitle placement and theorem preambles, and report it.
    ``convert`` runs the gate, which records its verdict on each
    detection, and sets the report's output text."""
    stream = tree.stream
    limit = dets.region.span.end if policy.scope is Scope.METADATA_ONLY else None
    accepted = _resolve(_claims(dets, stream.source), limit)
    # Built from the detections the resolver kept, so that a skipped
    # author line is not also named in the author block.
    fm = extract_frontmatter(dets)
    if _skip_uncarried(dets, fm):
        # What is left of the accepted claims stays disjoint and in scope;
        # a centred environment that held a skipped line falls back to
        # claims on its lines.
        accepted = _claims(dets, stream.source)
        fm = extract_frontmatter(dets)
    warnings: list[str] = list(fm.notes)
    first_author = next((d for d in dets.authors if d.skip_reason is None), None)
    author_block = _author_block(fm, policy, warnings) if first_author else None
    applied: list[tuple[Detection, Edit]] = []
    edits: list[Edit] = []
    for claim in accepted:
        parts = [_render(d, author_block if d is first_author else None) for d in claim.dets]
        edits.append(Edit(claim.span, "\n".join(filter(None, parts)), claim.origin))
        applied += [(det, edits[-1]) for det in claim.dets]

    # Zero-width inserts, at points no accepted claim holds: \maketitle right
    # after the last accepted title/author/affiliation claim (an abstract
    # further down stays below it), unless one exists, even inside a \def
    # body; the theorem preamble before the document body.
    words = dets.region.contents.words
    fm_ends = [c.span.end for c in accepted if c.dets[0].kind in _FRONT_MATTER_LINES]
    if fm_ends and MAKETITLE not in words:
        if dets.title is not None and dets.title.skip_reason is None or TITLE in words:
            at = max(fm_ends)
            edits.append(Edit(Span(at, at), "\n\\maketitle\n", "maketitle-insert"))
        else:
            warnings.append("no title available; \\maketitle not inserted")
    envs = {d.keyword.lower() for d in dets.theorems if d.skip_reason is None}
    if envs:
        envs -= _declared_theorems(stream, words.get("newtheorem", []))
    needed_theorems = sorted(envs)
    if needed_theorems:
        at = next((nd.start for nd in tree.nodes
                   if isinstance(nd, EnvNode) and nd.name == "document"), 0)
        lines = "".join(
            f"\\newtheorem{{{env}}}{{{env.capitalize()}}}\n" for env in needed_theorems)
        edits.append(Edit(Span(at, at), lines, "theorem-preamble"))

    edits.sort(key=lambda e: e.span)
    rewrite = RewritePlan(tuple(edits))

    if limit is not None:
        for e in rewrite.edits:
            if e.span.end > limit:
                raise PolicyViolation(
                    f"metadata-only scope but edit {e.origin} ends at {e.span.end} > {limit}")
    skipped = [(d, d.skip_reason) for d in dets.all() if d.skip_reason is not None]
    return ConversionReport(applied, skipped, warnings, classify_detections(dets), rewrite)


@pauses_collector
def convert(source: str | bytes,
            policy: ConversionPolicy | None = None) -> tuple[str | bytes, ConversionReport]:
    """Full pipeline: tokenize, detect, resolve, plan, apply.

    Already-logical input comes back byte-identical with an empty applied
    list; malformed input still produces output plus warnings.  Only the
    input is analysed here: the report analyses the output when its
    ``class_after`` is first read.
    """
    policy = policy or ConversionPolicy()
    text = decode_source(source)
    tree = parse(text)
    dets = detect_all(tree)
    _gate(dets, policy)
    report = plan(tree, dets, policy)
    out_text = apply(text, report.plan)
    report.changed_text = None if out_text == text else out_text
    out: str | bytes = encode_source(out_text) if isinstance(source, bytes) else out_text
    return out, report

