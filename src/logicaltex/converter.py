"""Turn accepted detections into a span-edit plan and apply it byte-exactly.

Span edits are the only mechanism that changes output bytes: everything
outside an edit span is copied through unchanged, which makes body
preservation checkable rather than hoped for.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

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
    BlockTree,
    EnvNode,
    Span,
    decode_source,
    encode_source,
    parse,
)
from .model import FrontMatter

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


@dataclass(frozen=True)
class ConversionPolicy:
    scope: Scope = Scope.METADATA_ONLY
    affiliation_command: str = "thanks"  # "thanks" or "affiliation"
    apply_threshold: float = AUTO_APPLY_THRESHOLD
    aggressive: bool = False


@dataclass(frozen=True)
class Edit:
    span: Span
    replacement: str
    origin: str


@dataclass(frozen=True)
class RewritePlan:
    edits: tuple[Edit, ...]

    def __post_init__(self):
        prev_end = -1
        prev = None
        for e in self.edits:
            if e.span.start < prev_end:
                raise OverlapError(f"edit at {e.span} overlaps {prev}")
            prev_end = e.span.end
            prev = e

    def __len__(self) -> int:
        return len(self.edits)


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


@dataclass
class PlanResult:
    plan: RewritePlan
    applied: list[tuple[Detection, Edit]]
    skipped: list[tuple[Detection, str]]
    warnings: list[str]


@dataclass
class ConversionReport:
    applied: list[tuple[Detection, Edit]]
    skipped: list[tuple[Detection, str]]
    warnings: list[str]
    class_before: FormattingClass
    plan: RewritePlan
    # The output text when it differs from the input, else None.
    changed_text: str | None = field(default=None, repr=False, compare=False)

    @cached_property
    def class_after(self) -> FormattingClass:
        """The output's class, analysed on first read.  The analysis reads
        only the text, so an unchanged text keeps its class."""
        if self.changed_text is None:
            return self.class_before
        return classify(parse(self.changed_text))


_SECTION_COMMANDS = {1: "section", 2: "subsection", 3: "subsubsection"}


def _gate(dets: DetectionSet, policy: ConversionPolicy) -> None:
    """Record on each detection why the policy skips it, if it does."""
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
        else:
            det.skip_reason = None


def _author_block(fm: FrontMatter, policy: ConversionPolicy, warnings: list[str]) -> str | None:
    if not fm.authors:
        return None
    per_author_affs: list[list[int]] = [[] for _ in fm.authors]
    for (i, j) in sorted(fm.author_affiliation_edges):
        per_author_affs[i].append(j)
    for i, mk in fm.unresolved_markers:
        name = fm.authors[i].name.plain if i < len(fm.authors) else "?"
        warnings.append(
            f"author '{name}' carries marker {mk} with no matching affiliation; "
            "no affiliation attached")
    pieces: list[str] = []
    if policy.affiliation_command == "affiliation":
        for i, author in enumerate(fm.authors):
            pieces.append(f"\\author{{{author.name.raw}}}")
            for j in sorted(set(per_author_affs[i])):
                pieces.append(f"\\affiliation{{{fm.affiliations[j].text.raw}}}")
        block = "\n".join(pieces)
    else:
        entries = []
        for i, author in enumerate(fm.authors):
            entry = author.name.raw
            for j in sorted(set(per_author_affs[i])):
                entry += f"\\thanks{{{fm.affiliations[j].text.raw}}}"
            entries.append(entry)
        block = "\\author{" + " \\and ".join(entries) + "}"
    if MARKER_RESIDUE.search(block):
        warnings.append("marker rendering survived into an author command")
    return block


def plan(tree: BlockTree, dets: DetectionSet, fm: FrontMatter,
         policy: ConversionPolicy) -> PlanResult:
    """Build the ordered, non-overlapping edit list for the detections the
    gate accepted, including \\maketitle placement and theorem preambles.
    ``convert`` runs the gate, which records its verdict on each detection."""
    stream = tree.stream
    skipped = [(d, d.skip_reason) for d in dets.all() if d.skip_reason is not None]
    warnings: list[str] = list(fm.notes)
    applied: list[tuple[Detection, Edit]] = []
    edits: list[Edit] = []

    def emit(det: Detection, span: Span, replacement: str):
        e = Edit(span, replacement, det.kind.value)
        edits.append(e)
        applied.append((det, e))

    accepted_by_kind: dict[DetectionKind, list[Detection]] = {}
    for det in dets.all():
        if det.skip_reason is None:
            accepted_by_kind.setdefault(det.kind, []).append(det)

    # ---- front matter ----------------------------------------------------
    fm_claims: list[tuple[Detection, str | None]] = []
    title_det = next(iter(accepted_by_kind.get(DetectionKind.TITLE, [])), None)
    if title_det is not None:
        raw = (fm.title.raw if fm.title else title_det.data.get("core_raw", "")).strip()
        if raw:
            fm_claims.append((title_det, f"\\title{{{raw}}}"))
        else:
            skipped.append((title_det, "empty title content"))
            title_det = None

    author_dets = accepted_by_kind.get(DetectionKind.AUTHOR_LINE, [])
    author_block = _author_block(fm, policy, warnings) if author_dets else None
    for idx, det in enumerate(author_dets):
        fm_claims.append((det, author_block if idx == 0 else None))
    for det in accepted_by_kind.get(DetectionKind.AFFILIATION_LINE, []):
        fm_claims.append((det, None))

    # Group claims by centered-environment container so a fully claimed
    # environment collapses into one tidy edit.
    by_container: dict[int, list[tuple[Detection, str | None]]] = {}
    loose: list[tuple[Detection, str | None]] = []
    for det, part in fm_claims:
        line = det.data.get("line")
        if line is not None and line.container == "center-env":
            by_container.setdefault(line.container_key, []).append((det, part))
        else:
            loose.append((det, part))

    last_fm_edit_end: int | None = None

    def note_fm_end(end: int):
        nonlocal last_fm_edit_end
        if last_fm_edit_end is None or end > last_fm_edit_end:
            last_fm_edit_end = end

    for det, part in loose:
        line = det.data.get("line")
        span = det.span
        if line is not None:
            end = line.sep_span.end if line.sep_span else line.span.end
            span = Span(line.span.start, end)
        emit(det, span, part or "")
        note_fm_end(span.end)

    for claims in by_container.values():
        lines = {d.data["line"].line_index for d, _ in claims}
        env_span = claims[0][0].data["line"].container_span
        count = claims[0][0].data["line"].env_line_count
        if env_span is not None and lines == set(range(count)):
            parts = [p for _, p in sorted(claims, key=lambda c: c[0].data["line"].line_index) if p]
            replacement = "\n".join(parts)
            e = Edit(env_span, replacement, "front-matter-block")
            edits.append(e)
            for det, _ in sorted(claims, key=lambda c: c[0].data["line"].line_index):
                applied.append((det, e))
            note_fm_end(env_span.end)
        else:
            for det, part in claims:
                line = det.data["line"]
                end = line.sep_span.end if line.sep_span else line.span.end
                span = Span(line.span.start, end)
                emit(det, span, part or "")
                note_fm_end(span.end)

    abstract_det = next(iter(accepted_by_kind.get(DetectionKind.ABSTRACT, [])), None)
    if abstract_det is not None:
        content = abstract_det.data.get("content_raw", "").strip()
        if content:
            replace_span = abstract_det.data.get("replace_span") or abstract_det.span
            label_span = abstract_det.data.get("label_span")
            start = min(replace_span.start, label_span.start) if label_span else replace_span.start
            end = max(replace_span.end, label_span.end) if label_span else replace_span.end
            span = Span(start, end)
            emit(abstract_det, span,
                 "\\begin{abstract}\n" + content + "\n\\end{abstract}")
        else:
            skipped.append((abstract_det, "empty abstract content"))

    # \maketitle goes right after the last title/author/affiliation edit
    # (an abstract further down stays below it), never duplicating one
    # that already exists, even inside a \def body.
    words = dets.region.contents.words
    if last_fm_edit_end is not None and "maketitle" not in words:
        if title_det is not None or "title" in words:
            at = last_fm_edit_end
            edits.append(Edit(Span(at, at), "\n\\maketitle\n", "maketitle-insert"))
        else:
            warnings.append("no title available; \\maketitle not inserted")

    # ---- body ------------------------------------------------------------
    for det in accepted_by_kind.get(DetectionKind.SECTION_HEADER, []):
        heading = det.data.get("heading_raw", "").strip()
        if not heading:
            skipped.append((det, "empty heading content"))
            continue
        cmd = _SECTION_COMMANDS.get(det.level, "subsubsection")
        star = "" if det.data.get("numbered") else "*"
        end = det.span.end
        trailer = re.match(r"\\par(?![a-zA-Z])", stream.source[end:])
        if trailer:
            end += trailer.end()
        emit(det, Span(det.span.start, end), f"\\{cmd}{star}{{{heading}}}")

    theorem_spans: list[Span] = []
    needed_theorems: list[str] = []
    for det in accepted_by_kind.get(DetectionKind.THEOREM_LIKE, []):
        content = det.data.get("content_raw", "").strip()
        if not content:
            skipped.append((det, "empty statement content"))
            continue
        env = det.keyword.lower()
        emit(det, det.span,
             f"\\begin{{{env}}}\n{content}\n\\end{{{env}}}")
        theorem_spans.append(det.span)
        if not re.search(r"\\newtheorem\s*\{\s*" + re.escape(env) + r"\s*\}", stream.source):
            if env not in needed_theorems:
                needed_theorems.append(env)

    for det in accepted_by_kind.get(DetectionKind.EMPHASIS, []):
        if any(t.contains_span(det.span) for t in theorem_spans):
            skipped.append((det, "inside a converted theorem statement"))
            continue
        content = det.data.get("content_raw", "").strip()
        if not content:
            skipped.append((det, "empty emphasis content"))
            continue
        emit(det, det.span, f"\\emph{{{content}}}")

    if needed_theorems:
        at = 0
        for nd in tree.nodes:
            if isinstance(nd, EnvNode) and nd.name == "document":
                at = nd.start
                break
        lines = "".join(
            f"\\newtheorem{{{env}}}{{{env.capitalize()}}}\n" for env in sorted(needed_theorems))
        edits.append(Edit(Span(at, at), lines, "theorem-preamble"))

    edits.sort(key=lambda e: (e.span.start, e.span.end))
    rewrite = RewritePlan(tuple(edits))

    if policy.scope is Scope.METADATA_ONLY and fm.frontmatter_end is not None:
        limit = fm.frontmatter_end.start
        for e in rewrite.edits:
            if e.span.end > limit:
                raise PolicyViolation(
                    f"metadata-only scope but edit {e.origin} ends at {e.span.end} > {limit}")
    return PlanResult(rewrite, applied, skipped, warnings)


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
    result = plan(tree, dets, extract_frontmatter(dets), policy)
    out_text = apply(text, result.plan)
    report = ConversionReport(
        applied=result.applied,
        skipped=result.skipped,
        warnings=result.warnings,
        class_before=classify_detections(dets),
        plan=result.plan,
        changed_text=None if out_text == text else out_text,
    )
    out: str | bytes = encode_source(out_text) if isinstance(source, bytes) else out_text
    return out, report

