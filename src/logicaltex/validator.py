"""Check conversion outputs structurally and against reference metadata.

Three independent checks: the converted document must not gain structural
diagnostics, bytes outside the edit plan must be untouched, and recovered
metadata is scored against a reference record with normalized edit
similarity.
"""

from __future__ import annotations

import unicodedata
from collections import Counter
from enum import Enum
from typing import NamedTuple

from .converter import RewritePlan
from .lexer import decode_source, latin1_fallback, parse, pauses_collector
from .model import Metadata, collapse_blanks, fold_accents, strip_styling


class Verdict(Enum):
    PASS = "pass"
    WARN = "warn"
    FAIL = "fail"


class MetadataScores:
    """Similarities of extracted metadata to a reference, and the fields either side missed."""

    __slots__ = ("title_similarity", "author_set_f1", "abstract_similarity", "missing")

    def __init__(self, title_similarity: float | None = None, author_set_f1: float | None = None,
                 abstract_similarity: float | None = None, missing: list[str] | None = None):
        self.title_similarity = title_similarity
        self.author_set_f1 = author_set_f1
        self.abstract_similarity = abstract_similarity
        self.missing = [] if missing is None else missing

    def to_dict(self) -> dict:
        return {
            "title_similarity": self.title_similarity,
            "author_set_f1": self.author_set_f1,
            "abstract_similarity": self.abstract_similarity,
            "missing": list(self.missing),
        }


class Thresholds(NamedTuple):
    """The lowest metadata scores that pass."""

    title: float = 0.9
    author_f1: float = 0.9
    abstract: float = 0.85


class ValidationReport:
    """A conversion's structural delta, body check, metadata scores and verdict."""

    __slots__ = ("structural_delta", "body_preserved", "first_difference", "metadata", "verdict",
                 "notes")

    def __init__(self, structural_delta: list[tuple[str, str]], body_preserved: bool,
                 first_difference: int | None, metadata: MetadataScores | None,
                 verdict: Verdict):
        self.structural_delta = structural_delta
        self.body_preserved = body_preserved
        self.first_difference = first_difference
        self.metadata = metadata
        self.verdict = verdict
        self.notes: list[str] = []

    def to_dict(self) -> dict:
        return {
            "structural": [list(k) for k in self.structural_delta],
            "body_preserved": self.body_preserved,
            "first_difference": self.first_difference,
            "metadata_scores": self.metadata.to_dict() if self.metadata else None,
            "verdict": self.verdict.value,
            "notes": list(self.notes),
        }


def validate_structure(original: str | bytes, converted: str | bytes) -> list[tuple[str, str]]:
    """Diagnostics of the converted source minus those already present in
    the original, compared position-independently.  Empty means the
    rewrite introduced no structural damage."""
    before = Counter(d.key() for d in parse(original).diagnostics)
    after = Counter(d.key() for d in parse(converted).diagnostics)
    delta = after - before
    return sorted(delta.elements())


def check_body_preservation(original: str | bytes, converted: str | bytes,
                            plan: RewritePlan) -> tuple[bool, int | None]:
    """True iff the converted text is the original with each of the plan's
    replacements in place of its span; otherwise the offset of the first
    difference in the converted text.  The expected text is built here,
    not by the converter, so the check does not trust the code it checks."""
    orig = decode_source(original)
    conv = decode_source(converted)
    parts, pos = [], 0
    for e in plan.edits:
        parts += (orig[pos:e.span.start], e.replacement)
        pos = e.span.end
    parts.append(orig[pos:])
    expected = "".join(parts)
    if conv == expected:
        return True, None
    n = min(len(conv), len(expected))
    return False, next((k for k in range(n) if conv[k] != expected[k]), n)


# ---------------------------------------------------------------------------
# Metadata comparison
# ---------------------------------------------------------------------------

def normalize_for_compare(text: str) -> str:
    """Lowercase, accents to base letters, whitespace collapsed, braces
    and math shifts dropped: puts marked-up source text and plain API
    text on the same footing."""
    s = fold_accents(strip_styling(latin1_fallback(text)))
    s = unicodedata.normalize("NFKD", s)
    if not s.isascii():  # ASCII holds no combining marks
        s = "".join(ch for ch in s if not unicodedata.combining(ch))
    return collapse_blanks(s.replace("$", "")).casefold()


def levenshtein(a: str, b: str) -> int:
    """Edit distance by Myers' bit-parallel algorithm (JACM 46(3), 1999)
    in Hyyrö's 2001 formulation: bit i of the vectors holds the vertical
    delta in row i of the dynamic-programming column, one Python int per
    vector, with the shorter string as the pattern."""
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    m = len(b)
    if m == 0:
        return len(a)
    peq: dict[str, int] = {}
    for i, ch in enumerate(b):
        peq[ch] = peq.get(ch, 0) | (1 << i)
    mask = (1 << m) - 1
    last = 1 << (m - 1)
    pv, mv, score = mask, 0, m
    for ch in a:
        eq = peq.get(ch, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & last:
            score += 1
        elif mh & last:
            score -= 1
        ph = (ph << 1) | 1
        mh <<= 1
        pv = (mh | ~(xv | ph)) & mask
        mv = ph & xv
    return score


def edit_similarity(a: str, b: str) -> float:
    if not a and not b:
        return 1.0
    denom = max(len(a), len(b))
    return 1.0 - levenshtein(a, b) / denom


def multiset_f1(a: list[str], b: list[str]) -> float:
    if not a and not b:
        return 1.0
    ca, cb = Counter(a), Counter(b)
    return _f1(sum(min(ca[k], cb[k]) for k in ca), len(a), len(b))


def _f1(inter: int, n_a: int, n_b: int) -> float:
    """The F1 score of ``inter`` shared items of ``n_a`` and ``n_b``."""
    if inter == 0:
        return 0.0
    precision = inter / n_a
    recall = inter / n_b
    return 2 * precision * recall / (precision + recall)


def _text_similarity(a: str, b: str) -> float:
    # Equal texts normalise alike, and a text is at distance 0 from itself.
    if a == b:
        return 1.0
    return edit_similarity(normalize_for_compare(a), normalize_for_compare(b))


def _names_f1(a: list[str], b: list[str]) -> float:
    """``multiset_f1`` of the normalised names, with only the names left
    unmatched as given normalised: per normalised name, the shared count
    of the whole lists is the shared count as given, m, plus that of the
    leftovers, since min(m + x, m + y) = m + min(x, y)."""
    ca, cb = Counter(a), Counter(b)
    same = ca & cb
    inter = sum(same.values())
    rest_a, rest_b = ca - same, cb - same
    if rest_a and rest_b:
        na = Counter(normalize_for_compare(name) for name in rest_a.elements())
        nb = Counter(normalize_for_compare(name) for name in rest_b.elements())
        inter += sum((na & nb).values())
    return _f1(inter, len(a), len(b))


# The name that extraction's callers know the one metadata record by.
ExtractedMetadata = Metadata


def compare_metadata(extracted: Metadata, reference: Metadata) -> MetadataScores:
    """Normalized similarity scores of one record against another, field
    by field: the title and the abstract by edit similarity, the author
    names as a multiset.  Texts are compared as given first: a title or
    abstract equal to its reference scores 1.0 without being normalised,
    and only the names left unmatched as given are normalised and matched
    again, so each score is the one the normalised texts give.  A field
    either side lacks is noted as missing instead of scored.
    Affiliations, sections and emphases are not scored yet."""
    scores = MetadataScores()
    if extracted.title is not None and reference.title:
        scores.title_similarity = _text_similarity(extracted.title, reference.title)
    else:
        scores.missing.append("title")
    if extracted.authors and reference.authors:
        scores.author_set_f1 = _names_f1([name for name, _ in extracted.authors],
                                         [name for name, _ in reference.authors])
    else:
        scores.missing.append("authors")
    if extracted.abstract is not None and reference.abstract:
        scores.abstract_similarity = _text_similarity(extracted.abstract, reference.abstract)
    else:
        scores.missing.append("abstract")
    return scores


def judge(structural_delta: list, body_preserved: bool,
          metadata: MetadataScores | None,
          thresholds: Thresholds = Thresholds()) -> Verdict:
    if structural_delta or not body_preserved:
        return Verdict.FAIL
    if metadata is not None:
        checks = (
            (metadata.title_similarity, thresholds.title),
            (metadata.author_set_f1, thresholds.author_f1),
            (metadata.abstract_similarity, thresholds.abstract),
        )
        for value, floor in checks:
            if value is not None and value < floor - 1e-9:
                return Verdict.WARN
        if metadata.missing:
            return Verdict.WARN
    return Verdict.PASS


@pauses_collector
def validate(original: str | bytes, converted: str | bytes, plan: RewritePlan,
             metadata: MetadataScores | None = None,
             thresholds: Thresholds = Thresholds()) -> ValidationReport:
    delta = validate_structure(original, converted)
    preserved, offset = check_body_preservation(original, converted, plan)
    verdict = judge(delta, preserved, metadata, thresholds)
    return ValidationReport(
        structural_delta=delta,
        body_preserved=preserved,
        first_difference=offset,
        metadata=metadata,
        verdict=verdict,
    )
