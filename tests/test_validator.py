import random
import re
import unicodedata
from collections import Counter

import pytest

from logicaltex.converter import Edit, RewritePlan
from logicaltex.lexer import Span, latin1_fallback
from logicaltex.model import LETTER_WORDS, fold_accents, strip_styling
from logicaltex.validator import (
    ExtractedMetadata,
    MetadataScores,
    Thresholds,
    Verdict,
    check_body_preservation,
    compare_metadata,
    edit_similarity,
    judge,
    levenshtein,
    multiset_f1,
    normalize_for_compare,
    validate,
    validate_structure,
)


def lev_oracle(a: str, b: str) -> int:
    # full-matrix dynamic programming, kept deliberately independent of the
    # production implementation
    dp = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(len(a) + 1):
        dp[i][0] = i
    for j in range(len(b) + 1):
        dp[0][j] = j
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            dp[i][j] = min(
                dp[i - 1][j] + 1,
                dp[i][j - 1] + 1,
                dp[i - 1][j - 1] + (a[i - 1] != b[j - 1]),
            )
    return dp[len(a)][len(b)]


# ---------------------------------------------------------------------------
# structure
# ---------------------------------------------------------------------------

def test_structure_identical_input_empty_delta():
    src = r"\begin{center}{\bf x}\end{center} $m$"
    assert validate_structure(src, src) == []


def test_structure_broken_def_detected():
    original = r"\begin{abstract}fine\end{abstract}"
    converted = r"\def\giorno{15/6/98\end{abstract}"
    delta = validate_structure(original, converted)
    assert ("end-without-begin", "abstract") in delta
    assert ("unclosed-group", "") in delta


def test_structure_preexisting_imbalance_not_counted():
    original = "{unclosed and \\end{foo}"
    converted = "prefix text {unclosed and \\end{foo}"
    assert validate_structure(original, converted) == []


def test_structure_delta_is_positive_only():
    original = "{a} {b"
    converted = "{a} {b}"
    assert validate_structure(original, converted) == []


# ---------------------------------------------------------------------------
# body preservation
# ---------------------------------------------------------------------------

def test_body_preserved_empty_plan_identical():
    ok, off = check_body_preservation("same text", "same text", RewritePlan(()))
    assert ok and off is None


def test_body_violation_reports_offset():
    plan = RewritePlan((Edit(Span(5, 10), "WORLD", "t"),))
    ok, off = check_body_preservation("abcd 12345 tail", "abcd WORLD tXil", plan)
    assert not ok
    assert off == 12


def test_body_violation_injected_word():
    ok, off = check_body_preservation("one two", "one extra two", RewritePlan(()))
    assert not ok and off is not None


def test_body_checks_replacement_text_too():
    plan = RewritePlan((Edit(Span(0, 3), "NEW", "t"),))
    ok, _ = check_body_preservation("old rest", "NEW rest", plan)
    assert ok
    ok2, off2 = check_body_preservation("old rest", "BAD rest", plan)
    assert not ok2 and off2 == 0


_B_TO_XY = RewritePlan((Edit(Span(1, 2), "XY", "t"),))


@pytest.mark.parametrize("converted, offset", [
    ("aXYc", None),
    ("zXYc", 0),  # before the edit
    ("aXZc", 2),  # inside the replacement: its second character
    ("aX", 2),  # the replacement cut short
    ("aXY", 3),  # the tail too short
    ("aXYcd", 4),  # the tail too long
])
def test_body_check_reports_the_first_differing_offset(converted, offset):
    # "abc" with b replaced by XY reads "aXYc".
    assert check_body_preservation("abc", converted, _B_TO_XY) == (offset is None, offset)


# ---------------------------------------------------------------------------
# normalization and similarity
# ---------------------------------------------------------------------------

def test_normalize_case_and_whitespace():
    assert normalize_for_compare("Quantum  Groups") == normalize_for_compare("quantum groups")


def _normalize_filtering_every_text(text: str) -> str:
    s = unicodedata.normalize("NFKD", fold_accents(strip_styling(latin1_fallback(text))))
    s = "".join(ch for ch in s if not unicodedata.combining(ch)).replace("$", "")
    return re.sub(r"\s+", " ", s).strip().casefold()


@pytest.mark.parametrize("text, want", [
    ("Sparse  Cuts in $O(n)$ Time", "sparse cuts in o(n) time"),
    (r"{\bf Erd\H{o}s}", "erdos"),
    ("Erdős", "erdos"),
    ("Søren", "soren"),
    ("e\u0301", "e"),
    ("Ame\u0301lie Lee", "amelie lee"),
])
def test_normalize_drops_combining_marks_of_any_text(text, want):
    # An ASCII text holds no combining marks, so only a text that is not
    # ASCII is filtered for them, with the same result.
    assert normalize_for_compare(text) == _normalize_filtering_every_text(text) == want


def test_normalize_accents_and_markup():
    assert normalize_for_compare(r"Erd\H{o}s, P\'al") == "erdos, pal"
    assert normalize_for_compare("José Älvén") == "jose alven"
    assert normalize_for_compare(r"{\bf The Title}") == "the title"
    assert normalize_for_compare(r"S\o ren \AA berg") == "soren aaberg"
    assert normalize_for_compare("$x$-regular maps") == "x-regular maps"
    # A command is a whole control word: \LaTeX is no \L, \log no \l and
    # \infty no \i.
    assert normalize_for_compare(r"\LaTeX") == r"\latex"
    assert normalize_for_compare(r"$\log n$ steps") == r"\log n steps"
    assert normalize_for_compare(r"$n \to \infty$") == r"n \to \infty"
    # A letter command takes the space that ends it, and may end the text.
    assert normalize_for_compare(r"Bj\o rn \L ukasz") == "bjorn lukasz"
    assert normalize_for_compare(r"Bj\o") == "bjo"
    assert normalize_for_compare(r"Pawe\L") == "pawel"
    assert normalize_for_compare(r"\th orn \ng") == "thorn ng"
    # An empty group ends a letter command too.
    assert normalize_for_compare(r"S\o{}ren") == "soren"
    # A letter command and the Unicode letter it sets read alike.
    for plain, tex in [("Søren Łukasz", r"S\o ren \L ukasz"), ("Ærø", r"\AE r\o"),
                       ("Þór", r"\TH \'or"), ("Paweł", r"Pawe\l"),
                       ("Ångström", r"\AA ngstr\"om")]:
        assert normalize_for_compare(plain) == normalize_for_compare(tex), plain
    for word, letter in LETTER_WORDS.items():
        assert normalize_for_compare(f"x{letter}y") == \
            normalize_for_compare(f"x\\{word} y") == f"x{word.casefold()}y", word


def test_identical_strings_score_one():
    m = compare_metadata(
        ExtractedMetadata("A Title", ["Ann B"], "Abstract text."),
        ExtractedMetadata("A Title", ["Ann B"], "Abstract text."))
    assert m.title_similarity == 1.0
    assert m.author_set_f1 == 1.0
    assert m.abstract_similarity == 1.0
    assert m.missing == []


def test_similarity_matches_independent_oracle():
    a, b = "On Symmetry", "On Symmetries"
    na, nb = normalize_for_compare(a), normalize_for_compare(b)
    expected = 1.0 - lev_oracle(na, nb) / max(len(na), len(nb))
    m = compare_metadata(ExtractedMetadata(a, [], None),
                         ExtractedMetadata(b, [], None))
    assert m.title_similarity == pytest.approx(expected, abs=1e-9)
    assert max(len(na), len(nb)) == 13


def _compare_normalising_all(extracted, reference) -> dict:
    # The scores as normalising every text of both records gives them.
    missing = []
    title = authors = abstract = None
    if extracted.title is not None and reference.title:
        title = edit_similarity(normalize_for_compare(extracted.title),
                                normalize_for_compare(reference.title))
    else:
        missing.append("title")
    if extracted.authors and reference.authors:
        authors = multiset_f1([normalize_for_compare(n) for n, _ in extracted.authors],
                              [normalize_for_compare(n) for n, _ in reference.authors])
    else:
        missing.append("authors")
    if extracted.abstract is not None and reference.abstract:
        abstract = edit_similarity(normalize_for_compare(extracted.abstract),
                                   normalize_for_compare(reference.abstract))
    else:
        missing.append("abstract")
    return {"title_similarity": title, "author_set_f1": authors,
            "abstract_similarity": abstract, "missing": missing}


# Each group holds texts that differ as given: some normalise alike
# (styled and plain, accent and letter commands against Unicode, case and
# blanks), some do not.
_TEXT_VARIANTS = [
    ["Quantum Groups", r"{\bf Quantum Groups}", r"\textbf{Quantum  Groups}", "quantum groups",
     "Quantum Group"],
    [r"Erd\H{o}s Numbers", "Erdős Numbers", r"Erd\H os Numbers", "Erdos numbers",
     "Erdös Numbers"],
    ["Sparse cuts in $O(n)$ time.", "Sparse cuts in O(n) time.",
     r"{\em Sparse} cuts in $O(n)$ time.", "Dense cuts in $O(n^2)$ time."],
    ["", " ", "x"],
]
_NAME_VARIANTS = [
    ["Søren Berg", r"S\o ren Berg", r"S\o{}ren Berg", r"{\bf S\o ren Berg}", "soren  berg",
     "Soren Bergh"],
    ["Paul Erdős", r"Paul Erd\H{o}s", r"P.~Erd\H os", "Paul Erdos"],
    ["Ann B", "ann b", r"\textsc{Ann B}", "Ann  B"],
    ["Łukasz Nowak", r"\L ukasz Nowak", "Lukasz Nowak"],
    ["", "Zed"],
]


def _draw_text(rng):
    return rng.choice([None, *rng.choice(_TEXT_VARIANTS)])


def _draw_pair_text(rng):
    # Equal as given half the time, else mostly a text of the same group.
    a = _draw_text(rng)
    if rng.random() < 0.5:
        return a, a
    group = next((g for g in _TEXT_VARIANTS if a in g), None)
    return a, rng.choice(group) if group and rng.random() < 0.8 else _draw_text(rng)


def _draw_names(rng):
    return [rng.choice(rng.choice(_NAME_VARIANTS)) for _ in range(rng.randrange(0, 5))]


def _draw_pair_names(rng):
    a = _draw_names(rng)
    mode = rng.randrange(4)
    if mode == 0:  # the same names, perhaps in another order
        b = rng.sample(a, len(a))
    elif mode == 1:  # some names kept, some swapped for a variant, some added
        b = [n if rng.random() < 0.5 else rng.choice(next(g for g in _NAME_VARIANTS if n in g))
             for n in a] + _draw_names(rng)[:rng.randrange(2)]
        rng.shuffle(b)
    elif mode == 2:  # duplicates on one side
        b = a + a[:rng.randrange(len(a) + 1)]
    else:  # drawn apart
        b = _draw_names(rng)
    return (a, b) if rng.random() < 0.5 else (b, a)


def test_compare_metadata_scores_as_normalising_every_text():
    rng = random.Random(36)
    seen = Counter()
    for _ in range(3000):
        (ta, tb), (sa, sb), (na, nb) = \
            _draw_pair_text(rng), _draw_pair_text(rng), _draw_pair_names(rng)
        a = ExtractedMetadata(ta, [(n, ["Aff"]) for n in na], sa)
        b = ExtractedMetadata(tb, nb, sb)
        got = compare_metadata(a, b).to_dict()
        assert got == _compare_normalising_all(a, b), (a.to_dict(), b.to_dict())
        ca, cb = Counter(na), Counter(nb)
        kinds = {
            "titles equal": bool(tb) and ta == tb,
            "titles unequal": bool(tb) and ta is not None and ta != tb,
            "titles normalise alike": ta != tb and got["title_similarity"] == 1.0,
            "names equal": bool(na) and ca == cb,
            "names partly equal": bool(ca & cb) and ca != cb,
            "names apart": bool(na and nb) and not ca & cb,
            "names normalise alike": bool(na) and ca != cb and got["author_set_f1"] == 1.0,
            "duplicate names": len(ca) < len(na),
            "missing": bool(got["missing"]),
        }
        seen.update(kind for kind, drawn in kinds.items() if drawn)
    assert len(seen) == len(kinds) and min(seen.values()) >= 50, seen


def test_compare_metadata_normalises_only_what_differs(monkeypatch):
    from logicaltex import validator

    normalised = []
    normalize = validator.normalize_for_compare

    def counting_normalize(text):
        normalised.append(text)
        return normalize(text)

    monkeypatch.setattr(validator, "normalize_for_compare", counting_normalize)
    rec = ExtractedMetadata(r"{\bf A Title}", ["Ann B", r"S\o ren Berg", "Paul Erdős"],
                            r"Abstract with $x$ and Erd\H{o}s.")
    assert compare_metadata(rec, rec).to_dict() == {
        "title_similarity": 1.0, "author_set_f1": 1.0, "abstract_similarity": 1.0, "missing": []}
    assert normalised == []
    other = ExtractedMetadata(rec.title, ["Paul Erdős", "Søren Berg", "Ann B"], rec.abstract)
    assert compare_metadata(rec, other).author_set_f1 == 1.0
    assert sorted(normalised) == sorted([r"S\o ren Berg", "Søren Berg"])


def test_levenshtein_against_oracle_randomized():
    rng = random.Random(99)
    alphabet = "abcde \\{}$\udc81\U0001d400"
    for _ in range(400):
        a = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 30)))
        b = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 30)))
        assert levenshtein(a, b) == lev_oracle(a, b), (a, b)


def test_similarity_symmetric_and_reflexive():
    rng = random.Random(5)
    words = ["alpha", "beta", "gamma", "delta theta", "x y z"]
    for _ in range(50):
        a, b = rng.choice(words), rng.choice(words)
        assert edit_similarity(a, b) == edit_similarity(b, a)
        assert edit_similarity(a, a) == 1.0
    assert edit_similarity("", "") == 1.0
    assert edit_similarity("", "abc") == 0.0


def test_multiset_f1_properties():
    assert multiset_f1([], []) == 1.0
    assert multiset_f1(["a"], []) == 0.0
    assert multiset_f1(["a", "b"], ["b", "a"]) == 1.0
    assert multiset_f1(["a", "a"], ["a"]) == pytest.approx(2 / 3)
    assert multiset_f1(["a", "b", "c"], ["a", "b", "x"]) == pytest.approx(2 / 3)


def test_missing_reference_fields_noted_not_fatal():
    m = compare_metadata(
        ExtractedMetadata("T", ["A"], None),
        ExtractedMetadata("T", [], None))
    assert m.title_similarity == 1.0
    assert m.author_set_f1 is None
    assert "authors" in m.missing and "abstract" in m.missing
    # A title missing from the extraction is noted the same way.
    m = compare_metadata(ExtractedMetadata(None, [], None),
                         ExtractedMetadata("T", [], None))
    assert m.title_similarity is None and "title" in m.missing


# ---------------------------------------------------------------------------
# verdict lattice
# ---------------------------------------------------------------------------

def test_verdict_fail_on_structure_or_body():
    assert judge([("unclosed-group", "")], True, None) is Verdict.FAIL
    assert judge([], False, None) is Verdict.FAIL


def test_verdict_warn_on_low_scores_or_missing():
    low = MetadataScores(title_similarity=0.5, author_set_f1=1.0, abstract_similarity=1.0)
    assert judge([], True, low) is Verdict.WARN
    missing = MetadataScores(title_similarity=1.0, missing=["authors"])
    assert judge([], True, missing) is Verdict.WARN


def test_verdict_pass_with_good_scores():
    good = MetadataScores(1.0, 1.0, 1.0)
    assert judge([], True, good) is Verdict.PASS
    assert judge([], True, None) is Verdict.PASS


def test_verdict_thresholds_configurable():
    m = MetadataScores(title_similarity=0.92, author_set_f1=0.95,
                       abstract_similarity=0.9)
    assert judge([], True, m) is Verdict.PASS
    strict = Thresholds(title=0.99, author_f1=0.99, abstract=0.99)
    assert judge([], True, m, strict) is Verdict.WARN


def test_validate_end_to_end_report():
    from logicaltex.converter import convert

    from conftest import AGGRESSIVE

    src = ("\\begin{document}\n\\centerline{\\bf Short Title Words}\n\n"
           "Body stays.\n\\end{document}\n")
    out, rep = convert(src, AGGRESSIVE)
    report = validate(src, out, rep.plan)
    assert report.verdict is Verdict.PASS
    assert report.body_preserved
    assert report.structural_delta == []
    d = report.to_dict()
    assert d["verdict"] == "pass"
