import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logicaltex.converter import convert
from logicaltex.detector import (
    _is_argument,
    AUTO_APPLY_THRESHOLD,
    Contents,
    CueKind,
    DetectionKind,
    DocumentClass,
    Region,
    _Segmenter,
    _number_prefix,
    body_region,
    classify,
    detect_abstract,
    detect_all,
    detect_authors_affiliations,
    detect_emphasis_and_theorems,
    detect_section_headers,
    detect_title,
    document_body,
    extract_frontmatter,
    frontmatter_region,
    index_contents,
    looks_like_person_names,
    passes,
    segment_lines,
)
from logicaltex.degrader import degrade
from logicaltex.lexer import EnvNode, Span, Token, TokenKind, parse, protected_spans
from logicaltex.model import MarkerSymbol, span_plain, strip_styling

from conftest import AGGRESSIVE, FIXTURES, FULL_PROFILES, LOGICAL_FIXTURES, PROFILE_SETS, walk
from test_lexer import FRAGMENTS


def cue_names(det):
    return {c.kind for c in det.cues}


def wrap(body, preamble=""):
    return f"\\documentclass{{article}}\n{preamble}\n\\begin{{document}}\n{body}\n\\end{{document}}\n"


# ---------------------------------------------------------------------------
# front-matter region
# ---------------------------------------------------------------------------

def test_region_ends_at_maketitle():
    src = wrap("\\maketitle rest of it\n\\section{Intro}\ntext")
    tree = parse(src)
    region = frontmatter_region(tree)
    assert src[region.span.end:].startswith("\\maketitle")
    assert not region.whole_body_fallback


def test_region_empty_body():
    tree = parse("\\begin{document}\\end{document}")
    region = frontmatter_region(tree)
    assert region.span.length == 0


def test_region_ends_at_titlepage_end():
    src = wrap("\\begin{titlepage}\ncontent here\n\\end{titlepage}\n\nbody text")
    tree = parse(src)
    region = frontmatter_region(tree)
    assert parse(src).stream.text(region.span).rstrip().endswith("\\end{titlepage}")


def test_region_whole_body_fallback_flag():
    src = wrap("just some text\n\nand more text, no boundaries at all")
    assert frontmatter_region(parse(src)).whole_body_fallback


def test_region_ends_at_detected_abstract():
    src = wrap(
        "\\centerline{\\bf A Title}\n\n"
        "\\centerline{Ann Smith}\n\n"
        "{\\bf Abstract. }{\\it Enough text to be an abstract, honestly.}\n\n"
        "First body paragraph that must stay outside the region."
    )
    tree = parse(src)
    region = frontmatter_region(tree)
    assert "First body paragraph" not in tree.stream.text(region.span)
    assert "Abstract" in tree.stream.text(region.span)


def test_region_ends_at_first_numbered_heading():
    src = wrap(
        "\\centerline{\\bf A Title Line}\n\n"
        "\\centerline{Ann Smith}\n\n"
        "{\\bf 1. Introduction}\n\nText.\n\n{\\bf 2. Results}\n\nMore text.")
    tree = parse(src)
    region = frontmatter_region(tree)
    assert src[region.span.end:].startswith("{\\bf 1. Introduction}")
    assert not region.whole_body_fallback
    dets = detect_all(tree)
    assert [d.data["heading_raw"] for d in dets.sections] == ["Introduction", "Results"]
    assert dets.title.data["core_raw"] == "A Title Line"
    assert extract_frontmatter(dets).notes == []


def test_region_ends_at_theorem_label():
    src = wrap(
        "\\centerline{\\bf A Title Line}\n\n"
        "{\\bf Theorem 1.} Every bounded orbit is closed.\n\n"
        "\\centerline{\\bf Not A Title}")
    tree = parse(src)
    region = frontmatter_region(tree)
    assert src[region.span.end:].startswith("{\\bf Theorem 1.}")
    assert not region.whole_body_fallback
    dets = detect_all(tree)
    assert [d.keyword for d in dets.theorems] == ["Theorem"]
    assert [d.data["core_raw"] for d in dets.title_candidates] == ["A Title Line"]


def test_numbered_centred_heading_is_never_a_title():
    src = wrap("\\centerline{\\bf 1 Introduction}\n\nSome text.")
    tree = parse(src)
    assert detect_title(tree, frontmatter_region(tree)) == []


@pytest.mark.parametrize("author", ["L. Zhang", "V. Arnold", "C. Chen", "X. Wang"])
@pytest.mark.parametrize("tail", ["Body text.", "\\section{Intro}\nBody text."])
def test_initial_is_no_heading_number(author, tail):
    # A lone I, V, X, L or C before a stop is an initial here, not a
    # Roman heading number, so the author line stays in the front matter.
    src = wrap(
        "\\centerline{\\bf A Title}\n\n"
        f"{{\\bf {author}}}\n\n"
        "{\\it Dept. of Physics}\n\n"
        "{\\bf Abstract.} Enough text to be an abstract, honestly, it is long.\n\n"
        + tail)
    dets = detect_all(parse(src))
    assert [d.data["line"].raw for d in dets.authors] == [f"{{\\bf {author}}}"]
    assert dets.abstract is not None
    assert dets.sections == []


@pytest.mark.parametrize("title", ["I Am a Title", "C. Elegans Genome", "CIVIL Works"])
def test_title_opening_with_roman_letters_stays_a_title(title):
    src = wrap(f"\\centerline{{\\bf {title}}}\n\n\\centerline{{Ann Smith}}\n\nSome text.")
    tree = parse(src)
    assert detect_title(tree, frontmatter_region(tree))[0].data["core_raw"] == title


def test_region_ends_at_two_letter_roman_heading():
    src = wrap(
        "\\centerline{\\bf A Title Line}\n\n"
        "{\\bf I. Introduction}\n\nText.\n\n{\\bf II. Results}\n\nMore text.")
    region = frontmatter_region(parse(src))
    assert src[region.span.end:].startswith("{\\bf II. Results}")


def test_numbered_bold_headings_without_boundary_become_sections():
    # Plain-TeX style: no \maketitle, \section, abstract or titlepage.
    src = wrap("".join(f"{{\\bf {i}. Heading Number {i}}}\n\nBody text {i}.\n\n"
                       for i in range(1, 6)))
    dets = detect_all(parse(src))
    assert dets.title_candidates == [] and len(dets.sections) == 5
    out, rep = convert(src, AGGRESSIVE)
    assert out.count("\\section{Heading Number") == 5
    assert rep.class_after.label is DocumentClass.LOGICAL
    assert convert(out, AGGRESSIVE)[0] == out


# ---------------------------------------------------------------------------
# titles
# ---------------------------------------------------------------------------

def test_title_centerline_bold():
    src = wrap("\\centerline{\\bf On the Symmetry of X}\n\nrest")
    tree = parse(src)
    dets = detect_title(tree, frontmatter_region(tree))
    assert dets
    top = dets[0]
    assert top.kind is DetectionKind.TITLE
    assert {CueKind.CENTERED, CueKind.BOLD, CueKind.NEAR_DOCUMENT_START} <= cue_names(top)
    assert top.data["core_raw"] == "On the Symmetry of X"
    assert passes(top.confidence, AUTO_APPLY_THRESHOLD)


def test_title_suppressed_when_title_command_exists():
    src = wrap("\\centerline{\\bf Looks Like a Title}", preamble="\\title{Real}")
    tree = parse(src)
    assert detect_title(tree, frontmatter_region(tree)) == []


def test_title_center_env_large_bold():
    src = wrap("\\begin{center}{\\Large\\bf T of Things}\\end{center}\n\nrest")
    tree = parse(src)
    top = detect_title(tree, frontmatter_region(tree))[0]
    assert {CueKind.CENTERED, CueKind.LARGE_FONT, CueKind.BOLD} <= cue_names(top)
    assert top.data["core_raw"] == "T of Things"


def test_title_candidates_ranked_confidence_then_position():
    src = wrap(
        "\\centerline{Plain Early Line Of Words}\n\n"
        "\\centerline{\\Large\\bf The Actual Title Here}\n\nrest")
    tree = parse(src)
    dets = detect_title(tree, frontmatter_region(tree))
    assert dets[0].data["core_raw"] == "The Actual Title Here"
    assert dets[0].confidence > dets[1].confidence


# ---------------------------------------------------------------------------
# authors and affiliations
# ---------------------------------------------------------------------------

def test_author_centerline_name():
    src = wrap("\\centerline{\\bf A Title Line}\n\n\\centerline{Giuseppe Gaeta}\n\nrest")
    tree = parse(src)
    region = frontmatter_region(tree)
    title = detect_title(tree, region)[0]
    authors, affils = detect_authors_affiliations(tree, region, title)
    assert len(authors) == 1
    assert authors[0].data["segments"][0].name_raw == "Giuseppe Gaeta"
    assert affils == []
    assert passes(authors[0].confidence, AUTO_APPLY_THRESHOLD)


def test_person_names_read_letter_commands_and_letters_alike():
    for name in (r"Bj\o rn Stone", r"Bj\o{}rn Stone", "Bjørn Stone",
                 r"\L ukasz Nowak", r"\L{}ukasz Nowak", "Łukasz Nowak"):
        assert looks_like_person_names(strip_styling(name)), name


def test_authors_empty_when_nothing_after_title():
    src = wrap("\\centerline{\\bf Only a Title}")
    tree = parse(src)
    region = frontmatter_region(tree)
    title = detect_title(tree, region)[0]
    authors, affils = detect_authors_affiliations(tree, region, title)
    assert authors == [] and affils == []


def test_two_marker_author_lines_and_numbered_institutes():
    src = wrap(
        "\\centerline{\\bf A Title About Things}\n\n"
        "\\centerline{Maria Santos$^{1,2}$}\n"
        "\\centerline{Igor Petrov$^{1}$}\n"
        "\\centerline{$^{1}$Institute of Examples, University of X}\n"
        "\\centerline{$^{2}$Department of Samples, University of Y}\n\nrest")
    tree = parse(src)
    region = frontmatter_region(tree)
    title = detect_title(tree, region)[0]
    authors, affils = detect_authors_affiliations(tree, region, title)
    assert len(authors) == 2 and len(affils) == 2
    for det in authors + affils:
        assert CueKind.MARKER_SYMBOL in {c.kind for c in det.cues}
    fm = extract_frontmatter(detect_all(tree))
    assert [a.name_plain for a in fm.authors] == ["Maria Santos", "Igor Petrov"]
    assert sorted(fm.author_affiliation_edges) == [(0, 0), (0, 1), (1, 0)]
    assert all(m.symbol is MarkerSymbol.DIGIT
               for a in fm.authors for m in a.markers)


def test_author_lines_strictly_after_title():
    src = wrap(
        "\\centerline{Too Early Jones}\n\n"
        "\\centerline{\\Large\\bf The Title Of It All}\n\n"
        "\\centerline{Later Smith}\n\nrest")
    tree = parse(src)
    region = frontmatter_region(tree)
    title = detect_title(tree, region)[0]
    authors, _ = detect_authors_affiliations(tree, region, title)
    assert all(d.span.start >= title.span.end for d in authors)
    assert [d.data["segments"][0].name_raw for d in authors] == ["Later Smith"]


def test_affiliation_suppressed_when_logical_commands_present():
    src = wrap("\\centerline{Institute of Things, University of X}",
               preamble="\\title{T}\\author{A B}")
    tree = parse(src)
    region = frontmatter_region(tree)
    authors, affils = detect_authors_affiliations(tree, region, None)
    assert authors == [] and affils == []


def test_author_command_stops_the_line_search(monkeypatch):
    # An \\author command states the authors and their affiliations, so
    # no front-matter line is split into name segments.
    from logicaltex import detector

    split = []
    split_segments = detector.split_author_segments

    def recording_split(line, stream):
        split.append(line)
        return split_segments(line, stream)

    monkeypatch.setattr(detector, "split_author_segments", recording_split)
    # test_purely_logical_documents_have_no_detections checks what
    # these find.
    fixtures = [path.read_text() for path in LOGICAL_FIXTURES]
    fixtures = [src for src in fixtures if "\\author" in src]
    assert len(fixtures) >= 10
    for src in fixtures:
        detect_all(parse(src))
    # A name-shaped line and a place-shaped one above \maketitle.
    src = wrap("Ada Byron and Jane Doe\n\nUniversity of Somewhere\n\n\\maketitle\n",
               preamble="\\title{T}\\author{A B}")
    tree = parse(src)
    region = frontmatter_region(tree)
    assert len(region.lines) == 2
    assert detect_authors_affiliations(tree, region, None) == ([], [])
    dets = detect_all(tree)
    assert dets.authors == [] and dets.affiliations == []
    assert split == []


def test_multiline_affiliation_merged():
    src = wrap(
        "\\centerline{\\bf A Title Goes Here}\n\n"
        "\\centerline{Nora Lindqvist$^{1}$}\n"
        "\\centerline{$^{1}$Department of Mathematics,}\n"
        "\\centerline{University of Somewhere, Cityville}\n\nrest")
    tree = parse(src)
    fm = extract_frontmatter(detect_all(tree))
    assert len(fm.affiliations) == 1
    assert fm.affiliations[0].raw == \
        "Department of Mathematics, University of Somewhere, Cityville"


# ---------------------------------------------------------------------------
# abstract
# ---------------------------------------------------------------------------

def test_abstract_labeled_bold_italic():
    src = wrap("{\\bf Abstract. }{\\it We study the things at length here.}\n\nbody")
    tree = parse(src)
    det = detect_abstract(tree, frontmatter_region(tree))
    assert det is not None
    assert {CueKind.LEADING_KEYWORD, CueKind.BOLD, CueKind.ITALIC} <= cue_names(det)
    assert det.data["content_raw"] == "We study the things at length here."
    label_span = det.data["label_span"]
    assert tree.stream.text(label_span) == "{\\bf Abstract. }"
    assert det.span.start >= label_span.end


def test_abstract_none_when_environment_exists():
    src = wrap("\\begin{abstract}Already logical.\\end{abstract}\nbody")
    tree = parse(src)
    assert detect_abstract(tree, frontmatter_region(tree)) is None


def test_abstract_unlabeled_centered_below_threshold():
    filler = ("A sufficiently long unlabeled paragraph of abstract-looking "
              "prose that keeps going for quite a while so the length filter "
              "accepts it as a candidate.")
    src = wrap(
        "\\centerline{\\bf A Title Above It}\n\n"
        "\\centerline{Carol Writer}\n\n"
        f"\\begin{{center}}{{\\small {filler}}}\\end{{center}}\n\nbody")
    tree = parse(src)
    det = detect_abstract(tree, frontmatter_region(tree))
    assert det is not None
    assert not passes(det.confidence, AUTO_APPLY_THRESHOLD)
    assert CueKind.CENTERED in {c.kind for c in det.cues}


def test_abstract_label_line_then_paragraph():
    src = wrap(
        "\\centerline{\\bf Abstract}\n\n"
        "This paragraph carries the actual abstract prose and is long enough "
        "to count as content for the detection.\n\nbody \\section{Intro}")
    tree = parse(src)
    det = detect_abstract(tree, frontmatter_region(tree))
    assert det is not None
    assert CueKind.LEADING_KEYWORD in {c.kind for c in det.cues}
    assert det.data["content_raw"].startswith("This paragraph carries")


# ---------------------------------------------------------------------------
# sections, emphasis, theorems
# ---------------------------------------------------------------------------

def _body(tree):
    return body_region(tree, frontmatter_region(tree))


def test_section_header_bold_large_numbered():
    src = wrap("\\maketitle\n\n\\textbf{\\large 1 Introduction}\n\ntext after")
    tree = parse(src)
    dets = detect_section_headers(tree, _body(tree))
    assert len(dets) == 1
    det = dets[0]
    assert det.level == 1
    assert {CueKind.BOLD, CueKind.LARGE_FONT, CueKind.NUMBER_PREFIX,
            CueKind.SOLITARY_PARAGRAPH} <= cue_names(det)
    assert det.data["heading_raw"] == "Introduction"


@pytest.mark.parametrize("core, expected", [
    ("1 Introduction", ("1", 1, "Introduction")),
    ("2.1. Setup and notation", ("2.1", 2, "Setup and notation")),
    ("3.2.1 Deep", ("3.2.1", 3, "Deep")),
    ("4.1.2.3 Deeper", ("4.1.2.3", 3, "Deeper")),
    ("\u00a7 5 Results", ("5", 1, "Results")),
    ("\u00a76. Results", ("6", 1, "Results")),
    ("  \u00a7  7:  Spaced out", ("7", 1, "Spaced out")),
    ("II. Results", ("II", 1, "Results")),
    ("IV) Open problems", ("IV", 1, "Open problems")),
    ("3~Methods", ("3", 1, "Methods")),
    ("3.~Methods", ("3", 1, "Methods")),
    ("2.1~~Setup", ("2.1", 2, "Setup")),
    ("\u00a7~8 Tilde", None),
    ("Introduction", None),
])
def test_number_prefix(core, expected):
    # The number is found in the plain core and cut from the raw core,
    # which here reads the same.
    assert _number_prefix(core, core) == expected


def test_number_prefix_cuts_the_raw_core():
    assert _number_prefix("2.1. Setup of it", "2.1.~Setup of {\\em it}") == \
        ("2.1", 2, "Setup of {\\em it}")
    # A raw core whose number is spelled otherwise keeps the plain rest.
    assert _number_prefix("3 Methods", "{3} Methods") == ("3", 1, "Methods")


def test_section_levels_from_numbering():
    src = wrap("\\maketitle\n\n{\\bf 2. Results}\n\nt\n\n{\\bf 2.1 Sub}\n\nt")
    tree = parse(src)
    dets = detect_section_headers(tree, _body(tree))
    assert [d.level for d in dets] == [1, 2]


def test_bold_in_math_is_not_a_section_or_emphasis():
    src = wrap("\\maketitle\n\npar one\n\n${\\bf v}$\n\npar two with ${\\bf w}$ inline")
    tree = parse(src)
    assert detect_section_headers(tree, _body(tree)) == []
    assert detect_emphasis_and_theorems(tree, _body(tree)) == []


def test_logical_section_not_detected():
    src = wrap("\\maketitle\n\n\\section{Results}\n\ntext")
    tree = parse(src)
    assert detect_section_headers(tree, _body(tree)) == []


def test_emphasis_in_running_text():
    src = wrap("\\maketitle\n\nThis is an {\\bf important} point and {\\it subtle} too.")
    tree = parse(src)
    dets = detect_emphasis_and_theorems(tree, _body(tree))
    assert [d.data["content_raw"] for d in dets] == ["important", "subtle"]
    assert all(d.kind is DetectionKind.EMPHASIS for d in dets)
    assert all(not passes(d.confidence, AUTO_APPLY_THRESHOLD) for d in dets)


def test_theorem_like_paragraph():
    src = wrap("\\maketitle\n\n{\\bf Definition 2.} A map is nice when it commutes.")
    tree = parse(src)
    dets = detect_emphasis_and_theorems(tree, _body(tree))
    thms = [d for d in dets if d.kind is DetectionKind.THEOREM_LIKE]
    assert len(thms) == 1
    assert thms[0].keyword == "Definition"
    assert thms[0].data["content_raw"].startswith("A map is nice")


def test_bibinfo_bold_not_detected():
    src = wrap(
        "\\maketitle\n\nBody text here.\n\n"
        "\\begin{thebibliography}{9}\n"
        "\\bibitem{x} A. Author, {\\bf \\bibinfo{volume}{3}} (2020) 1--10.\n"
        "\\end{thebibliography}")
    tree = parse(src)
    dets = detect_emphasis_and_theorems(tree, _body(tree))
    assert dets == []
    src2 = wrap("\\maketitle\n\nInline {\\bf \\bibinfo{volume}{3}} citation bold.")
    tree2 = parse(src2)
    assert detect_emphasis_and_theorems(tree2, _body(tree2)) == []


def test_textbf_inline_is_not_emphasis():
    src = wrap("\\maketitle\n\nModern docs use \\textbf{bold} inline legitimately.")
    tree = parse(src)
    assert detect_emphasis_and_theorems(tree, _body(tree)) == []


# ---------------------------------------------------------------------------
# classification and whole-document invariants
# ---------------------------------------------------------------------------

def test_classify_logical_score_zero():
    src = wrap("\\maketitle\n\\begin{abstract}A.\\end{abstract}\n\\section{Intro}\nx",
               preamble="\\title{T}\\author{A B}")
    fc = classify(parse(src))
    assert fc.label is DocumentClass.LOGICAL
    assert fc.score == 0.0


def test_classify_fully_degraded_is_visual(corpus100):
    from logicaltex.degrader import degrade

    name, text = corpus100[0]
    for seed in (0, 1, 5):
        visual, _ = degrade(text, FULL_PROFILES, seed)
        fc = classify(parse(visual))
        assert fc.label is DocumentClass.VISUAL, (seed, fc)
        assert fc.score >= 0.8


def test_classify_mixed_fixture():
    from conftest import FIXTURES

    src = (FIXTURES / "visual" / "mixed_modern.tex").read_text()
    fc = classify(parse(src))
    assert fc.label is DocumentClass.MIXED
    assert 0.0 < fc.score


def test_purely_logical_documents_have_no_detections():
    for path in LOGICAL_FIXTURES:
        tree = parse(path.read_bytes())
        dets = detect_all(tree)
        assert dets.all() == [], path.name
        assert classify(tree).label is DocumentClass.LOGICAL, path.name


def test_detection_deterministic(corpus100):
    from logicaltex.degrader import degrade

    _, text = corpus100[3]
    visual, _ = degrade(text, FULL_PROFILES, 2)

    def snapshot():
        dets = detect_all(parse(visual))
        return [(d.kind.value, d.span.start, d.span.end, d.confidence,
                 sorted(c.kind.value for c in d.cues)) for d in dets.all()]

    assert snapshot() == snapshot()


def test_body_detections_never_intersect_protected(corpus100):
    from logicaltex.degrader import degrade

    for name, text in corpus100[:10]:
        visual, _ = degrade(text, FULL_PROFILES, 1)
        tree = parse(visual)
        prot = protected_spans(tree)
        dets = detect_all(tree)
        for det in dets.sections + dets.emphases + dets.theorems:
            assert not any(det.span.intersects(p) for p in prot), (name, det)
        for det in dets.all():
            for p in prot:
                if det.span.intersects(p):
                    assert det.span.contains_span(p), (name, det.kind, p)


def test_marker_stripping_idempotent():
    src = wrap(
        "\\centerline{\\bf A Title For This}\n\n"
        "\\centerline{Greta Olsen$^{1,2}$ and Finn Berg\\dag}\n\nrest")
    tree = parse(src)
    dets = detect_all(tree)
    names = [s.name_raw for d in dets.authors for s in d.data["segments"]]
    assert names == ["Greta Olsen", "Finn Berg"]
    # stripping an already-stripped name changes nothing
    again = wrap(
        "\\centerline{\\bf A Title For This}\n\n"
        f"\\centerline{{{names[0]} and {names[1]}}}\n\nrest")
    dets2 = detect_all(parse(again))
    names2 = [s.name_raw for d in dets2.authors for s in d.data["segments"]]
    assert names2 == names
    assert all(not s.markers for d in dets2.authors for s in d.data["segments"])


def test_line_plain_matches_strip_styling_of_raw(small_corpus):
    checked = labels = body_lines = 0
    for (name, text), profiles in itertools.product(small_corpus, PROFILE_SETS):
        tree = parse(degrade(text, profiles, 0)[0])
        fm = frontmatter_region(tree)
        body = body_region(tree, fm)
        # The regions hold the lines of a block an edge cuts, segmented
        # again, besides the body's own lines.
        for line in segment_lines(tree) + fm.lines + body.lines:
            assert line.plain == strip_styling(line.raw), (name, profiles, line.raw)
            checked += 1
            if line.label is not None:
                label_raw = tree.stream.text(line.label.span)
                assert line.label.plain == strip_styling(label_raw), (name, label_raw)
                labels += 1
        body_lines += len(body.lines)
    assert checked and labels and body_lines


def test_segment_plain_matches_strip_styling_of_raw(small_corpus):
    # Author names are spliced around their markers; their plain forms
    # come from the tokens the line already holds.
    sources = [path.read_bytes() for path in sorted(FIXTURES.rglob("*.tex"))]
    sources += [degrade(text, profiles, seed)[0] for (_, text), profiles, seed
                in itertools.product(small_corpus, PROFILE_SETS, (0, 1))]
    names = 0
    for source in sources:
        dets = detect_all(parse(source))
        for seg in (seg for d in dets.authors for seg in d.data["segments"]):
            assert seg.name_plain == strip_styling(seg.name_raw), seg.name_raw
            names += 1
    assert names


def test_body_lines_leave_their_plain_text_unread(small_corpus, monkeypatch):
    # The body's detectors read a line's flags, core and label, never its
    # plain text, so detection computes none for the body's lines.
    from logicaltex import detector

    bodies = []
    make_body = detector.body_region

    def recording_body_region(tree, fm):
        bodies.append(make_body(tree, fm))
        return bodies[-1]

    monkeypatch.setattr(detector, "body_region", recording_body_region)
    name, text = small_corpus[0]
    for source in (text, degrade(text, FULL_PROFILES, 0)[0]):
        bodies.clear()
        dets = detect_all(parse(source))
        assert len(bodies) == 1 and bodies[0].lines, name
        assert "\\section" in source or dets.sections
        assert [line.raw for line in bodies[0].lines if "plain" in vars(line)] == []


def test_detect_all_analyses_each_line_once(monkeypatch):
    from logicaltex import detector

    searched, labelled, split = [], [], []
    find_abstract, leading_label, split_segments = (
        detector.detect_abstract, detector._leading_label, detector.split_author_segments)

    def recording_detect_abstract(tree, region):
        searched.append(region)
        return find_abstract(tree, region)

    def recording_leading_label(line, stream):
        labelled.append(line)
        return leading_label(line, stream)

    def recording_split(line, stream):
        split.append(line)
        return split_segments(line, stream)

    monkeypatch.setattr(detector, "detect_abstract", recording_detect_abstract)
    monkeypatch.setattr(detector, "_leading_label", recording_leading_label)
    monkeypatch.setattr(detector, "split_author_segments", recording_split)
    detect_all(parse((FIXTURES / "visual" / "mixed_modern.tex").read_text()))
    assert len(searched) == 1
    labelled.clear()
    split.clear()
    detect_all(parse((FIXTURES / "visual" / "gaeta_style.tex").read_text()))
    assert labelled and split
    assert len({id(line) for line in labelled}) == len(labelled)
    assert len({id(line) for line in split}) == len(split)


@pytest.mark.parametrize("body", [
    "{\\bf Abstract.}",
    "\\noindent \\textbf{Theorem 1.}",
    "{\\large {\\it " * 50 + "Deep" + "}}" * 50,
])
def test_whole_line_label_shares_the_line_analysis(monkeypatch, body):
    from logicaltex import detector

    analysed = []
    analyze_styles = detector.analyze_styles

    def counting_analyze_styles(content):
        analysed.append(content)
        return analyze_styles(content)

    monkeypatch.setattr(detector, "analyze_styles", counting_analyze_styles)
    [line] = frontmatter_region(parse(wrap(body))).lines
    assert len(analysed) == 1
    assert line.label is not None
    assert (line.label.bold, line.label.italic) == (line.bold, line.italic)
    assert line.plain == strip_styling(line.raw)
    if line.label.span == line.span:
        assert line.label.plain is line.plain


def test_detect_all_reads_each_spans_plain_text_once(monkeypatch):
    # A bold title line's plain text is its label's and its core's, and an
    # affiliation line's is read for its detection only, so no span's
    # plain text is computed twice.
    from logicaltex import detector

    spans = []

    def counting_span_plain(stream, span, cuts=()):
        spans.append(span)
        return span_plain(stream, span, cuts)

    monkeypatch.setattr(detector, "span_plain", counting_span_plain)
    dets = detect_all(parse(wrap(
        "{\\bf A Study of Things}\n\n"
        "Ann Lee$^{1}$ and Bob Stone$^{2}$\n\n"
        "$^{1}$University of Somewhere\n\n"
        "{\\bf Abstract.} We study things in depth.\n\n\\section{Intro}\nBody.")))
    assert dets.title and dets.authors and dets.affiliations and dets.abstract
    assert len(spans) >= 6
    assert [span for span, n in Counter(spans).items() if n > 1] == []


def _detect_all_calls_once_per_tree(monkeypatch, small_corpus, name):
    # Over the fixtures and degraded documents, ``detect_all`` calls the
    # detector function ``name`` once, on the tree it was given.
    from logicaltex import detector

    called = []
    function = getattr(detector, name)

    def recording(tree, *args):
        called.append(tree)
        return function(tree, *args)

    monkeypatch.setattr(detector, name, recording)
    sources = [path.read_text() for path in sorted(FIXTURES.rglob("*.tex"))]
    sources += [degrade(text, profiles, 0)[0]
                for (_, text), profiles in itertools.product(small_corpus[:2], PROFILE_SETS)]
    for src in sources:
        called.clear()
        tree = parse(src)
        detect_all(tree)
        assert len(called) == 1 and called[0] is tree


def test_detect_all_segments_each_tree_once(monkeypatch, small_corpus):
    _detect_all_calls_once_per_tree(monkeypatch, small_corpus, "segment_lines")


def test_detect_all_searches_each_abstract_once(monkeypatch, small_corpus):
    _detect_all_calls_once_per_tree(monkeypatch, small_corpus, "detect_abstract")


# Fragments that bound the front matter explicitly, by an abstract or by
# body text, and that cut paragraph blocks at every kind of edge.
REGION_FRAGMENTS = [
    "\\maketitle", "\\section{A}", "\\begin{titlepage}", "\\end{titlepage}",
    "{\\bf Abstract.}", "\\noindent{\\bf 2. Results}\\par", "\\centerline{\\bf 1 Intro}",
    "\\centerline{Ann Lee}", "{\\bf Theorem 1.}", "\\par", "\n", "\n\n", " ",
    "Words of running text.",
]


def _segmented_apart(tree, span):
    # Each region's own segmentation: the body's top-level nodes that start
    # inside the span.
    nodes, _ = document_body(tree)
    return _Segmenter(tree.stream).run([nd for nd in nodes if span.start <= nd.start < span.end])


def _line_record(line):
    return (line.span, line.container, line.only_line_in_block, line.in_titlepage,
            line.centered, line.bold, line.italic, line.large,
            line.label.span if line.label is not None else None)


@given(st.lists(st.sampled_from(REGION_FRAGMENTS), max_size=24))
@settings(max_examples=200, deadline=None)
def test_regions_read_as_if_segmented_apart(pieces):
    tree = parse(wrap("".join(pieces)))
    fm = frontmatter_region(tree)
    body = body_region(tree, fm)
    for region in (fm, body):
        assert [_line_record(ln) for ln in region.lines] == \
            [_line_record(ln) for ln in _segmented_apart(tree, region.span)]
    # The abstract found while bounding the region is the one a search of
    # the region, segmented on its own, finds.
    apart = Region(fm.span, _segmented_apart(tree, fm.span), fm.protected, fm.damaged,
                   fm.contents, fm.whole_body_fallback, rest=fm.rest)
    assert fm.abstract == detect_abstract(tree, apart)


def _contents_by_walk(tree):
    words, envs = {}, {}
    for nd in walk(tree.nodes):
        if isinstance(nd, Token) and nd.kind is TokenKind.CONTROL_WORD:
            words.setdefault(nd.value, []).append(nd.start)
        elif isinstance(nd, EnvNode):
            envs.setdefault(nd.name, []).append(nd.span)
    return Contents(words, envs)


# Control words the tree leaves out, inside math and environment names,
# and environments the builder closes without a matching \\end.
CONTENTS_FRAGMENTS = [
    "$\\alpha x$", "\\[\\beta\\]", "\\begin{equation}\\gamma\\end{equation}",
    "\\begin{\\foo}", "\\end{\\foo}", "\\end{x}", "\\begin{center}", "\\relax",
]


@given(st.lists(st.sampled_from(FRAGMENTS + REGION_FRAGMENTS + CONTENTS_FRAGMENTS),
                max_size=32))
@settings(max_examples=200, deadline=None)
def test_index_contents_reads_as_walk(pieces):
    # The index read from the lexer's records equals a walk of the tree.
    tree = parse(wrap("".join(pieces)))
    assert index_contents(tree) == _contents_by_walk(tree)


# Lines wrapped in layout words, decorations with their glue, comments,
# \\centerline and deep style groups, whole or cut anywhere.
PLAIN_FRAGMENTS = [
    "\\relax ", "\\leavevmode", "\\vskip 2pt plus 1pt ", "\\vspace*{2mm}", "\\noindent",
    "%c\n", "\\centerline{Ann Lee}", "\\centerline{", "{\\large {\\it " * 50 + "Deep" + "}}" * 50,
    "{\\large {\\it ", "}}", "{\\bf Abstract.}", "\\textbf{", "}", "{", "\\H{o}", "\\o ",
    "Ann Lee", "\\\\", "\\begin{center}", "\\end{center}", " ", "\n", "\n\n",
    "{\\relax Ann Lee}",
]


@given(st.lists(st.sampled_from(PLAIN_FRAGMENTS), max_size=16))
@settings(max_examples=300, deadline=None)
def test_line_plain_reads_as_its_span(pieces):
    # A line's plain text is its span's, whether read from its core or from
    # its own tokens, and a label that is its whole line reads the same.
    # A line's core plain text is its core's, a label's shared or not.
    tree = parse(wrap("".join(pieces)))
    fm = frontmatter_region(tree)
    for line in fm.lines + fm.rest:
        assert line.plain == span_plain(tree.stream, line.span)
        core = line.core_nodes
        assert line.core_plain == (
            span_plain(tree.stream, Span(core[0].start, core[-1].end)) if core else "")
        label = line.label
        if label is not None:
            assert label.plain == span_plain(tree.stream, label.span)
            if label.span == line.span:
                assert label.plain is line.plain


_NAME_SETS = (frozenset({"section", "title", "bibitem"}), frozenset({"begin", "end", "bf"}),
              frozenset(), frozenset({"nosuchword"}))
_ENV_SETS = ((), ("abstract",), ("titlepage", "center"))


@given(st.lists(st.sampled_from(FRAGMENTS + REGION_FRAGMENTS), max_size=32),
       st.lists(st.tuples(st.sampled_from(_NAME_SETS), st.sampled_from(_ENV_SETS),
                          st.integers(0, 400), st.integers(0, 400)), min_size=1, max_size=12))
@settings(max_examples=200, deadline=None)
def test_contents_within_reads_as_a_scan_per_name(pieces, queries):
    # Every query, a repeated one included, answers as a scan of each
    # name's starts.
    contents = index_contents(parse(wrap("".join(pieces))))
    for words, envs, a, b in queries * 2:
        span = Span(min(a, b), max(a, b))
        by_scan = any(span.start <= s < span.end for name in words
                      for s in contents.words.get(name, ())) or \
            any(span.start <= e.start < span.end for name in envs
                for e in contents.envs.get(name, ()))
        assert contents.within(span, words, envs) is by_scan


def test_an_unknown_macro_reads_at_most_nine_arguments():
    # A macro's arguments are not known, but TeX allows it nine: a bold
    # group after \foo and eight groups may be its argument, and one after
    # nine groups stands free.
    for groups, argument in ((8, True), (9, False)):
        nodes = parse("\\foo" + "{a}" * groups + "{\\bf b}").nodes
        assert _is_argument(nodes, nodes[-1]) is argument
