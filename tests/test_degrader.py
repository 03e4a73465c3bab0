import itertools
import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logicaltex.converter import RewritePlan, apply, convert
from logicaltex.degrader import (
    PROFILE_CODES,
    GroundTruth,
    NotLogicalError,
    _Degrader,
    capture_ground_truth,
    degrade,
    emit_pairs,
    profile_tag,
)
from logicaltex.detector import DocumentClass, classify, detect_all, document_body, extract_frontmatter
from logicaltex.lexer import parse
from logicaltex import lexer, model
from logicaltex.cli import _extracted_from
from logicaltex.model import extract_logical
from logicaltex.validator import normalize_for_compare

from conftest import AGGRESSIVE, FULL_PROFILES, PROFILE_SETS

MINI = r"""\documentclass{article}
\title{X}
\author{Ada Byron\thanks{Analytical Institute, Greyton}}
\begin{document}
\maketitle
\begin{abstract}
A compact abstract that still says something about the method and results.
\end{abstract}
\section{One}
Text with \emph{stress} on a point.
\section{Two}
More text follows here.
\end{document}
"""

TWO_BY_TWO = r"""\documentclass{article}
\title{Pairs of Things}
\author{Ann Author\thanks{First Institute of Measure} \and
  Ben Writer\thanks{Second University of Count}\thanks{First Institute of Measure}}
\begin{document}
\maketitle
\begin{abstract}
An abstract describing the pairing of authors with their institutions.
\end{abstract}
\section{Only}
Body.
\end{document}
"""


def test_unknown_profile_rejected(tmp_path):
    for call in (lambda: profile_tag(["center-env", "no-such-profile"]),
                 lambda: degrade(MINI, ["no-such-profile"]),
                 lambda: emit_pairs([], tmp_path, ["no-such-profile"])):
        with pytest.raises(ValueError, match="unknown degradation profile 'no-such-profile'"):
            call()


def test_degrade_deterministic():
    for profs in PROFILE_SETS:
        a = degrade(MINI, profs, seed=5)
        b = degrade(MINI, profs, seed=5)
        assert a[0] == b[0]
        assert a[1].to_dict() == b[1].to_dict()


def test_different_seeds_vary_output():
    outputs = {degrade(MINI, FULL_PROFILES, seed)[0] for seed in range(6)}
    assert len(outputs) > 1


def test_empty_profile_set_is_identity_with_ground_truth():
    visual, truth = degrade(MINI, (), seed=0)
    assert visual == MINI
    assert truth.title == "X"
    assert truth.authors == [("Ada Byron", ["Analytical Institute, Greyton"])]
    assert truth.sections == [(1, "One"), (1, "Two")]
    assert truth.emphases == 1


def test_not_logical_rejected():
    visual, _ = degrade(MINI, FULL_PROFILES, 0)
    with pytest.raises(NotLogicalError):
        degrade(visual, FULL_PROFILES, 0)


def test_centerline_title_pattern():
    visual, truth = degrade(MINI, ("centerline-style",), seed=0)
    assert truth.title == "X"
    assert "\\title{X}" not in visual
    assert "\\maketitle" not in visual
    assert "\\centerline{" in visual
    line = next(l for l in visual.splitlines() if "\\centerline" in l and "X}" in l)
    assert "\\bf" in line or "\\Large" in line or "\\large" in line


def test_degraded_never_classifies_logical():
    for profs in PROFILE_SETS + (("inline-emphasis",), ("unlabeled-abstract",),
                                 ("bold-solitary-sections",), ("numbered-markers",)):
        for seed in (0, 1):
            visual, _ = degrade(MINI, profs, seed)
            label = classify(parse(visual)).label
            assert label is not DocumentClass.LOGICAL, (profs, seed, label)


def test_symbol_markers_preserve_edges_via_redetection():
    truth_doc = extract_logical(parse(TWO_BY_TWO))
    want_pairs = set()
    for author in truth_doc.authors:
        for aff in author.affiliations_raw:
            want_pairs.add((normalize_for_compare(author.name_raw),
                            normalize_for_compare(aff)))
    visual, truth = degrade(TWO_BY_TWO, ("symbol-markers",), seed=3)
    tree = parse(visual)
    fm = extract_frontmatter(detect_all(tree))
    got_pairs = {
        (normalize_for_compare(fm.authors[i].name_raw),
         normalize_for_compare(fm.affiliations[j].raw))
        for i, j in fm.author_affiliation_edges}
    assert got_pairs == want_pairs
    assert truth.authors == [
        ("Ann Author", ["First Institute of Measure"]),
        ("Ben Writer", ["Second University of Count", "First Institute of Measure"]),
    ]


def test_ground_truth_captured_independently_of_output():
    once = capture_ground_truth(extract_logical(parse(MINI)))
    twice = capture_ground_truth(extract_logical(parse(MINI)))
    assert once.to_dict() == twice.to_dict()
    _, through_degrade = degrade(MINI, FULL_PROFILES, 9)
    assert through_degrade.to_dict() == once.to_dict()


def test_ground_truth_json_roundtrip():
    _, truth = degrade(MINI, FULL_PROFILES, 0)
    again = GroundTruth.from_json(truth.to_json())
    assert again.to_dict() == truth.to_dict()


def test_sections_get_running_numbers():
    visual, _ = degrade(MINI, ("bold-solitary-sections",), seed=0)
    assert "\\section{One}" not in visual
    assert "1" in visual and "2" in visual
    tree = parse(visual)
    assert classify(tree).label is not DocumentClass.LOGICAL


@pytest.mark.parametrize("seed, heading", [
    (0, "\\textbf{\\large 1 One}\\par Words"),
    (1, "\\noindent{\\bf 1. One}\\par Words"),
])
def test_par_after_a_heading_is_delimited_before_a_letter(seed, heading):
    # Both variants end the heading with \par; a letter right after it
    # would make the undefined control word \parWords.
    text = MINI.replace("\\section{One}\n", "\\section{One}Words follow here.\n")
    visual, _ = degrade(text, ("bold-solitary-sections",), seed)
    assert heading in visual
    out, _ = convert(visual, AGGRESSIVE)
    assert "\\section{One} Words follow here." in out


def test_inline_emphasis_degraded_to_old_style():
    visual, truth = degrade(MINI, ("inline-emphasis",), seed=0)
    assert "\\emph{stress}" not in visual
    assert "{\\it stress}" in visual or "{\\bf stress}" in visual
    assert truth.emphases == 1


def test_unlabeled_abstract_is_centered_paragraph():
    visual, _ = degrade(MINI, ("centerline-style", "unlabeled-abstract"), seed=1)
    assert "\\begin{abstract}" not in visual
    assert "\\begin{center}" in visual and "\\small" in visual


def test_roundtrip_on_mini_document():
    for profs in PROFILE_SETS:
        visual, truth = degrade(MINI, profs, 4)
        out, _ = convert(visual, AGGRESSIVE)
        got = extract_logical(parse(out))
        assert normalize_for_compare(got.title_raw or "") == normalize_for_compare(truth.title)
        assert normalize_for_compare(got.abstract_raw or "") == \
            normalize_for_compare(truth.abstract)


# ---------------------------------------------------------------------------
# One plan against the source reads as the body's edits, then the front
# matter's on a second parse of their output
# ---------------------------------------------------------------------------

def _degrade_in_two_passes(text: str, profiles, seed: int) -> tuple[str, GroundTruth]:
    """The reference for ``degrade``: the section and emphasis edits are
    applied first, and the front matter is planned on a second parse and
    extraction of that output."""
    tree = parse(text)
    if classify(tree).label is not DocumentClass.LOGICAL:
        raise NotLogicalError("input does not classify as logically formatted")
    doc = extract_logical(tree)
    worker = _Degrader(text, profiles, seed)
    sections = worker.degrade_sections(doc)
    body = sections + worker.degrade_emphasis(doc, [e.span for e in sections])
    body.sort(key=lambda e: (e.span.start, e.span.end))
    stage = apply(text, RewritePlan(tuple(body))) if body else text
    staged = parse(stage)
    front = worker.merge_front_matter(extract_logical(staged), [],
                                      document_body(staged)[1].start)
    visual = apply(stage, RewritePlan(tuple(front))) if front else stage
    return visual, capture_ground_truth(doc)


# Pieces of the documents.  None puts a front-matter command inside a
# rewritten \section or \emph argument, or one with no argument group
# right before an \emph: the reference reads such front matter from the
# rewritten text, and ``degrade`` from the source.
_SENTENCES = ("We bound the cost of sparse cuts.", "The method runs in $O(n)$ time.",
              "Results hold for every graph.")
_INSERTS = ("\\emph{key idea}", "\\emph{x}\\emph{y}", "\\emph{$n$ steps}",
            "\\section{Inner}", "\\subsection*{Aside}", "\\section{On \\emph{Both}}")
_TITLES = ("\\title{Sparse Cuts}", "\\title{On \\emph{Sparse} Cuts}", "\\title[Short]{Long Cuts}")
_AUTHORS = (
    "\\author{Ann Lee\\thanks{First Institute, Northfield} \\and Bo Chen\\thanks{Second University}}",
    "\\author{Ann Lee}\n\\affiliation{First Institute, Northfield}\n"
    "\\author{Bo Chen}\n\\affiliation{Second University}",
    "\\author{Ann Lee, Bo Chen}",
    "\\author{Ann Lee\\thanks{A Very Long Institute of Measure, Department of Sizes, Northfield}}",
)
_PROFILES = st.sampled_from(PROFILE_SETS) | st.sets(st.sampled_from(sorted(PROFILE_CODES)))


@st.composite
def _logical_documents(draw) -> str:
    pieces = draw(st.lists(st.sampled_from(_SENTENCES + _INSERTS), min_size=1, max_size=6))
    abstract = "\\begin{abstract}\n" + " ".join(pieces) + "\n\\end{abstract}"
    front = [draw(st.sampled_from(_TITLES)), draw(st.sampled_from(_AUTHORS))]
    if draw(st.booleans()):
        front.append("\\date{}")
    title_page = ["\\maketitle"] if draw(st.integers(0, 4)) else []
    if draw(st.booleans()):
        title_page.insert(0, abstract)  # the abstract before \maketitle
    else:
        title_page.append(abstract)
    in_preamble = draw(st.booleans())
    body = []
    for k in range(draw(st.integers(1, 3))):
        body.append(f"\\section{{Part {k}}}")
        body.extend(draw(st.lists(st.sampled_from(_SENTENCES + _INSERTS[:3]), max_size=3)))
    lines = ["\\documentclass{article}", *(front if in_preamble else []),
             "\\begin{document}", *([] if in_preamble else front), *title_page,
             *body, "\\end{document}", ""]
    return "\n".join(lines)


def _outcome(run, text, profiles, seed):
    try:
        visual, truth = run(text, profiles, seed)
    except Exception as exc:  # both sides must fail alike
        return type(exc).__name__
    return visual, truth.to_dict()


@given(_logical_documents(), _PROFILES, st.integers(0, 7))
@settings(max_examples=300, deadline=None)
def test_one_plan_reads_as_two_passes(text, profiles, seed):
    assert _outcome(degrade, text, profiles, seed) == \
        _outcome(_degrade_in_two_passes, text, profiles, seed)


def test_one_plan_renders_the_abstract_with_its_body_edits():
    text = MINI.replace("A compact abstract", "A \\emph{compact} abstract\n\\section{Inner}")
    for profiles, seed in itertools.product(PROFILE_SETS, range(4)):
        visual, _ = degrade(text, profiles, seed)
        assert visual == _degrade_in_two_passes(text, profiles, seed)[0]
        assert ("\\emph" in visual) is ("inline-emphasis" not in profiles)
        assert ("\\section" in visual) is ("bold-solitary-sections" not in profiles)


def test_front_matter_in_a_rewritten_argument_is_left_in_place():
    # The two-pass degrader read this \title out of its own rewritten
    # heading; the one plan reads the source, which has no title.
    text = ("\\documentclass{article}\n\\author{A. B}\n\\begin{document}\n\\maketitle\n"
            "\\section{\\title{T}}\nText.\n\\section{Two}\nMore.\n\\end{document}\n")
    visual, truth = degrade(text, ("centerline-style", "bold-solitary-sections"), 0)
    assert truth.title is None
    assert "1 \\title{T}}" in visual or "1. \\title{T}}" in visual
    assert "\\title{T}" not in _degrade_in_two_passes(
        text, ("centerline-style", "bold-solitary-sections"), 0)[0]


@pytest.mark.parametrize("command", ["\\title{T}", "\\author{C. D}", "\\date{May}", "\\maketitle"])
def test_front_matter_inside_the_abstract_is_removed_from_it(command):
    # The removal is spliced into the rendered abstract; a \maketitle
    # inside the abstract is no place for the front-matter block.
    text = ("\\documentclass{article}\n\\author{A. B}\n\\begin{document}\n"
            + ("" if command == "\\maketitle" else "\\maketitle\n")
            + "\\begin{abstract}" + command + " Words.\\end{abstract}\n"
            "\\section{One}\nText.\n\\end{document}\n")
    for profiles, seed in itertools.product(PROFILE_SETS, range(2)):
        visual, _ = degrade(text, profiles, seed)
        assert command not in visual and "Words." in visual
        assert "A. B" in visual


def test_front_matter_from_the_preamble_goes_where_the_body_starts():
    # No \maketitle: the block would replace \title, before \begin{document}.
    text = ("\\documentclass{article}\n\\title{On Things}\n\\author{A. B}\n"
            "\\begin{document}\n\\begin{abstract}Words here.\\end{abstract}\n"
            "\\section{One}\nText.\n\\end{document}\n")
    visual, _ = degrade(text, ("centerline-style",), 0)
    assert visual.startswith("\\documentclass{article}\n\n\n\\begin{document}\n"
                             "\\centerline{")
    for profiles, seed in itertools.product(PROFILE_SETS, range(2)):
        visual, truth = degrade(text, profiles, seed)
        preamble, body = visual.split("\\begin{document}")
        assert preamble == "\\documentclass{article}\n\n\n"
        assert "On Things" in body and "A. B" in body
        assert truth.title == "On Things"


def test_degrade_parses_and_extracts_once(monkeypatch):
    built, extracted = [], []
    build_tree, original = lexer.build_tree, model.extract_logical

    def recording_build_tree(stream):
        built.append(stream.source)
        return build_tree(stream)

    def recording_extract_logical(tree):
        extracted.append(tree.stream.source)
        return original(tree)

    monkeypatch.setattr(lexer, "build_tree", recording_build_tree)
    for name, module in list(sys.modules.items()):
        if name == "logicaltex" or name.startswith("logicaltex."):
            if vars(module).get("extract_logical") is original:
                monkeypatch.setattr(module, "extract_logical", recording_extract_logical)
    text = MINI.replace("A compact abstract", "A \\emph{compact} abstract")
    for profiles in PROFILE_SETS:
        built.clear()
        extracted.clear()
        lexer._parse_text.cache_clear()
        visual, _ = degrade(text, profiles, 3)
        assert visual != text
        assert built == [text]
        assert extracted == [text]


# ---------------------------------------------------------------------------
# emit_pairs
# ---------------------------------------------------------------------------

def _write_corpus(tmp_path: Path, docs: list[tuple[str, str]]) -> Path:
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name, text in docs:
        (corpus / name).write_text(text, encoding="utf-8")
    return corpus


def test_emit_pairs_single_file(tmp_path):
    corpus = _write_corpus(tmp_path, [("a.tex", MINI)])
    out = tmp_path / "out"
    rows = emit_pairs(corpus, out, ("centerline-style",), seeds=(0,))
    assert len(rows) == 1
    row = rows[0]
    for key in ("visual", "logical", "sidecar"):
        assert Path(row[key]).exists()
    assert set(row["checksums"]) == {"source", "visual", "sidecar"}
    truth = GroundTruth.from_json(Path(row["sidecar"]).read_text())
    assert truth.title == "X"
    manifest = (out / "manifest.jsonl").read_text().strip().splitlines()
    assert len(manifest) == 1
    assert json.loads(manifest[0])["seed"] == 0


def test_emit_pairs_empty_corpus(tmp_path):
    corpus = _write_corpus(tmp_path, [])
    rows = emit_pairs(corpus, tmp_path / "out", ("centerline-style",), seeds=(0,))
    assert rows == []


def test_emit_pairs_skips_non_logical(tmp_path):
    visual_doc, _ = degrade(MINI, FULL_PROFILES, 0)
    docs = [(f"good{i}.tex", MINI) for i in range(8)]
    docs += [("bad0.tex", visual_doc), ("bad1.tex", visual_doc)]
    corpus = _write_corpus(tmp_path, docs)
    rows = emit_pairs(corpus, tmp_path / "out", ("center-env",), seeds=(1,))
    produced = [r for r in rows if "visual" in r]
    skipped = [r for r in rows if "skipped" in r]
    assert len(produced) == 8
    assert len(skipped) == 2


def test_emit_pairs_multiple_seeds_counts(tmp_path):
    corpus = _write_corpus(tmp_path, [("a.tex", MINI), ("b.tex", MINI)])
    rows = emit_pairs(corpus, tmp_path / "out", FULL_PROFILES, seeds=(0, 1, 2))
    assert len(rows) == 6
    assert len({r["visual"] for r in rows}) == 6
    # A repeated file or seed names the same pair again: it is written and
    # listed once.
    files = [corpus / "a.tex", corpus / "b.tex", corpus / "a.tex"]
    rows = emit_pairs(files, tmp_path / "again", FULL_PROFILES, seeds=(1, 0, 1))
    assert [(Path(r["source"]).name, r["seed"]) for r in rows] == [
        ("a.tex", 1), ("a.tex", 0), ("b.tex", 1), ("b.tex", 0)]


def _manifest(out: Path) -> list[dict]:
    return [json.loads(line) for line in (out / "manifest.jsonl").read_text().splitlines()]


def test_emit_pairs_rerun_replaces_its_rows(tmp_path):
    # A second run over the same inputs rewrites their pairs and lists
    # each pair, and each skip, once; a row of another input stays.
    visual_doc, _ = degrade(MINI, FULL_PROFILES, 0)
    corpus = _write_corpus(tmp_path, [("a.tex", MINI), ("bad.tex", visual_doc)])
    (tmp_path / "other").mkdir()
    other = _write_corpus(tmp_path / "other", [("b.tex", MINI)])
    out = tmp_path / "out"
    emit_pairs(other, out, ("centerline-style",), seeds=(0,))
    emit_pairs(corpus, out, ("centerline-style",), seeds=(0, 1))
    rows = emit_pairs(corpus, out, ("centerline-style",), seeds=(0, 1))
    manifest = _manifest(out)
    assert [(r["source"], r["seed"], "skipped" in r) for r in manifest] == [
        (str(other / "b.tex"), 0, False),
        (str(corpus / "a.tex"), 0, False), (str(corpus / "a.tex"), 1, False),
        (str(corpus / "bad.tex"), 0, True), (str(corpus / "bad.tex"), 1, True)]
    assert manifest[1:] == rows
    # Another profile set writes other pairs, so it adds rows.
    emit_pairs([corpus / "a.tex"], out, ("center-env",), seeds=(0,))
    assert len(_manifest(out)) == 6
    # An input that turns logical replaces its skip row with its pair; one
    # that stops being logical keeps the row of the pair it leaves in place.
    (corpus / "a.tex").write_text(visual_doc, encoding="utf-8")
    (corpus / "bad.tex").write_text(MINI, encoding="utf-8")
    emit_pairs(corpus, out, ("centerline-style",), seeds=(0,))
    assert [(Path(r["source"]).name, r["profiles"], r["seed"], "skipped" in r)
            for r in _manifest(out)] == [
        ("b.tex", ["centerline-style"], 0, False),
        ("a.tex", ["centerline-style"], 0, False), ("a.tex", ["centerline-style"], 1, False),
        ("bad.tex", ["centerline-style"], 1, True), ("a.tex", ["center-env"], 0, False),
        ("a.tex", ["centerline-style"], 0, True), ("bad.tex", ["centerline-style"], 0, False)]


def test_emit_pairs_rerun_skips_a_name_owned_by_another_source(tmp_path):
    # A same-named input from another directory in a later run would
    # overwrite the earlier run's pair: it becomes a skip row instead,
    # and the earlier pair's files and row stay.
    first, second = tmp_path / "a" / "x.tex", tmp_path / "b" / "x.tex"
    for path, text in ((first, MINI), (second, MINI.replace("{X}", "{Y}"))):
        path.parent.mkdir()
        path.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    emit_pairs([first], out, ("centerline-style",), seeds=(0,))
    rows = emit_pairs([second], out, ("centerline-style",), seeds=(0, 1))
    assert rows[0] == {"source": str(second), "profiles": ["centerline-style"], "seed": 0,
                       "skipped": f"its pairs would overwrite those of {first}"}
    # Seed 1's pair files belong to no source yet.
    assert "visual" in rows[1]
    assert (out / "x__cl_s0.logical.tex").read_bytes() == first.read_bytes()
    assert [(r["source"], r["seed"], "skipped" in r) for r in _manifest(out)] == [
        (str(first), 0, False), (str(second), 0, True), (str(second), 1, False)]


def test_profile_tag_sorts_the_names():
    assert profile_tag(["inline-emphasis", "center-env"]) == "ce-ie"
    assert profile_tag(("center-env", "inline-emphasis")) == "ce-ie"


def test_round_trip_reads_plain_forms_without_lexing_again(small_corpus, monkeypatch):
    # Every plain form the degrader's truth, the detector and the metadata
    # extraction read comes from a tree's own tokens, so none of them calls
    # strip_styling, under any name a module binds it to.
    calls = []
    original = model.strip_styling

    def recording(raw):
        calls.append(raw)
        return original(raw)

    for name, module in list(sys.modules.items()):
        if name == "logicaltex" or name.startswith("logicaltex."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, recording)
    extracted = []
    for (_, text), profiles in itertools.product(small_corpus, PROFILE_SETS):
        visual, truth = degrade(text, profiles, 0)
        out, _ = convert(visual, AGGRESSIVE)
        extracted.append((truth, extract_logical(parse(out)), _extracted_from(out)))
    assert calls == []
    assert any(truth.authors and got.authors for truth, _, got in extracted)
