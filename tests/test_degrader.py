import itertools
import json
import sys
from pathlib import Path

import pytest

from logicaltex.converter import convert
from logicaltex.degrader import (
    DegradationProfile,
    GroundTruth,
    NotLogicalError,
    as_profiles,
    capture_ground_truth,
    degrade,
    emit_pairs,
)
from logicaltex.detector import DocumentClass, classify, detect_all, extract_frontmatter
from logicaltex.lexer import parse
from logicaltex import model
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


def test_unknown_profile_rejected():
    with pytest.raises(ValueError):
        DegradationProfile("no-such-profile")


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
        (normalize_for_compare(fm.authors[i].name.raw),
         normalize_for_compare(fm.affiliations[j].text.raw))
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


def test_as_profiles_sorts_and_accepts_objects():
    profs = as_profiles(["inline-emphasis", DegradationProfile("center-env")])
    assert [p.name for p in profs] == ["center-env", "inline-emphasis"]


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
