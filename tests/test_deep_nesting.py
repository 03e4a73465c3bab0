"""Any nesting depth converts: every pass over the block tree is iterative,
and its cost grows linearly with depth, as it does with a document's
length."""

import gc
import json
import math
import statistics
from time import perf_counter

import pytest

from logicaltex import lexer
from logicaltex.cli import main
from logicaltex.converter import ConversionPolicy, Scope, convert
from logicaltex.detector import classify, detect_all
from logicaltex.lexer import parse
from logicaltex.model import extract_logical
from logicaltex.validator import check_body_preservation, validate

from conftest import line_events


def _document(body: str) -> str:
    return "\\documentclass{article}\n\\begin{document}\n" + body + "\n\\end{document}\n"


def _blocks(n: int) -> str:
    """A body of ``n`` blocks: a bold numbered heading, then a paragraph
    with two inline math spans and an old-style italic group."""
    return _document("".join(
        f"{{\\bf {i}. Heading Number {i}}}\n\n"
        f"Text of part {i} with $x_{i}$ and $y^{i}$ and {{\\it some words}} here.\n\n"
        for i in range(1, n + 1)))


def _center_line(k: int) -> str:
    """A ``center`` environment holding one line of ``k`` comma-separated
    items, each a word and an inline math span."""
    items = ", ".join(f"Word{i} $x_{{{i}}}$ more" for i in range(k))
    return _document("\\begin{center}\n" + items + "\n\\end{center}")


def _environments(name: str, depth: int) -> str:
    return _document(f"\\begin{{{name}}}\n" * depth + "word\n" + f"\\end{{{name}}}\n" * depth)


# form -> document with the form nested ``depth`` levels deep
FORMS = {
    "braces": lambda d: _document("{" * d + "word" + "}" * d),
    "bf-groups": lambda d: _document("{\\bf " * d + "word" + "}" * d),
    "textbf": lambda d: _document("\\textbf{" * d + "word" + "}" * d),
    "center": lambda d: _environments("center", d),
    "abstract": lambda d: _environments("abstract", d),
    "titlepage": lambda d: _environments("titlepage", d),
    "unclosed-braces": lambda d: _document("{" * d + "word"),
    "author": lambda d: _document("\\author{" + "{" * d + "A. Name" + "}" * d + "}\n\\maketitle"),
    # stray \end storms: each \end finds its \begin, or that none is open,
    # without a scan of the open groups and environments
    "ends-without-begin": lambda d: _document("{" * d + "\\end{center}" * d),
    "mismatched-ends": lambda d: _document("\\begin{a}" * d + "\\end{b}" * d),
    "end-across-groups": lambda d: _document("\\begin{center}" + "{" * d + "\\end{center}"),
}

# name -> the unit of a storm of scan restarts: a \verb argument that ends
# at a lexeme boundary or inside a text run, a parameter digit and a
# verbatim environment.
STORMS = {
    "verb": "\\verb|x| ",
    "verb-in-text": "\\verb|x|y ",
    "parameter": "#1 ",
    "verbatim": "\\begin{verbatim}x\\end{verbatim}\n",
}

DEPTH = 2400
CASES = [(form, DEPTH) for form in FORMS] + [("braces", 9600)]
POLICIES = [ConversionPolicy(scope=scope, aggressive=aggressive)
            for scope in Scope for aggressive in (False, True)]
# The least time one timed sample of the scaling test lasts.
SAMPLE_SECONDS = 0.03


@pytest.mark.parametrize("form, depth", CASES)
def test_deep_nesting_completes_every_command(form, depth):
    src = FORMS[form](depth)
    for policy in POLICIES:
        out, rep = convert(src, policy)
        preserved, offset = check_body_preservation(src, out, rep.plan)
        assert preserved, (policy, offset)
        assert convert(out, policy)[0] == out, policy
        assert validate(src, out, rep.plan).body_preserved
    classify(parse(src))
    doc = extract_logical(parse(src))
    assert len(doc.authors) == (1 if form == "author" else 0)
    assert (doc.abstract_raw is not None) == (form == "abstract")


def test_deep_nesting_batch(tmp_path, capsys):
    for form, depth in CASES:
        (tmp_path / f"{form}-{depth}.tex").write_text(FORMS[form](depth), encoding="utf-8")
    code = main(["--report", "machine", "batch", str(tmp_path), "--jobs", "1"])
    assert code <= 1
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    files = [r for r in records if r["command"] == "batch-file"]
    assert len(files) == len(CASES)
    assert [r for r in files if "error" in r] == []
    assert all(r["body_preserved"] for r in files)


def _sample_seconds(src: str, repeats: int) -> float:
    # The collector's pauses depend on what other tests left alive, not
    # on the conversion, so it is held off while the conversions run.
    gc.collect()
    gc.disable()
    try:
        total = 0.0
        for _ in range(repeats):
            lexer._parse_text.cache_clear()
            start = perf_counter()
            convert(src, POLICIES[-1])
            total += perf_counter() - start
        return total
    finally:
        gc.enable()


def _assert_doubles(small: str, large: str):
    # The median of the ratios of eleven pairs of samples.  A pair takes
    # the two sizes back to back, so both see the same load on a shared
    # CPU, which can speed a run as well as slow it; the median drops the
    # pairs that a change of load splits.  A sample converts its document
    # as often as the smaller one needs to take tens of milliseconds, so
    # that one pause of the scheduler moves it little.  Linear cost
    # doubles with the size.
    repeats = math.ceil(SAMPLE_SECONDS / _sample_seconds(small, 1))
    times = [(_sample_seconds(small, repeats), _sample_seconds(large, repeats))
             for _ in range(11)]
    ratio = statistics.median(b / a for a, b in times)
    assert ratio <= 2.5, (repeats, times)


@pytest.mark.parametrize("form", FORMS)
def test_deep_nesting_scales_linearly(form):
    _assert_doubles(FORMS[form](DEPTH // 2), FORMS[form](DEPTH))


def test_long_document_scales_linearly():
    # Each line and group is checked against the document's math spans
    # and the claimed headings by one bisection, not by a scan of them.
    _assert_doubles(_blocks(200), _blocks(400))


def test_long_author_line_scales_linearly():
    # A separator is looked up in the line's text runs, and a segment's
    # nodes found in the line's, by bisection, not by a scan of them.
    _assert_doubles(_center_line(500), _center_line(1000))


@pytest.mark.parametrize("storm", STORMS)
def test_restart_storm_scales_linearly(storm):
    # A restart reads on in the window of lexemes it fell in, or in a
    # small new window that grows only while no restart falls in it, so
    # the text read twice stays in proportion to the text.
    _assert_doubles(_document(STORMS[storm] * 2000), _document(STORMS[storm] * 4000))


def test_row_of_emphasis_groups_scales_linearly():
    # Whether a group is a command's argument is read back over at most
    # nine earlier groups, the most a macro reads, not over the whole row.
    row = lambda n: _document("\\section{A}\n\\mbox{x}" + "{\\it a}" * n)
    _assert_doubles(row(2000), row(4000))


# A cost linear in n doubles at most from n to 2n: the counts below read
# ratios of 1.956 (braces) and 1.964 (wrappers).  A part quadratic in n
# that is a share s of the work at n reads 2 + 2s, so the bound catches
# one above 2.5 %.
COUNTED_RATIO = 2.05


@pytest.mark.parametrize("form, n", [
    ("wrappers", 200),  # {\large {\it ...}}: two groups and two style words a level
    ("braces", 1200),
])
def test_detect_all_work_doubles_with_depth(form, n):
    # The lines detect_all runs on a line wrapped n and 2n deep, counted
    # rather than timed.
    make = {"wrappers": lambda d: "{\\large {\\it " * d + "Deep" + "}}" * d,
            "braces": lambda d: "{" * d + "word" + "}" * d}[form]
    small, large = (parse(_document(make(d))) for d in (n, 2 * n))
    ratio = line_events(detect_all, large) / line_events(detect_all, small)
    assert ratio <= COUNTED_RATIO, ratio


def test_extract_logical_work_doubles_with_authors():
    # The lines extract_logical runs on one \author of n and 2n names,
    # each with its own \thanks: a name's nodes are found by bisection,
    # not by a scan of the whole argument.
    make = lambda n: "\\author{" + " \\and ".join(
        f"Name\\thanks{{Univ {i}}}" for i in range(n)) + "}\n\\maketitle"
    small, large = (parse(_document(make(n))) for n in (100, 200))
    ratio = line_events(extract_logical, large) / line_events(extract_logical, small)
    assert ratio <= COUNTED_RATIO, ratio
