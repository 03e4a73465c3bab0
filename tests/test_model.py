import itertools
import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logicaltex import model
from logicaltex.converter import convert
from logicaltex.degrader import degrade
from logicaltex.detector import Segment
from logicaltex.lexer import _LATIN1_FALLBACK, Span, Token, parse, tokenize
from logicaltex.model import (
    Affiliation,
    FrontMatter,
    Marker,
    MarkerSymbol,
    Metadata,
    MetadataError,
    extract_logical,
    extract_markers,
    fold_accents,
    plain_text,
    read_arguments,
    resolve_affiliations,
    strip_styling,
)

from conftest import AGGRESSIVE, FIXTURES, PROFILE_SETS, walk

S = lambda: Span(0, 1)


# Rendering table: built by listing the marker forms the degrader can emit
# plus common hand-written variants, each checked against the canonical
# symbol by hand.
RENDERING_TABLE = [
    (r"$^{\dagger}$", Marker(MarkerSymbol.DAGGER)),
    (r"^{1}", Marker(MarkerSymbol.DIGIT, "1")),
    (r"\footnotemark[2]", Marker(MarkerSymbol.DIGIT, "2")),
    (r"$\ast$", Marker(MarkerSymbol.ASTERISK)),
    (r"$^*$", Marker(MarkerSymbol.ASTERISK)),
    (r"$^{\ast}$", Marker(MarkerSymbol.ASTERISK)),
    (r"\dag", Marker(MarkerSymbol.DAGGER)),
    (r"\ddag", Marker(MarkerSymbol.DDAGGER)),
    (r"$\ddagger$", Marker(MarkerSymbol.DDAGGER)),
    (r"\S", Marker(MarkerSymbol.SECTION_SIGN)),
    (r"\P", Marker(MarkerSymbol.PILCROW)),
    (r"$\|$", Marker(MarkerSymbol.PARALLEL)),
    (r"$\parallel$", Marker(MarkerSymbol.PARALLEL)),
    (r"$^{12}$", Marker(MarkerSymbol.DIGIT, "12")),
    (r"\textsuperscript{3}", Marker(MarkerSymbol.DIGIT, "3")),
    (r"$^{a}$", Marker(MarkerSymbol.LETTER, "a")),
    (r"$^b$", Marker(MarkerSymbol.LETTER, "b")),
    ("1", Marker(MarkerSymbol.DIGIT, "1")),
    (r"\footnotemark[*]", Marker(MarkerSymbol.ASTERISK)),
    (r"\footnotemark[007]", Marker(MarkerSymbol.DIGIT, "7")),
    (r"\footnotemark[00]", Marker(MarkerSymbol.DIGIT, "0")),
    (r"\footnotemark [ ** ]", Marker(MarkerSymbol.ASTERISK)),
    ("\u2020", Marker(MarkerSymbol.DAGGER)),
]


@pytest.mark.parametrize("rendering,expected", RENDERING_TABLE)
def test_extract_markers_table(rendering, expected):
    assert extract_markers(rendering) == [expected]


@pytest.mark.parametrize("text", ["", "hello", "a", "Department", r"\alpha", "$x+y$"])
def test_extract_markers_rejects_non_markers(text):
    assert extract_markers(text) == []


def test_distinct_renderings_extract_to_one_value():
    forms = [r"$^{\dagger}$", r"\dag", r"$\dagger$", "\u2020"]
    values = {tuple(extract_markers(f)) for f in forms}
    assert values == {(Marker(MarkerSymbol.DAGGER),)}


def test_extract_markers_comma_lists():
    assert extract_markers(r"$^{1,2}$") == [
        Marker(MarkerSymbol.DIGIT, "1"), Marker(MarkerSymbol.DIGIT, "2")]
    got = extract_markers(r"\textsuperscript{1,3}")
    assert [m.value for m in got] == ["1", "3"]
    assert extract_markers(r"$^{\ast,\dagger}$") == [
        Marker(MarkerSymbol.ASTERISK), Marker(MarkerSymbol.DAGGER)]
    assert extract_markers("Alice Smith") == []


def test_strip_styling_drops_style_keeps_content():
    assert strip_styling(r"\bf On  the {\it Symmetry} of X") == "On the Symmetry of X"
    assert strip_styling(r"\centerline{\Large\bf A Title}") == "A Title"
    assert strip_styling(r"{\bf Abstract. }") == "Abstract."
    assert strip_styling(r"A $x^2$ bound") == "A x^2 bound"
    # An empty group ends a kept control word, as a space does.
    assert strip_styling(r"S\o{}ren") == strip_styling(r"S\o ren") == r"S\o ren"
    assert strip_styling(r"Bj\o{}rn Stone") == r"Bj\o rn Stone"
    assert strip_styling(r"\TeX{}book") == r"\TeX book"
    # So does a non-empty group, whose text is kept; a dropped word's
    # group reads as its text.
    assert strip_styling(r"\foo{T} Words \mbox{x}y.") == r"\foo T Words xy."
    assert strip_styling(r"\foo {T}") == strip_styling(r"\foo{T}") == r"\foo T"
    # A skip is dropped with what it reads: a star, a braced length, glue.
    assert strip_styling(r"\vspace*{2mm}Text") == "Text"
    assert strip_styling(r"\hskip 1em plus 2pt Word") == "Word"
    assert strip_styling(r"\vskip 6pt\noindent{\bf 2. Results}") == "2. Results"
    # Text after a kept word is parted from it by a space, whatever was
    # dropped between them, so that it cannot lengthen the word's name.
    assert strip_styling(r"\foo\noindent2mm") == strip_styling(r"\foo2mm") == r"\foo 2mm"
    assert strip_styling(r"\foo$x$y") == r"\foo xy"
    assert strip_styling(r"\H$x$") == r"\H x"


def test_strip_styling_keeps_an_accent_symbols_group():
    # An accent symbol keeps its braced argument, braces and all, as an
    # accent word does.
    assert strip_styling(r"Mart\'{\i}n") == r"Mart\'{\i}n"
    assert strip_styling(r"G\"{o}del and Erd\H{o}s") == r"G\"{o}del and Erd\H{o}s"


def test_reading_may_end_inside_a_text_run():
    # A star, a bracket or glue ends inside a merged text run; what is
    # left of the run is not read.
    cases = [
        (r"\section*[Short]{Long} Text", r"\section*[Short]{Long}", True),
        (r"\section*Text{Long}", r"\section*", True),
        (r"\title [x]y{T}", r"\title [x]", False),
        (r"\vskip 2mm plus 1mm Word", r"\vskip 2mm plus 1mm", False),
        (r"\vskip 6pt plus 1pt minus 1pt\noindent", r"\vskip 6pt plus 1pt minus 1pt", False),
        ("\\vskip 0.5\\baselineskip\n{x}", r"\vskip 0.5\baselineskip", False),
        (r"\vskip Word", r"\vskip", False),
    ]
    for source, read, star in cases:
        nodes = parse(source).nodes
        i, end, starred, _ = read_arguments(nodes, 1)
        assert (source[:end], starred) == (read, star), source
        assert i == len(nodes) or nodes[i].end > end >= nodes[i - 1].end, source


# The glue pattern as one expression, with the dimension written out
# three times: the reference that ``model._match_glue`` reads as.
_FACTOR = r"(?:[-+][ \t]*)*(?:[0-9]+(?:[.,][0-9]*)?|[.,][0-9]+)"
_DIMEN = (rf"(?:{_FACTOR}[ \t]*(?:(?:true[ \t]*)?(?:pt|pc|in|bp|cm|mm|dd|cc|sp|ex|em|mu)"
          rf"|fil+)|(?:{_FACTOR}[ \t]*)?\\[A-Za-z]+)")
_GLUE = re.compile(rf"[ \t]*{_DIMEN}(?:[ \t]*plus[ \t]*{_DIMEN})?(?:[ \t]*minus[ \t]*{_DIMEN})?",
                   re.IGNORECASE)


def _assert_glue_end_as_reference(text: str, at: int, monkeypatch):
    nodes = tokenize(text).tokens
    end = model._glue_end(nodes, 0, at)
    with monkeypatch.context() as m:
        m.setattr(model, "_match_glue",
                  lambda text, at: (g := _GLUE.match(text, at)) and g.end())
        assert end == model._glue_end(nodes, 0, at), (text, at)


@pytest.mark.parametrize("text", [
    "6pt plus 1pt minus 1pt", "6pt minus 1pt plus 1pt", "0.5\\baselineskip", "fill",
    "2fill", "-.5em", "2 ſp", "2 SP plus 1 fil", "1,5 true cm", "+ - 3mu\\foo", "3 \\parskip",
    "1pt plus", "1pt plusminus 2pt", "1pt plus 2pt minus", "1pt\tMINUS\t2pt", "pt", "",
    " 2pt", "2ptplus1fillminus.5em", "1e", "\\vskip", "12",
])
def test_glue_ends_where_the_single_pattern_ends(text, monkeypatch):
    for at in range(len(text) + 1):
        _assert_glue_end_as_reference(text, at, monkeypatch)


_GLUE_PIECES = ["6", "0.5", ".5", ",", "-", "+", " ", "\t", "pt", "PT", "em", "ſp", "sp", "true",
                "fil", "fill", "l", "plus", "PLUS", "minus", "Minus", "\\baselineskip", "\\x",
                "mu", "in", "x", "1"]


@given(st.lists(st.sampled_from(_GLUE_PIECES), max_size=12), st.integers(0, 4))
@settings(max_examples=300, deadline=None)
def test_glue_ends_where_the_single_pattern_ends_on_glue_like_text(pieces, at):
    text = "".join(pieces)
    with pytest.MonkeyPatch.context() as monkeypatch:
        _assert_glue_end_as_reference(text, min(at, len(text)), monkeypatch)


def test_strip_styling_preserves_accents():
    assert strip_styling(r"{\bf Erd\H{o}s, P\'al}") == r"Erd\H{o}s, P\'al"


def test_strip_styling_idempotent_fixed_cases():
    cases = [
        r"{\Large\bf A $x^2$ Title~here\\ done}",
        r"J.\,R. Tolkien",
        r"Fran\c{c}ois M\"uller and S\o ren \AA berg",
        r"\noindent{\bf ABSTRACT.} We study \emph{things}.",
        r"\vskip 2mm plus 1mm\noindent{\bf 2. Results}",
        r"\foo\noindent2mm",
        r"\foo$x$y",
    ]
    for raw in cases:
        once = strip_styling(raw)
        assert strip_styling(once) == once, raw


def test_strip_styling_idempotent_random():
    rng = random.Random(11)
    pieces = [r"\bf ", r"\it ", "{", "}", r"\H{o}", r"\'e", "word ", "$x$ ",
              r"\large ", "~", r"\quad ", "Name, ", r"\\ ", "% c\n"]
    for _ in range(200):
        raw = "".join(rng.choice(pieces) for _ in range(rng.randrange(1, 12)))
        once = strip_styling(raw)
        assert strip_styling(once) == once, raw


# Pieces of command fragments: kept, dropped, accent and skip words, and
# what may stand between a word and the text after it.
_COMMAND_FRAGMENTS = st.lists(st.sampled_from([
    r"\foo", r"\TeX", r"\o", r"\H", r"\'", r"\c c", r"\&", r"\\", r"\\[2mm]", r"\ ",
    r"\noindent", r"\bf ", r"\it", r"\emph", r"\mbox{x}", r"\quad", r"\medskip",
    r"\vskip 2pt", r"\vspace*{2mm}", r"\hskip 1em plus 2pt", r"\thanks{x}", "$x$", "$",
    "{", "}", "{}", "%c\n", " ", "\n\n", "~", "&", "^", "#", "y", "Word", "2mm", "1", ".",
    "*", "[2mm]", "\xe9", "\xa0"]), max_size=12).map("".join)


@given(_COMMAND_FRAGMENTS)
@settings(max_examples=500, deadline=None)
def test_strip_styling_idempotent_on_command_fragments(s):
    once = strip_styling(s)
    assert strip_styling(once) == once


def test_re_blank_is_str_isspace():
    # ``collapse_blanks`` splits where the regex collapse it replaced
    # matched; the Unicode tables differ between Python versions.
    blank = re.compile(r"\s")
    differ = [cp for cp in range(sys.maxunicode + 1)
              if bool(blank.match(chr(cp))) is not chr(cp).isspace()]
    assert differ == []


_BLANKS = "\t\n\r\x0b\x0c\x1c\x85\xa0\u3000 "
# Text, every TeX special, blanks that TeX does and does not skip, lone
# surrogates, and words that make a control word of a backslash.
_PLAIN_TEXTS = st.lists(st.sampled_from(
    [*"aZ09.,[]*'`\"=@", *"\\{}$&~^_#%", *_BLANKS, "\udcb6", "\udce9", "\ud800",
     "bf", "o", "TeX", "H", "par"]), max_size=40).map("".join)


@given(_PLAIN_TEXTS)
@settings(max_examples=500, deadline=None)
def test_strip_styling_reads_as_plain_text_of_its_tokens(s):
    assert strip_styling(s) == plain_text(tokenize(s).tokens, s)


def test_markup_free_text_is_not_lexed(monkeypatch):
    calls = []

    def counting_tokenize(source):
        calls.append(source)
        return tokenize(source)

    monkeypatch.setattr(model, "tokenize", counting_tokenize)
    plain = "  Ann\u00a0Lee,\tBo [Chen]\r\n\n  and \udcb6 Others\u3000"
    assert strip_styling(plain) == "Ann Lee, Bo [Chen] and \udcb6 Others"
    assert calls == []
    assert strip_styling(r"Ann {\bf Lee}") == "Ann Lee"
    assert calls == [r"Ann {\bf Lee}"]


def test_fold_tables_have_no_ascii_key():
    # ``latin1_fallback`` and ``fold_accents`` return ASCII text untranslated.
    for table in (_LATIN1_FALLBACK, model._UNICODE_LETTER):
        assert not [cp for cp in table if chr(cp).isascii()]


def A(name, *markers):
    return Segment(None, S(), name, list(markers), [])


def F(raw, marker=None):
    return Affiliation(raw, marker, S())


def resolved(authors, affiliations) -> FrontMatter:
    fm = FrontMatter()
    fm.authors, fm.affiliations = authors, affiliations
    resolve_affiliations(fm)
    return fm


DAG = Marker(MarkerSymbol.DAGGER)
DDAG = Marker(MarkerSymbol.DDAGGER)
SEC = Marker(MarkerSymbol.SECTION_SIGN)


def test_resolve_marker_matching():
    res = resolved(
        [A("A", DAG), A("B", DAG, DDAG)],
        [F("X", DAG), F("Y", DDAG)])
    assert res.author_affiliation_edges == {(0, 0), (1, 0), (1, 1)}
    assert res.unresolved_markers == []


def test_resolve_single_affiliation_fallback():
    res = resolved([A("A")], [F("X")])
    assert res.author_affiliation_edges == {(0, 0)}


def test_resolve_unmatched_marker_reported():
    res = resolved([A("A", SEC)], [F("X", DAG)])
    assert res.author_affiliation_edges == set()
    assert res.unresolved_markers == [(0, SEC)]


def test_resolve_markerless_superset_is_flagged():
    res = resolved([A("A"), A("B")], [F("X"), F("Y")])
    assert res.author_affiliation_edges == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert res.notes


def test_resolve_one_markerless_affiliation_of_one_author_is_not_flagged():
    # The one author takes the one markerless affiliation beside its
    # marked one; with no other author or affiliation to choose, there is
    # nothing to note.
    one = Marker(MarkerSymbol.DIGIT, "1")
    res = resolved([A("A", one)], [F("U1", one), F("U2")])
    assert res.author_affiliation_edges == {(0, 0), (0, 1)}
    assert res.notes == []


def test_resolve_order_insensitive_pair_set():
    authors = [A("Ann", DAG), A("Ben", DDAG)]
    affs = [F("X", DAG), F("Y", DDAG)]

    def pair_set(authors, affs):
        res = resolved(authors, affs)
        return {(authors[i].name_raw, affs[j].raw) for i, j in res.author_affiliation_edges}

    forward = pair_set(authors, affs)
    backward = pair_set(authors, list(reversed(affs)))
    assert forward == backward == {("Ann", "X"), ("Ben", "Y")}


def test_marker_value_equality_ignores_rendering():
    [a] = extract_markers("$^{2}$")
    [b] = extract_markers("\\footnotemark[2]")
    assert a == b == Marker(MarkerSymbol.DIGIT, "2") and hash(a) == hash(b)


def test_extract_logical_thanks_style():
    doc = parse(r"""\documentclass{article}
\title[short]{Long Title Here}
\author{Alice Smith\thanks{University of X} \and Bob Jones\thanks{Institute of Y}\thanks{Lab Z}}
\date{\today}
\begin{document}
\maketitle
\begin{abstract}
The abstract text.
\end{abstract}
\section{One}
A \emph{word}.
\subsection*{Two}
\end{document}
""")
    ld = extract_logical(doc)
    assert ld.title_raw == "Long Title Here"
    assert [(a.name_raw, a.affiliations_raw) for a in ld.authors] == [
        ("Alice Smith", ["University of X"]),
        ("Bob Jones", ["Institute of Y", "Lab Z"]),
    ]
    assert ld.abstract_raw == "The abstract text."
    assert [(s.level, s.heading_raw, s.starred) for s in ld.sections] == [
        (1, "One", False), (2, "Two", True)]
    assert len(ld.emphases) == 1
    assert ld.maketitle_span is not None
    assert ld.date_span is not None


@pytest.mark.parametrize("source", [
    r"\author{Ann Lee\thanks{MIT}}",
    r"\author{Ann Lee\thanks {MIT}}",
    "\\author{Ann Lee\\thanks % note\n{MIT}}",
])
def test_thanks_reads_its_argument_as_tex_does(source):
    [author] = extract_logical(parse(source)).authors
    assert (author.name_raw, author.affiliations_raw) == ("Ann Lee", ["MIT"])
    assert (author.name_plain, author.affiliations_plain) == ("Ann Lee", ["MIT"])


@pytest.mark.parametrize("source", [r"\section *{A}", "\\section % note\n*{A}"])
def test_a_star_after_blanks_is_read_as_latex_reads_it(source):
    # LaTeX's \@ifstar skips the blanks before a star.
    [sec] = extract_logical(parse(source)).sections
    assert (sec.level, sec.heading_raw, sec.starred) == (1, "A", True)
    assert strip_styling(source.replace("section", "vspace") + "Text") == "Text"


def test_a_title_without_its_argument_is_no_title():
    doc = extract_logical(parse("\\title\n\\section{A}"))
    assert doc.title_raw is None and doc.title_span is None
    assert [s.heading_raw for s in doc.sections] == ["A"]


def test_extract_logical_affiliation_style_and_commas():
    ld = extract_logical(parse(r"""\begin{document}
\title{T}
\author{Ana Costa}
\affiliation{Inst A}
\author{Bo Li}
\affiliation{Inst B}
\maketitle
\end{document}
"""))
    assert [(a.name_raw, a.affiliations_raw) for a in ld.authors] == [
        ("Ana Costa", ["Inst A"]), ("Bo Li", ["Inst B"])]
    ld2 = extract_logical(parse(r"\title{T}\author{Ana Costa, Bo Li, Cy Wu}"))
    assert [a.name_raw for a in ld2.authors] == ["Ana Costa", "Bo Li", "Cy Wu"]


def test_extract_logical_ignores_commented_commands():
    ld = extract_logical(parse("% \\title{Wrong}\n\\title{Right}\n"))
    assert ld.title_raw == "Right"


def test_extract_logical_leaves_the_tree_untouched():
    tree = parse("\\section*[Short]{Long heading}\nText.\n")
    tokens = {id(t) for t in tree.stream.tokens}
    first = extract_logical(tree)
    assert [(s.heading_raw, s.starred) for s in first.sections] == [("Long heading", True)]
    assert all(id(nd) in tokens for nd in walk(tree.nodes) if isinstance(nd, Token))
    assert extract_logical(tree).sections == first.sections


def _plain_forms(doc):
    """(plain form, raw field) for each plain form ``extract_logical`` gives."""
    pairs = [(doc.title_plain, doc.title_raw), (doc.abstract_plain, doc.abstract_raw)]
    for author in doc.authors:
        pairs.append((author.name_plain, author.name_raw))
        pairs += zip(author.affiliations_plain, author.affiliations_raw, strict=True)
    pairs += [(s.heading_plain, s.heading_raw) for s in doc.sections]
    return [(plain, raw) for plain, raw in pairs if raw is not None]


def test_logical_plain_forms_match_strip_styling_of_raw(corpus100, small_corpus):
    sources = [path.read_bytes() for path in sorted(FIXTURES.rglob("*.tex"))]
    sources += [text for _, text in corpus100]
    for (_, text), profiles in itertools.product(small_corpus, PROFILE_SETS):
        visual = degrade(text, profiles, 0)[0]
        sources += [visual, convert(visual, AGGRESSIVE)[0]]
    checked = 0
    for source in sources:
        doc = extract_logical(parse(source))
        assert (doc.title_plain is None) == (doc.title_raw is None)
        assert (doc.abstract_plain is None) == (doc.abstract_raw is None)
        for plain, raw in _plain_forms(doc):
            assert plain == strip_styling(raw), raw
            checked += 1
    assert checked > 1000


def test_author_plain_form_keeps_tokens_apart_across_a_cut_thanks():
    # Splicing the \thanks out of the raw name joins \foo and bar into one
    # control word; the name's own tokens keep them apart.  This is the
    # one kind of input where a plain form and a re-lex of its raw field
    # differ.
    [author] = extract_logical(parse(r"\author{\foo\thanks{Inst X}bar}")).authors
    assert (author.name_raw, author.affiliations_raw) == (r"\foobar", ["Inst X"])
    assert author.name_plain == r"\foo bar"
    assert strip_styling(author.name_raw) == r"\foobar"
    assert author.affiliations_plain == ["Inst X"]


@pytest.mark.parametrize("plain,folded", [
    (r"Erd\H{o}s, P\'al", "Erdos, Pal"),
    (r"Fran\c{c}ois Zo\"e", "Francois Zoe"),
    (r"Mart\'{\i}n \u{\i}", "Martin i"),
    (r"S\o ren \AA berg", "Soren AAberg"),
    (r"Pawe\l", "Pawel"),
    (r"\th orn \ng", "thorn ng"),
    (r"\LaTeX, \log n, \infty, \item", r"\LaTeX, \log n, \infty, \item"),
    (r"\url{x} \under{y}", r"\urlx \undery"),
    (strip_styling(r"S\o{}ren"), "Soren"),
    (strip_styling(r"Bj\o{}rn Stone"), "Bjorn Stone"),
    (strip_styling(r"\TeX{}book"), r"\TeX book"),
])
def test_fold_accents_reads_whole_control_words(plain, folded):
    assert fold_accents(plain) == folded


def test_metadata_reads_a_bare_name_as_an_author_without_affiliations():
    both = [("Ann Lee", []), ("Bo Chen", ["Inst X"])]
    assert Metadata("T", ["Ann Lee", ("Bo Chen", ("Inst X",))], None).authors == both
    record = Metadata.from_json(
        '{"authors": ["Ann Lee", {"name": "Bo Chen", "affiliations": ["Inst X"]}], "id": "x"}')
    assert record == Metadata(None, both, None)
    assert (record.sections, record.emphases) == ([], 0)


@pytest.mark.parametrize("text", [
    "{not json", b"\xff", "[]", "null", '{"authors": [{"nam": "A"}]}', '{"authors": 5}',
    '{"authors": [{"name": "A"}]}', '{"sections": [{"level": 1}]}', '{"emphases": "x"}',
    '{"title": 5}', '{"authors": [{"name": 1, "affiliations": []}]}',
    '{"authors": [{"name": "A", "affiliations": [null]}]}',
])
def test_metadata_reader_raises_one_error_for_what_is_not_a_record(text):
    with pytest.raises(MetadataError, match="^not a metadata record"):
        Metadata.from_json(text)
