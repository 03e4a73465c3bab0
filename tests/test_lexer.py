import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logicaltex import lexer
from logicaltex.converter import convert
from logicaltex.degrader import degrade
from logicaltex.lexer import (
    MathNode,
    GroupNode,
    EnvNode,
    Span,
    SpanIndex,
    TokenKind,
    build_tree,
    decode_source,
    encode_source,
    math_spans,
    parse,
    protected_spans,
    tokenize,
)
from logicaltex.validator import check_body_preservation, validate_structure

from conftest import AGGRESSIVE, LOGICAL_FIXTURES, PROFILE_SETS, VISUAL_FIXTURES, walk
from same_behaviour import inputs


def kinds(stream):
    return [t.kind for t in stream.tokens]


def test_tokenize_bold_large_header():
    st_ = tokenize(r"\textbf{\large 1 Introduction}")
    assert kinds(st_) == [
        TokenKind.CONTROL_WORD, TokenKind.BEGIN_GROUP, TokenKind.CONTROL_WORD,
        TokenKind.WHITESPACE, TokenKind.TEXT, TokenKind.END_GROUP,
    ]
    assert st_.tokens[0].value == "textbf"
    assert st_.tokens[2].value == "large"
    assert st_.tokens[4].value == "1 Introduction"
    assert st_.reassemble() == r"\textbf{\large 1 Introduction}"


def test_tokenize_empty():
    assert tokenize("").tokens == []


def test_control_word_names_are_letters():
    st_ = tokenize(r"\section*{x} \foo123 \@makeother")
    for t in st_.tokens:
        if t.kind is TokenKind.CONTROL_WORD:
            assert t.value.isalpha()


def test_comment_includes_marker_excludes_newline():
    st_ = tokenize("a % remark\nb")
    comments = [t for t in st_.tokens if t.kind is TokenKind.COMMENT]
    assert len(comments) == 1
    assert st_.lexeme(comments[0]) == "% remark"
    assert st_.reassemble() == "a % remark\nb"


def test_par_break_vs_whitespace():
    st_ = tokenize("a\nb\n\nc")
    ks = kinds(st_)
    assert ks.count(TokenKind.PAR_BREAK) == 1
    assert ks.count(TokenKind.WHITESPACE) == 1


@pytest.mark.parametrize("text,expected", [
    ("ab  cd\te \nf\x0cg  {x}", [
        (TokenKind.TEXT, 0, 8), (TokenKind.WHITESPACE, 8, 10),
        (TokenKind.TEXT, 10, 11), (TokenKind.WHITESPACE, 11, 12),
        (TokenKind.TEXT, 12, 13), (TokenKind.WHITESPACE, 13, 15),
        (TokenKind.BEGIN_GROUP, 15, 16), (TokenKind.TEXT, 16, 17),
        (TokenKind.END_GROUP, 17, 18),
    ]),
    ("a\rb \t", [
        (TokenKind.TEXT, 0, 1), (TokenKind.WHITESPACE, 1, 2),
        (TokenKind.TEXT, 2, 3), (TokenKind.WHITESPACE, 3, 5),
    ]),
])
def test_text_run_boundaries(text, expected):
    # Spaces and tabs between ordinary characters belong to the text run;
    # whitespace at a run's boundary, and any \r, \n or \x0c, splits it.
    st_ = tokenize(text)
    assert [(t.kind, t.span.start, t.span.end) for t in st_.tokens] == expected
    assert [t.value for t in st_.tokens if t.kind is TokenKind.TEXT] == \
        [text[a:b] for k, a, b in expected if k is TokenKind.TEXT]


def test_line_numbers():
    # A CRLF and a lone CR each end one line, as an LF does.
    for end in ("\n", "\r\n", "\r"):
        st_ = tokenize(f"one{end}two{end}{end}three")
        texts = [t for t in st_.tokens if t.kind is TokenKind.TEXT]
        assert [st_.line_of(t.span.start) for t in texts] == [1, 2, 4], repr(end)


@given(st.text(alphabet="\\{}$&~^_#% \n\tabXY19", max_size=300))
@settings(max_examples=400)
def test_lossless_roundtrip_dense_specials(text):
    assert tokenize(text).reassemble() == text


@given(st.text(max_size=300))
@settings(max_examples=200)
def test_lossless_roundtrip_any_text(text):
    assert tokenize(text).reassemble() == text


@given(st.binary(max_size=300))
@settings(max_examples=300)
def test_lossless_roundtrip_bytes(data):
    stream = tokenize(data)
    assert encode_source(stream.reassemble()) == data


def test_tokenize_deterministic():
    src = r"\title{A $x$} % c" + "\n\n" + r"\begin{verbatim}q\end{verbatim}"
    a, b = tokenize(src), tokenize(src)
    assert [(t.kind, t.span, t.value) for t in a.tokens] \
        == [(t.kind, t.span, t.value) for t in b.tokens]


def test_spans_tile_input():
    src = r"x \verb|${a}| $m$ {\bf y} % c" + "\n"
    stream = tokenize(src)
    pos = 0
    for t in stream.tokens:
        assert t.span.start == pos
        pos = t.span.end
    assert pos == len(src)


def test_tree_inline_math_swallows_bold_group():
    tree = parse(r"${\bf v}$")
    assert len(tree.nodes) == 1
    node = tree.nodes[0]
    assert isinstance(node, MathNode)
    assert node.kind == "inline"
    assert (node.span.start, node.span.end) == (0, 9)
    assert tree.diagnostics == []
    assert not any(isinstance(n, GroupNode) for n in walk(tree.nodes))


def test_tree_empty_group():
    tree = parse("{}")
    assert len(tree.nodes) == 1
    g = tree.nodes[0]
    assert isinstance(g, GroupNode)
    assert g.children == []


def test_tree_broken_def_yields_diagnostics():
    tree = parse(r"\def\giorno{15/6/98\end{abstract}")
    diag_kinds = {d.kind for d in tree.diagnostics}
    assert "end-without-begin" in diag_kinds
    assert "unclosed-group" in diag_kinds


@pytest.mark.parametrize("source", ["\\begin{a{b}}x\\end{a{b}}", "\\begin{abc"])
def test_a_malformed_environment_name_opens_no_environment(source):
    # A brace inside the name, or no closing brace, leaves \begin a plain
    # control word.
    tree = parse(source)
    assert not any(isinstance(nd, EnvNode) for nd in walk(tree.nodes))
    assert tree.nodes[0].kind is TokenKind.CONTROL_WORD and tree.nodes[0].value == "begin"


def test_math_spans_hand_indexed():
    tree = parse(r"a $x$ b \[y\]")
    spans = [(s.start, s.end) for s in math_spans(tree)]
    assert spans == [(2, 5), (8, 13)]
    by_kind = [n.kind for n in walk(tree.nodes) if isinstance(n, MathNode)]
    assert by_kind == ["inline", "display"]


def test_math_spans_empty_without_math():
    assert math_spans(parse("plain text {group} \\emph{e}")) == []


def test_double_dollar_display_span():
    # hand-indexed: the construct is exactly five characters
    tree = parse("$$z$$")
    spans = math_spans(tree)
    assert len(spans) == 1
    assert (spans[0].start, spans[0].end) == (0, 5)
    assert [n.kind for n in tree.nodes if isinstance(n, MathNode)] == ["display"]


def test_math_environments_become_math_nodes():
    src = "\\begin{align}\n a &= b \\\\\n c &= d\n\\end{align}"
    tree = parse(src)
    assert [n.kind for n in tree.nodes if isinstance(n, MathNode)] == ["display"]
    assert math_spans(tree)[0].end == len(src)
    assert parse("\\begin{equation*}x\\end{equation*}").diagnostics == []


def test_unterminated_math_is_bounded_by_paragraph():
    tree = parse("$x\n\nnext paragraph")
    assert any(d.kind == "unterminated-math" for d in tree.diagnostics)
    spans = math_spans(tree)
    assert spans[0].end <= 2


def test_environment_mismatch_diagnosed():
    tree = parse(r"\begin{center}x\end{flushleft}")
    assert any(d.kind in ("end-without-begin", "unclosed-environment")
               for d in tree.diagnostics)


def test_group_crossing_environment_boundary():
    tree = parse(r"\begin{center} {\bf a \end{center}")
    assert any(d.kind == "group-crosses-boundary" for d in tree.diagnostics)


def _shape(nodes):
    """Each node as its class and offsets, inner offsets and name or math
    kind, with a group's or environment's children nested in it."""
    out = []
    for n in nodes:
        if isinstance(n, GroupNode):
            out.append(("GroupNode", n.start, n.end, n.inner_start, n.inner_end,
                        _shape(n.children)))
        elif isinstance(n, EnvNode):
            out.append(("EnvNode", n.name, n.start, n.end, n.inner_start, n.inner_end,
                        _shape(n.children)))
        elif isinstance(n, MathNode):
            out.append(("MathNode", n.kind, n.start, n.end))
        else:
            out.append(("Token", n.start, n.end))
    return out


@pytest.mark.parametrize("text, nodes, diagnostics", [
    # an unmatched }: kept as a token where it stands
    ("a}b",
     [("Token", 0, 1), ("Token", 1, 2), ("Token", 2, 3)],
     [("unmatched-end-group", "", (1, 2))]),
    # a group left open at the end runs to the end of the text
    ("x{y",
     [("Token", 0, 1), ("GroupNode", 1, 3, 2, 3, [("Token", 2, 3)])],
     [("unclosed-group", "", (1, 2))]),
    # \end{x} across open groups closes them at the \end, innermost first
    ("\\begin{x}{a{b\\end{x}c",
     [("EnvNode", "x", 0, 20, 9, 13,
       [("GroupNode", 9, 13, 10, 13,
         [("Token", 10, 11), ("GroupNode", 11, 13, 12, 13, [("Token", 12, 13)])])]),
      ("Token", 20, 21)],
     [("group-crosses-boundary", "x", (11, 12)), ("group-crosses-boundary", "x", (9, 10))]),
    # \end without \begin: its tokens stay in place
    ("a\\end{x}b",
     [("Token", 0, 1), ("Token", 1, 5), ("Token", 5, 6), ("Token", 6, 7), ("Token", 7, 8),
      ("Token", 8, 9)],
     [("end-without-begin", "x", (1, 5))]),
    # \end{a} across an open b closes b at the \end
    ("\\begin{a}\\begin{b}\\end{a}c",
     [("EnvNode", "a", 0, 25, 9, 18, [("EnvNode", "b", 9, 18, 18, 18, [])]), ("Token", 25, 26)],
     [("unclosed-environment", "b", (9, 10))]),
    # \end{a} inside an open b that no a encloses
    ("\\begin{b}x\\end{a}",
     [("EnvNode", "b", 0, 17, 9, 17,
       [("Token", 9, 10), ("Token", 10, 14), ("Token", 14, 15), ("Token", 15, 16),
        ("Token", 16, 17)])],
     [("end-without-begin", "a", (10, 14)), ("unclosed-environment", "b", (0, 1))]),
    # \begin with no name is a plain control word
    ("\\begin x{y}",
     [("Token", 0, 6), ("Token", 6, 7), ("Token", 7, 8),
      ("GroupNode", 8, 11, 9, 10, [("Token", 9, 10)])],
     []),
    # \) with no open \(
    ("a\\)b",
     [("Token", 0, 1), ("Token", 1, 3), ("Token", 3, 4)],
     [("math-close-without-open", ")", (1, 3))]),
    # an unterminated $ ends at the paragraph break
    ("a $x\n\nb",
     [("Token", 0, 1), ("Token", 1, 2), ("MathNode", "inline", 2, 4), ("Token", 4, 6),
      ("Token", 6, 7)],
     [("unterminated-math", "inline", (2, 4))]),
])
def test_tree_recovery_table(text, nodes, diagnostics):
    tree = parse(text)
    assert _shape(tree.nodes) == nodes
    assert [(d.kind, d.detail, (d.span.start, d.span.end)) for d in tree.diagnostics] == diagnostics


def test_balanced_fixture_files_have_no_diagnostics():
    for path in LOGICAL_FIXTURES:
        tree = parse(path.read_bytes())
        assert tree.diagnostics == [], path.name


def _recursive_preorder(nodes, out):
    for node in nodes:
        out.append(node)
        if isinstance(node, (GroupNode, EnvNode)):
            _recursive_preorder(node.children, out)
    return out


def test_walk_is_the_recursive_preorder(corpus100):
    sources = [path.read_bytes() for path in LOGICAL_FIXTURES + VISUAL_FIXTURES]
    sources += [degrade(text, PROFILE_SETS[i % len(PROFILE_SETS)], i)[0]
                for i, (_, text) in enumerate(corpus100[:20])]
    assert len(sources) == 49
    for source in sources:
        tree = parse(source)
        walked = list(walk(tree.nodes))
        expected = _recursive_preorder(tree.nodes, [])
        assert len(walked) == len(expected)
        assert all(a is b for a, b in zip(walked, expected))


def test_math_spans_sorted_non_overlapping_on_fixtures():
    for path in LOGICAL_FIXTURES + VISUAL_FIXTURES:
        spans = math_spans(parse(path.read_bytes()))
        for a, b in zip(spans, spans[1:]):
            assert a.end <= b.start, path.name


def test_verb_argument_is_opaque():
    stream = tokenize(r"x \verb|{\bf $a$}| y")
    assert stream.reassemble() == r"x \verb|{\bf $a$}| y"
    assert stream.verbatim_spans
    tree = build_tree(stream)
    assert math_spans(tree) == []
    assert not any(isinstance(n, GroupNode) for n in walk(tree.nodes))


def test_verb_star_and_unterminated_verb():
    assert tokenize(r"\verb*+a b+ t").reassemble() == r"\verb*+a b+ t"
    assert tokenize("\\verb|unterminated\nrest").reassemble() == "\\verb|unterminated\nrest"


def test_verbatim_environment_is_opaque():
    src = "a\n\\begin{verbatim}\n{\\bf x} $y$ \\begin{center}\n\\end{verbatim}\nb"
    stream = tokenize(src)
    assert stream.reassemble() == src
    tree = build_tree(stream)
    assert tree.diagnostics == []
    assert math_spans(tree) == []
    envs = [n.name for n in walk(tree.nodes) if isinstance(n, EnvNode)]
    assert envs == ["verbatim"]


def test_verbatim_begin_name_tokenizes_like_any_begin():
    # The {name} of a verbatim \begin is scanned like any other: two
    # carriage returns without a newline are a paragraph break, and a
    # text run takes in the spaces between its non-blank characters.
    for head in ("\\begin\r\r{%s}", "\\begin\xa0 \x0b{\xa0 %s\t}"):
        verbatim = tokenize(head % "verbatim" + "x\\end{verbatim}").tokens
        other = tokenize(head % "vErbatim" + "x\\end{vErbatim}").tokens
        n = next(i for i, t in enumerate(verbatim) if t.kind is TokenKind.END_GROUP) + 1
        assert [(t.kind, t.span) for t in verbatim[:n]] == [(t.kind, t.span) for t in other[:n]]
    par_break = tokenize("\\begin\r\r{verbatim}x\\end{verbatim}").tokens[1]
    assert (par_break.kind, par_break.span) == (TokenKind.PAR_BREAK, Span(6, 8))


@pytest.mark.parametrize("template", [
    "\\begin\xa0{%s}$x$\\end{%s}$y$",
    "\\begin{%s}$x$\\end\xa0{%s}$y$",
    "\\begin%%c\n{%s}$x$\\end{%s}$y$",
    "\\begin{%s}$x$\\end %%c\n {%s}$y$",
    "\\begin%%{%s}\n$x$\\end{%s}$y$",
    "\\begin\n\n{%s}$x$\\end{%s}$y$",
    "\\begin\r\r{%s}$x$\\end{%s}$y$",
    "\\begin\r\n\r{%s}$x$\\end{%s}$y$",
    "\\begin\n\r{%s}$x$\\end{%s}$y$",
    "\\begin %%c\r{%s}$x$\\end %%c\r\n{%s}$y$",
])
def test_verbatim_spans_are_the_verbatim_environments(template):
    # The scanner makes a verbatim span exactly where the tree builder
    # reads \begin{name} and \end{name} for any other name: it skips the
    # same blanks and comments before the {name}, and no others.
    def envs(tree):
        return [(n.name, n.span) for n in walk(tree.nodes) if isinstance(n, EnvNode)]

    verbatim = parse(template % ("verbatim", "verbatim"))
    center = parse(template % ("center", "center"))
    assert [name for name, _ in envs(verbatim)] == \
        ["verbatim" if name == "center" else name for name, _ in envs(center)]
    assert [span for _, span in envs(verbatim)] == verbatim.stream.verbatim_spans


K = TokenKind


@pytest.mark.parametrize("text,expected", [
    ("#", [(K.PARAMETER, 0, 1, None)]),
    ("#1x", [(K.PARAMETER, 0, 2, "1"), (K.TEXT, 2, 3, "x")]),
    # str.isdigit admits superscript and Arabic-Indic digits.
    ("#\u00b2#\u0663", [(K.PARAMETER, 0, 2, "\u00b2"), (K.PARAMETER, 2, 4, "\u0663")]),
    ("#a", [(K.PARAMETER, 0, 1, None), (K.TEXT, 1, 2, "a")]),
    ("a\\", [(K.TEXT, 0, 1, "a"), (K.CONTROL_SYMBOL, 1, 2, "")]),
    ("\\\nb", [(K.CONTROL_SYMBOL, 0, 2, "\n"), (K.TEXT, 2, 3, "b")]),
    ("x %", [(K.TEXT, 0, 1, "x"), (K.WHITESPACE, 1, 2, None), (K.COMMENT, 2, 3, "%")]),
    ("a\\verb", [(K.TEXT, 0, 1, "a"), (K.CONTROL_WORD, 1, 6, "verb")]),
    # A line ends at a CRLF, a lone CR or an LF, and two line ends make a
    # paragraph break, whatever their mix.
    ("a\r\n\rb", [(K.TEXT, 0, 1, "a"), (K.PAR_BREAK, 1, 4, None), (K.TEXT, 4, 5, "b")]),
    ("a\n\rb", [(K.TEXT, 0, 1, "a"), (K.PAR_BREAK, 1, 3, None), (K.TEXT, 3, 4, "b")]),
    ("a\r\nb", [(K.TEXT, 0, 1, "a"), (K.WHITESPACE, 1, 3, None), (K.TEXT, 3, 4, "b")]),
    ("%c\rb", [(K.COMMENT, 0, 2, "%c"), (K.WHITESPACE, 2, 3, None), (K.TEXT, 3, 4, "b")]),
    # A line end is no \verb delimiter.
    ("\\verb\rx", [(K.CONTROL_WORD, 0, 5, "verb"), (K.WHITESPACE, 5, 6, None),
                   (K.TEXT, 6, 7, "x")]),
])
def test_scanner_rules(text, expected):
    stream = tokenize(text)
    assert [(t.kind, t.span.start, t.span.end, t.value) for t in stream.tokens] == expected
    assert stream.verbatim_spans == []


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_every_line_end_ends_a_comment_a_verb_argument_and_a_name_search(end):
    comment = tokenize(f"a %c{end}b").tokens
    assert comment[2:4] == [(K.COMMENT, 2, 4, "%c"), (K.WHITESPACE, 4, 4 + len(end), None)]
    verb = tokenize(f"\\verb|x{end}y|")
    assert verb.tokens[1] == (K.TEXT, 5, 7, "|x") and verb.verbatim_spans == [Span(0, 7)]
    # A comment and one line end may stand before a verbatim name; two
    # line ends are a paragraph break, which ends the search for it.
    src = f"\\begin %c{end}{{verbatim}}x\\end{{verbatim}}"
    assert tokenize(src).verbatim_spans == [Span(0, len(src))]
    assert tokenize(f"\\begin{end}{end}{{verbatim}}x\\end{{verbatim}}").verbatim_spans == []


def test_lone_trailing_backslash_is_not_math():
    # A backslash at the very end is a control symbol with the empty
    # name, which neither opens nor closes math.
    tree = parse("word \\")
    assert tree.stream.tokens[-1].value == ""
    assert tree.stream.structural == []
    assert not any(isinstance(n, MathNode) for n in walk(tree.nodes))
    assert tree.diagnostics == [] and math_spans(tree) == []
    for path in (VISUAL_FIXTURES[0], LOGICAL_FIXTURES[0]):
        src = path.read_text() + "\\"
        assert parse(src).diagnostics == parse(src[:-1]).diagnostics
        out, rep = convert(src, AGGRESSIVE)
        assert out.endswith("\n\\")
        assert check_body_preservation(src, out, rep.plan)[0]
        assert validate_structure(src, out) == []


# Fragments that open, close or hide structure, and blanks that may or
# may not be paragraph breaks.
FRAGMENTS = [
    "{", "}", "$", "$$", "\\(", "\\)", "\\[", "\\]", "\\begin{center}", "\\end{center}",
    "\\begin{equation}", "\\end{equation}", "\\begin{verbatim}", "\\end{verbatim}",
    "\\verb|x|", "#1", "%c\n", " \r\n\r ", "\r\r", "\n\x0c\n", "\x0b\n", "\x00",
    "\udcf6", "x y",
]


# The scanner before it read windows of lexemes, kept as the reference:
# one match object per token, told apart by its named group, and a new
# ``finditer`` after each restart.  Its text alternative is the one the
# scanner used before a text run became one character-class scan with a
# look-behind, so the two agree on every lexeme only if the scan does.
_REFERENCE_TOKEN = re.compile(
    r"(?P<text>[^\\{}$&~^_#% \t\r\n\x0c]+(?:[ \t]+[^\\{}$&~^_#% \t\r\n\x0c]+)*)"
    r"|(?P<blank>[ \t\r\n\x0c]+)"
    r"|(?P<word>\\[A-Za-z]+)"
    r"|(?P<symbol>\\(?s:.)?)"
    r"|(?P<begin_group>\{)"
    r"|(?P<end_group>\})"
    r"|(?P<math_shift>\$)"
    r"|(?P<alignment>&)"
    r"|(?P<active_char>[~^_])"
    r"|(?P<comment>%[^\r\n]*)"
    r"|(?P<parameter>\#)"
)
_GROUP_KINDS = (None,) + tuple({
    "text": K.TEXT, "blank": K.WHITESPACE, "word": K.CONTROL_WORD,
    "symbol": K.CONTROL_SYMBOL, "begin_group": K.BEGIN_GROUP,
    "end_group": K.END_GROUP, "math_shift": K.MATH_SHIFT,
    "alignment": K.ALIGNMENT, "active_char": K.ACTIVE_CHAR,
    "comment": K.COMMENT, "parameter": K.PARAMETER,
}[group] for group in sorted(_REFERENCE_TOKEN.groupindex, key=_REFERENCE_TOKEN.groupindex.get))
_TEXT_GROUP, _BLANK_GROUP, _WORD_GROUP, _SYMBOL_GROUP, _PARAMETER_GROUP = (
    _REFERENCE_TOKEN.groupindex[g] for g in ("text", "blank", "word", "symbol", "parameter"))
_STRUCTURAL_GROUPS = frozenset(_REFERENCE_TOKEN.groupindex[g]
                               for g in ("begin_group", "end_group", "math_shift"))
_LEXEME_GROUPS = frozenset(_REFERENCE_TOKEN.groupindex[g] for g in ("active_char", "comment"))


class _ReferenceScanner(lexer._Scanner):
    def _scan(self, pos, endpos):
        s = self.s
        tokens = self.tokens
        add = tokens.append
        mark = self.structural.append
        kinds = _GROUP_KINDS
        Token = lexer.Token
        while pos < endpos:
            # The alternatives tile the input, so each match starts where
            # the one before it ended.
            start = pos
            for m in _REFERENCE_TOKEN.finditer(s, pos, endpos):
                end = m.end()
                group = m.lastindex
                if group == _TEXT_GROUP:
                    add(Token(kinds[group], start, end, m.group()))
                elif group == _BLANK_GROUP:
                    if s.count("\n", start, end) + s.count("\r", start, end) \
                            - s.count("\r\n", start, end) >= 2:
                        mark(len(tokens))
                        add(Token(K.PAR_BREAK, start, end, None))
                    else:
                        add(Token(kinds[group], start, end, None))
                elif group == _WORD_GROUP:
                    name = s[start + 1:end]
                    if name == "begin" or name == "end":
                        mark(len(tokens))
                    add(Token(kinds[group], start, end, name))
                    if name == "begin":
                        verbatim = lexer._VERBATIM_BEGIN.match(s, start)
                        if verbatim:
                            pos = self._verbatim_environment(start, end, verbatim)
                            break
                    elif name == "verb":
                        pos = self._verb_argument(start, end)
                        break
                elif group in _STRUCTURAL_GROUPS:
                    mark(len(tokens))
                    add(Token(kinds[group], start, end, None))
                elif group == _SYMBOL_GROUP:
                    # A backslash at the very end has the empty name.
                    value = s[start + 1:end]
                    if value in ("(", "[", ")", "]"):
                        mark(len(tokens))
                    add(Token(kinds[group], start, end, value))
                elif group in _LEXEME_GROUPS:
                    add(Token(kinds[group], start, end, m.group()))
                elif group == _PARAMETER_GROUP and end < endpos and s[end].isdigit():
                    pos = end + 1
                    add(Token(kinds[group], start, pos, s[end]))
                    break
                else:
                    add(Token(kinds[group], start, end, None))
                start = end
            else:
                return


def _reference_tokenize(source):
    return _ReferenceScanner(decode_source(source)).run()


def _assert_scans_as_the_reference(source):
    stream, reference = tokenize(source), _reference_tokenize(source)
    assert stream.tokens == reference.tokens
    assert stream.structural == reference.structural
    assert stream.verbatim_spans == reference.verbatim_spans


# Fragments that end a restart at a lexeme boundary, inside a text run or
# inside another lexeme, and that make a window's cut fall anywhere.
_RESTART_FRAGMENTS = FRAGMENTS + [
    "\\verb*|a b|", "\\verb|\n", "\\verb\n", "\\verb|x|y", "\\verb+a+ b", "\\verb!%!",
    "\\verb|{|", "#\u00b2", "#12", "#1 a", "\\begin %c\n{lstlisting}", "\\end{lstlisting}",
    "\\begin{verbatim*}", "x\\end{verbatim*}", "\r", " \r \r ", "\t", "\\", "\\\u00e9", "ab",
    "\\foo", "%", "&", "~", "%c\r", "\\verb|x\r", "\\verb\r", "\n\r",
]


@given(st.lists(st.sampled_from(_RESTART_FRAGMENTS) | st.text(max_size=4), max_size=60),
       st.integers(1, 40), st.booleans())
@settings(max_examples=400, deadline=None)
def test_tokenize_scans_as_the_reference(pieces, repeats, trailing_backslash):
    # Repeated, a draw spans many restart windows.
    _assert_scans_as_the_reference("".join(pieces) * repeats + ("\\" if trailing_backslash else ""))


@pytest.mark.parametrize("pad", range(0, 80, 3))
def test_a_window_cut_anywhere_scans_as_the_reference(pad):
    # A \verb argument that ends inside a comment is read on in a new
    # window; the padding moves each window's cut over text runs with inner
    # blanks, groups, comments and a run longer than two windows.
    unit = "ab cd\\emph{ef gh}  %c\n$x$\n\n"
    _assert_scans_as_the_reference("\\verb!%!" + "x" * pad + unit * 12 + "w" * 200 + " z" + unit)


def test_tokenize_scans_the_corpus_as_the_reference(corpus100):
    # The acceptance sweep's pairs (each logical source and its degraded
    # copies), every fixture and the hostile generators at seeds 1-3.
    for _, source in corpus100:
        _assert_scans_as_the_reference(source)
    for _, source, _ in inputs(len(corpus100)):
        _assert_scans_as_the_reference(source)


def _is_structural(t):
    return (t.kind in (K.BEGIN_GROUP, K.END_GROUP, K.MATH_SHIFT, K.PAR_BREAK)
            or t.kind is K.CONTROL_WORD and t.value in ("begin", "end")
            or t.kind is K.CONTROL_SYMBOL and t.value in ("(", "[", ")", "]"))


@given(st.lists(st.sampled_from(FRAGMENTS) | st.text(max_size=4), max_size=40), st.booleans())
@settings(max_examples=300, deadline=None)
def test_token_records_and_structural_indices(pieces, trailing_backslash):
    text = "".join(pieces) + ("\\" if trailing_backslash else "")
    stream = tokenize(text)
    pos = 0
    for t in stream.tokens:
        assert t.start == pos and t.span == Span(t.start, t.end)
        pos = t.end
    assert pos == len(text) and stream.reassemble() == text
    assert stream.structural == [i for i, t in enumerate(stream.tokens) if _is_structural(t)]
    tree = build_tree(stream)
    walked = [n.span for n in walk(tree.nodes) if isinstance(n, MathNode)]
    assert math_spans(tree) == sorted(walked, key=lambda s: s.start)


def test_span_is_an_offset_pair():
    # Overlap errors print spans, and sets of cues hash them.
    assert repr(Span(17, 96)) == "Span(start=17, end=96)"
    assert hash(Span(3, 5)) == hash((3, 5))
    span = Span(2, 7)
    assert (span.start, span.end, span.length) == (2, 7, 5)
    assert span.contains(2) and not span.contains(7)
    assert span.contains_span(Span(3, 7)) and not span.contains_span(Span(1, 3))
    assert span.intersects(Span(6, 9)) and not span.intersects(Span(7, 9))


def test_parse_keeps_the_tree_of_the_same_text():
    s = "\\title{T} caf\udce9 $x$"
    tree = parse(s)
    assert parse(s) is tree
    assert parse(s.encode("utf-8", "surrogateescape")) is tree


def test_unclosed_verbatim_runs_to_eof():
    src = "\\begin{verbatim}\nnever closed $x$"
    stream = tokenize(src)
    assert stream.reassemble() == src
    assert stream.verbatim_spans[0].end == len(src)


def test_protected_spans_cover_math_verbatim_comments():
    src = "$m$ \\verb|v| % c\nrest"
    tree = parse(src)
    spans = protected_spans(tree)
    covered = sorted((s.start, s.end) for s in spans)
    assert covered == [(0, 3), (4, 12), (13, 16)]


def test_span_validation():
    with pytest.raises(ValueError):
        Span(5, 3)


# Spans over a short range, so that many share an offset, nest, overlap or
# are empty.
_SPANS = st.lists(st.tuples(st.integers(0, 24), st.integers(0, 24))
                  .map(lambda p: Span(min(p), max(p))), max_size=12)


@given(_SPANS, _SPANS)
@settings(max_examples=500, deadline=None)
def test_span_index_answers_as_the_linear_scans(spans, queries):
    index = SpanIndex(spans)
    for q in queries:
        assert index.intersects(q) == any(p.intersects(q) for p in spans)
        assert index.covers(q) == any(p.contains_span(q) for p in spans)
        assert (index.covers(q) or index.intersects(q)) == \
            any(p.contains_span(q) or p.intersects(q) for p in spans)
        # The containment check the detector made over its sorted
        # protected spans.
        contained = True
        for p in sorted(spans):
            if p.start >= q.end:
                break
            if p.intersects(q) and not q.contains_span(p):
                contained = False
                break
        assert index.straddles(q) == (not contained)


def test_random_bytes_mass_roundtrip():
    rng = random.Random(0xC0FFEE)
    for _ in range(2000):
        data = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 200)))
        stream = tokenize(data)
        assert encode_source(stream.reassemble()) == data


def test_decode_encode_identity():
    raw = b"caf\xe9 \xff latin-1 bytes"
    assert encode_source(decode_source(raw)) == raw


def test_tree_total_on_random_bytes():
    rng = random.Random(7)
    for _ in range(300):
        data = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 150)))
        tree = parse(data)  # must never raise
        assert tree.stream.reassemble() == decode_source(data)
