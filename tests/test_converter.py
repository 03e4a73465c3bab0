import itertools

import pytest

from logicaltex.converter import (
    OVERLAP_SKIP,
    SCOPE_SKIP,
    UNCARRIED_SKIP,
    ConversionPolicy,
    Edit,
    OverlapError,
    RewritePlan,
    Scope,
    apply,
    convert,
)
from logicaltex.detector import DetectionKind, detect_all, extract_frontmatter
from logicaltex.lexer import Span, TokenKind, parse, tokenize
from logicaltex.model import ACCENT_SYMBOLS, Marker, MarkerSymbol
from logicaltex.validator import check_body_preservation, validate, validate_structure

from conftest import (
    AGGRESSIVE,
    FIXTURES,
    FULL_PROFILES,
    LOGICAL_FIXTURES,
    METADATA_ONLY,
    VISUAL_FIXTURES,
)
from same_behaviour import HOSTILE_SEEDS, POLICIES, hostile


def wrap(body, preamble=""):
    return f"\\documentclass{{article}}\n{preamble}\n\\begin{{document}}\n{body}\n\\end{{document}}\n"


# ---------------------------------------------------------------------------
# apply
# ---------------------------------------------------------------------------

def test_apply_empty_plan_is_identity():
    src = "anything at all $x$ {\\bf y}"
    assert apply(src, RewritePlan(())) == src


def test_apply_single_edit_preserves_outside_bytes():
    src = "0123456789abcdefghij"
    plan = RewritePlan((Edit(Span(10, 20), "XYZ", "test"),))
    out = apply(src, plan)
    assert out == "0123456789XYZ"
    assert out[:10] == src[:10]


def test_apply_bytes_in_bytes_out():
    src = "caf\xe9 {\\bf x}".encode("utf-8")
    out = apply(src, RewritePlan(()))
    assert out == src and isinstance(out, bytes)


def test_overlapping_edits_rejected():
    with pytest.raises(OverlapError):
        RewritePlan((
            Edit(Span(0, 5), "a", "t"),
            Edit(Span(3, 8), "b", "t"),
        ))


def test_zero_width_insert_before_edit_is_fine():
    plan = RewritePlan((
        Edit(Span(3, 3), "INS", "t"),
        Edit(Span(3, 6), "REP", "t"),
    ))
    assert apply("abcdefgh", plan) == "abcINSREPgh"


# ---------------------------------------------------------------------------
# convert: spec rewrite catalog
# ---------------------------------------------------------------------------

def test_title_rewrite():
    src = wrap("\\centerline{\\bf On Symmetry}\n\nBody text.")
    out, rep = convert(src, AGGRESSIVE)
    assert "\\title{On Symmetry}" in out
    assert "\\centerline" not in out
    kinds = [d.kind for d, _ in rep.applied]
    assert DetectionKind.TITLE in kinds


def test_abstract_rewrite_drops_label_and_wrapper():
    src = wrap(
        "\\centerline{\\bf A Title Of Sorts}\n\n"
        "{\\bf Abstract. }{\\it We prove X.}\n\nBody.")
    out, _ = convert(src, AGGRESSIVE)
    assert "\\begin{abstract}\nWe prove X.\n\\end{abstract}" in out
    assert "{\\bf Abstract" not in out


def test_emphasis_rewrite():
    src = wrap("\\maketitle\n\nAn {\\bf important} point.", preamble="\\title{T}")
    out, rep = convert(src, AGGRESSIVE)
    assert "\\emph{important}" in out
    src2 = wrap("\\maketitle\n\nAn {\\bf important} point.", preamble="\\title{T}")
    out2, rep2 = convert(src2, ConversionPolicy(scope=Scope.FULL))
    assert "\\emph" not in out2
    assert any("threshold" in r for _, r in rep2.skipped)


# An old-style group that a command reads as its argument (the first six),
# and groups that stand free, with what each converts to under --aggressive.
_EMPHASIS_GROUPS = [
    (r"\subsection{\bf Main result}", r"\subsection{\emph{Main result}}"),
    (r"\footnote{\it See the appendix.}", r"\footnote{\emph{See the appendix.}}"),
    (r"\mbox{\it word}", r"\mbox{\emph{word}}"),
    (r"\caption{\it A plot}", r"\caption{\emph{A plot}}"),
    (r"\href{x}{\it link}", r"\href{x}{\emph{link}}"),
    (r"\emph{\bf x}", r"\emph{\emph{x}}"),
    (r"\section[Short]{\bf Long}", r"\section[Short]{\emph{Long}}"),
    (r'\"{\it o}', r'\"{\emph{o}}'),
    # A macro reads at most nine arguments.
    ("\\foo" + "{a}" * 8 + r"{\it b}", "\\foo" + "{a}" * 8 + r"{\emph{b}}"),
    ("\\foo" + "{a}" * 9 + r"{\it b}", "\\foo" + "{a}" * 9 + r"\emph{b}"),
    (r"See {\it this} word.", r"See \emph{this} word."),
    (r"\item[{\bf (a)}]", r"\item[\emph{(a)}]"),
    (r"\noindent{\it Remark.}", r"\noindent\emph{Remark.}"),
    # A known command reads exactly what its table entry names.
    (r"\section*{\bf Long}", r"\section*{\emph{Long}}"),
    (r"\vspace{1ex}{\bf b}", r"\vspace{1ex}\emph{b}"),
    (r"\vskip 2mm{\it b}", r"\vskip 2mm\emph{b}"),
    (r"\textbf{a}{\it b}", r"\textbf{a}\emph{b}"),
]


@pytest.mark.parametrize("group, converted", _EMPHASIS_GROUPS)
@pytest.mark.parametrize("label", POLICIES)
def test_emphasis_in_a_commands_argument_keeps_its_braces(group, converted, label):
    src = wrap(f"\\section{{Intro}}\nSome text {group} more text.")
    rewritten = label == "full+aggressive"
    out, rep = convert(src, POLICIES[label])
    assert out == src.replace(group, converted if rewritten else group)
    assert [d.kind for d, _ in rep.applied] == [DetectionKind.EMPHASIS] * rewritten
    assert convert(out, POLICIES[label])[0] == out


@pytest.mark.parametrize("label", POLICIES)
def test_commands_in_a_visual_document_keep_their_arguments(label):
    # The six commands above, with old-style groups as their arguments, in
    # the running text, a heading and a figure of one visual document.
    src = (FIXTURES / "visual" / "old_style_arguments.tex").read_text(encoding="utf-8")
    out, rep = convert(src, POLICIES[label])
    tokens = tokenize(out).tokens
    commands = ("subsection", "footnote", "mbox", "caption", "href", "emph")
    read = [after.kind for t, after in zip(tokens, tokens[1:])
            if t.kind is TokenKind.CONTROL_WORD and t.value in commands]
    assert len(read) >= 6 and all(kind is TokenKind.BEGIN_GROUP for kind in read)
    rewritten = label == "full+aggressive"
    assert (r"\mbox{\emph{unbroken}}" in out) is rewritten
    assert (r"\subsection{\emph{Main result}}" in out) is rewritten
    assert [d.kind for d, _ in rep.applied].count(DetectionKind.EMPHASIS) == 6 * rewritten
    assert convert(out, POLICIES[label])[0] == out


# Words that take no argument, so an edit may follow one.
_NO_ARGUMENT = {"par", "noindent", "bigskip"}


def test_section_and_theorem_edits_never_follow_a_command_that_reads_an_argument():
    # A bold heading or theorem label right after a command: a section or
    # theorem edit there would hand the command the edit's first token
    # (\section or \begin) as its argument.  Each such edit starts a
    # paragraph or covers the words before the label instead.
    applied = {DetectionKind.SECTION_HEADER: 0, DetectionKind.THEOREM_LIKE: 0}
    commands = ["\\foo", "\\foo[x]", "\\foo{a}", "\\mbox", "\\footnote", "\\caption",
                "\\item", "\\emph", "\\textbf", "\\centerline", "\\vspace{1em}", '\\"',
                "\\\\", "\\par", "\\noindent", "\\bigskip", "\\vskip 2mm", "\\vspace*{1em}",
                "\\vskip 2mm plus 1mm", "\\hspace{1em}"]
    labels = ["{\\bf 2 Results}", "{\\bf 2. Results}", "\\textbf{3 Methods}",
              "{\\large\\bf 4 Discussion}", "\\centerline{\\bf 5 Outlook}",
              "{\\bf Theorem 1.} Every case holds.", "\\textbf{Lemma 2.} It holds.",
              "{\\bf Proposition 3} It holds too."]
    for command, blank, text in itertools.product(commands, ("", " ", "\n", "%\n"), labels):
        src = wrap("\\centerline{\\bf A Title For Tests}\n\n\\centerline{Ann Lee}\n\n"
                   f"\\section{{Intro}}\nSome text.\n\n{command}{blank}{text}\n\nMore text.")
        tokens = tokenize(src).tokens
        for label, policy in POLICIES.items():
            _, rep = convert(src, policy)
            for det, edit in rep.applied:
                if det.kind not in applied:
                    continue
                applied[det.kind] += 1
                before = [t for t in tokens if t.end <= edit.span.start
                          and t.kind not in (TokenKind.WHITESPACE, TokenKind.COMMENT)][-1]
                assert before.kind is not TokenKind.CONTROL_WORD \
                    or before.value in _NO_ARGUMENT, (command, blank, text, label)
                assert before.kind is not TokenKind.CONTROL_SYMBOL \
                    or before.value not in ACCENT_SYMBOLS, (command, blank, text, label)
    # Both families did apply, under full scope, after some of the commands.
    assert all(count >= 30 for count in applied.values()), applied


@pytest.mark.parametrize("lead", ["\\vspace{2mm}", "\\vspace*{2mm}", "\\vskip 6pt",
                                  "\\vskip 2mm plus 1mm"])
@pytest.mark.parametrize("label", POLICIES)
def test_a_skip_before_a_heading_or_label_converts_as_medskip_does(lead, label):
    # Old papers space a heading or a theorem label with \vspace or \vskip
    # as often as with \medskip.  Each converts as its \medskip twin does:
    # an edit takes the skip with it, and an untouched line keeps it.
    for text in ("\\noindent{\\bf 2. Results}", "\\noindent{\\bf Lemma 2.} It holds."):
        def source(skip):
            return wrap("\\centerline{\\bf A Title For Tests}\n\n\\centerline{Ann Lee}\n\n"
                        f"\\section{{Intro}}\nSome text.\n\n{skip}{text}\n\nMore text.")
        twin, _ = convert(source("\\medskip"), POLICIES[label])
        out, _ = convert(source(lead), POLICIES[label])
        assert out == twin.replace("\\medskip", lead), (text, label)


def test_author_rewrite_with_thanks_and_and():
    src = wrap(
        "\\centerline{\\bf A Title Line Here}\n\n"
        "\\centerline{Alice Smith$^{1}$ and Bob Jones$^{2}$}\n"
        "\\centerline{$^{1}$University of X}\n"
        "\\centerline{$^{2}$Institute of Y}\n\nBody.")
    out, rep = convert(src, AGGRESSIVE)
    assert ("\\author{Alice Smith\\thanks{University of X} "
            "\\and Bob Jones\\thanks{Institute of Y}}") in out
    assert "\\maketitle" in out
    assert "$^{1}$" not in out


def test_author_rewrite_affiliation_command():
    src = wrap(
        "\\centerline{\\bf A Title Line Here}\n\n"
        "\\centerline{Alice Smith$^{1}$ and Bob Jones$^{2}$}\n"
        "\\centerline{$^{1}$University of X}\n"
        "\\centerline{$^{2}$Institute of Y}\n\nBody.")
    pol = ConversionPolicy(scope=Scope.FULL, aggressive=True,
                           affiliation_command="affiliation")
    out, _ = convert(src, pol)
    assert "\\author{Alice Smith}" in out
    assert "\\affiliation{University of X}" in out
    assert "\\author{Bob Jones}" in out
    assert "\\thanks" not in out


def test_marker_given_twice_is_one_unresolved_marker():
    src = wrap(
        "\\centerline{\\bf A Title Line Here}\n\n"
        "\\centerline{Ann Lee$^{1,1}$ and Bob Stone$^{2}$}\n"
        "\\centerline{$^{2}$Institute of Y}\n\nBody.")
    fm = extract_frontmatter(detect_all(parse(src)))
    assert fm.unresolved_markers == [(0, Marker(MarkerSymbol.DIGIT, "1"))]
    out, rep = convert(src, AGGRESSIVE)
    assert "\\author{Ann Lee \\and Bob Stone\\thanks{Institute of Y}}" in out
    assert [w for w in rep.warnings if "marker" in w] == [
        "author 'Ann Lee' carries marker digit(1) with no matching affiliation; "
        "no affiliation attached"]


# Rewritten text that ends in a comment, as written or once a character
# that Python reads as blank but TeX reads as text is trimmed off it.
COMMENT_ENDED = [
    "\\begin{center}\x00%c\n\x0b\n",
    "{\\bf A Study of Things}\n\nAnn Lee%c\n\x0b and Bob Stone\n\nBody.",
    "{\\bf A Study of Things}\n\nAnn Lee %c\n, Bob Stone\n\nBody.",
    "{\\bf A Study of Things}\n\nAnn Lee$^{1}$ and Bob Stone$^{2}$%c\n\x0b\n\n"
    "$^{1}$University of Somewhere%c\n\x0b\n\n$^{2}$Institute of Y\n\nBody.",
]


@pytest.mark.parametrize("body", COMMENT_ENDED,
                         ids=["title", "author", "author-comma", "affiliation"])
@pytest.mark.parametrize("label", POLICIES)
def test_text_ending_in_a_comment_keeps_the_brace_after_it(body, label):
    for src in (body, wrap(body)):
        out, rep = convert(src, POLICIES[label])
        assert out != src
        verdict = validate(src, out, rep.plan)
        assert verdict.body_preserved
        assert verdict.structural_delta == []


def test_author_hygiene_no_marker_renderings():
    import re

    src = wrap(
        "\\centerline{\\bf The Marker Title}\n\n"
        "\\centerline{Ann One$^{1,2}$, Ben Two\\dag}\n"
        "\\centerline{$^{1}$First Institute of Testing}\n"
        "\\centerline{$^{2}$Second University of Checking}\n"
        "\\centerline{\\dag Third Laboratory of Marks}\n\nBody.")
    out, rep = convert(src, AGGRESSIVE)
    m = re.search(r"\\author\{(.*)\}\n", out, re.DOTALL)
    assert m is not None
    content = m.group(1)
    for residue in ("$^", "\\dag", "\\footnotemark", "\\textsuperscript"):
        assert residue not in content, content


def test_theorem_rewrite_gated_and_preamble_note():
    src = wrap("\\maketitle\n\n{\\bf Definition 2.} A nice map commutes.",
               preamble="\\title{T}")
    out_plain, rep_plain = convert(src, ConversionPolicy(scope=Scope.FULL))
    assert "\\begin{definition}" not in out_plain
    assert any("aggressive" in r for _, r in rep_plain.skipped)
    out, _ = convert(src, AGGRESSIVE)
    assert "\\begin{definition}" in out and "\\end{definition}" in out
    assert "\\newtheorem{definition}{Definition}" in out
    assert out.index("\\newtheorem") < out.index("\\begin{document}")


def test_theorem_rewrite_respects_existing_newtheorem():
    src = wrap("\\maketitle\n\n{\\bf Lemma 1.} Statement text here.",
               preamble="\\title{T}\n\\newtheorem{lemma}{Lemma}")
    out, _ = convert(src, AGGRESSIVE)
    assert out.count("\\newtheorem{lemma}") == 1


def test_section_rewrite_strips_number_and_par():
    src = wrap("\\maketitle\n\n\\medskip\\noindent{\\bf 2. Results}\\par\n\nText.",
               preamble="\\title{T}")
    out, _ = convert(src, AGGRESSIVE)
    assert "\\section{Results}" in out
    assert "\\medskip" not in out and "\\section{Results}\\par" not in out


def test_glue_read_inside_a_text_run_leaves_the_heading():
    # \hskip reads "1em" from the text run "1em 2. Results": the style
    # peeling keeps the run's rest, so the heading is still numbered.
    src = wrap("Intro text here.\n\n{\\bf \\hskip 1em 2. Results}\n\nText of the results.")
    out, _ = convert(src, ConversionPolicy(scope=Scope.FULL))
    assert out == src.replace("{\\bf \\hskip 1em 2. Results}", "\\section{Results}")


def test_heading_holding_math_is_not_rewritten():
    # A body rewrite touches no protected text, even where no threshold
    # is checked.
    src = wrap("\\section{One}\n\nText.\n\n{\\bf 2. The $L^2$ case}\n\nText.")
    out, rep = convert(src, AGGRESSIVE)
    assert out == src and rep.applied == []


def test_unnumbered_section_becomes_starred():
    src = wrap("\\maketitle\n\n\\textbf{\\large Acknowledgments}\n\nThanks.",
               preamble="\\title{T}")
    out, _ = convert(src, AGGRESSIVE)
    assert "\\section*{Acknowledgments}" in out


def test_already_logical_is_byte_identical():
    for path in LOGICAL_FIXTURES[:6]:
        src = path.read_text()
        out, rep = convert(src, AGGRESSIVE)
        assert out == src, path.name
        assert rep.applied == []


def test_def_maketitle_prevents_duplicate_insertion():
    from conftest import FIXTURES

    src = (FIXTURES / "visual" / "def_maketitle.tex").read_text()
    assert src.count("\\maketitle") == 1
    out, rep = convert(src, AGGRESSIVE)
    assert out.count("\\maketitle") == 1  # only the \def site
    assert "\\title{Custom Title Machinery and Its Preservation}" in out


def test_maketitle_inserted_after_front_matter_before_abstract():
    src = wrap(
        "\\centerline{\\bf Ordered Front Matter}\n\n"
        "\\centerline{Cara Doe}\n\n"
        "{\\bf Abstract. }{\\it Some content of the abstract goes here.}\n\nBody.")
    out, _ = convert(src, AGGRESSIVE)
    assert out.index("\\title{") < out.index("\\author{") \
        < out.index("\\maketitle") < out.index("\\begin{abstract}")


def test_metadata_only_policy_leaves_body_untouched():
    src = wrap(
        "\\centerline{\\bf The Scoped Title}\n\n"
        "\\centerline{Dana Scholar}\n\n"
        "{\\bf Abstract. }{\\it Abstract prose of reasonable length here.}\n\n"
        "\\medskip\\noindent{\\bf 1. Introduction}\\par\n\n"
        "Body with {\\bf old} emphasis.")
    out, rep = convert(src, METADATA_ONLY)
    assert "\\title{The Scoped Title}" in out
    assert "\\medskip\\noindent{\\bf 1. Introduction}\\par" in out
    assert "{\\bf old}" in out
    reasons = {r for _, r in rep.skipped}
    assert any("metadata" in r for r in reasons)


def test_report_covers_every_detection():
    src = wrap(
        "\\centerline{\\bf Coverage Title Here}\n\n"
        "\\centerline{Eve Author}\n\n"
        "{\\bf Abstract. }{\\it Enough abstract content to be detected.}\n\n"
        "\\textbf{\\large 1 Intro}\n\nAn {\\it aside} remark.")
    from logicaltex.detector import detect_all

    count = len(detect_all(parse(src)).all())
    for policy in (AGGRESSIVE, METADATA_ONLY, ConversionPolicy(scope=Scope.FULL)):
        _, rep = convert(src, policy)
        assert_report_covers_once(rep, count)


def assert_report_covers_once(rep, count):
    """Each of the ``count`` detections is applied or skipped, exactly
    once, and a skipped one carries the reason the report gives."""
    reported = [d for d, _ in rep.applied] + [d for d, _ in rep.skipped]
    assert len(reported) == len({id(d) for d in reported}) == count
    assert all(d.skip_reason is None for d, _ in rep.applied)
    assert all(reason == d.skip_reason for d, reason in rep.skipped)


def test_body_preservation_and_structure_on_visual_fixtures():
    for path in VISUAL_FIXTURES:
        src = path.read_text()
        out, rep = convert(src, AGGRESSIVE)
        ok, off = check_body_preservation(src, out, rep.plan)
        assert ok, (path.name, off)
        assert validate_structure(src, out) == [], path.name


def test_idempotence_on_degraded_corpus(small_corpus):
    from logicaltex.degrader import degrade

    for name, text in small_corpus:
        visual, _ = degrade(text, FULL_PROFILES, 0)
        once, rep1 = convert(visual, AGGRESSIVE)
        twice, rep2 = convert(once, AGGRESSIVE)
        assert twice == once, name
        assert rep2.applied == [], name


def test_title_never_spans_damaged_text():
    # The unterminated $$ is damaged text: as a title it would swallow the
    # closing brace and \maketitle, and a second pass would add another.
    src = "$^1$\n\n\\large $$^1$"
    for label, policy in POLICIES.items():
        out, rep = convert(src, policy)
        assert "\\title" not in out, label
        assert DetectionKind.TITLE not in [d.kind for d, _ in rep.applied], label
        assert convert(out, policy)[0] == out, label


@pytest.mark.parametrize("src", [
    # An unterminated $ once carried the abstract past \end{document}.
    wrap("{\\bf Abstract.}$"),
    # Display math opened in an author line once swallowed its brace.
    "\\begin{center}Alice Smith$$",
    # A lone backslash at the very end is no diagnostic, but a title or
    # author command over it would escape its own closing brace.
    "\\centering Big Title Words\\",
    "\\centerline{\\bf A Title}\n\nAlice Smith\\",
])
def test_no_edit_covers_damaged_text(src):
    for label, policy in POLICIES.items():
        out, rep = convert(src, policy)
        assert validate_structure(src, out) == [], label


# Inputs on which families of edits collide: an abstract and an
# affiliation line claim the same span, and an affiliation line ends past
# the front matter under metadata-only scope.  Under the named policies the
# planner raised before claims were resolved; the losing detection is now
# skipped with the resolver's reason.  The second input's unclosed
# \begin{center} is damaged text, so it yields no affiliation line and
# nothing collides; the third takes its place.
COLLIDING = [
    ("\\begin{titlepage}\x00\\and\udcf6Theorem 1.\\d{abstract}^*\\titleKeywornoindent "
     "\\d{center}Keywords: \\beginve", ("metadata+aggressive", "full+aggressive"),
     DetectionKind.ABSTRACT, OVERLAP_SKIP),
    ("{\\it \\begin{titlepage}\\end{titlepage}\\begin{center}", (),
     DetectionKind.AFFILIATION_LINE, SCOPE_SKIP),
    ("{\\it \\begin{titlepage}\\end{titlepage} University of Somewhere}",
     ("metadata+aggressive",), DetectionKind.AFFILIATION_LINE, SCOPE_SKIP),
]


@pytest.mark.parametrize("src, raised_under, loser, reason", COLLIDING)
def test_colliding_claims_are_skipped_not_raised(src, raised_under, loser, reason):
    for label, policy in POLICIES.items():
        out, rep = convert(src, policy)
        preserved, offset = check_body_preservation(src, out, rep.plan)
        assert preserved, (label, offset)
        resolved = [(d.kind, r) for d, r in rep.skipped if r in (OVERLAP_SKIP, SCOPE_SKIP)]
        assert resolved == ([(loser, reason)] if label in raised_under else []), label


def test_marker_only_affiliation_line_is_kept():
    # A line holding only a marker has no affiliation text to move into an
    # author command, so it stays as it is.
    src = "$^1$\n\nplain words"
    for label, policy in POLICIES.items():
        out, rep = convert(src, policy)
        assert out == src, label
        assert [(d.kind, r) for d, r in rep.skipped] == [
            (DetectionKind.AFFILIATION_LINE, "empty affiliation content")], label


# An affiliation line whose edit would delete its text, since no accepted
# author line carries it: the affiliation text, and the policies (by
# label) whose gate accepts the line, so that the resolver's reason shows.
UNCARRIED = [
    # a marker no author carries
    (wrap("\\centerline{\\Large\\bf On Random Walks}\n\n"
          "\\centerline{Ann Lee$^1$ and Bob Stone$^1$}\n\n"
          "\\centerline{$^1$Department of Physics, University of X}\n\n"
          "\\centerline{$^2$Institute of Mathematics, University of Y}\n\n"
          "\\section{Introduction}"),
     "Institute of Mathematics, University of Y", set(POLICIES)),
    # no author line at all
    (wrap("\\centerline{\\bf A Title}\n\n"
          "\\centerline{Department of Physics, University of X}\n\n"
          "Some body text of the paper follows here."),
     "Department of Physics, University of X", set(POLICIES)),
    # a theorem's statement, claimed at confidence 0.2
    (wrap("\\begin{theorem}\nUniversity of Somewhere\n\\end{theorem}"),
     "University of Somewhere", {"metadata+aggressive", "full+aggressive"}),
    # a centred environment, which falls back to claims on its lines
    (wrap("\\begin{center}\n{\\bf A Title}\\\\\nAnn Lee$^1$\\\\\n"
          "$^1$Department of Physics, University of X\\\\\n"
          "$^2$Institute of Mathematics, University of Y\n\\end{center}\n\nText."),
     "Institute of Mathematics, University of Y", set(POLICIES)),
]


@pytest.mark.parametrize("src, text, gated_in", UNCARRIED)
def test_uncarried_affiliation_line_is_kept(src, text, gated_in):
    for label, policy in POLICIES.items():
        out, rep = convert(src, policy)
        assert text in out, label
        assert check_body_preservation(src, out, rep.plan)[0], label
        [reason] = [r for d, r in rep.skipped
                    if d.kind is DetectionKind.AFFILIATION_LINE and text in src[d.span.start:d.span.end]]
        assert (reason == UNCARRIED_SKIP) == (label in gated_in), (label, reason)
        assert all(d.kind is not DetectionKind.AFFILIATION_LINE or text not in e.replacement
                   for d, e in rep.applied)


def test_carried_affiliations_still_move_into_the_author_block():
    src = UNCARRIED[3][0]
    out, rep = convert(src, METADATA_ONLY)
    assert "\\author{Ann Lee\\thanks{Department of Physics, University of X}}" in out
    assert "\\title{A Title}" in out and "\\begin{center}" in out
    assert "$^1$Department" not in out


@pytest.mark.parametrize("seed", HOSTILE_SEEDS)
@pytest.mark.parametrize("generator", hostile.GENERATORS)
def test_hostile_inputs_convert_once_for_all(seed, generator):
    inputs = [(size, src) for name, size, src in hostile.hostile_inputs(seed)
              if name == generator]
    for (size, src), (label, policy) in itertools.product(inputs, POLICIES.items()):
        out, rep = convert(src, policy)
        preserved, offset = check_body_preservation(src, out, rep.plan)
        assert preserved, (size, label, offset)
        assert convert(out, policy)[0] == out, (size, label)


def test_malformed_input_still_converts_with_output():
    src = "\\centerline{\\bf Broken Title} {\\it unclosed\n\n\\end{abstract}\n"
    out, rep = convert(src, AGGRESSIVE)
    assert "\\title{Broken Title}" in out
    assert isinstance(rep.warnings, list)


def test_classification_recorded_before_and_after(small_corpus):
    from logicaltex.degrader import degrade
    from logicaltex.detector import DocumentClass

    _, text = small_corpus[0]
    visual, _ = degrade(text, FULL_PROFILES, 0)
    _, rep = convert(visual, AGGRESSIVE)
    assert rep.class_before.label is DocumentClass.VISUAL
    assert rep.class_after.label is DocumentClass.LOGICAL


def test_latin1_bytes_full_recovery():
    doc = (
        "\\documentclass{article}\n\\begin{document}\n\n"
        "\\centerline{\\bf Sur la sym\xe9trie des \xe9quations}\n\n"
        "\\centerline{Ren\xe9 Descartes}\n\n"
        "\\centerline{D\xe9partement de Math\xe9matiques, Universit\xe9 de Paris}\n\n"
        "{\\bf Abstract. }{\\it Nous \xe9tudions la sym\xe9trie des \xe9quations.}\n\n"
        "Corps du texte.\n\\end{document}\n"
    ).encode("latin-1")
    out, rep = convert(doc, AGGRESSIVE)
    assert isinstance(out, bytes)
    text = out.decode("latin-1")
    assert "\\title{Sur la sym\xe9trie des \xe9quations}" in text
    assert ("\\author{Ren\xe9 Descartes\\thanks{D\xe9partement de "
            "Math\xe9matiques, Universit\xe9 de Paris}}") in text
    assert "Corps du texte." in text
    ok, _ = check_body_preservation(doc, out, rep.plan)
    assert ok


def test_convert_analyses_each_tree_once(monkeypatch):
    from logicaltex import converter, detector

    detect_calls = []
    protected_calls = []
    detect_all, protected_spans = detector.detect_all, detector.protected_spans

    def counting_detect_all(tree):
        detect_calls.append(tree)
        return detect_all(tree)

    def counting_protected_spans(tree):
        protected_calls.append(tree)
        return protected_spans(tree)

    for module in (detector, converter):
        monkeypatch.setattr(module, "detect_all", counting_detect_all)
    monkeypatch.setattr(detector, "protected_spans", counting_protected_spans)
    # convert analyses its input once.  Reading class_after analyses a
    # visual input's output once more; a logical input comes back
    # unchanged, so its one analysis serves both classes.
    for path, trees in ((VISUAL_FIXTURES[0], 2), (LOGICAL_FIXTURES[0], 1)):
        detect_calls.clear()
        protected_calls.clear()
        _, rep = convert(path.read_text(), AGGRESSIVE)
        assert len(detect_calls) == 1
        assert len(protected_calls) <= 1
        rep.class_after
        rep.class_after
        assert len(detect_calls) == trees
        assert len({id(tree) for tree in detect_calls}) == trees
        assert len(protected_calls) <= trees
        assert len({id(tree) for tree in protected_calls}) == len(protected_calls)


def test_convert_walks_each_tree_once(monkeypatch):
    # ``detector.index_contents`` indexes each analysed tree once, from the
    # records its builder kept.
    from logicaltex import detector, lexer

    walked = []
    trees = []
    index_contents, build_tree = detector.index_contents, lexer.build_tree

    def counting_index_contents(tree):
        walked.append(tree)
        return index_contents(tree)

    def recording_build_tree(stream):
        trees.append(build_tree(stream))
        return trees[-1]

    monkeypatch.setattr(detector, "index_contents", counting_index_contents)
    monkeypatch.setattr(lexer, "build_tree", recording_build_tree)
    _, rep = convert(VISUAL_FIXTURES[0].read_text(), AGGRESSIVE)
    assert len(walked) == 1
    assert len(trees) == 1
    rep.class_after  # the output's tree is built and indexed on this read
    assert len(walked) == 2
    assert len(trees) == 2
    assert all(walked_tree is tree for walked_tree, tree in zip(walked, trees))


def test_round_trip_builds_each_text_once(monkeypatch):
    from logicaltex import lexer
    from logicaltex.degrader import degrade
    from logicaltex.model import extract_logical
    from logicaltex.validator import validate

    built = []
    build_tree = lexer.build_tree

    def recording_build_tree(stream):
        built.append(stream.source)
        return build_tree(stream)

    monkeypatch.setattr(lexer, "build_tree", recording_build_tree)
    logical = LOGICAL_FIXTURES[0].read_text()
    visual, _ = degrade(logical, FULL_PROFILES, seed=1)
    for src, changed in ((visual, True), (logical, False)):
        built.clear()
        out, rep = convert(src, AGGRESSIVE)
        extract_logical(parse(out))
        validate(src, out, rep.plan)
        assert (out != src) is changed
        assert built == ([src, out] if changed else [src])


def test_class_after_is_the_class_of_the_output():
    from logicaltex.detector import classify

    for path in VISUAL_FIXTURES + LOGICAL_FIXTURES:
        for policy in (AGGRESSIVE, METADATA_ONLY):
            out, rep = convert(path.read_text(), policy)
            assert rep.class_after == classify(parse(out)), path.name


def _tree_fingerprint(tree):
    return repr((tree.nodes, tree.diagnostics, tree.stream.tokens))


def test_no_stage_mutates_a_parsed_tree():
    # The parse memo hands one tree to every stage that parses the same
    # text; that is sound only while no stage changes a tree it is given.
    from logicaltex.degrader import degrade
    from logicaltex.model import extract_logical
    from logicaltex.validator import validate

    for path in (VISUAL_FIXTURES[0], LOGICAL_FIXTURES[0]):
        src = path.read_text()
        tree = parse(src)
        before = _tree_fingerprint(tree)
        out, rep = convert(src, AGGRESSIVE)
        extract_logical(tree)
        validate(src, out, rep.plan)
        if path in LOGICAL_FIXTURES:
            degrade(src, FULL_PROFILES, seed=1)
        assert _tree_fingerprint(tree) == before


def test_structure_commands_in_verbatim_are_not_logical():
    from logicaltex.detector import DocumentClass
    from logicaltex.model import extract_logical

    src = wrap(
        "\\centerline{\\Large\\bf A Study of Quiet Things}\n"
        "\\centerline{Jane Doe}\n\n"
        "\\begin{verbatim}\n"
        "\\title{Old}\\author{Someone}\\section{Intro}\\maketitle\n"
        "\\begin{abstract}Quoted.\\end{abstract}\n"
        "\\end{verbatim}\n"
        "Inline \\verb|\\title{x}| text.\n")
    out, rep = convert(src, METADATA_ONLY)
    assert rep.class_before.label is DocumentClass.VISUAL
    assert rep.class_before.logical_count == 0
    assert "\\title{A Study of Quiet Things}" in out
    assert "\n\\maketitle\n" in out
    assert extract_logical(parse(src)).title_raw is None


def test_same_behaviour_digests(capsys):
    import same_behaviour

    assert same_behaviour.main(["--docs", "1", "--limit", "3"]) == 0
    first = capsys.readouterr().out.splitlines()
    same_behaviour.main(["--docs", "1", "--limit", "3"])
    assert capsys.readouterr().out.splitlines() == first
    # one line per policy and one for the tree, for each input
    assert len(first) == 3 * (len(same_behaviour.POLICIES) + 1)
    assert len({line.split()[0] for line in first}) == 3
    assert len({line.split()[2] for line in first}) > 1
