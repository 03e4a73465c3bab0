"""The whole pipeline is total: for any input and every policy, converting,
detecting and validating return a result, no byte outside the plan's
front-matter edits changes, and the output passes its own validator."""

from hypothesis import given, settings
from hypothesis import strategies as st

from logicaltex.converter import convert
from logicaltex.detector import detect_all
from logicaltex.lexer import parse
from logicaltex.validator import check_body_preservation, validate

from same_behaviour import POLICIES
from test_converter import assert_report_covers_once, wrap
from test_detector import REGION_FRAGMENTS
from test_lexer import FRAGMENTS

# Pieces of front matter whose lines different families of edits claim.
FRONT_MATTER_FRAGMENTS = [
    "$^1$", "\\and", "Keywords:", "\\begin{abstract}", "{\\bf Theorem 1.}",
    "\\centerline{", "{\\it ", "Alice Smith", "University of Somewhere",
]
PIECES = FRAGMENTS + REGION_FRAGMENTS + FRONT_MATTER_FRAGMENTS


def _check_total(src):
    count = len(detect_all(parse(src)).all())
    for label, policy in POLICIES.items():
        out, rep = convert(src, policy)
        preserved, offset = check_body_preservation(src, out, rep.plan)
        assert preserved, (label, offset)
        assert_report_covers_once(rep, count)
        verdict = validate(src, out, rep.plan)
        assert verdict.body_preserved, label
        assert verdict.structural_delta == [], label


@given(st.lists(st.sampled_from(PIECES), max_size=24), st.booleans())
@settings(max_examples=400, deadline=None)
def test_fragment_documents_convert_under_every_policy(pieces, wrapped):
    text = "".join(pieces)
    _check_total(wrap(text) if wrapped else text)


@given(st.binary(max_size=96))
@settings(max_examples=150, deadline=None)
def test_any_bytes_convert_under_every_policy(data):
    _check_total(data)
