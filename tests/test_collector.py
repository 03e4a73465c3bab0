"""The entry points that build and read trees pause the cyclic garbage
collector for the length of the call: the trees, streams and reports
they build hold no reference cycles, so reference counting frees all
that a call drops, and a collection started inside it would scan the
call's objects for nothing."""

import gc
import sys

import pytest

from logicaltex.converter import convert
from logicaltex.degrader import NotLogicalError, degrade
from logicaltex.detector import detect_all
from logicaltex.lexer import parse, pauses_collector
from logicaltex.model import extract_logical
from logicaltex.validator import validate

from conftest import (
    AGGRESSIVE,
    LOGICAL_FIXTURES,
    PACKAGE_DIR,
    PROFILE_SETS,
    VISUAL_FIXTURES,
)
from same_behaviour import HOSTILE_SEEDS, hostile

LOGICAL = LOGICAL_FIXTURES[0].read_text(encoding="utf-8")
VISUAL = VISUAL_FIXTURES[0].read_text(encoding="utf-8")
_TREE = parse(VISUAL)
_OUT, _REPORT = convert(VISUAL)

# Each entry point: a call that returns and a call that raises.
ENTRY_POINTS = {
    "parse": (lambda: parse(VISUAL), lambda: parse(object()), TypeError),
    "detect_all": (lambda: detect_all(_TREE), lambda: detect_all(None), AttributeError),
    "extract_logical": (lambda: extract_logical(_TREE), lambda: extract_logical(None),
                        AttributeError),
    "convert": (lambda: convert(VISUAL, AGGRESSIVE), lambda: convert(object()), TypeError),
    "validate": (lambda: validate(VISUAL, _OUT, _REPORT.plan),
                 lambda: validate(VISUAL, _OUT, None), AttributeError),
    "degrade": (lambda: degrade(LOGICAL, PROFILE_SETS[4], 0),
                lambda: degrade(VISUAL, PROFILE_SETS[4], 0), NotLogicalError),
}

# The code of the wrapper that pauses the collector: the one package
# frame that starts with it on.
PAUSING = pauses_collector(lambda: None).__code__


def _collector_states(call) -> set[bool]:
    """Whether the collector was on as each package function other than
    the pausing wrapper started during ``call()``."""
    states = set()

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code is not PAUSING and code.co_filename.startswith(PACKAGE_DIR):
            states.add(gc.isenabled())

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(previous)
    return states


@pytest.fixture
def collector_on():
    assert gc.isenabled()
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("the collector was left off")


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_entry_point_pauses_the_collector_and_turns_it_back_on(name, collector_on):
    # Every package function the call runs, those after a nested paused
    # call has returned included, starts with the collector off.
    returns, raises, error = ENTRY_POINTS[name]
    assert _collector_states(returns) == {False}
    assert gc.isenabled()
    with pytest.raises(error):
        raises()
    assert gc.isenabled()


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_entry_point_leaves_a_collector_the_caller_turned_off_off(name, collector_on):
    returns, raises, error = ENTRY_POINTS[name]
    gc.disable()
    try:
        returns()
        assert not gc.isenabled()
        with pytest.raises(error):
            raises()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_a_nested_call_does_not_turn_the_collector_back_on(collector_on):
    @pauses_collector
    def inner():
        return gc.isenabled()

    @pauses_collector
    def outer():
        return inner(), gc.isenabled()

    assert outer() == (False, False)
    assert gc.isenabled()


def test_no_collection_starts_inside_convert_of_deep_braces(collector_on):
    # The input that sets the hostile workload's tail: 2,400 nested
    # groups.  Unpaused, about a dozen collections start inside the call.
    source = next(src for name, size, src in hostile.hostile_inputs(1)
                  if (name, size) == ("deep_braces", 2400))
    started = []

    def record(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.callbacks.append(record)
    try:
        convert(source, AGGRESSIVE)
    finally:
        gc.callbacks.remove(record)
    assert started == []


def _entry_points(source):
    """Run each entry point on ``source`` and what it returns, yielding
    the entry point's name after its call."""
    tree = parse(source)
    yield "parse"
    detect_all(tree)
    yield "detect_all"
    extract_logical(tree)
    yield "extract_logical"
    out, report = convert(source, AGGRESSIVE)
    yield "convert"
    validate(source, out, report.plan)
    yield "validate"
    extract_logical(parse(out))
    yield "extract_logical(parse(output))"


def _round_trip(text, profiles):
    """Degrade ``text`` under ``profiles``, then run each entry point on
    the visual copy, yielding as ``_entry_points`` does."""
    visual, _ = degrade(text, profiles, 0)
    yield "degrade"
    yield from _entry_points(visual)


def _fixture_runs():
    for path in LOGICAL_FIXTURES:
        text = path.read_text(encoding="utf-8")
        yield path.name, _entry_points(text)
        yield path.name, _round_trip(text, PROFILE_SETS[4])
    for path in VISUAL_FIXTURES:
        yield path.name, _entry_points(path.read_bytes())


def _corpus_runs(corpus):
    for profiles in PROFILE_SETS:
        for name, text in corpus:
            yield (name, profiles), _round_trip(text, profiles)


def _hostile_runs():
    for seed in HOSTILE_SEEDS:
        for name, size, source in hostile.hostile_inputs(seed):
            yield (seed, name, size), _entry_points(source)


@pytest.mark.parametrize("inputs", ["fixtures", "corpus", "hostile"])
def test_the_entry_points_leave_no_cyclic_garbage(inputs, small_corpus, collector_on):
    # With the collector off, a full collection after each entry point
    # finds nothing unreachable: reference counting alone freed all that
    # the call dropped, so pausing the collector holds no garbage back.
    runs = {"fixtures": _fixture_runs, "corpus": lambda: _corpus_runs(small_corpus),
            "hostile": _hostile_runs}[inputs]()
    gc.collect()
    gc.disable()
    try:
        checked = 0
        for label, steps in runs:
            for step in steps:
                assert gc.collect() == 0, (label, step)
                checked += 1
    finally:
        gc.enable()
    assert checked
