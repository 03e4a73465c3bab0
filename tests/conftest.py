import sys
from pathlib import Path

import pytest

TESTS_DIR = Path(__file__).parent
FIXTURES = TESTS_DIR / "fixtures"
LOGICAL_FIXTURES = sorted((FIXTURES / "logical").glob("*.tex"))
VISUAL_FIXTURES = sorted((FIXTURES / "visual").glob("*.tex"))
ARXIV_CACHE = FIXTURES / "arxiv_cache"

sys.path.insert(0, str(TESTS_DIR))

from logicaltex import lexer  # noqa: E402
from logicaltex.converter import ConversionPolicy, Scope  # noqa: E402
from logicaltex.lexer import EnvNode, GroupNode  # noqa: E402

# The five canonical degradation bundles used for round-trip verification:
# each one fixes a front-matter style, a marker alphabet, an abstract form
# and whether body constructs degrade too.
PROFILE_SETS = (
    ("centerline-style",),
    ("center-env",),
    ("centerline-style", "numbered-markers", "bold-solitary-sections"),
    ("center-env", "symbol-markers", "inline-emphasis"),
    ("centerline-style", "symbol-markers", "unlabeled-abstract",
     "bold-solitary-sections", "inline-emphasis"),
)

FULL_PROFILES = PROFILE_SETS[4]

AGGRESSIVE = ConversionPolicy(scope=Scope.FULL, aggressive=True)
METADATA_ONLY = ConversionPolicy(scope=Scope.METADATA_ONLY)


def walk(nodes):
    """The tests' reference traversal of a tree: every node in document
    order, depth first.  The open child lists are an explicit stack, so
    any depth is walked and each node costs the same wherever it sits."""
    pending = [iter(nodes)]
    while pending:
        for node in pending[-1]:
            yield node
            if isinstance(node, (GroupNode, EnvNode)):
                pending.append(iter(node.children))
                break
        else:
            pending.pop()


PACKAGE_DIR = str(Path(lexer.__file__).parent)


def line_events(fn, *args) -> int:
    """How many lines run in ``logicaltex`` frames during ``fn(*args)``: a
    count of work that the host's load does not move.  Work done in C (a
    regex, ``str.find``, a slice) counts as the one line that asks for it,
    so the count adds to the clock and does not replace it."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return local

    def call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(PACKAGE_DIR) else None

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        fn(*args)
    finally:
        sys.settrace(previous)
    return count


@pytest.fixture(autouse=True)
def fresh_parse_memo():
    """Start every test with an empty parse memo, so that counts of the
    trees a test builds do not depend on which tests ran before it."""
    lexer._parse_text.cache_clear()


@pytest.fixture(scope="session")
def corpus100():
    from corpusgen import build_corpus

    return build_corpus(100)


@pytest.fixture(scope="session")
def small_corpus():
    from corpusgen import build_corpus

    return build_corpus(8)
