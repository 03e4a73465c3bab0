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
