"""Digest what ``convert`` does to each input: one line per input and policy.

Run it at two commits and compare; a line that differs is a change of
behaviour:

    PYTHONPATH=src python tests/same_behaviour.py > before.txt   # parent
    PYTHONPATH=src python tests/same_behaviour.py > after.txt    # change
    diff before.txt after.txt

The inputs are the corpusgen documents degraded under the five acceptance
bundles and three degrader seeds (the acceptance sweep's pairs), the
fixtures as written and again with every LF byte a CRLF and a lone CR,
and ``perfbench/hostile.py``'s generators at seeds 1-3.  Each is
converted under the four policies (metadata or full scope, each with and
without ``aggressive``).  A line hashes the output bytes, the plan, the
applied and skipped detections with their cues and skip reasons, the
warnings and both classes.  One more line per input digests its block
tree: the diagnostics, and every node depth first with its class,
offsets, name and number of children, so a change of the tree shows even
where no output byte moves.  The same line digests what the detectors read
of the tree: its index of control words and environments; the plain
text, core plain text and segments (each one's span, raw and plain name,
markers and marker spans) of every line of the whole body's segmentation,
cut where the front matter ends, whether a detector reads it or not; the
raw text and marker of every author and affiliation
detection; and the protected spans (math, verbatim and comments) that no
rewrite may touch.  Each corpus pair gets one more line with four
digests: the degrader's visual bytes, its ground truth, the bytes of its
``.truth.json`` sidecar, and the metadata scores of what ``validate``
extracts from the full-scope ``aggressive`` conversion, scored against
that truth.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
sys.path.insert(0, str(TESTS))
sys.path.insert(0, str(TESTS.parent / "perfbench"))

import hostile  # noqa: E402
from corpusgen import build_corpus  # noqa: E402

from logicaltex.converter import ConversionPolicy, Scope, convert  # noqa: E402
from logicaltex.detector import (  # noqa: E402
    _Segmenter, _split, detect_all, document_body, frontmatter_region, index_contents,
)
from logicaltex.degrader import degrade  # noqa: E402
from logicaltex.lexer import (  # noqa: E402
    EnvNode, GroupNode, MathNode, encode_source, parse, protected_spans,
)
from logicaltex.model import extract_logical  # noqa: E402
from logicaltex.validator import compare_metadata  # noqa: E402

BUNDLES = (
    ("centerline-style",),
    ("center-env",),
    ("centerline-style", "numbered-markers", "bold-solitary-sections"),
    ("center-env", "symbol-markers", "inline-emphasis"),
    ("centerline-style", "symbol-markers", "unlabeled-abstract",
     "bold-solitary-sections", "inline-emphasis"),
)
DEGRADER_SEEDS = (0, 1, 2)
HOSTILE_SEEDS = (1, 2, 3)
POLICIES = {
    f"{scope.value}{'+aggressive' if aggressive else ''}":
        ConversionPolicy(scope=scope, aggressive=aggressive)
    for scope in Scope for aggressive in (False, True)
}


def inputs(docs: int):
    """(name, source, ground truth or None) for every input, in a fixed
    order."""
    fixtures = sorted((TESTS / "fixtures").rglob("*.tex"))
    for label, end in (("fixture", b"\n"), ("fixture-crlf", b"\r\n"), ("fixture-cr", b"\r")):
        for path in fixtures:
            source = path.read_bytes().replace(b"\n", end)
            yield f"{label}/{path.parent.name}/{path.name}", source, None
    for seed in HOSTILE_SEEDS:
        for generator, size, source in hostile.hostile_inputs(seed):
            yield f"hostile/{seed}/{generator}/{size}", source, None
    corpus = build_corpus(docs)
    for (name, text), b, seed in itertools.product(corpus, range(len(BUNDLES)), DEGRADER_SEEDS):
        yield (f"corpus/{name}/bundle{b}/seed{seed}", *degrade(text, BUNDLES[b], seed))


def _cls(c) -> tuple:
    return (c.label.value, c.score, c.visual_count, c.logical_count)


def _det(d) -> tuple:
    cues = sorted((c.kind.value, tuple(c.span), c.word) for c in d.cues)
    return (d.kind.value, tuple(d.span), d.confidence, d.level, d.keyword, cues)


def digest(source: str | bytes, policy: ConversionPolicy) -> str:
    out, report = convert(source, policy)
    record = (
        encode_source(out) if isinstance(out, str) else out,
        [(tuple(e.span), e.replacement, e.origin) for e in report.plan.edits],
        [(_det(d), tuple(e.span)) for d, e in report.applied],
        [(_det(d), reason) for d, reason in report.skipped],
        report.warnings,
        _cls(report.class_before),
        _cls(report.class_after),
    )
    return _hash(record)


def tree_digest(source: str | bytes) -> str:
    tree = parse(source)
    nodes = []
    pending = [iter(tree.nodes)]  # an explicit stack: any depth is walked
    while pending:
        for n in pending[-1]:
            if isinstance(n, (GroupNode, EnvNode)):
                name = n.name if isinstance(n, EnvNode) else None
                nodes.append((type(n).__name__, n.start, n.end, n.inner_start, n.inner_end,
                              name, len(n.children)))
                pending.append(iter(n.children))
                break
            nodes.append((type(n).__name__, n.start, n.end,
                          n.kind if isinstance(n, MathNode) else None))
        else:
            pending.pop()
    diagnostics = [(d.kind, d.detail, tuple(d.span)) for d in tree.diagnostics]
    contents = index_contents(tree)
    envs = {name: [tuple(span) for span in spans] for name, spans in contents.envs.items()}
    # Every line of the body, cut where the front matter ends, whether or
    # not a detector reads it.
    full = _Segmenter(tree.stream).run(document_body(tree)[0])
    head, rest = _split(full, tree.stream, frontmatter_region(tree).span.end)
    plain = [(ln.plain, ln.core_plain, [_segment(s) for s in ln.segments])
             for ln in head + rest]
    dets = detect_all(tree)
    front = [(d.kind.value, tuple(d.span), d.data.get("text_raw"), str(d.data.get("marker")))
             for d in dets.authors + dets.affiliations]
    protected = [tuple(span) for span in protected_spans(tree)]
    return _hash((diagnostics, nodes, sorted(contents.words.items()), sorted(envs.items()),
                  plain, front, protected))


def _segment(s) -> tuple:
    return (tuple(s.span), s.name_raw, s.name_plain, [str(m) for m in s.markers],
            [tuple(span) for span in s.marker_spans])


def _hash(record) -> str:
    return hashlib.sha256(repr(record).encode("utf-8", "backslashreplace")).hexdigest()[:20]


def truth_digests(source: str, truth) -> str:
    out, _ = convert(source, POLICIES["full+aggressive"])
    scores = compare_metadata(extract_logical(parse(out)).metadata(), truth)
    visual = hashlib.sha256(encode_source(source)).hexdigest()[:20]
    sidecar = hashlib.sha256(truth.to_json().encode("utf-8")).hexdigest()[:20]
    return (f"visual {visual} truth {_hash(truth.to_dict())} sidecar {sidecar} "
            f"metadata {_hash(scores.to_dict())}")


def lines(docs: int, limit: int | None = None):
    for name, source, truth in itertools.islice(inputs(docs), limit):
        for label, policy in POLICIES.items():
            yield f"{name} {label} {digest(source, policy)}"
        yield f"{name} tree {tree_digest(source)}"
        if truth is not None:
            yield f"{name} {truth_digests(source, truth)}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--docs", type=int, default=100,
                        help="corpusgen documents to degrade (default 100)")
    parser.add_argument("--limit", type=int, default=None,
                        help="digest only the first LIMIT inputs")
    args = parser.parse_args(argv)
    for line in lines(args.docs, args.limit):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
