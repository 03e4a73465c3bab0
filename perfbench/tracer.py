"""Span tracer that lives outside the package.

While installed, each traced public function is replaced, in every
``logicaltex`` module namespace that holds it, by a wrapper that records
a span: name, start, end, parent span and document id.  Calls between
package modules look their callee up in the module globals at call
time, so the wrappers see them too.  Generators such as ``lexer.walk``
are not traced, because a wrapper would time only their creation.

Spans are kept in memory and written out by ``write``.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter

TRACED = {
    "lexer": ("tokenize", "build_tree", "parse", "protected_spans", "math_spans"),
    "detector": ("detect_all", "classify", "frontmatter_region", "segment_lines",
                 "detect_title", "detect_authors_affiliations", "detect_abstract",
                 "detect_section_headers", "detect_emphasis_and_theorems",
                 "extract_frontmatter"),
    "model": ("strip_styling", "extract_logical", "resolve_affiliations"),
    "converter": ("convert", "plan", "apply"),
    "degrader": ("degrade",),
    "validator": ("validate", "validate_structure", "check_body_preservation",
                  "compare_metadata", "normalize_for_compare", "levenshtein"),
    "cli": ("main",),
}


def _count_tokens(args, result):
    return {"lexer.tokens": len(result.tokens)}


def _count_detections(args, result):
    return {"detector.detections": len(result.all())}


def _count_conversion(args, result):
    report = result[1]
    return {"converter.edits": len(report.plan.edits),
            "converter.applied": len(report.applied)}


def _count_cells(args, result):
    return {"validator.levenshtein.cells": len(args[0]) * len(args[1])}


# Work counters, taken from a traced call's arguments and result.
COUNTERS = {
    "lexer.tokenize": _count_tokens,
    "detector.detect_all": _count_detections,
    "converter.convert": _count_conversion,
    "validator.levenshtein": _count_cells,
}


class Tracer:
    def __init__(self):
        # (name, start, end, parent index or -1, document id)
        self.spans: list[tuple[str, float, float, int, object]] = []
        self.counts: Counter = Counter()
        self.doc: object = None
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.doc)
            if counter is not None:
                counts.update(counter(args, result))
            return result

        return traced

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "logicaltex" or name.startswith("logicaltex."))]
        for short, functions in TRACED.items():
            home = sys.modules[f"logicaltex.{short}"]
            for fn_name in functions:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{short}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._bindings.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._bindings):
            setattr(module, attr, original)
        self._bindings.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, doc in self.spans:
                fh.write(json.dumps([name, start, end, parent, doc]) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the time covered by its child spans.
    Spans of one thread never overlap, so the children's durations add."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own
