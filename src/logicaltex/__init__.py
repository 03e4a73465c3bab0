"""logicaltex: rewrite visually formatted LaTeX into logical LaTeX, verifiably.

The pipeline is deterministic end to end: a lossless lexer, context-aware
detection with fixed confidence scoring, span-based rewriting that cannot
touch bytes outside its plan, a seeded degrader that synthesizes visual
documents with ground-truth sidecars, and validators that score round
trips instead of trusting them.

Importing the package loads none of its modules: each name below is
imported from its module on first access (PEP 562), so a command pays
only for the modules it runs.
"""

# Each module and the names the package exports from it.
_EXPORTS = {
    "arxiv": ("ArxivClient", "ArxivRecord"),
    "converter": ("ConversionPolicy", "ConversionReport", "Edit", "OverlapError",
                  "PolicyViolation", "RewritePlan", "Scope", "apply", "convert", "plan"),
    "degrader": ("GroundTruth", "NotLogicalError", "degrade", "emit_pairs"),
    "detector": ("Cue", "CueKind", "Detection", "DetectionKind", "DocumentClass",
                 "FormattingClass", "classify", "detect_abstract", "detect_all",
                 "detect_authors_affiliations", "detect_emphasis_and_theorems",
                 "detect_section_headers", "detect_title", "extract_frontmatter",
                 "frontmatter_region"),
    "lexer": ("BlockTree", "Diagnostic", "Span", "Token", "TokenKind", "TokenStream",
              "build_tree", "math_spans", "parse", "protected_spans", "tokenize"),
    "model": ("Affiliation", "FrontMatter", "Marker", "MarkerSymbol", "extract_markers",
              "resolve_affiliations", "strip_styling"),
    "validator": ("ExtractedMetadata", "MetadataScores", "ValidationReport", "Verdict",
                  "check_body_preservation", "compare_metadata", "validate",
                  "validate_structure"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

# The modules are public names too: `logicaltex.lexer` needs no import of its own.
__all__ = sorted([*_MODULE_OF, *_EXPORTS])
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None and name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    if module is None:  # importing a module binds it here
        return importlib.import_module(f"{__name__}.{name}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
