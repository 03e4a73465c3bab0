"""The package namespace: every exported name, loaded on first access."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import logicaltex

# Each module and the names ``import logicaltex`` exports from it.
EXPORTED = {
    "arxiv": "ArxivClient",
    "converter": "ConversionPolicy ConversionReport Edit OverlapError PolicyViolation "
                 "RewritePlan Scope apply convert plan",
    "degrader": "NotLogicalError degrade emit_pairs",
    "detector": "Cue CueKind Detection DetectionKind DocumentClass FormattingClass classify "
                "detect_abstract detect_all detect_authors_affiliations "
                "detect_emphasis_and_theorems detect_section_headers detect_title "
                "extract_frontmatter frontmatter_region",
    "lexer": "BlockTree Diagnostic Span Token TokenKind TokenStream build_tree math_spans "
             "parse protected_spans tokenize",
    "model": "Affiliation FrontMatter Marker MarkerSymbol Metadata MetadataError "
             "extract_markers resolve_affiliations strip_styling",
    "validator": "ExtractedMetadata MetadataScores ValidationReport Verdict "
                 "check_body_preservation compare_metadata validate validate_structure",
}
NAMES = [(module, name) for module, names in EXPORTED.items() for name in names.split()]
SRC = str(Path(logicaltex.__file__).parents[1])


def _fresh(code: str) -> str:
    """Standard output of ``code`` run by a fresh interpreter without
    site-packages, with this checkout's package on the path."""
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": SRC})
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


@pytest.mark.parametrize("module, name", NAMES)
def test_each_name_is_its_modules_object(module, name):
    home = getattr(importlib.import_module(f"logicaltex.{module}"), name)
    assert getattr(logicaltex, name) is home
    namespace = {}
    exec(f"from logicaltex import {name}", namespace)
    assert namespace[name] is home


def test_star_import_binds_every_name_and_module():
    namespace = {}
    exec("from logicaltex import *", namespace)
    del namespace["__builtins__"]
    expected = {name: getattr(importlib.import_module(f"logicaltex.{module}"), name)
                for module, name in NAMES}
    expected.update({module: importlib.import_module(f"logicaltex.{module}")
                     for module in EXPORTED})
    assert namespace.keys() == expected.keys() == set(logicaltex.__all__)
    assert all(namespace[name] is value for name, value in expected.items())


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        logicaltex.no_such_name
    assert not hasattr(logicaltex, "cli_main")
    with pytest.raises(ImportError):
        exec("from logicaltex import no_such_name", {})


def test_importing_the_package_loads_no_module():
    assert _fresh("import sys, logicaltex; "
                  "print([m for m in sys.modules if m.startswith('logicaltex.')])") == "[]"


def test_first_access_loads_only_the_names_module():
    loaded = _fresh("import sys, logicaltex; logicaltex.tokenize; "
                    "print(sorted(m for m in sys.modules if m.startswith('logicaltex.')))")
    assert loaded == "['logicaltex.lexer']"
    # A module is an attribute too, as when the package imported them all.
    assert _fresh("import logicaltex; print(logicaltex.validator.__name__)") \
        == "logicaltex.validator"


def test_importing_and_converting_loads_neither_dataclasses_nor_inspect():
    # The records are written out as classes: dataclasses would write
    # their methods at import, and load inspect to do so.
    modules = [*EXPORTED, "cli"]
    doc = "\\centerline{\\bf A Title}\n\n{\\bf 1. Intro}\n\nText with {\\it words}.\n"
    loaded = _fresh("import importlib, sys\n"
                    f"for m in {modules!r}: importlib.import_module('logicaltex.' + m)\n"
                    "from logicaltex.converter import ConversionPolicy, Scope, convert\n"
                    f"convert({doc!r}, ConversionPolicy(Scope.FULL, aggressive=True))\n"
                    "print([m for m in ('dataclasses', 'inspect') if m in sys.modules])")
    assert loaded == "[]"


def test_dir_lists_every_exported_name():
    assert set(logicaltex.__all__) <= set(dir(logicaltex))
