"""Every defaulted parameter of the package is passed by some call site.

A default that no caller overrides is a branch no run takes: the
parameter goes, and its default becomes the code.  The scan reads the
package, the tests and the benchmark with ``ast`` and matches calls to
definitions by name, so it errs toward "passed": a call of any function
of that name counts, and so does any ``*`` or ``**`` argument.  The one
exception is a wrapper's ``**`` parameter passed on whole: that call
passes the keywords the wrapper's own callers pass, followed one level.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "logicaltex"
CALLERS = (PACKAGE, ROOT / "tests", ROOT / "perfbench")

# (qualified name, parameter) -> why it stays although no call passes it.
EXEMPT: dict[tuple[str, str], str] = {}


def _trees(directory: Path):
    for path in sorted(directory.rglob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _defaulted(fn: ast.FunctionDef, is_method: bool) -> list[tuple[str, int | None]]:
    """Each defaulted parameter with its position among the arguments a
    caller writes (None for keyword-only)."""
    positional = [*fn.args.posonlyargs, *fn.args.args]
    decorators = {d.id for d in fn.decorator_list if isinstance(d, ast.Name)}
    if is_method and "staticmethod" not in decorators:
        positional = positional[1:]  # self or cls
    first_default = len(positional) - len(fn.args.defaults)
    out = [(a.arg, i) for i, a in enumerate(positional) if i >= first_default]
    out += [(a.arg, None) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
            if d is not None]
    return out


def _definitions() -> dict[str, list[tuple[str, str, int | None]]]:
    """Callable name -> (qualified name, parameter, position) of each
    defaulted parameter.  A class is called by its name, for ``__init__``."""
    defs: dict[str, list[tuple[str, str, int | None]]] = {}

    def add(call_name, qualified, fn, is_method):
        for name, pos in _defaulted(fn, is_method):
            defs.setdefault(call_name, []).append((qualified, name, pos))

    for path, tree in _trees(PACKAGE):
        module = path.stem
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                add(node.name, f"{module}.{node.name}", node, False)
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if not isinstance(item, ast.FunctionDef):
                        continue
                    qualified = f"{module}.{node.name}.{item.name}"
                    if item.name == "__init__":
                        add(node.name, qualified, item, True)
                    elif not item.name.startswith("__"):  # dunders are Python's to call
                        add(item.name, qualified, item, True)
    return defs


def _scoped_calls(node: ast.AST, cls: str | None, fn: ast.FunctionDef | None):
    """Each call under ``node`` with the class and the function whose
    bodies hold it."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _scoped_calls(child, child.name, fn)
            continue
        if isinstance(child, ast.FunctionDef):
            yield from _scoped_calls(child, cls, child)
            continue
        if isinstance(child, ast.Call):
            yield child, cls, fn
        yield from _scoped_calls(child, cls, fn)


def _calls():
    """Each call as (callee name, positional count, keyword names, unpacks,
    wrapper): ``wrapper`` names the function whose ``**`` parameter the
    call passes on whole, and is None otherwise.  ``cls(...)`` in a class
    body calls that class."""
    for directory in CALLERS:
        for _, tree in _trees(directory):
            for node, cls, fn in _scoped_calls(tree, None, None):
                func = node.func
                if isinstance(func, ast.Name):
                    name = cls if func.id == "cls" and cls else func.id
                elif isinstance(func, ast.Attribute):
                    name = func.attr
                else:
                    continue
                positional = [a for a in node.args if not isinstance(a, ast.Starred)]
                keywords = {k.arg for k in node.keywords if k.arg is not None}
                unpacked = [getattr(k.value, "id", None) for k in node.keywords if k.arg is None]
                forwarded = fn is not None and fn.args.kwarg is not None \
                    and unpacked == [fn.args.kwarg.arg]
                yield (name, len(positional), keywords,
                       len(positional) < len(node.args) or bool(unpacked) and not forwarded,
                       fn.name if forwarded else None)


def unpassed() -> list[tuple[str, str]]:
    passed = set()
    defs = _definitions()
    calls = list(_calls())
    for name, n_positional, keywords, unpacks, wrapper in calls:
        if wrapper is not None:
            # A wrapper's callers pass its keywords on; one that passes
            # its own ``**`` parameter on passes any.
            for outer, _, outer_keywords, outer_unpacks, outer_wrapper in calls:
                if outer == wrapper:
                    keywords = keywords | outer_keywords
                    unpacks = unpacks or outer_unpacks or outer_wrapper is not None
        for qualified, param, pos in defs.get(name, ()):
            if unpacks or param in keywords or (pos is not None and pos < n_positional):
                passed.add((qualified, param))
    return sorted({(q, p) for entries in defs.values() for q, p, _ in entries} - passed)


def test_every_defaulted_parameter_is_passed_by_some_call():
    # An exemption that a call now passes is stale, and fails here too.
    assert unpassed() == sorted(EXEMPT)


def test_the_scan_sees_positional_keyword_and_unpacked_arguments(tmp_path, monkeypatch):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "m.py").write_text(
        "def f(a, b=1, c=2, *, d=3, e=4): pass\n"
        "class K:\n"
        "    def __init__(self, x=0, y=0): pass\n"
        "    def g(self, z=0): pass\n"
        "    @classmethod\n"
        "    def make(cls):\n"
        "        return cls(y=1)\n"
        "def wrap(**kw):\n"
        "    return f(0, **kw)\n", encoding="utf-8")
    # wrap passes on its callers' keywords: d, but neither c nor e.
    (tmp_path / "caller.py").write_text(
        "f(0, 1)\nK.g(*args)\nwrap(d=2)\n", encoding="utf-8")
    monkeypatch.setattr(sys.modules[__name__], "PACKAGE", tmp_path / "pkg")
    monkeypatch.setattr(sys.modules[__name__], "CALLERS", (tmp_path,))
    assert unpassed() == [("m.K.__init__", "x"), ("m.f", "c"), ("m.f", "e")]
