"""The benchmark's tracer wraps package functions by name: each name it
lists must stay a function of its module, or every traced run fails."""

import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
# The tracer module's namespace, run from its source so that nothing is
# written beside it.
tracer = {"__name__": "tracer"}
exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), tracer)
TRACED = [(module, name) for module, names in tracer["TRACED"].items() for name in names]


@pytest.mark.parametrize("module, name", TRACED)
def test_each_traced_name_is_a_function_of_its_module(module, name):
    assert callable(getattr(importlib.import_module(f"logicaltex.{module}"), name, None))


def test_each_counter_counts_a_traced_function():
    counters = tracer["COUNTERS"]
    assert counters and set(counters) <= {f"{module}.{name}" for module, name in TRACED}
