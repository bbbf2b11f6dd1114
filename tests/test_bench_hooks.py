"""The benchmark's tracer wraps library names it lists in bench/tracer.py;
every listed name must still exist, or a traced run crashes on install.
The lists are read from the source, so nothing under bench/ is imported."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _listed(name):
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} is not assigned in {TRACER}")


def test_every_wrapped_function_resolves():
    functions = _listed("FUNCTIONS")
    assert functions
    for module, func in functions:
        assert callable(getattr(importlib.import_module(f"linstrand.{module}"), func, None)), f"{module}.{func}"


def test_every_wrapped_method_is_defined_on_its_class():
    methods = _listed("METHODS")
    assert methods
    for module, cls_name, method, _ in methods:
        cls = getattr(importlib.import_module(f"linstrand.{module}"), cls_name)
        assert method in vars(cls), f"{module}.{cls_name}.{method}"
