"""The export lists agree with the modules: every name in a module's
__all__ is defined on it, and every name the package imports from one of
its modules is in that module's __all__.  A stale name left in an __all__
would otherwise break `from linstrand.<module> import *` unnoticed."""

import ast
import importlib
from pathlib import Path

import pytest

import linstrand

PACKAGE = Path(linstrand.__file__).resolve().parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_is_defined(name):
    module = importlib.import_module(f"linstrand.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_the_package_imports_only_exported_names():
    imported = [
        (node.module, a.name)
        for node in ast.parse((PACKAGE / "__init__.py").read_text()).body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for a in node.names
    ]
    assert imported
    stray = [(m, n) for m, n in imported if n not in importlib.import_module(f"linstrand.{m}").__all__]
    assert stray == []
