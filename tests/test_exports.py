"""Every name that a module of the package lists in ``__all__`` exists in it,
so a deleted function cannot stay exported, and every name a module imports
is used in it, so a deleted caller cannot leave its import behind."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import puselect

MODULES = [f"puselect.{info.name}" for info in pkgutil.iter_modules(puselect.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", MODULES)
def test_every_imported_name_is_used(name):
    # MODULES leaves out the package's __init__, which imports to re-export;
    # a line marked noqa imports for another reader (a name patched from
    # outside the module).
    path = Path(importlib.import_module(name).__file__)
    source = path.read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = [
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
        if "# noqa" not in lines[alias.lineno - 1]
    ]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert [n for n in imported if n not in used] == []
