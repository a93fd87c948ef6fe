"""Every name that a module of the package lists in ``__all__`` exists in it,
so a deleted function cannot stay exported, and every name a module imports
is used in it, so a deleted caller cannot leave its import behind.  The
package exports exactly its library modules' ``__all__``, and the README's
quickstart runs."""

import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import puselect

MODULES = [f"puselect.{info.name}" for info in pkgutil.iter_modules(puselect.__path__)]
LIBRARY = [name for name in MODULES if name != "puselect.cli"]
README = Path(__file__).parents[1] / "README.md"


def test_package_exports_exactly_the_library_modules_all():
    exported = {
        name
        for name, value in vars(puselect).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    listed = [n for name in LIBRARY for n in importlib.import_module(name).__all__]
    assert len(listed) == len(set(listed))  # no name is public in two modules
    assert exported == set(listed)


def test_package_import_leaves_the_cli_unloaded():
    code = "import sys, puselect; print('puselect.cli' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(puselect.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (out.returncode, out.stdout) == (0, "False\n"), out.stderr


def test_readme_quickstart_runs(capsys):
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out.startswith("MetricReport(")


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
