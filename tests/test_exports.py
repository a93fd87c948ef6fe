"""Every name that a module of the package lists in ``__all__`` exists in it,
so a deleted function cannot stay exported."""

import importlib
import pkgutil

import pytest

import puselect

MODULES = [f"puselect.{info.name}" for info in pkgutil.iter_modules(puselect.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
