"""The package's exports: every ``__all__`` entry resolves, and every name
``laxchain/__init__.py`` re-exports is public in the module it comes from,
so a deleted definition cannot leave a dangling export."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import laxchain

MODULES = sorted(m.name for m in pkgutil.iter_modules(laxchain.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_every_all_entry_resolves(module):
    mod = importlib.import_module(f"laxchain.{module}")
    assert hasattr(mod, "__all__"), f"laxchain.{module} declares no __all__"
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def _package_imports():
    """(module, name) for every ``from .module import name`` in __init__."""
    tree = ast.parse(pathlib.Path(laxchain.__file__).read_text())
    return [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


def test_package_imports_are_public_in_their_modules():
    imports = _package_imports()
    assert imports
    private = [
        f"{module}.{name}"
        for module, name in imports
        if name not in importlib.import_module(f"laxchain.{module}").__all__
    ]
    assert private == []
