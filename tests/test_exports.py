"""Every exported name resolves: each module's __all__, the package's own
imports, and a star import of each module.  A name deleted from a module
but left in an export list fails here, not in a user's import."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import igawave

MODULES = sorted(m.name for m in pkgutil.iter_modules(igawave.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(f"igawave.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


@pytest.mark.parametrize("module", MODULES)
def test_star_import(module):
    namespace = {}
    exec(f"from igawave.{module} import *", namespace)
    for name in getattr(importlib.import_module(f"igawave.{module}"), "__all__", ()):
        assert name in namespace


def test_package_imports_resolve():
    tree = ast.parse(Path(igawave.__file__).read_text())
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert imported
    for module, name in imported:
        source = importlib.import_module(f"igawave.{module}")
        assert hasattr(source, name), f"igawave.{module}.{name}"
        assert getattr(igawave, name) is getattr(source, name)
