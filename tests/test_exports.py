"""Every exported name resolves: a stale re-export fails here, not in a user's import."""

import ast
import importlib
from pathlib import Path

import pytest

import energysieve

PACKAGE = Path(energysieve.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_exist(name):
    module = importlib.import_module(f"energysieve.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_package_reexports_are_exported_by_their_modules():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"energysieve.{node.module}")
        for alias in node.names:
            assert hasattr(energysieve, alias.asname or alias.name), alias.name
            if hasattr(module, "__all__"):
                assert alias.name in module.__all__, f"{node.module}.{alias.name}"


def test_star_import():
    namespace = {}
    exec("from energysieve import *", namespace)
    assert {"sieve_primes", "factorize", "occupancy", "gallagher_bound"} <= set(namespace)
