"""The package's modules form layers: each imports only modules below it."""

import ast
from pathlib import Path

import pytest

import spdzgen

PACKAGE = Path(spdzgen.__file__).resolve().parent

# Lowest first.  `__init__` and `__main__` are entry points, not layers.
LAYERS = ["errors", "modmath", "net", "btg", "mhkm", "spdz", "fixpt", "dispense", "gwas", "cli"]


def package_imports(module: str) -> set:
    """The names of the package modules that `module` imports, at any depth
    of its source (a function-level import counts too)."""
    tree = ast.parse((PACKAGE / (module + ".py")).read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module is None:  # from . import x, y
                found.update(alias.name for alias in node.names)
            elif node.level == 1:  # from .x import y
                found.add(node.module.split(".")[0])
            elif node.module and node.module.split(".")[0] == "spdzgen":
                rest = node.module.split(".")[1:]
                found.update(rest[:1] or [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "spdzgen" and len(parts) > 1:
                    found.add(parts[1])
    return found


def test_every_module_has_a_layer():
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__", "__main__"}
    assert modules == set(LAYERS)


@pytest.mark.parametrize("module", LAYERS)
def test_imports_only_lower_layers(module):
    below = set(LAYERS[:LAYERS.index(module)])
    assert package_imports(module) - below == set()
