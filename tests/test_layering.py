"""The package's modules form layers: each imports only modules below it.
And the package holds no test-only code: the package or the benchmark reads
every public name it defines, but for two named exceptions."""

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


# Public names that nothing in the package or the benchmark reads, each kept
# for a reason of its own.
UNREFERENCED = {
    "fixpt.fp_mult": "the fixed-point product that acceptance criterion 5 measures",
    "net.Runtime.transcript": "a run's record of its messages, which is what the run leaves",
}
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def public_definitions(module: str) -> set:
    """`module.name` for each public top-level function, class and assigned
    name of the module, and `module.Class.name` for each public method of
    those classes."""
    tree = ast.parse((PACKAGE / (module + ".py")).read_text())
    found = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            found.update("%s.%s" % (module, target.id) for target in node.targets
                         if isinstance(target, ast.Name) and not target.id.startswith("_"))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            found.add("%s.%s" % (module, node.name))
            if isinstance(node, ast.ClassDef):
                found.update("%s.%s.%s" % (module, node.name, item.name) for item in node.body
                             if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"))
    return found


def referenced_names(paths) -> set:
    """Every name read, attribute taken or name imported in the sources; a
    name only assigned to is not read."""
    found = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                found.update(alias.name.split(".")[-1] for alias in node.names)
    return found


def test_every_public_name_has_a_reader_outside_the_tests():
    # a helper that only tests call belongs in tests/helpers.py
    assert PERFBENCH.is_dir()
    read = referenced_names(sorted(PACKAGE.glob("*.py")) + sorted(PERFBENCH.glob("*.py")))
    defined = set().union(*(public_definitions(module) for module in LAYERS))
    unread = {name for name in defined if name.rsplit(".", 1)[1] not in read}
    assert unread == set(UNREFERENCED)
