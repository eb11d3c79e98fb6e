"""Every name a module of the package imports is used in that module."""

import ast
import glob
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "lemnilab")
MODULES = sorted(glob.glob(os.path.join(SRC, "*.py")))


def _unused_imports(tree: ast.Module) -> list:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_module_imports_no_unused_name(path):
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    assert _unused_imports(tree) == []


def test_unused_import_is_caught():
    tree = ast.parse("import math\nfrom .sphere import unit_vector, Rotation\nRotation()\n")
    assert _unused_imports(tree) == [(1, "math"), (2, "unit_vector")]
