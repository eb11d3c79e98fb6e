"""Every name a module of the package imports is used in that module,
every private module-level name is used somewhere in the package, only
a curve's field owners build a field object, and only a stage's module
states its input rules (local_disk alone the local disk's)."""

import ast
import glob
import os
import pathlib

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
MODULES = sorted(glob.glob(os.path.join(ROOT, "src", "lemnilab", "*.py")))


def _sources(*dirs) -> dict:
    """The text of each .py file in the dirs, keyed by its name less .py."""
    paths = sorted(p for d in dirs for p in glob.glob(os.path.join(ROOT, d, "*.py")))
    return {os.path.basename(p)[:-3]: pathlib.Path(p).read_text() for p in paths}


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


def _private_defs(stmt) -> list:
    """The private names a module-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    else:
        names = []
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _orphan_privates(sources: dict) -> list:
    """(module, name) of each private module-level name that no statement
    of the modules references outside the one that defines it."""
    defs, uses = [], []
    for mod, src in sources.items():
        for stmt in ast.parse(src).body:
            names = {n.id for n in ast.walk(stmt) if isinstance(n, ast.Name)
                     and not isinstance(n.ctx, ast.Store)}
            names |= {n.attr for n in ast.walk(stmt) if isinstance(n, ast.Attribute)}
            names |= {a.name for n in ast.walk(stmt) if isinstance(n, ast.ImportFrom)
                      for a in n.names}
            uses.append((stmt, names))
            defs += [(mod, name, stmt) for name in _private_defs(stmt)]
    return sorted((mod, name) for mod, name, stmt in defs
                  if not any(name in names for s, names in uses if s is not stmt))


def test_no_private_helper_outlives_its_callers():
    assert _orphan_privates(_sources("src/lemnilab")) == []


def test_orphan_private_helper_is_caught():
    sources = {
        "a.py": "_K = 2\n\ndef _used():\n    return _K\n\ndef _self(x):\n"
                "    return _self(x - 1)\n\ndef _gone():\n    pass\n",
        "b.py": "from .a import _used\n_used()\n",
    }
    assert _orphan_privates(sources) == [("a.py", "_gone"), ("a.py", "_self")]


# a curve's field is built once: by as_field, by trace_levels (which every
# consumer takes it from) and by the constructor's candidate pairs
FIELD_BUILDERS = {"PairField", "RealField", "as_field"}
FIELD_OWNERS = {("field", "as_field"), ("tracer", "trace_levels"), ("constructor", "_add_circle")}


def _field_builds(sources: dict) -> list:
    """(module, top-level def or None, line) of each call of a field
    builder in the modules, a call in a method or nested function counted
    under its outermost def."""
    out = []
    for mod, src in sources.items():
        for stmt in ast.parse(src).body:
            owner = stmt.name if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else None
            for n in ast.walk(stmt):
                if isinstance(n, ast.Call):
                    f = n.func
                    name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                    if name in FIELD_BUILDERS:
                        out.append((mod, owner, n.lineno))
    return sorted(out)


def test_only_the_field_owners_build_a_field():
    builds = _field_builds(_sources("src/lemnilab"))
    assert builds and [b for b in builds if b[:2] not in FIELD_OWNERS] == []


def test_second_field_build_is_caught():
    sources = {
        "tracer": "def trace(rp):\n    return as_field(rp)\n",
        "geomstats": "def count(rp):\n    return field.PairField(rp).values(0)\n",
        "topology": "class Tree:\n    def f(self, rp):\n        return RealField(rp)\n",
    }
    assert _field_builds(sources) == [
        ("geomstats", "count", 2), ("topology", "Tree", 3), ("tracer", "trace", 2)]


# a stage's input rule is stated by its own module, the others call it; a
# grid's longest edge is read where icogrid measures it, where _cap_grid
# passes it on and by local_disk, the local cap's one owner.  An owner is
# a file of src, tests or bench, or one of its top-level defs
RULE_OWNERS = {"LOCAL_MIN_TRIALS": {"topology"}, "LOCAL_MAX_RADIUS": {"topology"},
               "_MAX_CIRCLES": {"constructor"},
               "max_edge_length": {"icogrid", "tracer._cap_grid", "topology.local_disk",
                                   "test_icogrid"}}


def _rule_uses(sources: dict) -> list:
    """(module, name, line) of each reference to a rule name outside its owners."""
    out = []
    for mod, src in sources.items():
        for stmt in ast.parse(src).body:
            here = {mod, "%s.%s" % (mod, getattr(stmt, "name", ""))}
            for n in ast.walk(stmt):
                names = ([a.name for a in n.names] if isinstance(n, ast.ImportFrom)
                         else [getattr(n, "id", getattr(n, "attr", None))])  # Name, Attribute
                out += [(mod, name, n.lineno) for name in names
                        if not here & RULE_OWNERS.get(name, here)]
    return sorted(out)


def test_only_a_stage_states_its_input_rules():
    assert _rule_uses(_sources("src/lemnilab", "tests", "bench")) == []


def test_restated_rule_is_caught():
    sources = {
        "topology": "LOCAL_MIN_TRIALS = 100\n\ndef local_disk(g, r):\n"
                    "    return r + g.max_edge_length\n\ndef stage(g, r):\n"
                    "    return r + g.max_edge_length\n",
        "experiments": "from .topology import LOCAL_MAX_RADIUS\n\n"
                       "def check(c):\n    return c.trials < topology.LOCAL_MIN_TRIALS\n",
        "cli": "x = constructor._MAX_CIRCLES\n",
        "test_bench_x": "cap = ((0, 0, 1), 0.3 + icosphere(64).max_edge_length)\n",
        "test_icogrid": "x = g.max_edge_length\n",
    }
    assert _rule_uses(sources) == [
        ("cli", "_MAX_CIRCLES", 1), ("experiments", "LOCAL_MAX_RADIUS", 1),
        ("experiments", "LOCAL_MIN_TRIALS", 4), ("test_bench_x", "max_edge_length", 1),
        ("topology", "max_edge_length", 7)]
