"""The library computes with integers only: no float constant, no use of
the name float, no math, statistics or fractions module; and it imports
nothing outside the standard library."""
import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).parents[1] / "src" / "cdindex").glob("*.py"))
BANNED_MODULES = {"math", "statistics", "fractions"}


def inexact_uses(tree):
    """(line, what) for every float constant, use of the name float and
    import of a banned module in tree."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(
                node.value, (float, complex)):
            out.append((node.lineno, "constant %r" % node.value))
        elif isinstance(node, ast.Name) and node.id == "float":
            out.append((node.lineno, "name float"))
        elif isinstance(node, ast.Import):
            out += [(node.lineno, "import " + a.name) for a in node.names
                    if a.name.split(".")[0] in BANNED_MODULES]
        elif (isinstance(node, ast.ImportFrom) and node.module
              and node.module.split(".")[0] in BANNED_MODULES):
            out.append((node.lineno, "from %s import" % node.module))
    return sorted(out)


def test_sources_use_no_floats():
    assert len(SOURCES) >= 8
    found = {path.name: inexact_uses(ast.parse(path.read_text()))
             for path in SOURCES}
    assert {name: uses for name, uses in found.items() if uses} == {}


def test_scan_flags_each_kind():
    text = ("import math\nfrom statistics import mean\nimport os.path\n"
            "x = 0.5\ny = float(3)\nz = 1 / 2\nw = 2j\n"
            "from fractions import Fraction\n")
    assert [what for _, what in inexact_uses(ast.parse(text))] == [
        "import math", "from statistics import", "constant 0.5",
        "name float", "constant 2j", "from fractions import"]


def third_party_imports(tree):
    """(line, module) for every import in tree of a module that is neither
    in the standard library nor relative to the package."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        out += [(node.lineno, name) for name in names
                if name.split(".")[0] not in sys.stdlib_module_names]
    return sorted(out)


def test_sources_import_only_the_stdlib():
    found = {path.name: third_party_imports(ast.parse(path.read_text()))
             for path in SOURCES}
    assert {name: mods for name, mods in found.items() if mods} == {}


def test_import_scan_flags_third_party_modules():
    text = ("import networkx\nimport os.path, sympy.matrices\n"
            "from hypothesis import given\nfrom .errors import DomainError\n"
            "from . import poset\nfrom __future__ import annotations\n")
    assert third_party_imports(ast.parse(text)) == [
        (1, "networkx"), (2, "sympy.matrices"), (3, "hypothesis")]
