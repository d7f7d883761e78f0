"""The library computes with integers only: no float constant, no use of
the name float, no math, statistics or fractions module."""
import ast
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
