"""Module boundaries the library keeps: only the poset module writes a
poset's fields, the library's imports, those inside functions included,
form no cycle, and the errors module defines every error type, each
raised somewhere else."""
import ast
from graphlib import TopologicalSorter
from pathlib import Path

SOURCES = sorted((Path(__file__).parents[1] / "src" / "cdindex").glob("*.py"))
# the fields GradedPoset._build sets and the Eulerian memo; flagcd's
# cd-index memo _phi is flagcd's own
POSET_FIELDS = {"_bad", "_up", "_dn", "_ranks", "_levels", "cover_pairs",
                "min_elt", "max_elt"}


def _written(target):
    """The nodes a store to target writes into: the target, the object it
    subscripts, or the members of a tuple or list target."""
    if isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _written(elt)
    elif isinstance(target, ast.Starred):
        yield from _written(target.value)
    else:
        yield target
        if isinstance(target, ast.Subscript):
            yield from _written(target.value)


def field_writes(tree):
    """(line, field) for every assignment in tree that writes an attribute
    named in POSET_FIELDS, or an item of one."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        out += [(node.lineno, sub.attr) for target in targets
                for sub in _written(target)
                if isinstance(sub, ast.Attribute) and sub.attr in POSET_FIELDS]
    return sorted(out)


def test_only_the_poset_module_writes_a_posets_fields():
    found = {path.name: field_writes(ast.parse(path.read_text()))
             for path in SOURCES}
    assert {f for _, f in found.pop("poset.py")} == POSET_FIELDS
    assert {name: writes for name, writes in found.items() if writes} == {}


def test_field_scan_flags_each_kind():
    text = ("p._bad = 0\nq._up, (q._dn, *r) = u, d\np._levels[2] |= 1\n"
            "p._ranks: tuple = ()\ncarrier[p.max_elt] = q.max_elt\n"
            "p._phi = None\nx = p.min_elt\n")
    assert field_writes(ast.parse(text)) == [
        (1, "_bad"), (2, "_dn"), (2, "_up"), (3, "_levels"), (4, "_ranks")]


def library_imports(tree):
    """The names of the library modules imported anywhere in tree."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                out.add(node.module.split(".")[0])
            else:
                out.update(alias.name for alias in node.names)
    return out


def test_the_import_graph_has_no_cycle():
    graph = {path.stem: library_imports(ast.parse(path.read_text()))
             for path in SOURCES}
    assert graph["poset"] == {"errors"}
    assert "complexes" not in graph["subdivision"]
    # raises graphlib.CycleError on a cycle
    order = list(TopologicalSorter(graph).static_order())
    assert set(graph) <= set(order)


def test_import_scan_reads_imports_inside_functions():
    text = ("from . import poset as ps, ncpoly\nfrom .errors import X\n"
            "def f():\n    from .subdivision import g\n"
            "import json\nfrom json import loads\n")
    assert library_imports(ast.parse(text)) == {"poset", "ncpoly", "errors",
                                                "subdivision"}


def error_classes(trees):
    """{class name: defining module} of the classes that derive, at any
    depth, from CdindexError, over a {module: tree} dict."""
    found, grew = {"CdindexError": "errors"}, True
    while grew:
        grew = False
        for module, tree in trees.items():
            for node in ast.walk(tree):
                if (isinstance(node, ast.ClassDef) and node.name not in found
                        and any(isinstance(base, ast.Name)
                                and base.id in found for base in node.bases)):
                    found[node.name], grew = module, True
    return found


def raised_names(tree):
    """The names raised in tree, as ``raise Name`` or ``raise Name(...)``."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                out.add(exc.id)
    return out


def test_each_error_is_defined_in_errors_and_raised_elsewhere():
    trees = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    errors = error_classes(trees)
    del errors["CdindexError"]
    assert set(errors.values()) == {"errors"}
    raised = set().union(*(raised_names(tree) for module, tree
                           in trees.items() if module != "errors"))
    assert sorted(set(errors) - raised) == []
    assert len(errors) == 13


def test_error_scans_follow_subclasses_and_raise_forms():
    trees = {"errors": ast.parse("class CdindexError(Exception): pass\n"
                                 "class A(CdindexError): pass\n"),
             "m": ast.parse("class B(A): pass\nclass C(Exception): pass\n"
                            "def f():\n    raise A('x')\n    raise B\n"
                            "    raise\n")}
    assert error_classes(trees) == {"CdindexError": "errors", "A": "errors",
                                    "B": "m"}
    assert raised_names(trees["m"]) == {"A", "B"}
