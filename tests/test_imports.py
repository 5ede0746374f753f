"""No module of the package or the tests imports a name it never uses, and
the package defines no function or class that only the tests call.

A name counts as used when it appears anywhere in the module, doctest
examples included, as a bare name (an attribute chain starts with one) or is
listed in ``__all__``.  Imports
from ``__future__`` and names on a line marked ``# noqa`` are skipped.

A module-level function or class of the package, or a method of such a
class other than a dunder, counts as named when package code outside its own
body has it as a bare name, an attribute or an imported name; doctests do not
count.
"""

import ast
import doctest
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted(ROOT.glob("src/hermlab/*.py"))
FILES = sorted([*PACKAGE, *ROOT.glob("tests/*.py")])

# package definitions that no package code names, kept on purpose
UNNAMED_BY_DESIGN = (
    "QuadratureGrid",  # perfbench/tracer.py times its poly_values
    "QuadratureGrid.poly_values",  # SPAN_METHODS in perfbench/tracer.py names it
    "s_to_z",  # the change of coordinates of ROADMAP direction 7
    "z_to_s",  # the inverse of s_to_z
)


def unused_imports(path: Path) -> list[str]:
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            if "# noqa" not in lines[alias.lineno - 1]:
                imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    trees = [tree]
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            doc = ast.get_docstring(node) or ""
            trees += [ast.parse(ex.source) for ex in doctest.DocTestParser().get_examples(doc)]
    used = {node.id for t in trees for node in ast.walk(t) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_the_scan_finds_an_unused_import(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp  # noqa: F401\n"
        "from fractions import (\n    Fraction,\n    gcd,  # noqa\n)\n"
        "import json, sys, math\n"
        "print(json.dumps(sys.argv))\n"
        "def f():\n    '>>> math.floor(1.5)'\n"
    )
    assert unused_imports(mod) == ["os (line 2)", "Fraction (line 5)"]


def _names(node) -> set[str]:
    """The bare names, attributes and imported names in ``node``."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute) else n.name
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute, ast.alias))
    }


def unnamed_definitions(paths) -> list[str]:
    """The module-level functions and classes of ``paths``, and the methods of
    those classes other than dunders, that no code in ``paths`` names outside
    their own body, by name."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    defined, named = {}, set()
    for path in paths:
        for top in ast.parse(path.read_text()).body:
            own = getattr(top, "name", None)
            if not isinstance(top, (*functions, ast.ClassDef)):
                named |= _names(top)
                continue
            defined[own] = (own, f"{path.name}:{top.lineno}")
            for part in top.body if isinstance(top, ast.ClassDef) else [top]:
                method = None
                if part is not top and isinstance(part, functions):
                    if not (part.name.startswith("__") and part.name.endswith("__")):
                        method = part.name
                        defined[f"{own}.{method}"] = (method, f"{path.name}:{part.lineno}")
                named |= _names(part) - {own, method}
    return sorted(
        f"{label} ({where})" for label, (name, where) in defined.items() if name not in named
    )


def test_no_package_definition_is_left_to_the_tests():
    found = unnamed_definitions(PACKAGE)
    assert [entry.split()[0] for entry in found] == sorted(UNNAMED_BY_DESIGN), found


def test_the_scan_finds_an_unnamed_definition(tmp_path):
    a = tmp_path / "a.py"
    a.write_text(
        "def used():\n    return helper()\n"
        "def helper():\n    '>>> lonely()'\n    return 1\n"
        "def lonely():\n    return lonely()\n"
        "class Spare:\n    pass\n"
    )
    b = tmp_path / "b.py"
    b.write_text(
        "from a import used\nimport a\nprint(a.Attr().run())\n"
        "class Attr:\n"
        "    def __init__(self):\n        self.ready = True\n"
        "    def run(self):\n        return self.step()\n"
        "    def step(self):\n        return Attr()\n"
        "    def idle(self):\n        return self.idle()\n"
    )
    assert unnamed_definitions([a, b]) == [
        "Attr.idle (b.py:11)", "Spare (a.py:8)", "lonely (a.py:6)",
    ]
