"""No module of the package or the tests imports a name it never uses.

A name counts as used when it appears anywhere in the module, doctest
examples included, as a bare name (an attribute chain starts with one) or is
listed in ``__all__``.  Imports
from ``__future__`` and names on a line marked ``# noqa`` are skipped.
"""

import ast
import doctest
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted([*ROOT.glob("src/hermlab/*.py"), *ROOT.glob("tests/*.py")])


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
