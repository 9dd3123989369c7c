"""The package imports nothing outside the standard library at runtime."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import conceptds

PACKAGE = Path(conceptds.__file__).parent


def _imported_top_names(tree: ast.AST) -> set[str]:
    """The top-level name of every absolute import, at any depth."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_every_import_is_stdlib_or_the_package():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    foreign = {}
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        outside = {name for name in _imported_top_names(tree)
                   if name not in sys.stdlib_module_names
                   and name != "conceptds"}
        if outside:
            foreign[path.name] = sorted(outside)
    assert foreign == {}


def test_the_import_walk_sees_imports_inside_functions():
    tree = ast.parse("def f():\n    import numpy.linalg\n"
                     "    from hypothesis import given\n"
                     "from . import cli\n")
    assert _imported_top_names(tree) == {"numpy", "hypothesis"}
