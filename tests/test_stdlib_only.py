"""The package imports nothing outside the standard library at runtime."""

from __future__ import annotations

import ast
import os
import subprocess
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


def _imports_by_module() -> dict[str, set[str]]:
    """The top-level imported names of each module of the package."""
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    return {path.name: _imported_top_names(
                ast.parse(path.read_text(encoding="utf-8"), str(path)))
            for path in sources}


def test_every_import_is_stdlib_or_the_package():
    foreign = {}
    for module, names in _imports_by_module().items():
        outside = {name for name in names
                   if name not in sys.stdlib_module_names
                   and name != "conceptds"}
        if outside:
            foreign[module] = sorted(outside)
    assert foreign == {}


def test_no_module_imports_dataclasses():
    """Importing `dataclasses` loads `inspect`, `dis`, `ast` and `tokenize`,
    and each dataclass compiles its methods when its module is imported;
    records are `NamedTuple`s and validated types plain classes instead."""
    assert [module for module, names in _imports_by_module().items()
            if "dataclasses" in names] == []


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # -S keeps site hooks, which may import either, out of the picture.
    code = ("import sys, conceptds.cli\n"
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=60)
    assert out.stdout.strip() == "[]"


def test_the_import_walk_sees_imports_inside_functions():
    tree = ast.parse("def f():\n    import numpy.linalg\n"
                     "    from hypothesis import given\n"
                     "from . import cli\n")
    assert _imported_top_names(tree) == {"numpy", "hypothesis"}
