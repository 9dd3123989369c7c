"""Every package name the benchmark imports exists.

The benchmark under `bench/` imports the package directly.  A name deleted
from the package would break it only when it runs, so this reads its sources
and resolves each import here.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _package_imports(tree: ast.AST) -> list[tuple[str, str | None]]:
    """(module, name) per imported package name; name is None for `import`."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(alias.name, None) for alias in node.names
                      if alias.name.split(".")[0] == "conceptds"]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.split(".")[0] == "conceptds":
            found += [(node.module, alias.name) for alias in node.names]
    return found


def test_every_benchmark_import_resolves():
    sources = sorted(BENCH.glob("*.py"))
    assert sources
    imports = [(path.name, module, name) for path in sources
               for module, name in _package_imports(
                   ast.parse(path.read_text(encoding="utf-8"), str(path)))]
    assert imports
    # A missing module raises here; a missing name is listed.
    modules = {module: importlib.import_module(module)
               for _, module, _ in imports}
    missing = [(source, module, name) for source, module, name in imports
               if name is not None and not hasattr(modules[module], name)]
    assert missing == []


def test_the_import_walk_sees_both_import_forms():
    tree = ast.parse("import conceptds.cli as c\n"
                     "def f():\n    from conceptds.oracle import brute_bel\n"
                     "import json\nfrom . import x\n")
    assert _package_imports(tree) == [("conceptds.cli", None),
                                      ("conceptds.oracle", "brute_bel")]
