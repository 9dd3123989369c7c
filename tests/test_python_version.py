"""Every source file parses under the oldest Python that pyproject.toml
declares."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIRECTORIES = ("src/conceptds", "tests", "tools", "bench")


def test_every_source_parses_under_the_declared_python():
    """Grammar only: `ast.parse` with `feature_version` refuses syntax newer
    than Python 3.10, such as `except*`, but says nothing of the standard
    library APIs a file calls."""
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert 'requires-python = ">=3.10"' in pyproject
    sources = [path for directory in DIRECTORIES
               for path in sorted((ROOT / directory).rglob("*.py"))]
    assert {path.relative_to(ROOT).parts[0] for path in sources} \
        == {"src", "tests", "tools", "bench"}
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), str(path),
                  feature_version=(3, 10))
