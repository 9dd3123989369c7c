"""`tools/src_lines.py` counts every line of every module exactly once."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import conceptds

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(conceptds.__file__).parent


def test_every_module_is_counted_line_by_line():
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "src_lines.py")],
                         capture_output=True, text=True, check=True).stdout
    header, *rows = out.splitlines()
    assert header.split() == ["module", "code", "docstring", "comment",
                              "blank", "lines"]
    counts = {}
    for row in rows:
        name, *numbers = row.split()[:6]
        counts[name] = [int(x) for x in numbers]
    modules = {path.name for path in PACKAGE.glob("*.py")}
    assert counts.keys() == modules | {"total"}
    assert rows[-1].startswith("__init__.py") and "apart" in rows[-1]
    for name in modules:
        *kinds, lines = counts[name]
        text = (PACKAGE / name).read_text(encoding="utf-8")
        assert sum(kinds) == lines == len(text.splitlines()), name
    # The total leaves `__init__.py` out.
    assert counts["total"] == [
        sum(counts[name][k] for name in modules - {"__init__.py"})
        for k in range(5)]
