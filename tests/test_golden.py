"""Whole CLI outputs pinned byte for byte.

`golden/manifest.json` lists each command (argv with `{data}` standing for
the bundled case directory and `{golden}` for this directory) and its exit
code; `golden/<name>.out` holds the stdout it printed, UTF-8 encoded.
"""

from __future__ import annotations

import json
from importlib.resources import files
from pathlib import Path

import pytest

from conceptds.cli import run

GOLDEN = Path(__file__).parent / "golden"
DATA = str(files("conceptds") / "data")
MANIFEST = json.loads((GOLDEN / "manifest.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("entry", MANIFEST, ids=[e["name"] for e in MANIFEST])
def test_cli_output_matches_golden(entry, capsys):
    argv = [a.replace("{data}", DATA).replace("{golden}", str(GOLDEN))
            for a in entry["argv"]]
    assert run(argv) == entry["exit"]
    expected = (GOLDEN / f"{entry['name']}.out").read_bytes()
    assert capsys.readouterr().out.encode("utf-8") == expected
