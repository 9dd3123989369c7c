"""README examples run as written and print what the README says."""

from __future__ import annotations

import contextlib
import io
import re
import shlex
from pathlib import Path

from conceptds.cli import run

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _block_after(heading: str, language: str) -> str:
    """The first fenced block of `language` after the line `heading`."""
    start = README.index(heading + "\n")
    match = re.compile(rf"^```{language}\n(.*?)^```$", re.M | re.S).search(
        README, start)
    assert match is not None, f"no {language} block after {heading!r}"
    return match.group(1)


def test_library_quickstart_prints_its_comments():
    code = _block_after("## Library quickstart", "python")
    expected = [line.split("  # ", 1)[1].strip()
                for line in code.splitlines()
                if line.startswith("print(") and "  # " in line]
    assert expected, "the quickstart has no commented print lines"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == expected


def test_combine_taste_is_the_cli_output(capsys):
    command, *lines = _block_after("A taste of `combine` on the bundled "
                                   "three-mass case:", "text").splitlines()
    program, subcommand, path, *flags = shlex.split(command.removeprefix("$ "))
    assert program == "conceptds"
    assert run([subcommand, str(ROOT / path), *flags]) == 0
    assert capsys.readouterr().out == "".join(line + "\n" for line in lines)
