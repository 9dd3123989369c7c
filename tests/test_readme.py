"""README examples run as written and print what the README says."""

from __future__ import annotations

import ast
import contextlib
import importlib
import inspect
import io
import re
import shlex
from pathlib import Path

import conceptds
from conceptds.cli import run

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")

# How README's "Capacity bounds" paragraph states each bound constant that
# `src/` passes to `check_capacity`; `{}` stands for the constant's value.
CAPACITY_PHRASES = {
    "MAX_OBJECTS": "{} objects per context",
    "MAX_CONCEPTS": "{} concepts per lattice",
    "MAX_SET_CARRIER": "{}-element carriers for set-level masses",
    "MAX_AXIOM_CARRIER": "{}-element carriers for axiom sweeps",
    "MAX_REPRESENTATION_CELLS": "{} cross-table cells for the powerset and "
                                "frame constructions",
    "MAX_DECIMAL_EXPONENT": "decimal exponents up to {}",
}


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


def _capacity_bounds() -> dict[str, int]:
    """Each constant that a module of `src/` passes to `check_capacity` as
    its bound, with the value it has in that module."""
    bounds = {}
    for path in sorted((ROOT / "src" / "conceptds").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id == "check_capacity":
                bound = node.args[2]
                assert isinstance(bound, ast.Name), ast.unparse(bound)
                module = importlib.import_module(f"conceptds.{path.stem}")
                bounds[bound.id] = getattr(module, bound.id)
    return bounds


def test_readme_states_every_capacity_bound():
    start = README.index("## Capacity bounds\n")
    paragraph = " ".join(README[start:].split("\n\n")[1].split())
    bounds = _capacity_bounds()
    assert sorted(bounds) == sorted(CAPACITY_PHRASES)
    stated = [CAPACITY_PHRASES[name].format(value)
              for name, value in sorted(bounds.items())]
    assert [phrase for phrase in stated if phrase not in paragraph] == []


MODULES = {path.stem for path in (ROOT / "src" / "conceptds").glob("*.py")
           if path.stem != "__init__"}
# A backticked dotted name, maybe called: `lattice.zeta`, `rep.embedding(c)`.
DOTTED = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\([^`]*\))?`")


def _resolves(name: str) -> bool | None:
    """Whether a dotted name resolves from its root, or None when its root
    is neither a `conceptds` module nor a public name of the package, so
    that the name is not checked (`m.bel`, `lat.steps`)."""
    root, *parts = name.split(".")
    if root == "conceptds":
        root, *parts = parts
    if root in MODULES:
        obj = importlib.import_module(f"conceptds.{root}")
    elif root in conceptds.__all__:
        obj = getattr(conceptds, root)
    else:
        return None
    for part in parts:
        if not hasattr(obj, part):
            # An instance attribute: annotated on the class, or set by its
            # `__init__`; nothing below it is looked up.
            return isinstance(obj, type) and (
                any(part in vars(k).get("__annotations__", {})
                    for k in obj.__mro__)
                or f"self.{part} =" in inspect.getsource(obj.__init__))
        obj = getattr(obj, part)
    return True


def _named(text: str) -> list[str]:
    return [name for name in DOTTED.findall(text) if _resolves(name) is not None]


def _docstrings(path: Path) -> str:
    return "\n".join(
        ast.get_docstring(node) or "" for node in ast.walk(
            ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)))


def test_every_dotted_name_in_the_docs_resolves():
    """Each backticked dotted name that README and the docstrings of `src/`
    root at a `conceptds` module or a public name exists, so no text names
    code that is gone."""
    assert _resolves("MassFunction.belief_table") is True
    assert _resolves("MassFunction.no_such_table") is False
    assert _resolves("lattice.no_such_transform") is False
    assert _resolves("FormalContext.rows") is True
    assert _resolves("ConceptLattice.extents") is True
    assert _resolves("ConceptLattice.no_such_field") is False
    assert _resolves("m.bel") is None
    readme = _named(README)
    assert len(readme) >= 20, "the walk must see README's dotted names"
    texts = {"README.md": readme} | {
        path.name: _named(_docstrings(path))
        for path in sorted((ROOT / "src" / "conceptds").glob("*.py"))}
    assert {where: [name for name in names if not _resolves(name)]
            for where, names in texts.items()
            if not all(map(_resolves, names))} == {}
