"""Every value the package takes in has one reader: only `rationals` calls
Fraction on a single value that is not a literal, so the exponent bound, the
refusal of a bool and the naming of a bad value hold at every entry point.
"""

from __future__ import annotations

import ast
from pathlib import Path

import conceptds

PACKAGE = Path(conceptds.__file__).parent
OWNER = "rationals.py"


def _literal(node: ast.expr) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    return isinstance(node, ast.Constant)


def _readers(tree: ast.AST) -> list[str]:
    """Each Fraction call on one non-literal value, by any alias of
    `Fraction` or of `fractions`, with its line."""
    modules, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names
                        if a.name == "fractions"}
        elif isinstance(node, ast.ImportFrom) and node.module == "fractions":
            names |= {a.asname or a.name for a in node.names
                      if a.name == "Fraction"}

    def is_fraction(node: ast.expr) -> bool:
        return (isinstance(node, ast.Name) and node.id in names
                or isinstance(node, ast.Attribute)
                and node.attr == "Fraction"
                and isinstance(node.value, ast.Name)
                and node.value.id in modules)

    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        args = node.args + [k.value for k in node.keywords]
        if is_fraction(node.func) and len(args) == 1 and not _literal(args[0]):
            found.append(f"Fraction at line {node.lineno}")
    return sorted(found)


ALIASES = ("import fractions\nimport fractions as fr\n"
           "from fractions import Fraction, Fraction as F\n"
           "def a(v):\n    return Fraction(v)\n"
           "def b(v):\n    return fr.Fraction(v)\n"
           "def c(v):\n    return F(numerator=v)\n"
           "def d(v):\n    return fractions.Fraction(v)\n"
           "def e(p, q):\n    return Fraction(p, q), F(0), F(-1), Fraction('1/2')\n"
           "def f(v):\n    return isinstance(v, Fraction), v.Fraction(v)\n")


def test_only_rationals_reads_a_value_with_fraction():
    assert _readers(ast.parse(ALIASES)) == [
        "Fraction at line 11", "Fraction at line 5", "Fraction at line 7",
        "Fraction at line 9"], "the walk must see every alias, and no literal"
    found = {path.name: _readers(ast.parse(path.read_text("utf-8")))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert found[OWNER], "the walk must see the owner's own calls"
    assert {name: hits for name, hits in found.items()
            if hits and name != OWNER} == {}
