"""Each integer form has one owner: only `rationals` turns exact values into
numerators over an lcm, and the oracle keeps its own copy so that it stays
independent of the code it checks.
"""

from __future__ import annotations

import ast
from pathlib import Path

import conceptds

PACKAGE = Path(conceptds.__file__).parent
OWNERS = {"rationals.py", "oracle.py"}


def _conversions(tree: ast.AST) -> list[str]:
    """Each `math.lcm` or `.as_integer_ratio` the source reads, by any
    alias of `math` or of `lcm`, with its line."""
    maths, lcms = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            maths |= {a.asname or a.name for a in node.names
                      if a.name == "math"}
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            lcms |= {a.asname or a.name for a in node.names
                     if a.name == "lcm"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and (
                node.attr == "as_integer_ratio"
                or node.attr == "lcm" and isinstance(node.value, ast.Name)
                and node.value.id in maths):
            found.append(f"{node.attr} at line {node.lineno}")
        elif isinstance(node, ast.Name) and node.id in lcms:
            found.append(f"lcm at line {node.lineno}")
    return sorted(found)


def test_only_rationals_and_the_oracle_scale_to_a_common_denominator():
    found = {path.name: _conversions(ast.parse(path.read_text("utf-8")))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert found["rationals.py"], "the walk must see the owner's own calls"
    assert {name: hits for name, hits in found.items()
            if hits and name not in OWNERS} == {}


def test_the_walk_sees_every_alias():
    tree = ast.parse("import math\nimport math as m\n"
                     "from math import lcm as least, gcd\n"
                     "def a(xs):\n    return math.lcm(*xs)\n"
                     "def b(xs):\n    return m.lcm(*xs)\n"
                     "def c(xs):\n    return least(*xs)\n"
                     "def d(x):\n    return x.as_integer_ratio()\n"
                     "def e(xs):\n    return map(type(xs[0]).as_integer_ratio, xs)\n"
                     "def f(xs):\n    return gcd(*xs), xs.lcm, lcm\n")
    assert _conversions(tree) == [
        "as_integer_ratio at line 11", "as_integer_ratio at line 13",
        "lcm at line 5", "lcm at line 7", "lcm at line 9"]
