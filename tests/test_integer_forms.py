"""Each integer form has one owner: only `rationals` turns exact values into
numerators over an lcm, reads a value's numerator or denominator, or
reduces numerators by their gcd, and the oracle keeps its own copy so that
it stays independent of the code it checks.
"""

from __future__ import annotations

import ast
from pathlib import Path

import conceptds

PACKAGE = Path(conceptds.__file__).parent
OWNERS = {"rationals.py", "oracle.py"}


# The `math` functions and the attributes that scale or reduce an exact
# value by hand.
MATH_NAMES = {"lcm", "gcd"}
ATTRIBUTES = {"as_integer_ratio", "numerator", "denominator"}


def _conversions(tree: ast.AST) -> list[str]:
    """Each `math.lcm`, `math.gcd`, `.as_integer_ratio`, `.numerator` or
    `.denominator` the source reads, by any alias of `math`, `lcm` or
    `gcd`, with its line."""
    maths, imported = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            maths |= {a.asname or a.name for a in node.names
                      if a.name == "math"}
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            imported |= {a.asname or a.name: a.name for a in node.names
                         if a.name in MATH_NAMES}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and (
                node.attr in ATTRIBUTES
                or node.attr in MATH_NAMES and isinstance(node.value, ast.Name)
                and node.value.id in maths):
            found.append(f"{node.attr} at line {node.lineno}")
        elif isinstance(node, ast.Name) and node.id in imported:
            found.append(f"{imported[node.id]} at line {node.lineno}")
    return sorted(found)


def test_only_rationals_and_the_oracle_scale_to_a_common_denominator():
    found = {path.name: _conversions(ast.parse(path.read_text("utf-8")))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert found["rationals.py"], "the walk must see the owner's own calls"
    assert any(hit.startswith("gcd ") for hit in found["rationals.py"]), \
        "the gcd reduction lives in rationals"
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
                     "def f(xs):\n    return gcd(*xs), xs.lcm, lcm\n"
                     "def g(x):\n    return x.numerator, x.denominator\n"
                     "def h(x, y):\n    return m.gcd(x, y), math.gcd(x)\n"
                     "def i(x):\n    return x.numerators, x.gcd, mgcd\n")
    assert _conversions(tree) == [
        "as_integer_ratio at line 11", "as_integer_ratio at line 13",
        "denominator at line 17", "gcd at line 15", "gcd at line 19",
        "gcd at line 19", "lcm at line 5", "lcm at line 7", "lcm at line 9",
        "numerator at line 17"]
