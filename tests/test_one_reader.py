"""Every value the package takes in has one reader: only `rationals` calls
Fraction on a single value that is not a literal, so the exponent bound, the
refusal of a bool and the naming of a bad value hold at every entry point.

Subsets have one rendering too: no f-string formats a `set(...)` call, whose
text would follow the hash seed, and every error text is the same under
PYTHONHASHSEED 0-3.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
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


def _printed(node: ast.expr) -> list[ast.expr]:
    """The expressions whose value a field may print: through `or`, `and`
    and conditional expressions, but not into a call such as `sorted`."""
    if isinstance(node, ast.BoolOp):
        return [x for value in node.values for x in _printed(value)]
    if isinstance(node, ast.IfExp):
        return _printed(node.body) + _printed(node.orelse)
    return [node]


def _set_texts(tree: ast.AST) -> list[str]:
    """Each f-string field that prints a `set(...)` or `frozenset(...)`
    call, with its line."""
    return sorted(
        f"{node.func.id}(...) at line {node.lineno}"
        for field in ast.walk(tree) if isinstance(field, ast.FormattedValue)
        for node in _printed(field.value)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset"))


SET_TEXTS = ("def a(x):\n    return f'{set(x)!r} is not a subset'\n"
             "def b(x):\n    return f'of {set(x) or set()!r}'\n"
             "def c(x):\n    return f'{x if x else frozenset(x)}', set(x)\n"
             "def d(x):\n    return f'{subset_text(x)}', '{set(x)}'\n"
             "def e(x):\n    return f'{sorted(set(x))}'\n")


def test_no_f_string_formats_a_set():
    assert _set_texts(ast.parse(SET_TEXTS)) == [
        "frozenset(...) at line 6", "set(...) at line 2",
        "set(...) at line 4", "set(...) at line 4"], \
        "the walk must see every printed set call, and no other"
    found = {path.name: _set_texts(ast.parse(path.read_text("utf-8")))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}


# Failing set-level calls whose texts print subsets of two or more members,
# then a control line: a set's own repr, which follows the hash seed.
HASH_PROBE = """
from conceptds import *
from conceptds.oracle import random_partition_space, random_set_mass
m = SetMassFunction("abc", {"abc": 1})
space = ProbabilitySpace("abcd", ["ab", "cd"], ["1/2", "1/2"])
calls = [
    lambda: SetMassFunction("abc", {"ab": None}),
    lambda: SetMassFunction("abc", {"ab": "1/2", "ba": "1/2"}),
    lambda: SetMassFunction("abc", {"xyz": 1}),
    lambda: SetMassFunction(5, {}),
    lambda: m.bel("wxyz"), lambda: m.pl("bcx"), lambda: m["abcd"],
    lambda: mass_from_bel_set({"": 0, "ab": "x", "a": 0, "b": 0}),
    lambda: mass_from_bel_set({"": 0, "abcd": 1}),
    lambda: mass_from_bel_set({"ab": 1, "ba": 1}),
    lambda: check_belief_axioms_set({"": 0, "a": 0, "b": 0, "ab": None}),
    lambda: check_plausibility_axioms_set({"": 0, "ab": 1, "ba": 1}),
    lambda: check_belief_axioms_set({5: 1}),
    lambda: space.iota("abxyz"), lambda: space.outer_measure("xyzw"),
    lambda: ProbabilitySpace(["a"], [5], [1]),
    lambda: random_set_mass(0, 5), lambda: random_partition_space(0, 5),
]
for call in calls:
    try:
        call()
    except ConceptDSError as exc:
        print(type(exc).__name__, exc)
    else:
        print("no error")
print(set("abcdefghijklmnop"))
"""


def test_error_texts_do_not_depend_on_the_hash_seed():
    src = str(PACKAGE.parent)
    outputs = []
    for seed in range(4):
        env = {**os.environ, "PYTHONHASHSEED": str(seed),
               "PYTHONPATH": os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")]))}
        outputs.append(subprocess.run(
            [sys.executable, "-c", HASH_PROBE], env=env, capture_output=True,
            text=True, check=True).stdout.splitlines())
    errors = [lines[:-1] for lines in outputs]
    assert len(errors[0]) == 18 and "no error" not in errors[0]
    assert {"MassError subset {'a', 'b'} is named by two keys",
            "MassError {'w', 'x', 'y', 'z'} is not a subset of the carrier",
            "ParseError {'w', 'x', 'y', 'z'} is not a subset of the carrier",
            } <= set(errors[0])
    assert errors == [errors[0]] * 4
    assert len({lines[-1] for lines in outputs}) > 1, \
        "the seeds must change the order of a set's own repr"
