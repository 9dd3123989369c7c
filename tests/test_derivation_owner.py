"""The derivation operators have one owner: only `context` derives an
extent, an intent or a closure from the cross table, or lists a mask's bits
by scanning its positions, and the oracle keeps its own copies so that it
stays independent of the code it checks.
"""

from __future__ import annotations

import ast
from pathlib import Path

import conceptds

PACKAGE = Path(conceptds.__file__).parent
OWNERS = {"context.py", "oracle.py"}
OPERATORS = {"up", "down"}
TABLES = {"rows", "columns"}


def _names(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _is_bit_test(node: ast.AST, names: set[str]) -> bool:
    """`x >> i & 1`, either way round, with i one of `names`."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitAnd)):
        return False
    return any(isinstance(one, ast.Constant) and one.value == 1
               and isinstance(shift, ast.BinOp)
               and isinstance(shift.op, ast.RShift)
               and isinstance(shift.right, ast.Name)
               and shift.right.id in names
               for shift, one in ((node.left, node.right),
                                  (node.right, node.left)))


def _is_inclusion(node: ast.AST, names: set[str]) -> bool:
    """`x & ~c == 0` with c one of `names`."""
    if not (isinstance(node, ast.Compare) and len(node.ops) == 1
            and isinstance(node.ops[0], ast.Eq)
            and isinstance(node.comparators[0], ast.Constant)
            and node.comparators[0].value == 0):
        return False
    left = node.left
    return (isinstance(left, ast.BinOp) and isinstance(left.op, ast.BitAnd)
            and isinstance(left.right, ast.UnaryOp)
            and isinstance(left.right.op, ast.Invert)
            and isinstance(left.right.operand, ast.Name)
            and left.right.operand.id in names)


def _table_aliases(tree: ast.AST) -> set[str]:
    """Names bound to a `.rows` or `.columns`, also by tuple assignment."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                pairs = [(target, node.value)]
                if isinstance(target, ast.Tuple) \
                        and isinstance(node.value, ast.Tuple):
                    pairs = list(zip(target.elts, node.value.elts))
                aliases |= {t.id for t, v in pairs
                            if isinstance(t, ast.Name)
                            and isinstance(v, ast.Attribute)
                            and v.attr in TABLES}
    return aliases


def _loops(tree: ast.AST):
    """Each loop as (its iterable, its target names, the code it runs)."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield node.iter, _names(node.target), node.body
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                               ast.DictComp)):
            for gen in node.generators:
                yield gen.iter, _names(gen.target), [node]


def _derivations(tree: ast.AST) -> list[str]:
    """Each read of `up`/`down`, range scan of a mask's bits and inclusion
    filter over the rows or columns that the source holds, with its line."""
    found = {f"{node.attr} at line {node.lineno}" for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in OPERATORS}
    aliases = _table_aliases(tree)
    for iterable, targets, body in _loops(tree):
        code = [n for statement in body for n in ast.walk(statement)]
        if isinstance(iterable, ast.Call) \
                and isinstance(iterable.func, ast.Name) \
                and iterable.func.id == "range":
            found |= {f"range scan at line {n.lineno}" for n in code
                      if _is_bit_test(n, targets)}
        if any(isinstance(n, ast.Attribute) and n.attr in TABLES
               or isinstance(n, ast.Name) and n.id in aliases
               for n in ast.walk(iterable)):
            found |= {f"inclusion filter at line {n.lineno}" for n in code
                      if _is_inclusion(n, targets)}
    return sorted(found)


def test_only_the_context_and_the_oracle_derive_from_the_cross_table():
    found = {path.name: _derivations(ast.parse(path.read_text("utf-8")))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert found["context.py"], "the walk must see the owner's own forms"
    assert {name: hits for name, hits in found.items()
            if hits and name not in OWNERS} == {}


def test_the_walk_sees_every_form_and_alias():
    tree = ast.parse(
        "def a(ctx, x):\n    return ctx.up(x)\n"
        "def b(ctx, y):\n    f = ctx.down\n    return f(y)\n"
        "def c(e, n):\n    return [g for g in range(n) if e >> g & 1]\n"
        "def d(e, n):\n    for g in range(n):\n"
        "        if 1 & (e >> g):\n            yield g\n"
        "def e(ctx, a):\n"
        "    return [g for g, r in enumerate(ctx.rows) if a & ~r == 0]\n"
        "def f(ctx, e):\n    top, cols = -1, ctx.columns\n"
        "    for c in cols:\n        if e & ~c == 0:\n            top &= c\n"
        "    return top\n"
        "def g(lat, e, j, n):\n"
        "    return ([e >> k & 1 for k in lat.extents],\n"
        "            e & ~lat.extents[j] == 0,"
        " [e >> n & 1 for k in range(n)],\n"
        "            [e & ~c == 0 for c in lat.extents], ctx.upper)\n")
    assert _derivations(tree) == [
        "down at line 4", "inclusion filter at line 13",
        "inclusion filter at line 17", "range scan at line 10",
        "range scan at line 7", "up at line 2"]
