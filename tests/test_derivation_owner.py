"""The derivation operators have one owner: only `context` derives an
extent, an intent or a closure from the cross table, lists a mask's bits by
scanning its positions, builds a mask from the incidence pairs, or folds
intersections over the rows or the columns, and the oracle keeps its own
copies so that it stays independent of the code it checks.  `FormalContext`
builds `rows` and `columns` in the one pass that validates the pairs, so no
other module walks the pairs for a mask.  The one other fold is
`lattice.is_context_lattice`, the check that rebuilds the extents on its
own, allowed by name.
"""

from __future__ import annotations

import ast
from pathlib import Path

import conceptds

PACKAGE = Path(conceptds.__file__).parent
OWNERS = {"context.py", "oracle.py"}
OPERATORS = {"up", "down"}
TABLES = {"rows", "columns"}
PAIRS = {"incidence"}
# Functions allowed a fold of intersections over the rows or columns.
OWN_FOLDS = {"lattice.py": {"is_context_lattice"}}


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


def _aliases(tree: ast.AST, attributes: set[str]) -> set[str]:
    """Names bound to one of `attributes` of an object, also by tuple
    assignment."""
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
                            and v.attr in attributes}
    return aliases


def _reads(node: ast.AST, attributes: set[str], aliases: set[str]) -> bool:
    """Whether `node` reads one of `attributes`, directly, by an alias or by
    a name of its own."""
    return any(isinstance(n, ast.Attribute) and n.attr in attributes
               or isinstance(n, ast.Name) and n.id in aliases | attributes
               for n in ast.walk(node))


def _is_bit_or(node: ast.AST) -> bool:
    """`x | (a << b)`, either way round, or `x |= a << b`."""
    if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.BitOr):
        operands = [node.value]
    elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        operands = [node.left, node.right]
    else:
        return False
    return any(isinstance(x, ast.BinOp) and isinstance(x.op, ast.LShift)
               for x in operands)


def _is_cut(node: ast.AST, names: set[str]) -> bool:
    """`x & c`, either way round, or `x &= c`, with c one of `names`."""
    if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.BitAnd):
        operands = [node.value]
    elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitAnd):
        operands = [node.left, node.right]
    else:
        return False
    return any(isinstance(x, ast.Name) and x.id in names for x in operands)


def _nodes_of(tree: ast.AST, functions: set[str]) -> set[int]:
    """The ids of every node inside the functions named in `functions`."""
    return {id(n) for f in ast.walk(tree)
            if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
            and f.name in functions for n in ast.walk(f)}


def _loops(tree: ast.AST):
    """Each loop as (its iterable, its target names, the code it runs)."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield node.iter, _names(node.target), node.body
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                               ast.DictComp)):
            for gen in node.generators:
                yield gen.iter, _names(gen.target), [node]


def _derivations(tree: ast.AST, own_folds: set[str] = frozenset()
                 ) -> list[str]:
    """Each read of `up`/`down`, range scan of a mask's bits, inclusion
    filter over the rows or columns, fold that cuts by a row or column it
    loops over, and mask built by OR-ing shifted bits in a loop over the
    incidence pairs that the source holds, with its line.  Folds inside
    the functions named in `own_folds` are allowed."""
    found = {f"{node.attr} at line {node.lineno}" for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in OPERATORS}
    aliases = _aliases(tree, TABLES)
    pair_aliases = _aliases(tree, PAIRS)
    allowed = _nodes_of(tree, own_folds)
    for iterable, targets, body in _loops(tree):
        code = [n for statement in body for n in ast.walk(statement)]
        if isinstance(iterable, ast.Call) \
                and isinstance(iterable.func, ast.Name) \
                and iterable.func.id == "range":
            found |= {f"range scan at line {n.lineno}" for n in code
                      if _is_bit_test(n, targets)}
        if _reads(iterable, TABLES, aliases):
            found |= {f"inclusion filter at line {n.lineno}" for n in code
                      if _is_inclusion(n, targets)}
            if id(iterable) not in allowed:
                found |= {f"fold at line {n.lineno}" for n in code
                          if _is_cut(n, targets)}
        if _reads(iterable, PAIRS, pair_aliases):
            found |= {f"mask build at line {n.lineno}" for n in code
                      if _is_bit_or(n)}
    return sorted(found)


def test_only_the_context_and_the_oracle_derive_from_the_cross_table():
    found = {path.name: _derivations(ast.parse(path.read_text("utf-8")),
                                     OWN_FOLDS.get(path.name, set()))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert found["context.py"], "the walk must see the owner's own forms"
    assert any(hit.startswith("mask build") for hit in found["context.py"]), \
        "the walk must see the one pass that builds rows and columns"
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
        "down at line 4", "fold at line 18", "inclusion filter at line 13",
        "inclusion filter at line 17", "range scan at line 10",
        "range scan at line 7", "up at line 2"]


def test_the_walk_sees_every_fold_over_the_rows_or_columns():
    """A cut by the row or column a loop or comprehension runs over, also
    through an alias, is a fold of intersections: the enumeration that
    `ConceptLattice.__init__` ran in `lattice.py` before it moved into
    `context` (`__init__`), and the same fold in other shapes (b, c).  A
    cut by anything else is not (d), and an allowed function's own fold
    passes by name only."""
    tree = ast.parse(
        "def __init__(self, context):\n"
        "    intents = {(1 << len(context.attributes)) - 1}\n"
        "    for row in context.rows:\n"
        "        intents |= {intent & row for intent in intents}\n"
        "    return intents\n"
        "def b(ctx, e):\n    cols = ctx.columns\n"
        "    return [e & c for c in cols]\n"
        "def c(ctx, top):\n"
        "    for g, row in enumerate(ctx.rows):\n        top &= row\n"
        "    return top\n"
        "def d(lat, e):\n"
        "    return {x & e for x in lat.extents}, [e & k for k in range(3)]\n"
        "def is_context_lattice(lat):\n    reach = {-1}\n"
        "    for column in lat.context.columns:\n"
        "        reach |= {e & column for e in reach}\n"
        "    return reach\n")
    folds = ["fold at line 11", "fold at line 4", "fold at line 8"]
    assert _derivations(tree, {"is_context_lattice"}) == folds
    assert _derivations(tree) == sorted(folds + ["fold at line 18"])


def test_the_walk_sees_every_mask_built_from_the_pairs():
    tree = ast.parse(
        "def a(ctx, n):\n    rows = [0] * n\n"
        "    for g, m in ctx.incidence:\n        rows[g] |= 1 << m\n"
        "    return rows\n"
        "def b(ctx, k):\n    pairs = ctx.incidence\n"
        "    return [1 << m | 0 for g, m in pairs if g == k]\n"
        "def c(ctx, mask):\n"
        "    for g, m in sorted(ctx.incidence):\n"
        "        mask = (m << g) | mask\n    return mask\n"
        "def d(ctx, rows):\n"
        "    for g, m in ctx.incidence:\n        print(g, m, 1 << m)\n"
        "    for g in rows:\n        rows[g] |= 1 << g\n"
        "    return sorted(ctx.incidence), [1 << m for g, m in ctx.pairs]\n")
    assert _derivations(tree) == [
        "mask build at line 11", "mask build at line 4", "mask build at line 8"]
