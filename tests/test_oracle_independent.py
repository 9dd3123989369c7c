"""The oracle's reference functions never route through the code they check.

They may use the domain types of `.lattice`, but not its zeta and Moebius
transforms, nor the step list and Moebius row a lattice keeps for them, which
bel/pl tables, belief inversion and combination run, nor a mass's integer
form, which those tables and folds read, nor a mass's evidence accessors,
whose sum the conceptual certificate runs too.
"""

from __future__ import annotations

import ast
from pathlib import Path

import conceptds

ORACLE = Path(conceptds.__file__).parent / "oracle.py"
# Module -> the names it may not lend the oracle; None means every name.
# The lattice's names are refused however they are read: imported, or as an
# attribute, such as `lat.steps` or `lattice.zeta`.
CHECKED = {"evidence": None, "combine": None, "represent": None,
           "lattice": {"zeta", "mobius", "zeta_down", "mobius_down",
                       "object_steps", "attribute_steps", "_passes", "steps",
                       "mobius_bottom"}}
# A mass's attributes that no reference function may read.
MASS_ATTRIBUTES = {"numerators", "bel", "pl", "belief_table",
                   "_table_numerators"}
# The checked functions; every module-level helper they reach is checked too.
REFERENCE_FUNCTIONS = ("check_belief_axioms_set", "check_plausibility_axioms_set",
                       "brute_bel", "brute_pl")


def _imported_from(tree: ast.AST) -> set[str]:
    """Local names bound by relative imports of checked modules, or of the
    checked names from them."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module in CHECKED:
                only = CHECKED[node.module]
                names |= {alias.asname or alias.name for alias in node.names
                          if only is None or alias.name in only}
            elif node.module is None:
                names |= {alias.asname or alias.name for alias in node.names
                          if alias.name in CHECKED
                          and CHECKED[alias.name] is None}
    return names


def _body_names(function: ast.FunctionDef) -> set[str]:
    """Every name and attribute name the body reads, leaving out the
    signature's annotations."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for statement in function.body for node in ast.walk(statement)
            if isinstance(node, (ast.Name, ast.Attribute))}


def _functions(tree: ast.Module) -> dict[str, ast.FunctionDef]:
    return {node.name: node for node in tree.body
            if isinstance(node, ast.FunctionDef)}


def _reached(functions: dict[str, ast.FunctionDef],
             roots: tuple[str, ...]) -> set[str]:
    """The roots and every module-level function their bodies name,
    transitively."""
    reached: set[str] = set()
    todo = list(roots)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += _body_names(functions[name]) & functions.keys()
    return reached


def _borrowed(tree: ast.Module, roots: tuple[str, ...]) -> dict[str, list[str]]:
    """Each reached function's checked names, for those that read any."""
    # A mass's integer form and its evidence accessors are refused as
    # attributes too: the reference functions read `values`, the field that
    # equality compares, and sum it themselves.
    checked = _imported_from(tree) | CHECKED["lattice"] | MASS_ATTRIBUTES
    functions = _functions(tree)
    borrowed = {name: sorted(_body_names(functions[name]) & checked)
                for name in _reached(functions, roots)}
    return {name: names for name, names in borrowed.items() if names}


def test_reference_functions_use_nothing_from_the_checked_modules():
    tree = ast.parse(ORACLE.read_text(encoding="utf-8"), str(ORACLE))
    assert _imported_from(tree), \
        "the oracle imports its domain types from evidence"
    reached = _reached(_functions(tree), REFERENCE_FUNCTIONS)
    assert {"_scaled_table", "_range_violation", "_antichains",
            "_inclusion_exclusion"} <= reached
    assert _borrowed(tree, REFERENCE_FUNCTIONS) == {}


def test_the_walk_sees_bodies_but_not_annotations():
    tree = ast.parse("from .evidence import MassFunction as M, bel\n"
                     "from . import combine, lattice\n"
                     "from .lattice import Concept, mobius as peel\n"
                     "def annotated(m: M) -> M:\n    return m\n"
                     "def calls(m):\n    return [bel(x) for x in m]\n"
                     "def nested(m):\n    def inner():\n"
                     "        return combine.combine(m, m)\n"
                     "    return inner\n"
                     "def peels(m):\n    return dict(peel(m))\n"
                     "def typed(m):\n    return Concept(m, m)\n"
                     "def helper(m):\n    return bel(m)\n"
                     "def reference(m):\n    return helper(typed(m))\n"
                     "def kept(m):\n    return m.lattice.steps\n"
                     "def through(v, s):\n    return lattice.zeta(v, s)\n"
                     "def integers(m):\n    return m.numerators[1]\n"
                     "def accessor(m, c):\n    return m.bel(c)\n")
    checked = _imported_from(tree)
    assert checked == {"M", "bel", "combine", "peel"}
    functions = _functions(tree)
    assert not _body_names(functions["annotated"]) & checked
    assert _body_names(functions["calls"]) & checked == {"bel"}
    assert _body_names(functions["nested"]) & checked == {"combine"}
    assert _body_names(functions["peels"]) & checked == {"peel"}
    assert not _body_names(functions["typed"]) & checked
    # A helper that borrows a checked name is caught through its caller.
    assert not _body_names(functions["reference"]) & checked
    assert _reached(functions, ("reference",)) == {"reference", "helper",
                                                   "typed"}
    assert _borrowed(tree, ("reference",)) == {"helper": ["bel"]}
    # The lattice's kept steps and its transforms are caught as attributes.
    assert _borrowed(tree, ("kept", "through")) == {"kept": ["steps"],
                                                    "through": ["zeta"]}
    # So is the mass's integer form.
    assert _borrowed(tree, ("integers",)) == {"integers": ["numerators"]}
    # And its evidence accessors.
    assert _borrowed(tree, ("accessor",)) == {"accessor": ["bel"]}
