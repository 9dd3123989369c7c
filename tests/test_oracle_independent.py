"""The oracle's reference functions never route through the code they check.

They may use the domain types of `.lattice`, but not its Moebius kernel, which
belief inversion and combination both run.
"""

from __future__ import annotations

import ast
from pathlib import Path

import conceptds

ORACLE = Path(conceptds.__file__).parent / "oracle.py"
# Module -> the names it may not lend the oracle; None means every name.
CHECKED = {"evidence": None, "combine": None, "represent": None,
           "lattice": {"mobius_inversion"}}
REFERENCE_FUNCTIONS = ("check_belief_axioms_set", "check_plausibility_axioms_set",
                       "_scaled_table", "_range_violation", "brute_bel",
                       "brute_pl")


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
    """Every name the body reads, leaving out the signature's annotations."""
    return {node.id for statement in function.body
            for node in ast.walk(statement) if isinstance(node, ast.Name)}


def _functions(tree: ast.Module) -> dict[str, ast.FunctionDef]:
    return {node.name: node for node in tree.body
            if isinstance(node, ast.FunctionDef)}


def test_reference_functions_use_nothing_from_the_checked_modules():
    tree = ast.parse(ORACLE.read_text(encoding="utf-8"), str(ORACLE))
    checked = _imported_from(tree)
    assert checked, "the oracle imports its domain types from evidence"
    functions = _functions(tree)
    borrowed = {name: sorted(_body_names(functions[name]) & checked)
                for name in REFERENCE_FUNCTIONS}
    assert borrowed == {name: [] for name in REFERENCE_FUNCTIONS}


def test_the_walk_sees_bodies_but_not_annotations():
    tree = ast.parse("from .evidence import MassFunction as M, bel\n"
                     "from . import combine, lattice\n"
                     "from .lattice import Concept, mobius_inversion as peel\n"
                     "def annotated(m: M) -> M:\n    return m\n"
                     "def calls(m):\n    return [bel(x) for x in m]\n"
                     "def nested(m):\n    def inner():\n"
                     "        return combine.combine(m, m)\n"
                     "    return inner\n"
                     "def peels(m):\n    return dict(peel(m))\n"
                     "def typed(m):\n    return Concept(m, m)\n")
    checked = _imported_from(tree)
    assert checked == {"M", "bel", "combine", "peel"}
    functions = _functions(tree)
    assert not _body_names(functions["annotated"]) & checked
    assert _body_names(functions["calls"]) & checked == {"bel"}
    assert _body_names(functions["nested"]) & checked == {"combine"}
    assert _body_names(functions["peels"]) & checked == {"peel"}
    assert not _body_names(functions["typed"]) & checked
