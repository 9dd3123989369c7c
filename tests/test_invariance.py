"""Relabelling a context changes no result but by the relabelling.

Permuting the objects or the attributes of a context gives an isomorphic
concept lattice (Ganter and Wille, 1999, section 1.5).  An object
permutation keeps every intent mask, so concepts are matched by intent; an
attribute permutation keeps every extent mask, so they are matched by
extent.  Each mass moves along that match, and then the concept count, the
cover edges, the bel and pl tables, the fold's values and per-step
conflicts, and the inversion round trip must all move with it.  No oracle
is consulted.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conceptds import (FormalContext, MassFunction, TotalConflictError,
                       combine_many, enumerate_concepts, mass_from_bel_lattice,
                       random_mass)
from conceptds.context import members

from conftest import small_contexts


def _moved(perm: list[int], mask: int) -> int:
    """The mask with bit k moved to bit perm[k]."""
    return sum(1 << perm[k] for k in members(mask))


def _relabelled(ctx: FormalContext, side: str,
                perm: list[int]) -> FormalContext:
    """`ctx` with object (or attribute) k moved to position perm[k]."""
    names = ctx.objects if side == "objects" else ctx.attributes
    order = [""] * len(names)
    for k, name in enumerate(names):
        order[perm[k]] = name
    if side == "objects":
        return FormalContext(order, ctx.attributes,
                             {(perm[g], m) for g, m in ctx.incidence})
    return FormalContext(ctx.objects, order,
                         {(g, perm[m]) for g, m in ctx.incidence})


def _fold(masses: list[MassFunction]):
    """The fold's values and conflicts, or the step of total conflict."""
    try:
        report = combine_many(masses)
    except TotalConflictError as exc:
        return exc.step
    return report.result.values, report.conflicts


@pytest.mark.parametrize("side", ["objects", "attributes"])
@given(ctx=small_contexts(min_objects=1), data=st.data())
def test_relabelling_moves_every_result_along_the_concept_map(side, ctx,
                                                              data):
    size = len(ctx.objects if side == "objects" else ctx.attributes)
    perm = data.draw(st.permutations(range(size)))
    old, new = enumerate_concepts(ctx), enumerate_concepts(
        _relabelled(ctx, side, perm))
    if side == "objects":
        to = [new.index_by_intent[a] for a in old.intents]
        assert [new.extents[j] for j in to] == \
            [_moved(perm, e) for e in old.extents]
    else:
        to = [new.index_by_extent[e] for e in old.extents]
        assert [new.intents[j] for j in to] == \
            [_moved(perm, a) for a in old.intents]
    assert sorted(to) == list(range(len(new)))
    assert {(to[i], to[j]) for i, j in old.covers()} == set(new.covers())

    def move(m: MassFunction) -> MassFunction:
        values = [m.values[0]] * len(new)
        for i, v in enumerate(m.values):
            values[to[i]] = v
        return MassFunction(new, values)

    seeds = data.draw(st.lists(st.integers(0, 2 ** 32 - 1), min_size=1,
                               max_size=3))
    masses = [random_mass(seed, old) for seed in seeds]
    for m in masses:
        table, moved_table = m.belief_table(), move(m).belief_table()
        assert [moved_table.bel[j] for j in to] == list(table.bel)
        assert [moved_table.pl[j] for j in to] == list(table.pl)
        assert mass_from_bel_lattice(moved_table.bel, new) == move(m)

    folded, moved_fold = _fold(masses), _fold([move(m) for m in masses])
    if isinstance(folded, int):
        assert moved_fold == folded
    else:
        values, conflicts = folded
        assert moved_fold == (move(MassFunction(old, values)).values,
                              conflicts)
