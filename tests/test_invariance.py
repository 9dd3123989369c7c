"""Changes to a context that keep its concept lattice change no result but
by the concept map.

Permuting the objects or the attributes of a context gives an isomorphic
concept lattice, and so do duplicating an object or an attribute and adding
an object whose row (or an attribute whose column) is the AND of two others
(Ganter and Wille, 1999, section 1.5).  An object change keeps
every intent mask, so concepts are matched by intent; an attribute change
keeps every extent mask, so they are matched by extent.  Each mass moves
along that match, and then the concept count, the cover edges, the bel and
pl tables, the fold's values and per-step conflicts, the inversion round
trip and the certificate's rows must all move with it.  No oracle is
consulted.  Besides the small drawn contexts, seeded contexts of the
benchmark's lattice-scale shape (24 objects, 11-12 attributes, density 0.5)
and their transposes run every change, so that the step lists of both sides,
attributes for the tall ones and objects for the wide ones, are checked at
about 180 concepts.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conceptds import (ConceptLattice, FormalContext, MassFunction,
                       PreconditionError, TotalConflictError, combine_many,
                       enumerate_concepts, mass_from_bel_lattice,
                       random_context, random_mass, represent_concepts)
from conceptds.context import members
from conceptds.errors import ENV_UNSAFE_SCALE

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


def _with_object(ctx: FormalContext, row: int) -> FormalContext:
    """`ctx` plus one last object whose row is the attribute mask `row`."""
    g = len(ctx.objects)
    return FormalContext(ctx.objects + (f"o{g}+",), ctx.attributes,
                         ctx.incidence | {(g, m) for m in members(row)})


def _with_attribute(ctx: FormalContext, column: int) -> FormalContext:
    """`ctx` plus one last attribute whose column is the object mask
    `column`."""
    m = len(ctx.attributes)
    return FormalContext(ctx.objects, ctx.attributes + (f"a{m}+",),
                         ctx.incidence | {(g, m) for g in members(column)})


def _fold(masses: list[MassFunction]):
    """The fold's values and conflicts, or the step of total conflict."""
    try:
        report = combine_many(masses)
    except TotalConflictError as exc:
        return exc.step
    return report.result.values, report.conflicts


def _rows(m: MassFunction):
    """The certificate's rows without their indexes, or None when the
    least extent is inhabited and there is no certificate."""
    try:
        rows = represent_concepts(m).rows
    except PreconditionError:
        return None
    return [row[1:] for row in rows]


def _results_move_along(old: ConceptLattice, new: ConceptLattice,
                        to: list[int], seeds: list[int]) -> None:
    """Every result on `new` is the one on `old` moved along `to`, for the
    masses that `seeds` draw on `old`."""
    assert len(to) == len(old)
    assert sorted(to) == list(range(len(new)))
    assert {(to[i], to[j]) for i, j in old.covers()} == set(new.covers())

    def move(m: MassFunction) -> MassFunction:
        values = [m.values[0]] * len(new)
        for i, v in enumerate(m.values):
            values[to[i]] = v
        return MassFunction(new, values)

    def back(moved: list) -> list:
        return [moved[j] for j in to]

    masses = [random_mass(seed, old) for seed in seeds]
    for m in masses:
        table, moved_table = m.belief_table(), move(m).belief_table()
        assert back(moved_table.bel) == list(table.bel)
        assert back(moved_table.pl) == list(table.pl)
        assert mass_from_bel_lattice(moved_table.bel, new) == move(m)
        rows, moved_rows = _rows(m), _rows(move(m))
        assert (rows is None) is (moved_rows is None)
        if rows is not None:
            assert back(moved_rows) == rows

    folded, moved_fold = _fold(masses), _fold([move(m) for m in masses])
    if isinstance(folded, int):
        assert moved_fold == folded
    else:
        values, conflicts = folded
        assert moved_fold == (move(MassFunction(old, values)).values,
                              conflicts)


def _relabelling_moves_along(ctx: FormalContext, side: str,
                             perm: list[int], seeds: list[int]) -> None:
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
    _results_move_along(old, new, to, seeds)


def _reducible_object_moves_along(ctx: FormalContext, g: int, h: int,
                                  seeds: list[int]) -> None:
    """A copy of object g (h == g), or an object whose row is the AND of
    the rows of g and h, lies in exactly the extents that hold g (and
    h)."""
    old = enumerate_concepts(ctx)
    new = enumerate_concepts(_with_object(ctx, ctx.rows[g] & ctx.rows[h]))
    to = [new.index_by_intent[a] for a in old.intents]
    added = 1 << len(ctx.objects)
    both = 1 << g | 1 << h
    assert [new.extents[j] for j in to] == \
        [e | added if e & both == both else e for e in old.extents]
    _results_move_along(old, new, to, seeds)


def _reducible_attribute_moves_along(ctx: FormalContext, m: int, n: int,
                                     seeds: list[int]) -> None:
    """A copy of attribute m (n == m), or an attribute whose column is the
    AND of the columns of m and n, lies in exactly the intents that hold m
    (and n)."""
    old = enumerate_concepts(ctx)
    new = enumerate_concepts(
        _with_attribute(ctx, ctx.columns[m] & ctx.columns[n]))
    to = [new.index_by_extent[e] for e in old.extents]
    added = 1 << len(ctx.attributes)
    both = 1 << m | 1 << n
    assert [new.intents[j] for j in to] == \
        [a | added if a & both == both else a for a in old.intents]
    _results_move_along(old, new, to, seeds)


SEEDS = st.lists(st.integers(0, 2 ** 32 - 1), min_size=1, max_size=3)


@pytest.mark.parametrize("side", ["objects", "attributes"])
@given(ctx=small_contexts(min_objects=1), data=st.data())
def test_relabelling_moves_every_result_along_the_concept_map(side, ctx,
                                                              data):
    size = len(ctx.objects if side == "objects" else ctx.attributes)
    perm = data.draw(st.permutations(range(size)))
    _relabelling_moves_along(ctx, side, perm, data.draw(SEEDS))


@pytest.mark.parametrize("change", ["duplicate", "and"])
@given(ctx=small_contexts(min_objects=2), data=st.data())
def test_a_reducible_object_moves_every_result_along_the_concept_map(
        change, ctx, data):
    g, h = data.draw(st.permutations(range(len(ctx.objects))))[:2]
    _reducible_object_moves_along(ctx, g, g if change == "duplicate" else h,
                                  data.draw(SEEDS))


@pytest.mark.parametrize("change", ["duplicate", "and"])
@given(ctx=small_contexts(min_objects=1, min_attributes=2), data=st.data())
def test_a_reducible_attribute_moves_every_result_along_the_concept_map(
        change, ctx, data):
    m, n = data.draw(st.permutations(range(len(ctx.attributes))))[:2]
    _reducible_attribute_moves_along(ctx, m, m if change == "duplicate" else n,
                                     data.draw(SEEDS))


def _transposed(ctx: FormalContext) -> FormalContext:
    return FormalContext(ctx.attributes, ctx.objects,
                         {(m, g) for g, m in ctx.incidence})


@pytest.mark.parametrize("transpose", [False, True])
@pytest.mark.parametrize("seed, attributes", [(2809, 11), (2824, 12),
                                              (2827, 12)])
def test_lattice_scale_shapes_move_every_result_along_the_concept_map(
        seed, attributes, transpose, monkeypatch):
    """Every change above on a 24 x 11-12 context at density 0.5, whose
    steps run over the attributes, and on its transpose, whose steps run
    over the objects.  An added object would pass the 24-object bound, so
    the bound is lifted."""
    monkeypatch.setenv(ENV_UNSAFE_SCALE, "1")
    ctx = random_context(seed, 24, attributes, 0.5)
    if transpose:
        ctx = _transposed(ctx)
    rng = random.Random(seed)
    seeds = [rng.randrange(2 ** 32) for _ in range(2)]
    for side in ("objects", "attributes"):
        size = len(ctx.objects if side == "objects" else ctx.attributes)
        _relabelling_moves_along(ctx, side, rng.sample(range(size), size),
                                 seeds)
    g, h = rng.sample(range(len(ctx.objects)), 2)
    _reducible_object_moves_along(ctx, g, g, seeds)
    _reducible_object_moves_along(ctx, g, h, seeds)
    m, n = rng.sample(range(len(ctx.attributes)), 2)
    _reducible_attribute_moves_along(ctx, m, m, seeds)
    _reducible_attribute_moves_along(ctx, m, n, seeds)
