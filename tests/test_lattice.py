"""Concept enumeration, order, meet, join and covers."""

from __future__ import annotations

import pytest
from hypothesis import given

from conceptds import (CapacityError, ConceptLattice, FormalContext,
                       PreconditionError, enumerate_concepts)
from conceptds.errors import ENV_UNSAFE_SCALE
from conceptds.lattice import MAX_CONCEPTS, mobius_inversion

from conftest import contranominal, lattice_masses, small_contexts


def test_music_concepts_are_the_known_family(music_lattice):
    lat = music_lattice
    extents = [frozenset(lat.context.object_names(c.extent)) for c in lat]
    assert extents == [frozenset("abc"), frozenset("ab"), frozenset("bc"),
                       frozenset("a"), frozenset("b"), frozenset("c"),
                       frozenset()]
    assert lat.top_index == 0
    assert lat.bottom_index == len(lat) - 1
    intents = [frozenset(lat.context.attribute_names(c.intent)) for c in lat]
    assert intents == [frozenset(), frozenset("x"), frozenset("y"),
                       frozenset("wx"), frozenset("xy"), frozenset("yz"),
                       frozenset("wxyz")]


def test_movies_lattices_have_the_expected_sizes(movies1_case, movies3_case):
    assert len(movies1_case.lattice) == 5
    assert len(movies3_case.lattice) == 4
    lat = movies3_case.lattice
    bottom = lat[lat.bottom_index]
    assert lat.context.object_names(bottom.extent) == ("c",)


def test_music_cover_relation(music_case):
    lat = music_case.lattice
    labels = music_case.labels
    edges = {(labels[i], labels[j]) for i, j in lat.covers()}
    assert edges == {
        ("Pop", "⊤"), ("R&B", "⊤"),
        ("E-Pop", "Pop"), ("Pop-R&B", "Pop"),
        ("Pop-R&B", "R&B"), ("Funk", "R&B"),
        ("⊥", "E-Pop"), ("⊥", "Pop-R&B"), ("⊥", "Funk"),
    }


def test_degenerate_contexts():
    empty = enumerate_concepts(FormalContext((), (), frozenset()))
    assert len(empty) == 1
    assert empty.top_index == empty.bottom_index

    no_objects = enumerate_concepts(FormalContext((), ("x", "y"), frozenset()))
    assert len(no_objects) == 1
    assert no_objects[0].intent == frozenset({0, 1})

    no_attributes = enumerate_concepts(FormalContext(("a", "b"), (), frozenset()))
    assert len(no_attributes) == 1
    assert no_attributes[0].extent == frozenset({0, 1})


def test_object_capacity_is_enforced(monkeypatch):
    monkeypatch.delenv(ENV_UNSAFE_SCALE, raising=False)
    big = FormalContext(tuple(f"o{i}" for i in range(25)), ("x",), frozenset())
    with pytest.raises(CapacityError):
        enumerate_concepts(big)
    monkeypatch.setenv(ENV_UNSAFE_SCALE, "1")
    assert len(enumerate_concepts(big)) <= 2


def test_concept_capacity_is_enforced_during_closure(monkeypatch):
    monkeypatch.delenv(ENV_UNSAFE_SCALE, raising=False)
    assert len(enumerate_concepts(contranominal(12))) == MAX_CONCEPTS
    with pytest.raises(CapacityError, match="concepts in lattice"):
        enumerate_concepts(contranominal(14))


def test_index_with_extent_finds_only_extents(music_lattice):
    lat = music_lattice
    assert [lat.index_with_extent(c.extent) for c in lat] == list(range(len(lat)))
    assert lat.index_with_extent({0, 2}) is None


def test_a_hand_built_lattice_needs_both_extreme_concepts(music_lattice):
    ctx, extents, intents = (music_lattice.context, music_lattice.extents,
                             music_lattice.intents)
    with pytest.raises(PreconditionError, match="lacks its greatest concept"):
        ConceptLattice(ctx, extents[1:], intents[1:])
    with pytest.raises(PreconditionError, match="lacks its least concept"):
        ConceptLattice(ctx, extents[:-1], intents[:-1])


@given(small_contexts())
def test_concepts_are_exactly_the_closed_pairs(ctx):
    lat = enumerate_concepts(ctx)
    seen = set()
    for c in lat:
        assert ctx.up(c.extent) == c.intent
        assert ctx.down(c.intent) == c.extent
        seen.add(c.extent)
    assert len(seen) == len(lat)
    # Closing any object set must land on an enumerated concept.
    for g in range(len(ctx.objects)):
        closure = ctx.down(ctx.up(frozenset([g])))
        assert lat.index_with_extent(closure) is not None


@given(small_contexts(max_objects=4, max_attributes=4))
def test_enumeration_agrees_with_the_closure_oracle(ctx):
    """Brute force: close every object subset, dedupe, compare extents."""
    lat = enumerate_concepts(ctx)
    n = len(ctx.objects)
    closures = {ctx.down(ctx.up(frozenset(g for g in range(n)
                                          if mask >> g & 1)))
                for mask in range(2 ** n)}
    assert closures == {c.extent for c in lat}


@given(small_contexts())
def test_canonical_order_sorts_by_extent(ctx):
    lat = enumerate_concepts(ctx)
    keys = [(-len(c.extent), tuple(sorted(c.extent))) for c in lat]
    assert keys == sorted(keys)


@given(small_contexts())
def test_normalizing_appends_one_empty_extent_concept(ctx):
    """The fresh attribute keeps every old mask and the old canonical order."""
    lat = enumerate_concepts(ctx)
    if lat.normalized is not lat:
        assert lat.normalized.extents == lat.extents + (0,)
        assert lat.normalized.intents[:len(lat)] == lat.intents


@given(small_contexts(max_objects=4, max_attributes=4))
def test_order_and_meet_and_join_agree_with_extents(ctx):
    lat = enumerate_concepts(ctx)
    extents, intents = lat.extents, lat.intents
    for i, c in enumerate(lat):
        for j, d in enumerate(lat):
            assert (extents[i] & ~extents[j] == 0) == (c.extent <= d.extent)
            meet = lat.index_by_extent[extents[i] & extents[j]]
            assert lat[meet].extent == c.extent & d.extent
            join = lat.index_by_intent[intents[i] & intents[j]]
            assert lat[join].intent == c.intent & d.intent


@given(small_contexts(max_objects=4, max_attributes=4))
def test_meet_is_the_greatest_lower_bound(ctx):
    lat = enumerate_concepts(ctx)
    extents = lat.extents
    for i, c in enumerate(lat):
        for j, d in enumerate(lat):
            m = lat[lat.index_by_extent[extents[i] & extents[j]]]
            assert m.extent <= c.extent and m.extent <= d.extent
            for k in lat:
                if k.extent <= c.extent and k.extent <= d.extent:
                    assert k.extent <= m.extent


@given(small_contexts(max_objects=4, max_attributes=4))
def test_extreme_elements_absorb(ctx):
    lat = enumerate_concepts(ctx)
    extents, intents = lat.extents, lat.intents
    top, bottom = lat.top_index, lat.bottom_index
    for c in range(len(lat)):
        assert lat.index_by_extent[extents[c] & extents[top]] == c
        assert lat.index_by_intent[intents[c] & intents[bottom]] == c
        assert extents[bottom] & ~extents[c] == 0
        assert extents[c] & ~extents[top] == 0


@given(small_contexts(max_objects=4, max_attributes=4))
def test_covers_generate_the_order(ctx):
    lat = enumerate_concepts(ctx)
    edges = set(lat.covers())
    n = len(lat)
    reach = [[i == j for j in range(n)] for i in range(n)]
    for i, j in edges:
        reach[i][j] = True
    for _ in range(n):
        for i in range(n):
            for j in range(n):
                if not reach[i][j] and any(reach[i][k] and reach[k][j]
                                           for k in range(n)):
                    reach[i][j] = True
    for i in range(n):
        for j in range(n):
            assert reach[i][j] == (lat[i].extent <= lat[j].extent)


@given(lattice_masses())
def test_mobius_inversion_recovers_masses_from_bel_and_commonality(m):
    """Bottom-up on extents, bel inverts to mass; top-down, on complemented
    extents, so does the commonality q(c) = sum of m(d) over d >= c."""
    lat = m.lattice
    d, extents = m.focal[0], lat.extents
    mass = [v.numerator * (d // v.denominator) for v in m.values]
    bel = [v.numerator * (d // v.denominator) for v in m.belief_table().bel]
    upward = sorted(range(len(lat)), key=lambda i: extents[i].bit_count())
    assert dict(mobius_inversion((i, extents[i], bel[i]) for i in upward)) \
        == dict(enumerate(mass))
    q = [sum(x for f, x in zip(extents, mass) if e & ~f == 0)
         for e in extents]
    assert dict(mobius_inversion((i, ~e, q[i]) for i, e in enumerate(extents))) \
        == dict(enumerate(mass))
