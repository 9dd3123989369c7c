"""Concept enumeration, order, meet, join, covers and the zeta transforms."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conceptds import (CapacityError, ConceptLattice, FormalContext,
                       LabelError, MassFunction, brute_bel,
                       enumerate_concepts)
from conceptds.errors import ENV_UNSAFE_SCALE
from conceptds.lattice import (MAX_CONCEPTS, mobius, mobius_down,
                               object_steps, zeta, zeta_down)

from conftest import (contranominal, lattice_masses, small_contexts,
                      with_universal_object)


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


@pytest.mark.parametrize("extent, message", [
    ({-1}, "object index -1 is outside 0..1"),
    ({0, 2}, "object index 2 is outside 0..1"),
    ({False}, "object index False is not an int"),
])
def test_index_with_extent_reads_only_object_indexes_in_range(extent,
                                                              message):
    """A negative index does not wrap, and one past the end is refused,
    not reported as a missing extent."""
    lat = enumerate_concepts(FormalContext(("a", "b"), ("x", "y"),
                                           {(0, 0), (1, 1)}))
    with pytest.raises(LabelError) as info:
        lat.index_with_extent(extent)
    assert str(info.value) == message


@pytest.mark.parametrize("index, message", [
    (-1, "concept index -1 is outside 0..3"),
    (4, "concept index 4 is outside 0..3"),
    (True, "concept index True is not an int"),
], ids=["negative", "past-the-end", "bool"])
def test_a_concept_is_read_only_at_an_index_in_range(index, message):
    """A negative index does not wrap to the least concept, and one past
    the end is not a bare IndexError; `brute_bel` reads the same."""
    lat = enumerate_concepts(FormalContext(("a", "b"), ("x", "y"),
                                           {(0, 0), (1, 1)}))
    assert len(lat) == 4
    with pytest.raises(LabelError) as info:
        lat[index]
    assert str(info.value) == message
    with pytest.raises(LabelError) as info:
        brute_bel(MassFunction.vacuous(lat), index)
    assert str(info.value) == message


@given(small_contexts())
def test_the_extremes_are_first_and_last_and_every_meet_lands(ctx):
    """The greatest concept is first and the least last, and every meet and
    join lands on a stored extent or intent."""
    lat = ConceptLattice(ctx)
    assert lat.top_index == 0 and lat.bottom_index == len(lat) - 1
    assert lat.extents[0] == (1 << len(ctx.objects)) - 1
    assert lat.intents[-1] == (1 << len(ctx.attributes)) - 1
    for e in lat.extents:
        assert all(e & f in lat.index_by_extent for f in lat.extents)
    for a in lat.intents:
        assert all(a & b in lat.index_by_intent for b in lat.intents)


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
def test_transforms_recover_masses_from_bel_and_commonality(m):
    """The inverse down-zeta turns bel back into mass; the inverse up-zeta
    does the same for the commonality q(c) = sum of m(d) over d >= c."""
    lat = m.lattice
    d, extents = m.focal[0], lat.extents
    mass = [v.numerator * (d // v.denominator) for v in m.values]
    bel = [v.numerator * (d // v.denominator) for v in m.belief_table().bel]
    mobius_down(bel, lat.steps)
    assert bel == mass
    q = [sum(x for f, x in zip(extents, mass) if e & ~f == 0)
         for e in extents]
    mobius(q, lat.steps)
    assert q == mass


@st.composite
def lattice_values(draw):
    """A lattice of a random context, its least extent inhabited about half
    of the time, and arbitrary integers, one per concept."""
    ctx = draw(small_contexts())
    if draw(st.booleans()):
        ctx = with_universal_object(ctx)
    lat = enumerate_concepts(ctx)
    return lat, draw(st.lists(st.integers(-9, 9), min_size=len(lat),
                              max_size=len(lat)))


@given(lattice_values())
def test_zeta_transforms_and_inverses_match_their_definitions(case):
    """Up: the sum over d >= c; down, the transpose on the same steps: the
    sum over d <= c; each inverse undoes its transform both ways round."""
    lat, h = case
    n, extents = len(lat), lat.extents
    below = [[extents[i] & ~extents[j] == 0 for j in range(n)]
             for i in range(n)]
    for transform, inverse, up in ((zeta, mobius, True),
                                   (zeta_down, mobius_down, False)):
        summed = h[:]
        transform(summed, lat.steps)
        assert summed == [sum(h[d] for d in range(n)
                              if (below[c][d] if up else below[d][c]))
                          for c in range(n)]
        inverse(summed, lat.steps)
        assert summed == h
        inverted = h[:]
        inverse(inverted, lat.steps)
        transform(inverted, lat.steps)
        assert inverted == h


@given(lattice_values())
def test_mobius_rows_invert_the_order(case):
    """The inverse down-zeta of the indicator of i is mu(i, .): zero off
    the up-set of i, and the sum of mu(i, c) over i <= c <= x is 1 at x = i
    and 0 elsewhere.  The lattice keeps the nonzero entries of the least
    concept's row when its extent is empty, and none otherwise."""
    lat, _ = case
    n, extents = len(lat), lat.extents
    rows = []
    for i in range(n):
        row = [int(c == i) for c in range(n)]
        mobius_down(row, lat.steps)
        up = [extents[i] & ~extents[c] == 0 for c in range(n)]
        assert all(up[c] or not row[c] for c in range(n))
        for x in range(n):
            assert sum(row[c] for c in range(n)
                       if extents[c] & ~extents[x] == 0) == int(x == i)
        rows.append(row)
    bottom = rows[lat.bottom_index]
    assert bottom[lat.bottom_index] == 1
    assert lat.mobius_bottom == (() if extents[lat.bottom_index] else tuple(
        (c, mu) for c, mu in enumerate(bottom) if mu))


@given(lattice_values())
def test_step_lists_stay_within_the_outside_generators(case):
    """One step at most per concept and object outside its extent; every
    step runs from a concept to one strictly above it.  The lattice builds
    the list on first use and keeps it."""
    lat, _ = case
    ctx, extents = lat.context, lat.extents
    assert "steps" not in lat.__dict__
    steps = lat.steps
    assert lat.steps is steps
    assert steps == object_steps(lat)
    assert len(steps[0]) == len(steps[1]) <= sum(
        len(ctx.objects) - e.bit_count() for e in extents)
    assert all(extents[s] != extents[t] and extents[s] & ~extents[t] == 0
               for s, t in zip(*steps))


def test_contranominal_steps_are_the_subset_lattice_transform():
    """On a powerset the steps are those of the subset-sum transform:
    n * 2^(n-1) of them."""
    lat = enumerate_concepts(contranominal(4))
    assert len(lat.steps[0]) == 32
