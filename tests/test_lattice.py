"""Concept enumeration, order, meet, join, covers and the zeta transforms."""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conceptds import (CapacityError, ConceptLattice, FormalContext,
                       LabelError, MassFunction, brute_bel,
                       enumerate_concepts, random_context)
import conceptds.lattice as lattice
from conceptds.context import members
from conceptds.errors import ENV_UNSAFE_SCALE
from conceptds.lattice import (MAX_CONCEPTS, attribute_steps,
                               is_context_lattice, mobius, mobius_down,
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


# Five objects over three attributes: o0 has all three, o1 only a2, o2 a0
# and a1, o3 only a0, o4 a0 and a2.  Six concepts.
TALL_ROWS = (0b111, 0b100, 0b011, 0b001, 0b101)


def _context(rows, n_attributes):
    """A context given by its rows, objects o0.. and attributes a0..."""
    return FormalContext(tuple(f"o{g}" for g in range(len(rows))),
                         tuple(f"a{m}" for m in range(n_attributes)),
                         frozenset((g, m) for g, row in enumerate(rows)
                                   for m in range(n_attributes)
                                   if row >> m & 1))


def _transposed(ctx):
    return FormalContext(ctx.attributes, ctx.objects,
                         frozenset((m, g) for g, m in ctx.incidence))


@pytest.mark.parametrize("transpose", [True, False], ids=["wide", "tall"])
def test_concept_capacity_text_is_the_fold_count_when_it_trips(
        monkeypatch, transpose):
    """The count is the size of the fold's family after the pass that
    first passes the bound.  A wide context folds its rows, as the former
    enumeration did, and reads 6; the tall one folds its three columns and
    also reads 6, where a fold of its rows stopped after o3 at 5."""
    monkeypatch.delenv(ENV_UNSAFE_SCALE, raising=False)
    monkeypatch.setattr(lattice, "MAX_CONCEPTS", 4)
    ctx = _context(TALL_ROWS, 3)
    if transpose:
        ctx = _transposed(ctx)
    with pytest.raises(CapacityError) as info:
        enumerate_concepts(ctx)
    assert str(info.value) == (
        "concepts in lattice: 6 exceeds the supported bound of 4 "
        f"(set {ENV_UNSAFE_SCALE}=1 to override at your own risk)")
    monkeypatch.setattr(lattice, "MAX_CONCEPTS", 6)
    assert len(enumerate_concepts(ctx)) == 6


def test_the_object_bound_is_checked_before_the_fold(monkeypatch):
    monkeypatch.delenv(ENV_UNSAFE_SCALE, raising=False)
    monkeypatch.setattr(lattice, "MAX_CONCEPTS", 1)
    monkeypatch.setattr(lattice, "MAX_OBJECTS", 4)
    with pytest.raises(CapacityError) as info:
        enumerate_concepts(_context(TALL_ROWS, 3))
    assert str(info.value).startswith(
        "objects in context: 5 exceeds the supported bound of 4 ")


def _brute_concepts(ctx):
    """Every concept as an (extent, intent) mask pair, from the incidence
    pairs alone: the closure of every object subset."""
    objects, attributes = range(len(ctx.objects)), range(len(ctx.attributes))
    pairs = set()
    for subset in range(1 << len(ctx.objects)):
        intent = {m for m in attributes
                  if all((g, m) in ctx.incidence
                         for g in objects if subset >> g & 1)}
        extent = {g for g in objects
                  if all((g, m) in ctx.incidence for m in intent)}
        pairs.add((sum(1 << g for g in extent), sum(1 << m for m in intent)))
    return pairs


def _check_enumeration(ctx):
    """The lattice holds the brute-force concepts in the former canonical
    order, (-len(extent), sorted(extent)); the fold ran one pass per
    generator on the side with fewer passes; the transposed context's
    concepts are the swapped pairs."""
    lat = enumerate_concepts(ctx)
    pairs = list(zip(lat.extents, lat.intents))
    assert set(pairs) == _brute_concepts(ctx)
    assert len(pairs) == len(set(pairs))
    assert pairs == sorted(pairs, key=lambda pair: (
        -pair[0].bit_count(), members(pair[0])))
    assert lat.index_by_extent == {e: i for i, e in enumerate(lat.extents)}
    assert lat.index_by_intent == {a: i for i, a in enumerate(lat.intents)}
    passes = []
    assert ctx.concepts(passes.append) == dict(pairs)
    assert len(passes) == min(len(ctx.objects), len(ctx.attributes))
    flipped = enumerate_concepts(_transposed(ctx))
    assert set(zip(flipped.intents, flipped.extents)) == set(pairs)


@pytest.mark.parametrize("rows, n_attributes", [
    ((), 0), ((), 3), ((0, 0), 0),
    ((0b011, 0b011, 0b110, 0b110), 3),
    ((0b0101, 0b1010, 0b0101), 4),
    ((0b00110011, 0b00001111), 8),
    (TALL_ROWS[1:], 3), (TALL_ROWS, 3),
    ((0b01, 0b10, 0b11, 0b00, 0b01, 0b10), 2),
], ids=["0x0", "0x3", "2x0", "duplicate-rows", "duplicate-columns",
        "wide-duplicate-columns", "tall", "tall-universal", "tall-twice"])
def test_enumeration_on_degenerate_and_repeated_contexts(rows, n_attributes):
    _check_enumeration(_context(rows, n_attributes))


@pytest.mark.parametrize("n", range(7))
def test_enumeration_on_contranominal_contexts(n):
    ctx = contranominal(n)
    _check_enumeration(ctx)
    _check_enumeration(with_universal_object(ctx))
    assert len(enumerate_concepts(ctx)) == 2 ** n


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


def _context_lattice_reference(lat) -> bool:
    """The stored family is the context's, by three conditions: the index
    is exact, the full object set is stored and every extent cut by a
    column is stored, and every extent is closed."""
    extents, index, context = lat.extents, lat.index_by_extent, lat.context
    top = (1 << len(context.objects)) - 1
    return (len(index) == len(extents)
            and all(index.get(e) == i for i, e in enumerate(extents))
            and top in index
            and all(e & c in index for e in extents for c in context.columns)
            and all(context.closure(e) == e for e in extents))


def _family(context, extents, index=None):
    """What `is_context_lattice` reads of a lattice: the context, the
    stored extents and their index, exact unless given."""
    return SimpleNamespace(
        context=context, extents=tuple(extents),
        index_by_extent=index if index is not None
        else {e: i for i, e in enumerate(extents)})


def _doctored_families(lat):
    """The enumerated family, its reverse, each family with one extent
    dropped or one other mask added, and two broken indexes."""
    ctx, extents = lat.context, lat.extents
    yield _family(ctx, extents), True
    yield _family(ctx, extents[::-1]), True
    for i in range(len(extents)):
        yield _family(ctx, extents[:i] + extents[i + 1:]), False
    for mask in range(1 << len(ctx.objects)):
        if mask not in lat.index_by_extent:
            yield _family(ctx, extents + (mask,)), False
    if len(extents) > 1:
        swapped = {e: i for i, e in enumerate(extents)}
        swapped[extents[0]], swapped[extents[-1]] = len(extents) - 1, 0
        yield _family(ctx, extents, swapped), False
        dropped = extents[1:]
        stray = {**{e: i for i, e in enumerate(dropped)}, extents[0]: 0}
        yield _family(ctx, dropped, stray), False


def test_the_context_lattice_fold_agrees_with_its_three_conditions():
    """One fold of column cuts decides what the three conditions decide,
    on 300 seeded contexts and every doctored family of each."""
    verdicts = {True: 0, False: 0}
    for seed in range(300):
        shape = seed % 36
        ctx = random_context(seed, shape // 6, shape % 6, (seed % 5 + 1) / 6)
        for family, expected in _doctored_families(enumerate_concepts(ctx)):
            assert _context_lattice_reference(family) is expected
            assert is_context_lattice(family) is expected
            verdicts[expected] += 1
    assert verdicts == {True: 600, False: 3412}


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


@given(small_contexts())
def test_enumeration_agrees_with_the_closure_oracle(ctx):
    """Brute force: close every object subset, dedupe, compare the pairs
    and their order, on wide and tall contexts and their transposes."""
    _check_enumeration(ctx)


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


@given(small_contexts())
def test_covers_are_the_brute_force_hasse_diagram(ctx):
    """Exactly the pairs i < j with no concept strictly between, in
    ascending (i, j) order."""
    lat = enumerate_concepts(ctx)
    extents = lat.extents

    def below(i, j):
        return i != j and extents[i] & ~extents[j] == 0

    hasse = tuple((i, j) for i in range(len(lat)) for j in range(len(lat))
                  if below(i, j) and not any(below(i, k) and below(k, j)
                                             for k in range(len(lat))))
    assert lat.covers() == hasse


@given(lattice_masses())
def test_transforms_recover_masses_from_bel_and_commonality(m):
    """The inverse down-zeta turns bel back into mass; the inverse up-zeta
    does the same for the commonality q(c) = sum of m(d) over d >= c."""
    lat = m.lattice
    d, extents = m.numerators[0], lat.extents
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
    """The list is built on the side with fewer passes: attributes when the
    context has fewer attributes than objects, objects otherwise.  One step
    at most per concept and generator of that side outside its extent (or
    intent); every step runs from a concept to one strictly above it.  The
    lattice builds the list on first use and keeps it."""
    lat, _ = case
    ctx, extents = lat.context, lat.extents
    assert "steps" not in lat.__dict__
    steps = lat.steps
    assert lat.steps is steps
    if len(ctx.attributes) < len(ctx.objects):
        assert steps == attribute_steps(lat)
        bound = sum(len(ctx.attributes) - a.bit_count() for a in lat.intents)
    else:
        assert steps == object_steps(lat)
        bound = sum(len(ctx.objects) - e.bit_count() for e in extents)
    assert len(steps[0]) == len(steps[1]) <= bound
    assert all(extents[s] != extents[t] and extents[s] & ~extents[t] == 0
               for s, t in zip(*steps))


def test_contranominal_steps_are_the_subset_lattice_transform():
    """On a powerset the steps are those of the subset-sum transform:
    n * 2^(n-1) of them."""
    lat = enumerate_concepts(contranominal(4))
    assert len(lat.steps[0]) == 32


def test_step_lists_past_two_byte_indexes_hold_four(monkeypatch):
    """Past 32 768 concepts the steps hold 4-byte indexes: on the 65 536
    concepts of contranominal-16 the up-zeta of all ones counts the
    2^(16 - |extent|) extents above each concept."""
    monkeypatch.setenv(ENV_UNSAFE_SCALE, "1")
    lat = enumerate_concepts(contranominal(16))
    sources, targets = lat.steps
    assert len(lat) == 1 << 16
    assert sources.typecode == targets.typecode == "i"
    ones = [1] * len(lat)
    zeta(ones, lat.steps)
    assert ones == [1 << (16 - e.bit_count()) for e in lat.extents]
