"""The bitset lattice core against brute force and the definitions.

Order, meets, covers, bel/pl, combination and inversion run on extent
bitmasks and integer numerators.  Here every one of them is recomputed from
order, meet and join tables defined on the concepts' extent and intent
frozensets, and bel/pl also from `oracle.brute_bel`/`brute_pl`.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conceptds import (MassFunction, TotalConflictError, atom_order_matches,
                       atoms_pairwise_disjoint, brute_bel, brute_pl, combine,
                       combine_many, embedding_meet_preserving,
                       enumerate_concepts, mass_from_bel_lattice,
                       random_context, random_mass, represent_concepts)


@st.composite
def seeded_lattice_masses(draw):
    """A seeded random lattice of at most 10 objects, with 1-3 masses."""
    ctx = random_context(draw(st.integers(0, 2 ** 32 - 1)),
                         draw(st.integers(1, 10)), draw(st.integers(1, 5)),
                         draw(st.sampled_from((0.3, 0.5, 0.7))))
    lat = enumerate_concepts(ctx)
    seeds = draw(st.lists(st.integers(0, 2 ** 32 - 1), min_size=1,
                          max_size=3))
    return lat, [random_mass(seed, lat, denominator_bound=12)
                 for seed in seeds]


def definition_tables(lat):
    """leq, meet and join over all pairs, from extent and intent frozensets."""
    by_extent = {c.extent: i for i, c in enumerate(lat)}
    by_intent = {c.intent: i for i, c in enumerate(lat)}
    return ([[c.extent <= d.extent for d in lat] for c in lat],
            [[by_extent[c.extent & d.extent] for d in lat] for c in lat],
            [[by_intent[c.intent & d.intent] for d in lat] for c in lat])


def table_covers(lat):
    leq = definition_tables(lat)[0]
    n = len(lat)
    return tuple((i, j) for i in range(n) for j in range(n)
                 if i != j and leq[i][j]
                 and not any(k != i and k != j and leq[i][k] and leq[k][j]
                             for k in range(n)))


def table_combine(m1, m2):
    """The conjunctive rule on Fractions, meeting through the meet table."""
    lat = m1.lattice
    meets = definition_tables(lat)[1]
    acc = [Fraction(0)] * len(lat)
    conflict = Fraction(0)
    for i in m1.support():
        for j in m2.support():
            k = meets[i][j]
            if lat.extent_nonempty[k]:
                acc[k] += m1.values[i] * m2.values[j]
            else:
                conflict += m1.values[i] * m2.values[j]
    if conflict == 1:
        return None
    return tuple(v / (1 - conflict) for v in acc), conflict


@given(seeded_lattice_masses())
def test_bitset_core_matches_brute_force_and_definitions(case):
    lat, masses = case
    n = len(lat)
    leq, meets, joins = definition_tables(lat)
    for i, c in enumerate(lat):
        for j, d in enumerate(lat):
            assert lat.leq(c, d) == leq[i][j]
            assert lat.meet(c, d) == lat[meets[i][j]]
            assert lat.join(c, d) == lat[joins[i][j]]
    assert lat.covers() == table_covers(lat)

    for m in masses:
        table = m.belief_table()
        assert table.bel == tuple(brute_bel(m, c) for c in range(n))
        assert table.pl == tuple(brute_pl(m, c) for c in range(n))
        assert table.bel == tuple(
            sum((m.values[d] for d in range(n) if leq[d][c]), Fraction(0))
            for c in range(n))
        assert table.pl == tuple(
            sum((m.values[d] for d in range(n)
                 if lat.extent_nonempty[meets[d][c]]), Fraction(0))
            for c in range(n))
        assert [m.bel(c) for c in range(n)] == list(table.bel)
        assert [m.pl(c) for c in range(n)] == list(table.pl)
        assert mass_from_bel_lattice(table.bel, lat).values == m.values

    expected, conflict = masses[0], Fraction(0)
    for m in masses[1:]:
        step = table_combine(expected, m)
        if step is None:
            with pytest.raises(TotalConflictError):
                combine_many(masses)
            return
        expected, conflict = MassFunction(lat, step[0]), step[1]
    report = combine_many(masses)
    assert (report.result.values, report.conflict) == (expected.values,
                                                       conflict)
    combined = report.result.belief_table()
    assert mass_from_bel_lattice(combined.bel, lat).values == expected.values


def dense_attributes(obj, n):
    """Names of attributes of `obj` that hold an n x n table."""
    return [name for name, value in vars(obj).items()
            if isinstance(value, (tuple, list)) and len(value) == n
            and all(isinstance(row, (tuple, list)) and len(row) == n
                    for row in value)]


def test_the_core_builds_no_dense_table(music_case):
    lat = enumerate_concepts(music_case.lattice.context)
    m1, m2 = (random_mass(seed, lat) for seed in (1, 2))
    lat.covers()
    m1.belief_table()
    report = combine(m1, m2)
    mass_from_bel_lattice(report.result.belief_table().bel, lat)
    rep = represent_concepts(m1)
    assert rep.all_passed
    assert atom_order_matches(rep) and atoms_pairwise_disjoint(rep)
    assert embedding_meet_preserving(rep)
    assert dense_attributes(lat, len(lat)) == []
    assert dense_attributes(rep, len(lat)) == []
