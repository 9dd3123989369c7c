"""The bitset lattice core against brute force and the definitions.

Order, meets, covers, bel/pl, combination and inversion run on extent
bitmasks and integer numerators.  Here every one of them is recomputed from
order, meet and join tables defined on the concepts' extent and intent
frozensets, and bel/pl also from `oracle.brute_bel`/`brute_pl`.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conceptds import (FormalContext, MassError, MassFunction,
                       TotalConflictError, atom_order_matches,
                       atoms_pairwise_disjoint, brute_bel, brute_pl,
                       check_belief_axioms_set, combine, combine_many,
                       embedding_meet_preserving, enumerate_concepts,
                       mass_from_bel_lattice, mass_from_bel_set,
                       normalize_no_universal_object, random_context,
                       random_mass, random_set_mass, represent_concepts)
from conceptds import lattice
from conceptds.powerset import subsets


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
            if lat.extents[k]:
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
    extents, intents = lat.extents, lat.intents
    for i in range(n):
        for j in range(n):
            assert (extents[i] & ~extents[j] == 0) == leq[i][j]
            assert lat.index_by_extent[extents[i] & extents[j]] == meets[i][j]
            assert lat.index_by_intent[intents[i] & intents[j]] == joins[i][j]
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
                 if lat.extents[meets[d][c]]), Fraction(0))
            for c in range(n))
        assert [m.bel(c) for c in range(n)] == list(table.bel)
        assert [m.pl(c) for c in range(n)] == list(table.pl)
        assert mass_from_bel_lattice(table.bel, lat).values == m.values

    report = assert_fold_matches_the_table_rule(masses)
    if report is not None:
        combined = report.result.belief_table()
        assert mass_from_bel_lattice(combined.bel, lat).values \
            == report.result.values


def assert_fold_matches_the_table_rule(masses):
    """`combine_many` against `table_combine` step by step: the result, the
    conflict of every step, and the step of a total conflict.  Returns the
    report, or None after a total conflict."""
    lat = masses[0].lattice
    expected, conflicts = masses[0], []
    for step, m in enumerate(masses[1:], start=2):
        combined = table_combine(expected, m)
        if combined is None:
            with pytest.raises(TotalConflictError) as info:
                combine_many(masses)
            assert info.value.step == step
            return None
        expected = MassFunction(lat, combined[0])
        conflicts.append(combined[1])
    report = combine_many(masses)
    assert report.result.values == expected.values
    assert report.conflicts == tuple(conflicts)
    return report


def with_universal_object(ctx):
    """The context plus an object holding every attribute, so that the
    least concept's extent is inhabited."""
    g = len(ctx.objects)
    return FormalContext(ctx.objects + ("universal",), ctx.attributes,
                         ctx.incidence | {(g, a)
                                          for a in range(len(ctx.attributes))})


def wide_masses(rng, lat, count):
    """`count` masses, each on about three quarters of the concepts that
    may carry mass."""
    eligible = [i for i in range(len(lat))
                if i != lat.bottom_index or lat.extents[i]]
    masses = []
    for _ in range(count):
        weights = {i: rng.randint(0, 3) for i in eligible}
        weights[rng.choice(eligible)] += 1
        total = sum(weights.values())
        masses.append(MassFunction.from_mapping(
            lat, {i: Fraction(w, total) for i, w in weights.items() if w}))
    return masses


@given(st.integers(0, 2 ** 32 - 1), st.integers(4, 8), st.booleans())
def test_wide_folds_match_the_table_rule_at_every_step(seed, count,
                                                       inhabited_bottom):
    rng = random.Random(seed)
    ctx = random_context(rng.randrange(2 ** 32), rng.randint(2, 6),
                         rng.randint(2, 5), 0.5)
    ctx = (with_universal_object(ctx) if inhabited_bottom
           else normalize_no_universal_object(ctx))
    lat = enumerate_concepts(ctx)
    assert bool(lat.extents[lat.bottom_index]) == inhabited_bottom
    masses = wide_masses(rng, lat, count)
    report = assert_fold_matches_the_table_rule(masses)
    if inhabited_bottom:
        assert report.conflicts == (0,) * (count - 1)
    else:
        # Two point masses on disjoint extents end the fold in total conflict.
        extents = lat.extents
        disjoint = [(a, b) for a in range(len(lat)) for b in range(a)
                    if extents[a] and extents[b] and not extents[a] & extents[b]]
        if disjoint:
            points = [MassFunction.from_mapping(lat, {k: Fraction(1)})
                      for k in rng.choice(disjoint)]
            assert assert_fold_matches_the_table_rule(masses + points) is None

    try:
        pair = combine(masses[0], masses[1])
    except TotalConflictError as exc:
        with pytest.raises(TotalConflictError) as info:
            combine_many(masses[:2])
        assert (info.value.step, str(info.value)) == (exc.step, str(exc))
    else:
        fold = combine_many(masses[:2])
        assert (pair.result.values, pair.conflicts) \
            == (fold.result.values, fold.conflicts)


@given(seeded_lattice_masses(), st.integers(0, 2 ** 32 - 1))
def test_inversion_reports_the_first_monotonicity_violation(case, seed):
    """Perturbed tables: the monotone error names the first violating pair
    of the order table, and only a monotone table can invert."""
    lat, masses = case
    rng = random.Random(seed)
    bel = list(masses[0].belief_table().bel)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lat))
        if i != lat.top_index:
            bel[i] = Fraction(rng.randint(0, 4), 4)
    leq = definition_tables(lat)[0]
    violations = [(i, j) for i in range(len(lat)) for j in range(i)
                  if leq[i][j] and bel[i] > bel[j]]
    try:
        back = mass_from_bel_lattice(bel, lat)
    except MassError as exc:
        if violations:
            i, j = violations[0]
            assert str(exc) == (f"bel is not monotone: concept {i} <= "
                                f"concept {j} but {bel[i]} > {bel[j]}")
        else:
            assert "monotone" not in str(exc)
    else:
        assert violations == []
        assert back.belief_table().bel == tuple(bel)


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


def test_the_core_builds_no_concept_views(music_case, monkeypatch):
    """Concepts are masks; a `Concept` is built only when one is read."""
    built = []
    real = lattice.Concept
    monkeypatch.setattr(lattice, "Concept",
                        lambda *args: built.append(args) or real(*args))
    lat = enumerate_concepts(music_case.lattice.context)
    m1, m2, m3 = (random_mass(seed, lat) for seed in (1, 2, 3))
    lat.covers()
    m1.belief_table()
    report = combine_many([m1, m2, m3])
    mass_from_bel_lattice(report.result.belief_table().bel, lat)
    assert represent_concepts(m1).all_passed
    assert built == []
    assert lat[lat.top_index] == next(iter(lat))
    assert len(built) == 2


class _CountingSupport:
    """A focal support that counts how often it is iterated."""

    def __init__(self, pairs):
        self.pairs, self.sweeps = pairs, 0

    def __iter__(self):
        self.sweeps += 1
        return iter(self.pairs)


def test_belief_table_sweeps_the_support_once_per_concept(music_case):
    lat = music_case.lattice
    m = MassFunction(lat, music_case.masses["m3"].values)
    d, pairs = m.focal
    support = _CountingSupport(pairs)
    m.__dict__["focal"] = (d, support)
    table = m.belief_table()
    assert support.sweeps == len(lat)
    assert [m.bel(c) for c in range(len(lat))] == list(table.bel)
    assert [m.pl(c) for c in range(len(lat))] == list(table.pl)
    assert support.sweeps == 3 * len(lat)
    # The certificate sums its own criteria in one more sweep per concept
    # and reads bel and pl from one belief table.
    support.sweeps = 0
    assert represent_concepts(m).all_passed
    assert support.sweeps == 2 * len(lat)


@given(st.integers(0, 2 ** 32 - 1))
def test_mass_on_an_inhabited_least_concept(seed):
    """The one-sweep kernel counts bel only among focal extents that meet
    the concept; mass on the least concept needs its extent inhabited."""
    rng = random.Random(seed)
    ctx = with_universal_object(random_context(
        rng.randrange(2 ** 32), rng.randint(1, 8), rng.randint(1, 5),
        rng.choice((0.3, 0.5, 0.7))))
    lat = enumerate_concepts(ctx)
    n, bottom = len(lat), lat.bottom_index
    assert lat.extents[bottom]
    weights = {i: rng.randint(0, 3) for i in range(n)}
    weights[bottom] += 1
    total = sum(weights.values())
    m = MassFunction.from_mapping(
        lat, {i: Fraction(w, total) for i, w in weights.items() if w})
    assert m.values[bottom] > 0
    table = m.belief_table()
    assert table.bel == tuple(brute_bel(m, c) for c in range(n))
    assert table.pl == tuple(brute_pl(m, c) for c in range(n))
    assert [m.bel(c) for c in range(n)] == list(table.bel)
    assert [m.pl(c) for c in range(n)] == list(table.pl)
    assert all(b <= p for b, p in zip(table.bel, table.pl))
    assert mass_from_bel_lattice(table.bel, lat).values == m.values


def perturbed_bel_table(rng: random.Random, size: int) -> dict:
    """The belief table of a seeded set mass, with one entry strictly between
    the empty set and the carrier moved by up to 1/4.  bel(empty) = 0 and
    bel(carrier) = 1 always hold; the moved entry may break the axioms."""
    carrier = [f"e{i}" for i in range(size)]
    m = random_set_mass(rng.randrange(2 ** 32), carrier, denominator_bound=8)
    table = {x: m.bel(x) for x in subsets(carrier)}
    inner = [x for x in table if 0 < len(x) < size]
    if inner:
        table[rng.choice(inner)] += Fraction(rng.randint(-2, 2), 8)
    return table


@pytest.mark.parametrize("size", [1, 2, 3, 4])
def test_set_inversion_agrees_with_the_axiom_oracle(size):
    """On n <= 3 elements an n-monotone capacity is a belief function, so
    inversion accepts a table exactly when the oracle's inequalities up to
    n = 3 hold.  On 4 elements every accepted table must pass them."""
    rng = random.Random(size)
    verdicts = []
    for _ in range(300):
        table = perturbed_bel_table(rng, size)
        try:
            mass_from_bel_set(table)
            accepted = True
        except MassError:
            accepted = False
        passed = check_belief_axioms_set(table, n_max=3).passed
        if size <= 3:
            assert passed == accepted
        else:
            assert passed or not accepted
        verdicts.append(accepted)
    assert any(verdicts)
    if size > 1:
        assert not all(verdicts)
