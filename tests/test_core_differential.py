"""The bitset lattice core against brute force and the definitions.

Order, meets, covers, bel/pl, combination and inversion run on extent
bitmasks and integer numerators.  Here every one of them is recomputed from
order, meet and join tables defined on the concepts' extent and intent
frozensets, and bel/pl also from `oracle.brute_bel`/`brute_pl`.
"""

from __future__ import annotations

import math
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
                       normalize_no_universal_object, normalize_with_mass,
                       random_context, random_mass, random_set_mass,
                       represent_concepts, represent_concepts_frame)
from conceptds import lattice
from conceptds.powerset import subsets

from conftest import (contranominal, count_passes, small_contexts,
                      with_universal_object)

F1 = Fraction(1)


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
        assert_table_matches_the_definitions(m, leq, meets)

    report = assert_fold_matches_the_table_rule(masses)
    if report is not None:
        combined = report.result.belief_table()
        assert mass_from_bel_lattice(combined.bel, lat).values \
            == report.result.values


def assert_table_matches_the_definitions(m, leq, meets):
    """`belief_table`, `bel` and `pl` against the brute scans and the sums
    over the order and meet tables, and the inversion round trip."""
    lat, n = m.lattice, len(m.lattice)
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


# Named lattice shapes, each as its (J, M, <=) context: the join-irreducible
# elements are the objects, the meet-irreducible ones the attributes, and j
# has m when j <= m.  Each entry: the attributes, each object's attributes,
# and the numbers of concepts and of cover edges.
SHAPES = {
    "M3": ("abc", {"a": "a", "b": "b", "c": "c"}, 5, 6),
    "N5": ("abc", {"a": "ab", "b": "b", "c": "c"}, 5, 5),
    "B3": ("xyz", {"x": "yz", "y": "xz", "z": "xy"}, 8, 12),
    "4-chain": ("0ab", {"a": "ab", "b": "b", "1": ""}, 4, 3),
    # `_witness_lattice` of tests/test_evidence.py, attributes renamed.
    "witness": ("012", {"g0": "02", "g1": "12", "g2": "1"}, 6, 7),
}


def shape_context(name: str) -> FormalContext:
    attributes, rows = SHAPES[name][:2]
    objects = tuple(rows)
    return FormalContext(objects, tuple(attributes), frozenset(
        (g, attributes.index(a)) for g, obj in enumerate(objects)
        for a in rows[obj]))


@pytest.mark.parametrize("inhabited", [False, True],
                         ids=["empty-bottom", "inhabited-bottom"])
@pytest.mark.parametrize("name", SHAPES)
def test_named_shapes_match_the_references(name, inhabited):
    """Each shape, also with an object that has every attribute (the same
    shape with an inhabited least concept), under three seeded masses."""
    ctx = shape_context(name)
    if inhabited:
        ctx = with_universal_object(ctx)
    lat = enumerate_concepts(ctx)
    assert (len(lat), len(lat.covers())) == SHAPES[name][2:]
    assert bool(lat.extents[lat.bottom_index]) == inhabited
    leq, meets, _ = definition_tables(lat)
    masses = [random_mass(seed, lat, denominator_bound=12)
              for seed in range(3)]
    for m in masses:
        assert_table_matches_the_definitions(m, leq, meets)
    assert_fold_matches_the_table_rule(masses)
    for m in masses:
        moved, _ = normalize_with_mass(m)
        assert represent_concepts(moved).all_passed
        assert represent_concepts_frame(moved).all_passed


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


def reference_peel(bel_values, lat):
    """Belief inversion as an ascending-extent peel, kept as the reference
    for the transform: each concept, by ascending extent size, then index,
    keeps the belief that the masses already peeled below it leave.
    Returns the masses, or the text of the error the inversion raises."""
    values = [Fraction(v) for v in bel_values]
    n, extents = len(lat), lat.extents
    d = math.lcm(*(v.denominator for v in values))
    scaled = [v.numerator * (d // v.denominator) for v in values]
    peeled, masses = [], [0] * n
    for i in sorted(range(n), key=lambda k: extents[k].bit_count()):
        e = extents[i]
        w = scaled[i] - sum(x for f, x in peeled if f & ~e == 0)
        if w < 0:
            for a in range(n):
                for b in range(a):
                    if scaled[a] > scaled[b] and extents[a] & ~extents[b] == 0:
                        return (f"bel is not monotone: concept {a} <= concept "
                                f"{b} but {values[a]} > {values[b]}")
            return (f"not a belief function on this lattice: recovered mass "
                    f"{Fraction(w, d)} on concept {i}")
        if w:
            peeled.append((e, w))
        masses[i] = w
    bottom = lat.bottom_index
    if not extents[bottom] and masses[bottom]:
        return (f"recovered mass {Fraction(masses[bottom], d)} on the "
                "empty-extent least concept; the table is not a belief "
                "function here")
    return tuple(Fraction(x, d) for x in masses)


@given(seeded_lattice_masses(), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_inversion_fails_where_the_ascending_peel_does(case, inhabited, seed):
    """Non-belief tables: monotone ones from a concave or clipped rescaling
    of a belief table, and perturbed ones.  The transform names the concept
    and text that the peel does, or returns its masses."""
    lat, masses = case
    if inhabited:
        lat = enumerate_concepts(with_universal_object(lat.context))
        masses = [random_mass(seed, lat, denominator_bound=12)]
    rng = random.Random(seed)
    bel = masses[0].belief_table().bel
    tables = [bel, [b * (2 - b) for b in bel], [min(F1, 2 * b) for b in bel]]
    perturbed = list(bel)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lat))
        if i != lat.top_index:
            perturbed[i] = Fraction(rng.randint(0, 4), 4)
    tables.append(perturbed)
    for table in tables:
        expected = reference_peel(table, lat)
        try:
            got = mass_from_bel_lattice(table, lat).values
        except MassError as exc:
            got = str(exc)
        assert got == expected


@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 4), st.integers(2, 4))
def test_dense_powerset_folds_match_the_table_rule_at_every_step(seed, size,
                                                                 count):
    """Masses on about three quarters of all subsets of 2-4 elements: the
    results, every step's conflict and the step of a total conflict."""
    rng = random.Random(seed)
    lat = enumerate_concepts(contranominal(size))
    masses = wide_masses(rng, lat, count)
    if rng.random() < 0.3:
        masses.append(MassFunction.from_mapping(
            lat, {lat.index_by_extent[1]: Fraction(1)}))
        masses.append(MassFunction.from_mapping(
            lat, {lat.index_by_extent[2]: Fraction(1)}))
        assert assert_fold_matches_the_table_rule(masses) is None
    else:
        assert_fold_matches_the_table_rule(masses)


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
    """A mass's numerators that count how often they are iterated."""

    def __init__(self, numerators):
        self.numerators, self.sweeps = numerators, 0

    def __iter__(self):
        self.sweeps += 1
        return iter(self.numerators)


def _counted(lat, values):
    """A mass on `lat` whose numerators count their sweeps."""
    m = MassFunction(lat, values)
    d, numerators = m.numerators
    support = _CountingSupport(numerators)
    m.__dict__["numerators"] = (d, support)
    return m, support


def test_belief_table_reads_the_support_once(music_case):
    """`belief_table` reads the mass's numerators once, into the
    transforms, and the commonality it keeps comes from that copy; it
    builds the lattice's steps when it does not hold them.  `bel` and `pl`
    sweep them once per call, and the certificate reads them once into the
    transforms and once into the focal pairs that the sum `bel` and `pl`
    share runs over, whatever the lattice holds."""
    values = music_case.masses["m3"].values
    lat = enumerate_concepts(music_case.lattice.context)
    m, support = _counted(lat, values)
    assert "steps" not in lat.__dict__
    table = m.belief_table()
    assert support.sweeps == 1 and "steps" in lat.__dict__
    assert m._commonality is not None
    assert m.belief_table() == table and support.sweeps == 2
    support.sweeps = 1
    assert [m.bel(c) for c in range(len(lat))] == list(table.bel)
    assert [m.pl(c) for c in range(len(lat))] == list(table.pl)
    assert support.sweeps == 1 + 2 * len(lat)
    support.sweeps = 0
    assert represent_concepts(m).all_passed
    assert support.sweeps == 2

    lat = enumerate_concepts(music_case.lattice.context)
    lat.covers()
    m, support = _counted(lat, values)
    assert m.belief_table()[1:] == table[1:] and support.sweeps == 1

    lat = enumerate_concepts(music_case.lattice.context)
    m1, m2 = (MassFunction(lat, music_case.masses[name].values)
              for name in ("m1", "m2"))
    combine(m1, m2)
    m, support = _counted(lat, values)
    assert m.belief_table()[1:] == table[1:] and support.sweeps == 1


@given(seeded_lattice_masses(), st.booleans())
def test_both_table_paths_are_the_brute_scans(case, inhabited):
    """The transforms of `belief_table` and the one-concept sweep of `bel`
    and `pl` each give `brute_bel` and `brute_pl`, with the least extent
    empty and inhabited."""
    lat, masses = case
    ctx = lat.context
    lat = enumerate_concepts(with_universal_object(ctx) if inhabited
                             else normalize_no_universal_object(ctx))
    assert bool(lat.extents[lat.bottom_index]) == inhabited
    n = len(lat)
    for seed in range(len(masses)):
        m = random_mass(seed, lat, denominator_bound=12)
        bel = tuple(brute_bel(m, c) for c in range(n))
        pl = tuple(brute_pl(m, c) for c in range(n))
        table = m.belief_table()
        assert (table.bel, table.pl) == (bel, pl)
        assert tuple(map(m.bel, range(n))) == bel
        assert tuple(map(m.pl, range(n))) == pl


def _brute_table(m):
    n = len(m.lattice)
    return (tuple(brute_bel(m, c) for c in range(n)),
            tuple(brute_pl(m, c) for c in range(n)))


def _up_sums(m):
    """The commonality numerators of m by their definition: at c, the sum
    of the numerators of the concepts whose extents contain c's."""
    extents, numerators = m.lattice.extents, m.numerators[1]
    return [sum(x for f, x in zip(extents, numerators) if e & ~f == 0)
            for e in extents]


SEEDS = st.lists(st.integers(0, 2 ** 32 - 1), min_size=2, max_size=3)


@given(small_contexts(min_objects=1), st.booleans(), SEEDS)
def test_tables_on_kept_commonalities_are_the_brute_scans(ctx, universal,
                                                          seeds):
    """`belief_table` gives `brute_bel` and `brute_pl` for a fresh mass,
    again for the same mass once it keeps its commonality, and for a
    fold's result, which is built keeping one.  A fold reads the kept
    commonalities to the same result as a fold of fresh equal masses, and
    a kept commonality changes no equality, hash or repr."""
    lat = enumerate_concepts(with_universal_object(ctx) if universal
                             else ctx)
    inhabited = bool(lat.extents[lat.bottom_index])
    masses = [random_mass(seed, lat, denominator_bound=12) for seed in seeds]
    fresh = [MassFunction(lat, m.values) for m in masses]
    for m, twin in zip(masses, fresh):
        table = m.belief_table()
        assert (table.bel, table.pl) == _brute_table(m)
        if inhabited:
            assert m._commonality is None
        else:
            assert m._commonality == _up_sums(m)
        assert m.belief_table() == table
        assert m == twin and hash(m) == hash(twin) and repr(m) == repr(twin)
    try:
        report = combine_many(masses)
    except TotalConflictError:
        return
    assert combine_many(fresh) == report
    result = report.result
    table = result.belief_table()
    assert (table.bel, table.pl) == _brute_table(result)
    twin = MassFunction(lat, result.values)
    assert result == twin and repr(result) == repr(twin)


@given(small_contexts(min_objects=1), st.booleans(), SEEDS)
def test_a_fold_result_keeps_the_up_zeta_of_its_numerators(ctx, universal,
                                                           seeds):
    """The fold's product less the conflict at the least concept, over the
    result's denominator, is the result's commonality, with the least
    extent empty and inhabited; when it is inhabited, no step conflicts."""
    lat = enumerate_concepts(with_universal_object(ctx) if universal
                             else ctx)
    masses = [random_mass(seed, lat, denominator_bound=12) for seed in seeds]
    try:
        report = combine_many(masses)
    except TotalConflictError:
        assert not lat.extents[lat.bottom_index]
        return
    result = report.result
    assert result._commonality == _up_sums(result)
    assert result._commonality[lat.top_index] == result.numerators[1][0]
    if lat.extents[lat.bottom_index]:
        assert set(report.conflicts) == {0}
        assert result._commonality[lat.bottom_index] == result.numerators[0]


@given(small_contexts(), st.integers(0, 2 ** 32 - 1))
def test_a_universal_object_gives_pl_one_without_an_up_sweep(ctx, seed):
    """An object with every attribute inhabits the least extent, so no meet
    is empty: pl is 1 at every concept, from one down-sweep and no
    up-sweep, and the mass keeps no commonality."""
    lat = enumerate_concepts(with_universal_object(ctx))
    m = random_mass(seed, lat, denominator_bound=12)
    passes = count_passes(lat)
    table = m.belief_table()
    assert table.pl == (F1,) * len(lat) == _brute_table(m)[1]
    assert table.bel == _brute_table(m)[0]
    assert passes.passes == 1 and m._commonality is None
    assert lat.mobius_bottom == ()


def test_one_op_builds_the_step_list_once(monkeypatch):
    """covers, four tables, a fold of three and an inversion on one
    lattice: one build of the steps, which all of them share.  The context
    has fewer attributes than objects, so the build runs over this
    lattice's intents."""
    built = []
    real = lattice._passes
    monkeypatch.setattr(lattice, "_passes",
                        lambda *side: built.append(side) or real(*side))
    rng = random.Random(24)
    lat = enumerate_concepts(random_context(rng.randrange(2 ** 32), 12, 8,
                                            0.5))
    masses = [random_mass(rng.randrange(2 ** 32), lat) for _ in range(3)]
    assert lat.covers() == table_covers(lat)
    tables = [m.belief_table() for m in masses]
    report = combine_many(masses)
    table = report.result.belief_table()
    assert mass_from_bel_lattice(table.bel, lat) == report.result
    assert len(built) == 1 and built[0][0] is lat.intents and len(lat) > 20
    for m, t in zip(masses, tables):
        assert t.bel == tuple(brute_bel(m, c) for c in range(len(lat)))


@pytest.mark.parametrize("tall", [True, False])
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 7), st.integers(0, 3),
       st.sampled_from((0.3, 0.5, 0.7)), st.data())
def test_both_step_lists_give_every_transform_and_the_covers(
        tall, seed, size, extra, density, data):
    """On a tall context (fewer attributes than objects) and a wide one,
    the object and the attribute steps give equal zeta and Moebius
    transforms both ways, and `covers` reads the definition's edges off
    the list the lattice keeps."""
    shape = (size + 1 + extra, size) if tall else (size, size + extra)
    lat = enumerate_concepts(random_context(seed, *shape, density))
    h = data.draw(st.lists(st.integers(-9, 9), min_size=len(lat),
                           max_size=len(lat)))
    sides = lattice.object_steps(lat), lattice.attribute_steps(lat)
    for transform in (lattice.zeta, lattice.mobius, lattice.mobius_down):
        results = []
        for steps in sides:
            values = h[:]
            transform(values, steps)
            results.append(values)
        assert results[0] == results[1]
    results = []
    for steps in sides:
        values, others = h[:], h[::-1]
        lattice.zeta_down(values, others, steps)
        results.append((values, others))
    assert results[0] == results[1]
    assert lat.steps == sides[tall]
    assert lat.covers() == table_covers(lat)


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
