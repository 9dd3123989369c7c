"""Belief and plausibility realized as inner and outer measures."""

from __future__ import annotations

import random
from fractions import Fraction
from importlib.resources import files

import pytest
from hypothesis import given

from conceptds import (CapacityError, ConceptLattice, ConceptRepresentation,
                       FormalContext, MassFunction, PreconditionError,
                       SetMassFunction, atom_order_matches,
                       atoms_pairwise_disjoint, combine_many,
                       embedding_meet_preserving, enumerate_concepts,
                       mass_from_bel_lattice, normalize_with_mass,
                       random_context, random_mass, random_set_mass,
                       represent_concepts, represent_concepts_frame,
                       represent_set)
import conceptds.cli as cli
import conceptds.evidence as evidence
import conceptds.lattice as lattice
import conceptds.represent as represent
from conceptds.cli import run
from conceptds.powerset import subsets

from conftest import contranominal, lattice_masses, set_masses

F = Fraction


# ---------------------------------------------------------------------------
# Powerset construction

def test_two_element_carrier_by_hand():
    carrier = frozenset("ab")
    m = SetMassFunction(carrier, {frozenset("a"): F(1, 2),
                                  frozenset("ab"): F(1, 2)})
    rep = represent_set(m)
    assert rep.all_passed
    a_pairs = rep.embedding[frozenset("a")]
    assert a_pairs == frozenset({(frozenset("a"), "a"),
                                 (frozenset("ab"), "a")})
    assert rep.space.inner_measure(a_pairs) == F(1, 2)
    assert rep.space.outer_measure(a_pairs) == F(1)
    assert len(rep.space.blocks) == 3
    assert rep.embedding[frozenset()] == frozenset()


@given(set_masses())
def test_powerset_representation_is_exact(m):
    rep = represent_set(m)
    assert all(row.passed for row in rep.rows)
    assert rep.all_passed
    assert len(rep.rows) == 2 ** len(m.carrier)
    assert {row.subset for row in rep.rows} == {
        s for s in rep.embedding}


def test_a_seven_element_powerset_representation_passes():
    """7 x 2^6 pairs against 2^7 subsets: 57344 cells, within the bound."""
    m = random_set_mass(7, frozenset(range(7)))
    rep = represent_set(m)
    assert len(rep.space.carrier) == 7 * 2 ** 6
    assert len(rep.rows) == 2 ** 7
    assert rep.all_passed


def test_the_powerset_representation_is_bounded_by_its_cells(monkeypatch):
    """8 x 2^7 pairs against 2^8 subsets: 262144 cells, refused before any
    subset is built."""
    m = SetMassFunction(frozenset(range(8)), {frozenset(range(8)): F(1)})
    monkeypatch.setattr(represent, "subsets", None)
    with pytest.raises(CapacityError) as info:
        represent_set(m)
    assert str(info.value) == (
        "cells of the powerset representation: 262144 exceeds the supported "
        "bound of 65536 (set CONCEPTDS_UNSAFE_SCALE=1 to override at your "
        "own risk)")


# ---------------------------------------------------------------------------
# Normalization transport

def test_normalized_context_passes_through(music_case):
    m = music_case.masses["m1"]
    moved, mapping = normalize_with_mass(m)
    assert moved is m
    assert mapping == {i: i for i in range(len(m.lattice))}


def test_transport_preserves_belief_and_plausibility(movies3_case):
    m = movies3_case.masses["m1"]
    moved, mapping = normalize_with_mass(m)
    old = m.lattice
    new = moved.lattice
    assert len(new) == len(old) + 1
    assert not new.extents[new.bottom_index]
    assert moved.values[new.bottom_index] == 0
    for i in range(len(old)):
        j = mapping[i]
        assert new[j].extent == old[i].extent
        assert moved.values[j] == m.values[i]
        assert moved.bel(j) == m.bel(i)
        assert moved.pl(j) == m.pl(i)


# ---------------------------------------------------------------------------
# Conceptual construction, algebraic form

def test_unnormalized_input_is_refused(movies3_case):
    with pytest.raises(PreconditionError, match="normalize the context"):
        represent_concepts(movies3_case.masses["m1"])
    with pytest.raises(PreconditionError, match="normalize the context"):
        represent_concepts_frame(movies3_case.masses["m2"])


def test_music_masses_are_represented_exactly(music_case):
    for m in music_case.masses.values():
        report = represent_concepts(m)
        assert report.all_passed
        assert len(report.rows) == len(m.lattice)
        for row in report.rows:
            assert row.bel == row.inner
            assert row.pl == row.outer
    combined = combine_many(list(music_case.masses.values())).result
    assert represent_concepts(combined).all_passed


def test_music_structural_checks(music_case):
    rep = represent_concepts(music_case.masses["m3"])
    assert atom_order_matches(rep)
    assert embedding_meet_preserving(rep)
    assert atoms_pairwise_disjoint(rep)


@given(lattice_masses(normalize=True))
def test_representation_is_exact_on_random_masses(m):
    rep = represent_concepts(m)
    assert rep.all_passed
    assert atom_order_matches(rep)
    assert embedding_meet_preserving(rep)
    assert atoms_pairwise_disjoint(rep)


@given(lattice_masses(normalize=True))
def test_rows_hold_the_transforms_and_one_fraction_per_value(m):
    """bel and pl are the transforms' table, the one `belief_table` prints,
    and a passing row's inner and outer are the very objects its bel and pl
    are."""
    rows = represent_concepts(m).rows
    table = m.belief_table()
    assert [(r.bel, r.pl) for r in rows] == list(zip(table.bel, table.pl))
    assert all(r.inner is r.bel and r.outer is r.pl for r in rows)


@given(lattice_masses(normalize=True))
def test_embedding_is_the_meet_vector(m):
    rep = represent_concepts(m)
    lat = m.lattice
    top = lat.top_index
    for c in range(len(lat)):
        h = rep.embedding(c)
        assert h[top] == c
        assert h[c] == c
        assert h[lat.bottom_index] == lat.bottom_index
        assert all(lat[h[a]].extent == lat[c].extent & lat[a].extent
                   for a in range(len(lat)))


# The music context's concepts as (extent mask, intent mask) over objects
# a, b, c and attributes w, x, y, z: top, Pop, R&B, E-Pop, Pop-R&B, Funk,
# bottom.
MUSIC_PAIRS = ((0b111, 0b0000), (0b011, 0b0010), (0b110, 0b0100),
               (0b001, 0b0011), (0b010, 0b0110), (0b100, 0b1100),
               (0b000, 0b1111))


def _doctored(context, extents, intents) -> ConceptLattice:
    """A test double for a broken enumerator: the context's lattice with its
    masks, extent index and extreme concepts replaced.

    Its steps are every comparable pair (s, t), s strictly below t, with s
    in ascending order: a zeta step list for any family of distinct
    extents, read from the stored extents, not from the context."""
    lat = enumerate_concepts(context)
    lat.extents, lat.intents = tuple(extents), tuple(intents)
    lat.index_by_extent = {e: i for i, e in enumerate(lat.extents)}
    lat.top_index = lat.extents.index((1 << len(context.objects)) - 1)
    lat.bottom_index = lat.intents.index((1 << len(context.attributes)) - 1)
    rising = sorted(range(len(lat)), key=lambda i: lat.extents[i].bit_count())
    pairs = [(s, t) for s in rising for t in range(len(lat)) if t != s
             and not lat.extents[s] & ~lat.extents[t]]
    lat.steps = ([s for s, _ in pairs], [t for _, t in pairs])
    return lat


def _hand_built(context, pairs) -> ConceptRepresentation:
    """The checks' input for a lattice given concept by concept."""
    lat = _doctored(context, (e for e, _ in pairs), (a for _, a in pairs))
    return ConceptRepresentation(MassFunction.vacuous(lat), ())


def test_hand_built_music_lattice_passes_the_checks(music_lattice):
    assert music_lattice.extents == tuple(e for e, _ in MUSIC_PAIRS)
    rep = _hand_built(music_lattice.context, MUSIC_PAIRS)
    assert atom_order_matches(rep)
    assert embedding_meet_preserving(rep)
    assert atoms_pairwise_disjoint(rep)


def _without_pop_rnb():
    """Pop-R&B dropped: the meet of Pop and R&B has no entry in the index."""
    return tuple(pair for pair in MUSIC_PAIRS if pair[0] != 0b010)


def _without_e_pop():
    """E-Pop dropped: {a} is no pair's meet, only Pop cut by w's column."""
    return tuple(pair for pair in MUSIC_PAIRS if pair[0] != 0b001)


def _with_a_and_c():
    """{a, c} added: every pairwise meet is still stored, but no attribute
    is shared by a and c, so {a, c} is not an extent of the context."""
    return MUSIC_PAIRS + ((0b101, 0b0000),)


def _swap_pop_and_rnb(lat, setitem=dict.__setitem__):
    """Pop's and R&B's extents are looked up as each other."""
    index = lat.index_by_extent
    pop, rnb = MUSIC_PAIRS[1][0], MUSIC_PAIRS[2][0]
    setitem(index, pop, lat.extents.index(rnb))
    setitem(index, rnb, lat.extents.index(pop))


def _with_swapped_index(context):
    rep = _hand_built(context, MUSIC_PAIRS)
    _swap_pop_and_rnb(rep.mass.lattice)
    return rep


def _with_a_stray_entry(context):
    """Pop-R&B dropped, but its extent still looked up, as Pop."""
    rep = _hand_built(context, _without_pop_rnb())
    rep.mass.lattice.index_by_extent[0b010] = 1
    return rep


def test_an_enumerated_lattice_is_never_checked(music_case, monkeypatch):
    """Combination and inversion trust the closure lookups of an enumerated
    lattice: they never call `is_context_lattice`."""
    checked = []
    real = lattice.is_context_lattice
    monkeypatch.setattr(lattice, "is_context_lattice",
                        lambda lat: checked.append(lat) or real(lat))
    masses = [music_case.masses[name] for name in ("m1", "m2", "m3")]
    expected = combine_many(masses)
    mass_from_bel_lattice(expected.result.belief_table().bel,
                          music_case.lattice)
    assert checked == []


def test_the_checks_keep_their_own_fold(music_lattice, monkeypatch):
    """`is_context_lattice` does not read the enumeration's fold: with
    `FormalContext.concepts` made to drop any one mask, the order and meet
    lines of `verify-representation` read NO."""
    ctx = music_lattice.context
    real = FormalContext.concepts
    for dropped in music_lattice.extents:
        monkeypatch.setattr(
            FormalContext, "concepts",
            lambda self, check, dropped=dropped: {
                e: a for e, a in real(self, check).items() if e != dropped})
        lat = enumerate_concepts(ctx)
        assert dropped not in lat.index_by_extent
        checks = ConceptRepresentation(MassFunction.vacuous(lat), ()).checks
        assert [cli._yes(checks[line]) for line in (
            "atom order matches the lattice order",
            "embedding meet-preserving")] == ["NO", "NO"]


def _e_pop_as_bottom():
    """The all-attributes intent given to E-Pop, so it is the bottom."""
    return tuple((e, 0b1111 if e == 0b001 else 0b0011 if e == 0 else a)
                 for e, a in MUSIC_PAIRS)


def test_atom_order_check_can_fail(music_lattice):
    ctx = music_lattice.context
    assert atom_order_matches(_hand_built(ctx, _without_pop_rnb())) is False
    assert atom_order_matches(_with_swapped_index(ctx)) is False
    assert atom_order_matches(_hand_built(ctx, _without_e_pop())) is False
    assert atom_order_matches(_hand_built(ctx, _with_a_and_c())) is False


def test_meet_preservation_check_can_fail(music_lattice):
    ctx = music_lattice.context
    assert embedding_meet_preserving(
        _hand_built(ctx, _without_pop_rnb())) is False
    assert embedding_meet_preserving(_with_swapped_index(ctx)) is False
    assert embedding_meet_preserving(
        _hand_built(ctx, _without_e_pop())) is False
    assert embedding_meet_preserving(
        _hand_built(ctx, _with_a_and_c())) is False
    assert embedding_meet_preserving(_with_a_stray_entry(ctx)) is False


def test_atom_disjointness_check_can_fail(music_lattice):
    """The all-attributes intent is given to E-Pop, so it is the bottom."""
    rep = _hand_built(music_lattice.context, _e_pop_as_bottom())
    assert rep.mass.lattice.bottom_index == 3
    assert atoms_pairwise_disjoint(rep) is False


def test_one_concept_has_disjoint_atoms():
    """One object and no attribute: the one concept is the least one, and
    its extent meets itself there."""
    lat = enumerate_concepts(FormalContext(("g",), (), ()))
    assert len(lat) == 1 and lat.extents == (1,)
    rep = ConceptRepresentation(MassFunction.vacuous(lat), ())
    assert atoms_pairwise_disjoint(rep) is True


def test_all_passed_includes_the_structural_checks(music_case, monkeypatch):
    rep = represent_concepts(music_case.masses["m1"])
    assert all(row.passed for row in rep.rows)
    _swap_pop_and_rnb(music_case.lattice, monkeypatch.setitem)
    assert rep.checks == {"atom order matches the lattice order": False,
                          "atoms pairwise disjoint": True,
                          "embedding meet-preserving": False}
    assert not rep.all_passed


class _CountingIndex(dict):
    """An extent index that counts its lookups."""

    lookups = 0

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)

    def __contains__(self, key):
        self.lookups += 1
        return super().__contains__(key)


def _count_check_lookups(rep, monkeypatch) -> int:
    lat = rep.mass.lattice
    index = _CountingIndex(lat.index_by_extent)
    monkeypatch.setattr(lat, "index_by_extent", index)
    assert atom_order_matches(rep)
    assert embedding_meet_preserving(rep)
    assert atoms_pairwise_disjoint(rep)
    return index.lookups


def test_structural_checks_share_one_sweep(music_case, monkeypatch):
    rep = represent_concepts(music_case.masses["m3"])
    n = len(rep.mass.lattice)
    assert 0 < _count_check_lookups(rep, monkeypatch) <= n * n + n
    # The powerset of 8 elements separates the two costs: a sweep over the
    # pairs of its 256 extents would make 33152 lookups, the bound is 2561.
    lat = enumerate_concepts(contranominal(8))
    rep = represent_concepts(MassFunction.vacuous(lat))
    n, attributes = len(lat), len(lat.context.attributes)
    assert (n, attributes) == (256, 8)
    lookups = _count_check_lookups(rep, monkeypatch)
    assert 0 < lookups <= n * (attributes + 2) + 1


def test_verify_fails_on_a_failed_structural_check(monkeypatch, capsys):
    """The index is tampered with after the rows are built, so only the
    structural checks can see it."""
    real = cli.represent_concepts

    def tampered(mass):
        rep = real(mass)
        _swap_pop_and_rnb(mass.lattice)
        return rep

    monkeypatch.setattr(cli, "represent_concepts", tampered)
    music = str(files("conceptds") / "data" / "music.json")
    assert run(["verify-representation", music]) == 1
    out = capsys.readouterr().out
    first = out.split("mass m2")[0]
    rows = first.split("  atom order")[0]
    assert "NO" not in rows
    assert "  atom order matches the lattice order: NO\n" in first
    assert "  atoms pairwise disjoint: yes\n" in first
    assert "  embedding meet-preserving: NO\n" in first
    assert "  result: FAIL\n" in first
    assert out.endswith("overall: FAIL\n")


def _numerators_without_top_in_bel(top):
    """The shared sum of `evidence`, but leaving the mass on the top
    concept's extent `top` out of bel."""
    def sums(pairs, extent):
        pairs = list(pairs)
        bel = sum(x for f, x in pairs if f != top and f & ~extent == 0)
        return bel, sum(x for f, x in pairs if f & extent)
    return sums


TABLE_NUMERATORS = MassFunction._table_numerators


def _transforms_without_top_in_bel(self):
    """The transforms' numerators, but leaving the top concept's mass out
    of bel at the top."""
    bel, pl = TABLE_NUMERATORS(self)
    top = self.lattice.top_index
    bel[top] -= self.numerators[1][top]
    return bel, pl


def test_certificate_catches_a_wrong_belief(music_case, monkeypatch, capsys):
    m = music_case.masses["m1"]
    top = m.lattice.top_index
    assert represent_concepts(m).all_passed
    # `bel`, `pl` and the algebraic certificate's measures run one sum, so a
    # wrong sum fails exactly the rows it gets wrong; the frame measures its
    # own derived space and still passes.
    assert represent._inside_and_meeting is evidence._inside_and_meeting
    with monkeypatch.context() as patch:
        wrong = _numerators_without_top_in_bel(m.lattice.extents[top])
        for module in (evidence, represent):
            patch.setattr(module, "_inside_and_meeting", wrong)
        assert m.bel(top) == F(1, 5)
        rep = represent_concepts(m)
        failed = [row for row in rep.rows if not row.passed]
        assert [row.concept_index for row in failed] == [top]
        assert failed[0].bel == 1 and failed[0].inner == F(1, 5)
        assert represent_concepts_frame(m).all_passed
    monkeypatch.setattr(MassFunction, "_table_numerators",
                        _transforms_without_top_in_bel)
    assert m.belief_table().bel[m.lattice.top_index] == F(1, 5)
    for rep in (represent_concepts(m), represent_concepts_frame(m)):
        assert not rep.all_passed
        failed = [row for row in rep.rows if not row.passed]
        assert [row.concept_index for row in failed] == [m.lattice.top_index]
        assert failed[0].inner == 1 and failed[0].bel == F(1, 5)
    music = str(files("conceptds") / "data" / "music.json")
    assert run(["verify-representation", music]) == 1
    assert "result: FAIL" in capsys.readouterr().out
    # The set-level certificate rests on its rows alone, which read the
    # transforms of the powerset lattice, and they fail too.
    ab = frozenset("ab")
    srep = represent_set(SetMassFunction(ab, {frozenset("a"): F(1, 2),
                                              ab: F(1, 2)}))
    assert not srep.all_passed
    assert [row.subset for row in srep.rows if not row.passed] == [ab]


def test_certificates_catch_a_dropped_step(music_case):
    """One step dropped from a lattice's kept step list, and the Moebius row
    built on it rebuilt: the printed table goes wrong, and both conceptual
    certificates report the rows it gets wrong."""
    lat = enumerate_concepts(music_case.lattice.context)
    m = MassFunction(lat, music_case.masses["m1"].values)
    good = m.belief_table()
    assert represent_concepts(m).all_passed
    assert represent_concepts_frame(m).all_passed
    sources, targets = lat.steps
    del sources[0], targets[0]
    del lat.mobius_bottom
    table = m.belief_table()
    wrong = [c for c in range(len(lat))
             if (table.bel[c], table.pl[c]) != (good.bel[c], good.pl[c])]
    assert wrong == [0, 3, 6]
    for rep in (represent_concepts(m), represent_concepts_frame(m)):
        assert not rep.all_passed
        assert [r.concept_index for r in rep.rows if not r.passed] == wrong


def test_the_set_certificate_catches_a_dropped_step():
    """The same fault on a set mass's powerset lattice: `represent_set`
    reads its rows' bel and pl from that lattice's transforms, so it fails
    exactly the rows whose printed table goes wrong."""
    m = random_set_mass(0, frozenset("abc"))
    lat = m.mass.lattice
    good = m.mass.belief_table()
    assert represent_set(m).all_passed
    sources, targets = lat.steps
    del sources[0], targets[0]
    del lat.mobius_bottom
    table = m.mass.belief_table()
    by_mask = subsets(m.carrier)
    wrong = {by_mask[lat.extents[c]] for c in range(len(lat))
             if (table.bel[c], table.pl[c]) != (good.bel[c], good.pl[c])}
    assert wrong == {frozenset(), frozenset("a"), frozenset("abc")}
    rep = represent_set(m)
    assert not rep.all_passed
    assert {row.subset for row in rep.rows if not row.passed} == wrong


@pytest.mark.parametrize("seed", range(6))
def test_set_and_lattice_constructions_agree_on_powerset_lattices(seed):
    """Encode P(S) as a concept lattice and compare both constructions."""
    size = seed % 3 + 1
    names = tuple(f"e{i}" for i in range(size))
    ctx = FormalContext(names, names,
                        frozenset((g, x) for g in range(size)
                                  for x in range(size) if g != x))
    lat = enumerate_concepts(ctx)
    assert len(lat) == 2 ** size

    m_set = random_set_mass(40 + seed, names, denominator_bound=8)
    extent_names = [frozenset(names[g] for g in lat[c].extent)
                    for c in range(len(lat))]
    m_lat = MassFunction.from_mapping(
        lat, {c: m_set[extent_names[c]] for c in range(len(lat))
              if m_set[extent_names[c]]})

    rep_set = represent_set(m_set)
    rep_lat = represent_concepts(m_lat)
    assert rep_set.all_passed and rep_lat.all_passed
    set_rows = {row.subset: row for row in rep_set.rows}
    for c, lat_row in enumerate(rep_lat.rows):
        set_row = set_rows[extent_names[c]]
        assert lat_row.bel == set_row.bel == set_row.inner == lat_row.inner
        assert lat_row.pl == set_row.pl == set_row.outer == lat_row.outer


# ---------------------------------------------------------------------------
# Conceptual construction, derived-context form

def _frame_structure_ok(rep):
    return len(rep.checks) == 5 and all(rep.checks.values())


def test_music_frame_representation(music_case):
    for m in music_case.masses.values():
        rep = represent_concepts_frame(m)
        assert _frame_structure_ok(rep)
        assert rep.all_passed
        lat = m.lattice
        inhabited = sum(1 for c in range(len(lat))
                        if lat.extents[c])
        assert len(rep.space.blocks) == inhabited
        assert len(rep.object_keys) == sum(len(lat[c].extent)
                                           for c in range(len(lat)))


def test_normalized_movies_frame_representation(movies3_case):
    for m in movies3_case.masses.values():
        moved, _ = normalize_with_mass(m)
        rep = represent_concepts_frame(moved)
        assert _frame_structure_ok(rep)
        assert rep.all_passed


def test_frame_meet_check_reports_a_missing_meet(music_lattice):
    """Pop meet R&B has no concept: the meet line reads NO, and the
    closure and injectivity lines still pass."""
    vacuous = _hand_built(music_lattice.context, _without_pop_rnb()).mass
    rep = represent_concepts_frame(vacuous)
    assert rep.checks == {"atom extents closed": True,
                          "atom unions closed": True,
                          "embedded concepts closed": True,
                          "embedding injective": True,
                          "embedding meet-preserving": False}
    assert rep.all_passed is False


def reference_atom_unions_closed(rep) -> bool:
    """Every union of atoms, all 2^n of them, closed in the derived context."""
    derived = rep.derived_context

    def closed(extent: frozenset) -> bool:
        return derived.down(derived.up(extent)) == extent

    return all(closed(frozenset().union(*(rep.atoms[c] for c in group)))
               for group in subsets(range(len(rep.atoms))))


def _random_hand_built(rng: random.Random) -> ConceptLattice:
    """Distinct random extents with random intents, under an empty least
    extent, on a random context: rarely a concept lattice."""
    n_objects, n_attributes = rng.randint(1, 3), rng.randint(1, 3)
    density = rng.choice((0.3, 0.6, 1.0))
    context = random_context(rng.randrange(10 ** 6), n_objects, n_attributes,
                             density)
    top, full = (1 << n_objects) - 1, (1 << n_attributes) - 1
    inner = rng.sample(range(1, top), rng.randint(0, min(top - 1, 6)))
    extents = (top, *inner, 0)
    intents = (*(rng.randrange(full) for _ in extents[:-1]), full)
    return _doctored(context, extents, intents)


def test_atom_unions_closed_reads_the_atom_check():
    rng = random.Random(14)
    verdicts = []
    for i in range(300):
        if i % 2:
            lat = enumerate_concepts(random_context(
                i, rng.randint(1, 4), rng.randint(0, 4),
                rng.choice((0.2, 0.5, 0.8, 1.0))))
            if i % 4 == 1:
                lat = lat.normalized
            if (lat.extents[lat.bottom_index] or len(lat) > 8
                    or sum(map(int.bit_count, lat.extents)) > 24):
                continue
        else:
            lat = _random_hand_built(rng)
        rep = represent_concepts_frame(MassFunction.vacuous(lat))
        verdict = reference_atom_unions_closed(rep)
        assert rep.checks["atom unions closed"] == verdict
        verdicts.append(verdict)
    assert len(verdicts) > 200
    assert set(verdicts) == {True, False}


def test_an_object_with_every_attribute_breaks_the_atom_closures():
    """Concept 1 holds a, which has every attribute, so the closure of any
    union without concept 1's atom takes in the derived object (1, a)."""
    context = FormalContext(("a", "b"), ("x",), frozenset({(0, 0)}))
    lat = _doctored(context, (0b11, 0b01, 0), (0, 0, 1))
    rep = represent_concepts_frame(MassFunction(lat, (F(1, 2), F(1, 2),
                                                      F(0))))
    assert reference_atom_unions_closed(rep) is False
    assert rep.checks["atom extents closed"] is False
    assert rep.checks["atom unions closed"] is False
    assert rep.all_passed is False


def test_the_frame_is_bounded_by_its_derived_cells(monkeypatch):
    """One object with none of 32769 attributes: 2 concepts and 1 derived
    object, but 1 x 2 x 32769 derived cross-table cells.  The bound is
    checked before any derived pair or context is built."""
    attributes = tuple(f"x{i}" for i in range(32769))
    lat = enumerate_concepts(FormalContext(("g",), attributes, ()))
    monkeypatch.setattr(represent, "FormalContext", None)
    with pytest.raises(CapacityError) as info:
        represent_concepts_frame(MassFunction.vacuous(lat))
    assert str(info.value) == (
        "derived cross-table cells for the frame representation: 65538 "
        "exceeds the supported bound of 65536 (set CONCEPTDS_UNSAFE_SCALE=1 "
        "to override at your own risk)")


@pytest.mark.parametrize("ctx, concepts, derived_objects", [
    (random_context(3, 4, 4, 0.5), 9, 16),
    # Contranominal-4: 32 derived objects x 64 derived attributes.
    (contranominal(4), 16, 32),
])
def test_a_frame_within_the_cell_bound_passes(ctx, concepts,
                                              derived_objects):
    """Nine concepts, past a concept bound of 8, and 32 derived objects,
    past an object bound of 24: neither bound exists, and the cells are
    the frame's only bound."""
    lat = enumerate_concepts(ctx)
    assert len(lat) == concepts and not lat.extents[lat.bottom_index]
    rep = represent_concepts_frame(random_mass(3, lat))
    assert len(rep.object_keys) == derived_objects
    assert _frame_structure_ok(rep)
    assert rep.all_passed
