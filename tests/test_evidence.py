"""Mass, belief, and plausibility on lattices and powersets."""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conceptds import (CapacityError, FormalContext, LabelError, MassError,
                       MassFunction, MassSpec, ProbabilitySpace,
                       SetMassFunction, TotalConflictError, combine_many,
                       enumerate_concepts, load_case, load_document,
                       mass_from_bel_lattice, mass_from_bel_set,
                       normalize_no_universal_object, normalize_with_mass,
                       random_mass, resolve_concept_label, resolve_mass)
from conceptds import context, evidence, lattice, rationals
from conceptds.context import members
from conceptds.errors import ENV_UNSAFE_SCALE

from conftest import (lattice_masses, seeded_lattice_mass, set_masses,
                      small_contexts, with_universal_object)

F = Fraction


def _index(case, label):
    return case.labels.index(label)


# ---------------------------------------------------------------------------
# Mass function invariants

def test_mass_must_sum_to_one(music_lattice):
    with pytest.raises(MassError):
        MassFunction.from_mapping(music_lattice, {0: F(1, 2)})
    with pytest.raises(MassError, match="expected 7 values, got 1"):
        MassFunction(music_lattice, (F(1),))


def test_mass_must_be_nonnegative(music_lattice):
    with pytest.raises(MassError):
        MassFunction.from_mapping(music_lattice,
                                  {0: F(3, 2), 1: F(-1, 2)})


def test_empty_extent_bottom_carries_no_mass(music_lattice):
    with pytest.raises(MassError):
        MassFunction.from_mapping(music_lattice,
                                  {music_lattice.bottom_index: F(1)})


def test_nonempty_bottom_may_carry_mass(movies3_case):
    lat = movies3_case.lattice
    m = MassFunction.from_mapping(lat, {lat.bottom_index: F(1)})
    assert m[lat.bottom_index] == 1


def test_vacuous_mass_is_certain_only_at_the_top(music_lattice):
    m = MassFunction.vacuous(music_lattice)
    for i in range(len(music_lattice)):
        assert m.bel(i) == (1 if i == music_lattice.top_index else 0)
        assert m.pl(i) == (0 if not music_lattice.extents[i] else 1)


# ---------------------------------------------------------------------------
# Golden rows for the bundled music case

def test_music_individual_bel_rows(music_case):
    bel = music_case.bel_rows
    labels = music_case.labels
    expected_m1 = {"⊤": 1, "Pop": F(1, 5), "E-Pop": F(1, 5)}
    expected_m3 = {"⊤": 1, "Pop": F(1, 5), "R&B": F(4, 5),
                   "Pop-R&B": F(1, 5), "Funk": F(3, 5)}
    for label, value in expected_m1.items():
        assert bel["m1"][labels.index(label)] == value
    for label, value in expected_m3.items():
        assert bel["m3"][labels.index(label)] == value
    assert bel["m2"][labels.index("Pop")] == F(3, 5)


def test_music_individual_pl_rows(music_case):
    pl = music_case.pl_rows
    labels = music_case.labels
    assert pl["m1"][labels.index("E-Pop")] == 1
    assert pl["m1"][labels.index("Pop-R&B")] == F(4, 5)
    assert pl["m2"][labels.index("Funk")] == F(2, 5)
    assert pl["m2"][labels.index("Pop")] == 1
    assert pl["m3"][labels.index("E-Pop")] == F(1, 5)
    assert pl["m3"][labels.index("R&B")] == 1
    for name in ("m1", "m2", "m3"):
        assert pl[name][labels.index("⊥")] == 0


@given(lattice_masses())
def test_bel_at_most_pl_and_top_is_certain(m):
    lat = m.lattice
    for i in range(len(lat)):
        assert 0 <= m.bel(i) <= m.pl(i) <= 1
    assert m.bel(lat.top_index) == 1


@given(lattice_masses())
def test_bel_and_pl_are_monotone(m):
    lat = m.lattice
    for i in range(len(lat)):
        for j in range(len(lat)):
            if lat[i].extent <= lat[j].extent:
                assert m.bel(i) <= m.bel(j)
                assert m.pl(i) <= m.pl(j)


def test_concept_keys_accumulate(music_lattice):
    """Each key's mass is added onto zero at its concept."""
    lat = music_lattice
    m = MassFunction.from_mapping(lat, {lat.top_index: F(1, 4),
                                        lat.bottom_index - 1: F(3, 4)})
    assert m.values == (F(1, 4),) + (F(0),) * (len(lat) - 3) + (F(3, 4), F(0))


@pytest.mark.parametrize("index", [-1, -4, 4, 10])
def test_an_index_outside_the_lattice_names_no_concept(movies3_case, index):
    """On movies-3's four concepts, -1 no longer aliases concept 3, and 4
    no longer gives a bare IndexError."""
    lat = movies3_case.lattice
    assert len(lat) == 4
    m = MassFunction.vacuous(lat)
    message = f"concept index {index} is outside 0..3"
    for call in (lambda: MassFunction.from_mapping(lat, {index: F(1)}),
                 lambda: m[index], lambda: m.bel(index),
                 lambda: m.pl(index)):
        with pytest.raises(LabelError) as info:
            call()
        assert str(info.value) == message
    assert (m[3], m.bel(3), m.pl(3)) == (F(0), F(0), F(1))


@pytest.mark.parametrize("index", [1.0, 2.5, "a", None, F(1), True, False])
def test_an_index_that_is_not_an_int_names_no_concept(movies3_case, index):
    lat = movies3_case.lattice
    m = MassFunction.vacuous(lat)
    message = f"concept index {index!r} is not an int"
    for call in (lambda: MassFunction.from_mapping(lat, {index: F(1)}),
                 lambda: m[index], lambda: m.bel(index),
                 lambda: m.pl(index)):
        with pytest.raises(LabelError) as info:
            call()
        assert str(info.value) == message


@pytest.mark.parametrize("mapping", [
    {0: F(1, 2), 1.5: F(1, 4), 3: F(1, 4)},  # between the extreme keys
    {0: F(1, 2), "a": F(1, 2)},               # keys that do not compare
    {0: F(1, 2), True: F(1, 4), 3: F(1, 4)},  # a bool between int extremes
])
def test_a_key_that_is_not_an_int_fails_from_mapping(movies3_case, mapping):
    bad = next(k for k in mapping if type(k) is not int)
    with pytest.raises(LabelError) as info:
        MassFunction.from_mapping(movies3_case.lattice, mapping)
    assert str(info.value) == f"concept index {bad!r} is not an int"


def test_a_bad_value_is_not_blamed_on_its_key(movies3_case):
    """The keys are checked one by one when the fill raises; when they all
    pass, the first value that is not rational is named with its key."""
    with pytest.raises(MassError) as info:
        MassFunction.from_mapping(movies3_case.lattice, {0: None})
    assert str(info.value) == \
        "concept 0 has mass None, which is not a rational number"


@pytest.mark.parametrize("value", [None, "x", "1/0", float("inf"), [1]])
def test_a_value_that_is_not_rational_is_named_with_its_concept(
        movies3_case, value):
    lat = movies3_case.lattice
    with pytest.raises(MassError) as info:
        MassFunction.from_mapping(lat, {0: Fraction(1, 2), 1: value})
    assert str(info.value) == \
        f"concept 1 has mass {value!r}, which is not a rational number"
    with pytest.raises(MassError) as info:
        MassFunction(lat, (F(1, 2), value) + (F(0),) * (len(lat) - 2))
    assert str(info.value) == \
        f"concept 1 has mass {value!r}, which is not a rational number"


def test_a_bad_key_is_blamed_before_a_bad_value(movies3_case):
    with pytest.raises(LabelError, match="concept index 1.5 is not an int"):
        MassFunction.from_mapping(movies3_case.lattice,
                                  {0: "x", 1.5: F(1, 2), 2: F(1, 2)})


@pytest.mark.parametrize("value", [None, "x", "1/0"])
def test_a_bel_value_that_is_not_rational_is_named(movies3_case, value):
    lat = movies3_case.lattice
    with pytest.raises(MassError) as info:
        mass_from_bel_lattice([value] + [F(0)] * (len(lat) - 1), lat)
    assert str(info.value) == \
        f"concept 0 has bel {value!r}, which is not a rational number"
    table = {frozenset(): F(0), frozenset("a"): value, frozenset("b"): F(0),
             frozenset("ab"): F(1)}
    with pytest.raises(MassError) as info:
        mass_from_bel_set(table)
    assert str(info.value) == \
        f"subset {{'a'}} has bel {value!r}, which is not a rational number"


@pytest.mark.parametrize("seed", range(12))
def test_focal_holds_the_lcm_after_a_fold_and_an_inversion(seed):
    m = seeded_lattice_mass(random.Random(seed), normalize=seed % 2 == 0)
    lat = m.lattice
    folded = combine_many([m, m, m]).result
    inverted = mass_from_bel_lattice(m.belief_table().bel, lat)
    for mass in (folded, inverted):
        d = math.lcm(*(v.denominator for v in mass.values))
        assert mass.numerators == (d, tuple(
            v.numerator * (d // v.denominator) for v in mass.values))


# ---------------------------------------------------------------------------
# Set-level evidence

def test_set_mass_rejects_bad_support():
    with pytest.raises(MassError):
        SetMassFunction(frozenset("ab"), {frozenset("ac"): F(1)})
    with pytest.raises(MassError):
        SetMassFunction(frozenset("ab"), {frozenset(): F(1, 2),
                                          frozenset("a"): F(1, 2)})
    with pytest.raises(MassError):
        SetMassFunction(frozenset("ab"), {frozenset("a"): F(1, 2)})


def test_set_mass_support_lists_the_focal_subsets_in_size_order():
    m = SetMassFunction("ab", {"ab": F(1, 2), "b": F(1, 4), "a": F(1, 4)})
    assert m.support() == (frozenset("a"), frozenset("b"), frozenset("ab"))


@pytest.mark.parametrize("value", [None, "x", "1/0"])
def test_set_mass_names_a_bad_value_with_its_subset(value):
    with pytest.raises(MassError) as info:
        SetMassFunction(frozenset("ab"), {frozenset("a"): F(1, 2),
                                          frozenset("b"): value})
    assert str(info.value) == \
        f"subset {{'b'}} has mass {value!r}, which is not a rational number"


def test_a_subset_argument_that_is_not_a_set_is_named():
    m = SetMassFunction(frozenset("ab"), {frozenset("ab"): F(1)})
    for call in (lambda: SetMassFunction({"a", "b"}, {5: 1}),
                 lambda: m.bel(5), lambda: m.pl(5), lambda: m[5],
                 lambda: mass_from_bel_set({5: 1})):
        with pytest.raises(MassError) as info:
            call()
        assert str(info.value) == \
            "subset 5 is not an iterable of hashable elements"


@pytest.mark.parametrize("call", [
    lambda t: SetMassFunction("ab", t), mass_from_bel_set],
    ids=["SetMassFunction", "mass_from_bel_set"])
def test_a_subset_named_by_two_keys_is_refused(call):
    """Two keys for {a} are neither summed nor is the last one kept, and the
    refusal is a key error, reported before the bad value."""
    for table in ({frozenset(): 0, ("a",): F(1, 2), frozenset("a"): F(1, 2),
                   "b": 0, "ab": 1},
                  {"a": None, ("a",): F(1, 2), "b": F(1, 2)}):
        with pytest.raises(MassError) as info:
            call(table)
        assert str(info.value) == "subset {'a'} is named by two keys"
    with pytest.raises(MassError) as info:
        call({"ab": F(1, 2), ("b", "a"): F(1, 2)})
    assert str(info.value) == "subset {'a', 'b'} is named by two keys"


def test_set_level_texts_print_members_in_repr_order():
    """As a set of reprs sorted, whatever order hashing gives the set."""
    m = SetMassFunction("abc", {"abc": 1})
    with pytest.raises(MassError) as info:
        m.bel("zyx")
    assert str(info.value) == "{'x', 'y', 'z'} is not a subset of the carrier"
    with pytest.raises(MassError) as info:
        SetMassFunction("abc", {"ca": F(1, 2), "b": None})
    assert str(info.value) == \
        "subset {'b'} has mass None, which is not a rational number"
    with pytest.raises(MassError) as info:
        SetMassFunction("abc", {"b": F(1, 2), "cb": "x"})
    assert str(info.value) == \
        "subset {'b', 'c'} has mass 'x', which is not a rational number"
    with pytest.raises(MassError) as info:
        mass_from_bel_set({"": 0, "cab": 1})
    assert str(info.value) == ("belief table has 2 entries; expected all 8 "
                               "subsets of {'a', 'b', 'c'}")
    with pytest.raises(MassError) as info:
        mass_from_bel_set({})
    assert str(info.value) == \
        "belief table has 0 entries; expected all 1 subsets of set()"


def test_a_key_outside_the_carrier_is_blamed_before_a_bad_value():
    with pytest.raises(MassError) as info:
        SetMassFunction("ab", {"a": None, "zb": F(1, 2)})
    assert str(info.value) == "{'b', 'z'} is not a subset of the carrier"


def test_set_bel_and_pl_small_case():
    m = SetMassFunction(frozenset("ab"), {frozenset("a"): F(1, 2),
                                          frozenset("ab"): F(1, 2)})
    assert m.bel(frozenset("a")) == F(1, 2)
    assert m.bel(frozenset("b")) == 0
    assert m.pl(frozenset("b")) == F(1, 2)
    assert m.pl(frozenset("a")) == 1
    with pytest.raises(MassError):
        m.bel(frozenset("az"))


@given(set_masses())
def test_set_bel_pl_duality(m):
    for x in _all_subsets(m.carrier):
        assert m.bel(x) == 1 - m.pl(m.carrier - x)


def _all_subsets(carrier):
    out = [frozenset()]
    for e in sorted(carrier):
        out += [s | {e} for s in out]
    return out


@given(set_masses())
def test_set_mass_round_trips_through_bel(m):
    table = {x: m.bel(x) for x in _all_subsets(m.carrier)}
    back = mass_from_bel_set(table)
    assert back.carrier == m.carrier
    assert back.values == m.values


def test_proportional_bel_inverts_to_uniform_singletons():
    carrier = frozenset({1, 2, 3})
    table = {x: F(len(x), 3) for x in _all_subsets(carrier)}
    back = mass_from_bel_set(table)
    assert back.values == {frozenset({1}): F(1, 3),
                           frozenset({2}): F(1, 3),
                           frozenset({3}): F(1, 3)}


def test_inner_measure_of_a_two_block_partition_inverts_to_the_blocks():
    space = ProbabilitySpace(frozenset({1, 2, 3}),
                             (frozenset({1, 2}), frozenset({3})),
                             (F(2, 5), F(3, 5)))
    table = {x: space.inner_measure(x) for x in _all_subsets(space.carrier)}
    back = mass_from_bel_set(table)
    assert back.values == {frozenset({1, 2}): F(2, 5),
                           frozenset({3}): F(3, 5)}


def test_inversion_rejects_non_belief_tables():
    table = {frozenset(): F(0), frozenset("a"): F(1),
             frozenset("b"): F(1), frozenset("ab"): F(1)}
    with pytest.raises(MassError) as info:
        mass_from_bel_set(table)
    assert "not a belief function" in str(info.value)


def test_inversion_requires_a_complete_table(music_lattice):
    with pytest.raises(MassError):
        mass_from_bel_set({frozenset("a"): F(1)})
    with pytest.raises(MassError):
        mass_from_bel_set({frozenset(): F(0), frozenset("a"): F(1, 2)})
    with pytest.raises(MassError, match="expected 7 belief values, got 6"):
        mass_from_bel_lattice([F(0)] * 5 + [F(1)], music_lattice)


def test_the_set_carrier_bound_stands_alone_within_the_concept_bound():
    """A set-level mass builds a 2^n-concept powerset lattice, so the
    largest carrier's lattice must fit the concept bound; the carrier bound
    is its own constant, 12, not derived from the concept bound."""
    assert evidence.MAX_SET_CARRIER == 12
    assert 2 ** evidence.MAX_SET_CARRIER <= lattice.MAX_CONCEPTS


def test_set_masses_are_bounded_before_the_powerset_lattice_is_built(
        monkeypatch):
    """A set-level mass lives on the 2^n-concept powerset lattice, so its
    carrier is bounded before that lattice is enumerated."""
    monkeypatch.delenv(ENV_UNSAFE_SCALE, raising=False)
    carrier = frozenset(range(13))
    focal = {frozenset({0}): F(1, 3), carrier: F(2, 3)}

    def no_closure(ctx):
        raise AssertionError("the carrier bound must be checked first")

    with monkeypatch.context() as patch:
        patch.setattr(evidence, "enumerate_concepts", no_closure)
        with pytest.raises(CapacityError, match="carrier of a set-level mass"):
            SetMassFunction(carrier, focal)
        with pytest.raises(CapacityError,
                           match="carrier for belief inversion"):
            mass_from_bel_set({frozenset(): F(0), carrier: F(1)})

    monkeypatch.setenv(ENV_UNSAFE_SCALE, "1")
    m = SetMassFunction(carrier, focal)
    assert m.bel({0}) == F(1, 3)
    assert m.bel({1}) == 0
    assert m.pl({1}) == F(2, 3)
    assert m.pl(carrier) == 1


@given(lattice_masses())
def test_lattice_mass_round_trips_through_bel(m):
    lat = m.lattice
    back = mass_from_bel_lattice([m.bel(i) for i in range(len(lat))], lat)
    assert back.values == m.values


def test_lattice_inversion_rejects_non_monotone_tables(music_lattice):
    values = [F(0)] * len(music_lattice)
    values[music_lattice.top_index] = F(1)
    values[music_lattice.bottom_index] = F(1, 2)
    with pytest.raises(MassError) as info:
        mass_from_bel_lattice(values, music_lattice)
    assert str(info.value) == ("bel is not monotone: concept 6 <= concept 1 "
                               "but 1/2 > 0")


def _witness_lattice():
    """Six concepts: g0 has {a0, a2}, g1 has {a1, a2}, g2 has {a1}.  In
    canonical order the extents are {g0,g1,g2}, {g0,g1}, {g1,g2}, {g0},
    {g1} and the empty set."""
    ctx = FormalContext(("g0", "g1", "g2"), ("a0", "a1", "a2"),
                        frozenset({(0, 0), (0, 2), (1, 1), (1, 2), (2, 1)}))
    lat = enumerate_concepts(ctx)
    assert [sorted(c.extent) for c in lat] == [[0, 1, 2], [0, 1], [1, 2],
                                               [0], [1], []]
    return lat


def test_lattice_inversion_rejects_an_inclusion_exclusion_witness():
    """bel 1 at the top, {g0, g1} and {g1}, 0 elsewhere, meets every
    inclusion-exclusion inequality of the lattice but is not monotone:
    {g1} <= {g1, g2}."""
    lat = _witness_lattice()
    values = [F(1), F(1), F(0), F(0), F(1), F(0)]
    with pytest.raises(MassError) as info:
        mass_from_bel_lattice(values, lat)
    assert str(info.value) == ("bel is not monotone: concept 4 <= concept 2 "
                               "but 1 > 0")


def test_lattice_inversion_rejects_a_monotone_non_belief_table():
    """Monotone, but bel({g0, g1}) < bel({g0}) + bel({g1}) with disjoint
    atoms: the peel leaves a negative mass on {g0, g1}."""
    lat = _witness_lattice()
    values = [F(1), F(1, 2), F(1, 2), F(1, 2), F(1, 2), F(0)]
    with pytest.raises(MassError) as info:
        mass_from_bel_lattice(values, lat)
    assert str(info.value) == ("not a belief function on this lattice: "
                               "recovered mass -1/2 on concept 1")


def test_a_pl_table_need_not_determine_the_mass():
    """On the 3-chain top > x > bottom, with an empty least extent, all mass
    on the top and all mass on x give one pl table but two bel tables.
    Their commonalities differ only at the top, where mu(bottom, top) = 0,
    so pl does not see them."""
    lat = enumerate_concepts(FormalContext(("a", "b"), ("p", "q"), {(0, 0)}))
    assert lat.extents == (0b11, 0b01, 0b00)
    on_top, on_x = (MassFunction.from_mapping(lat, {c: F(1)}) for c in (0, 1))
    assert on_top.belief_table().pl == on_x.belief_table().pl == (1, 1, 0)
    assert on_top.belief_table().bel == (1, 0, 0)
    assert on_x.belief_table().bel == (1, 1, 0)


# ---------------------------------------------------------------------------
# Label resolution

def test_labels_resolve_by_name_symbol_and_extent(music_case):
    lat = music_case.lattice
    labels = music_case.document.labels
    assert resolve_concept_label(lat, "top", labels) == lat.top_index
    assert resolve_concept_label(lat, "⊤", labels) == lat.top_index
    assert resolve_concept_label(lat, "bottom", labels) == lat.bottom_index
    assert resolve_concept_label(lat, "Pop", labels) == _index(music_case, "Pop")
    assert resolve_concept_label(lat, "{a,b}", labels) == _index(music_case, "Pop")
    assert resolve_concept_label(lat, "{}", labels) == lat.bottom_index


def test_unresolvable_labels_raise(music_case):
    lat = music_case.lattice
    labels = music_case.document.labels
    with pytest.raises(LabelError):
        resolve_concept_label(lat, "Jazz", labels)
    with pytest.raises(LabelError):
        resolve_concept_label(lat, "{a,q}", labels)
    with pytest.raises(LabelError):
        resolve_concept_label(lat, "{a,c}", labels)  # not a closed extent


def test_ambiguous_labels_raise(music_lattice):
    shadowing = {"top": frozenset({0})}  # the closure of {a} is not the top
    with pytest.raises(LabelError) as info:
        resolve_concept_label(music_lattice, "top", shadowing)
    assert "ambiguous" in str(info.value)


def test_a_label_map_that_shadows_the_least_concept_is_ambiguous(
        music_lattice):
    with pytest.raises(LabelError) as info:
        resolve_concept_label(music_lattice, "⊥", {"⊥": frozenset({0})})
    assert str(info.value) == (
        "label '⊥' is ambiguous: concept 3 via document label; concept 6 "
        "via built-in name for the least concept")


def test_conflicting_label_routes_are_ambiguous(music_lattice):
    # "{b}" the document label points elsewhere than "{b}" the literal.
    mapping = {"{b}": frozenset({0})}
    with pytest.raises(LabelError) as info:
        resolve_concept_label(music_lattice, "{b}", mapping)
    assert "ambiguous" in str(info.value)


def test_label_naming_a_non_concept_extent(music_lattice):
    with pytest.raises(LabelError):
        resolve_concept_label(music_lattice, "broken",
                              {"broken": frozenset({0, 2})})


def test_resolve_mass_rejects_duplicate_targets(music_case):
    spec = next(s for s in music_case.document.masses if s.name == "m1")
    doubled = type(spec)(spec.name,
                         (("top", F(1, 2)), ("⊤", F(1, 2))),
                         spec.label_extents)
    with pytest.raises(LabelError) as info:
        resolve_mass(doubled, music_case.lattice)
    assert str(info.value) == ("mass 'm1': labels 'top' and '⊤' resolve to "
                               "the same concept")
    # On the second call both literals come from the lattice's memo.
    lat = enumerate_concepts(music_case.lattice.context)
    literals = type(spec)(spec.name, (("{a,b}", F(1, 2)), ("{b,a}", F(1, 2))))
    for _ in range(2):
        with pytest.raises(LabelError) as info:
            resolve_mass(literals, lat)
        assert str(info.value) == ("mass 'm1': labels '{a,b}' and '{b,a}' "
                                   "resolve to the same concept")


def test_a_kept_literal_still_meets_a_later_label_map(music_lattice):
    """The memo keeps what the literal names; a label map that names the
    same label is still read, on every call."""
    lat = enumerate_concepts(music_lattice.context)
    pop = lat.index_by_extent[0b011]
    assert resolve_concept_label(lat, "{a,b}") == pop
    assert lat.resolved_labels == {"{a,b}": pop}
    assert resolve_concept_label(lat, "{a,b}", {"{a,b}": frozenset({0, 1})}) \
        == pop
    with pytest.raises(LabelError) as info:
        resolve_concept_label(lat, "{a,b}", {"{a,b}": frozenset({0})})
    assert str(info.value) == ("label '{a,b}' is ambiguous: concept 1 via "
                               "extent literal; concept 3 via document label")
    with pytest.raises(LabelError, match="not a concept extent"):
        resolve_concept_label(lat, "{a,b}", {"{a,b}": frozenset({0, 2})})
    assert resolve_concept_label(lat, "{a,b}") == pop


@pytest.mark.parametrize("label, message", [
    ("Jazz", "label 'Jazz' matches no concept"),
    ("{a,q}", "unknown object name 'q' in extent literal '{a,q}'"),
    ("{a,c}", "no concept has extent {a,c}"),
])
def test_an_unresolvable_label_fails_on_every_call(music_lattice, label,
                                                    message):
    lat = enumerate_concepts(music_lattice.context)
    for _ in range(3):
        with pytest.raises(LabelError) as info:
            resolve_concept_label(lat, label)
        assert str(info.value) == message
    assert lat.resolved_labels == {}


def test_each_literal_is_read_once_per_lattice(music_lattice, monkeypatch):
    reads = []
    real = evidence._literal_extent
    monkeypatch.setattr(evidence, "_literal_extent",
                        lambda ctx, label: reads.append(label)
                        or real(ctx, label))
    labels = ("{a,b}", "{b,c}", "{a}", "top")
    specs = [MassSpec(f"m{k}", tuple((label, F(1, 4)) for label in labels))
             for k in range(8)]
    for rounds in (1, 2):
        lat = enumerate_concepts(music_lattice.context)
        for spec in specs:
            resolve_mass(spec, lat)
        assert sorted(reads) == sorted(["{a,b}", "{b,c}", "{a}"] * rounds)


# ---------------------------------------------------------------------------
# Masses built once, from the numerators of their one check

def _document(ctx: FormalContext, masses: list[MassFunction]) -> str:
    """A document whose masses are `masses`, each concept named by its
    extent literal; every other concept is written out with its zero."""
    lat = masses[0].lattice

    def literal(i: int) -> str:
        return "{" + ",".join(ctx.objects[g]
                              for g in members(lat.extents[i])) + "}"

    return json.dumps({
        "objects": list(ctx.objects), "attributes": list(ctx.attributes),
        "incidence": [[ctx.objects[g], ctx.attributes[m]]
                      for g, m in sorted(ctx.incidence)],
        "masses": {f"m{k}": {literal(i): str(v)
                             for i, v in enumerate(m.values) if v or i % 2}
                   for k, m in enumerate(masses)}})


@pytest.mark.parametrize("inhabited", [False, True], ids=["empty", "inhabited"])
@given(ctx=small_contexts(min_objects=1), data=st.data())
def test_masses_from_numerators_equal_the_checked_constructor(inhabited, ctx,
                                                              data):
    """Document masses, fold results, inversions and normalized masses are
    the masses the validating constructor builds from their values,
    `numerators` included."""
    ctx = with_universal_object(ctx) if inhabited \
        else normalize_no_universal_object(ctx)
    lat = enumerate_concepts(ctx)
    assert bool(lat.extents[lat.bottom_index]) is inhabited
    seeds = data.draw(st.lists(st.integers(0, 2 ** 32 - 1), min_size=1,
                               max_size=3))
    masses = [random_mass(seed, lat) for seed in seeds]
    doc = load_document(_document(ctx, masses))
    resolved = [resolve_mass(spec, lat) for spec in doc.masses]
    assert resolved == masses
    built = resolved + [mass_from_bel_lattice(m.belief_table().bel, lat)
                        for m in masses]
    try:
        built.append(combine_many(resolved).result)
    except TotalConflictError:
        pass
    built += [normalize_with_mass(m)[0] for m in built]
    for m in built:
        checked = MassFunction(m.lattice, m.values)
        assert m == checked and m.numerators == checked.numerators


def test_a_document_mass_is_checked_once(monkeypatch):
    """Resolving a document of k masses runs the sign-and-total check k
    times, at parse; the fold, the inversion and normalization run it on
    nothing."""
    checks = []
    real = rationals.check_unit

    def counted(*args, **kwargs):
        checks.append(args[0])
        return real(*args, **kwargs)

    for module in (context, evidence):
        monkeypatch.setattr(module, "check_unit", counted)
    doc = load_case("movies-1")
    assert len(doc.masses) == len(checks) > 1
    lat = enumerate_concepts(doc.context)
    masses = [resolve_mass(spec, lat) for spec in doc.masses]
    combine_many(masses)
    mass_from_bel_lattice(masses[0].belief_table().bel, lat)
    assert len(checks) == len(doc.masses)
    # A mass or a spec built by hand is checked when it is built.
    MassFunction(lat, masses[0].values)
    spec = doc.masses[0]
    assert resolve_mass(MassSpec(spec.name, spec.entries, spec.label_extents),
                        lat) == masses[0]
    assert len(checks) == len(doc.masses) + 2
    # Normalization moves a mass that is already checked.
    doc = load_case("movies-3")
    lat = enumerate_concepts(doc.context)
    mass = resolve_mass(doc.masses[0], lat)
    checks.clear()
    moved, _ = normalize_with_mass(mass)
    assert lat.normalized is not lat and moved.lattice is lat.normalized
    assert checks == []


@pytest.mark.parametrize("masses, message", [
    ({"nowhere": "-1/2", "{q}": "3/2"},
     "mass 'm' assigns -1/2 to 'nowhere'; masses must be nonnegative"),
    ({"nowhere": "1/2", "{q}": "1/4"}, "mass 'm' sums to 3/4, expected 1"),
])
def test_a_document_mass_error_comes_before_any_label_error(masses, message):
    with pytest.raises(MassError) as info:
        load_document(json.dumps({"objects": ["a"], "attributes": ["x"],
                                  "masses": {"m": masses}}))
    assert str(info.value) == message


@pytest.mark.parametrize("values, message", [
    ((F(3, 2), F(-1, 2)), "concept {a} has negative mass -1/2"),
    ((F(1, 2), F(1, 4)), "mass sums to 3/4, expected 1"),
    (("3/2", -0.5), "concept {a} has negative mass -1/2"),
    ((F(1, 2), "x"), "concept {a} has mass 'x', which is not a rational "
                     "number"),
])
def test_a_hand_built_spec_keeps_every_check(music_case, music_lattice,
                                             values, message):
    """Only numerators that `document_from_json` computed for the spec's
    very entries are trusted; hand-built or forged numerators, and those
    a replaced entries tuple no longer matches, are not read."""
    a = resolve_concept_label(music_lattice, "{a}")
    entries = tuple(zip(("top", "{a}"), values))
    document_spec = music_case.document.masses[0]
    for spec in (MassSpec("m", entries),
                 MassSpec("m", entries, {}, (1, (-5,))),
                 MassSpec("m", entries, {}, document_spec.numerators),
                 document_spec._replace(entries=entries)):
        with pytest.raises(MassError) as info:
            resolve_mass(spec, music_lattice)
        assert str(info.value) == message.format(a=a)
    assert resolve_mass(MassSpec("m", (("top", "1/2"), ("{a}", 0.5))),
                        music_lattice).values[a] == F(1, 2)

    forged = resolve_mass(MassSpec("m", (("top", F(1)),), {}, (1, (-5,))),
                          music_lattice)
    assert forged.bel(music_lattice.top_index) == 1
    replaced = resolve_mass(document_spec._replace(
        entries=(("top", F(1, 2)), ("{a}", F(1, 2)))), music_lattice)
    for m in (forged, replaced):
        checked = MassFunction(music_lattice, m.values)
        assert m.numerators == checked.numerators
        assert m.belief_table() == checked.belief_table()


@pytest.mark.parametrize("label", [5, None, ("top",), ["top"]])
def test_a_label_that_is_not_a_str_is_named(music_lattice, label):
    kind = type(label).__name__
    with pytest.raises(LabelError) as info:
        resolve_concept_label(music_lattice, label, 0)
    assert str(info.value) == f"label must be a str, not {kind}"
    resolve_concept_label(music_lattice, "top")
    with pytest.raises(LabelError) as info:
        resolve_mass(MassSpec("m", ((label, F(1)),)), music_lattice)
    assert str(info.value) == f"label must be a str, not {kind}"
