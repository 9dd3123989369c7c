"""The conjunctive combination rule and its conflict handling."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conceptds import (MassFunction, PreconditionError, SetMassFunction,
                       TotalConflictError, combine, combine_many, combine_set,
                       enumerate_concepts, random_mass)

from conftest import seeded_lattice_mass

F = Fraction


def _by_label(case, row):
    return {case.labels[i]: v for i, v in enumerate(case.combined_rows[row])
            if v}


# ---------------------------------------------------------------------------
# The bundled cases, exactly

def test_unresolvable_conflict_spreads_over_the_rivals(movies1_case):
    assert _by_label(movies1_case, "mass") == {
        "c1": F(9, 19), "c3": F(9, 19), "⊤": F(1, 19)}
    assert movies1_case.conflicts == (F(81, 100),)


def test_compromise_takes_all_the_mass(movies2_case):
    assert _by_label(movies2_case, "mass") == {"c2": F(1)}
    assert movies2_case.conflicts == (F(99, 100),)


def test_shared_object_absorbs_the_conflict(movies3_case):
    assert _by_label(movies3_case, "mass") == {
        "⊥": F(81, 100), "c1": F(9, 100), "c3": F(9, 100),
        "⊤": F(1, 100)}
    assert movies3_case.conflicts == (F(0),)


def test_three_way_fold_mass_and_conflicts(music_case):
    assert _by_label(music_case, "mass") == {
        "E-Pop": F(5, 69), "Pop-R&B": F(20, 69), "Funk": F(24, 69),
        "Pop": F(12, 69), "⊤": F(8, 69)}
    assert music_case.conflicts == (F(0), F(56, 125))


def test_music_combined_bel_and_pl(music_case):
    bel = _by_label(music_case, "bel")
    assert bel["Pop"] == F(37, 69)
    assert bel["R&B"] == F(44, 69)
    pl = _by_label(music_case, "pl")
    assert pl == {"E-Pop": F(25, 69), "Pop-R&B": F(40, 69),
                  "Funk": F(32, 69), "Pop": F(45, 69), "R&B": F(64, 69),
                  "⊤": F(1)}


# ---------------------------------------------------------------------------
# Algebraic properties

@given(st.integers(0, 10_000))
def test_combination_is_commutative(seed):
    rng = random.Random(seed)
    m1 = seeded_lattice_mass(rng)
    m2 = random_mass(rng.randrange(2 ** 32), m1.lattice)
    try:
        left = combine(m1, m2)
    except TotalConflictError:
        with pytest.raises(TotalConflictError):
            combine(m2, m1)
        return
    right = combine(m2, m1)
    assert left.result.values == right.result.values
    assert left.conflict == right.conflict
    assert 0 <= left.conflict < 1
    assert sum(left.result.values) == 1


@given(st.integers(0, 10_000))
def test_combination_is_associative(seed):
    rng = random.Random(seed)
    m1 = seeded_lattice_mass(rng)
    lat = m1.lattice
    m2 = random_mass(rng.randrange(2 ** 32), lat)
    m3 = random_mass(rng.randrange(2 ** 32), lat)
    try:
        left = combine(combine(m1, m2).result, m3).result
        right = combine(m1, combine(m2, m3).result).result
    except TotalConflictError:
        return
    assert left.values == right.values


@given(st.integers(0, 10_000))
def test_vacuous_mass_is_a_two_sided_identity(seed):
    """Also across two separate enumerations of one context."""
    rng = random.Random(seed)
    m = seeded_lattice_mass(rng)
    for lat in (m.lattice, enumerate_concepts(m.lattice.context)):
        vacuous = MassFunction.vacuous(lat)
        assert combine(m, vacuous).result.values == m.values
        assert combine(vacuous, m).result.values == m.values
        assert combine(m, vacuous).conflict == 0


@given(st.integers(0, 10_000))
def test_combined_support_avoids_the_empty_extent(seed):
    rng = random.Random(seed)
    m1 = seeded_lattice_mass(rng)
    m2 = random_mass(rng.randrange(2 ** 32), m1.lattice)
    try:
        combined = combine(m1, m2).result
    except TotalConflictError:
        return
    for i in combined.support():
        assert combined.lattice.extents[i]


def test_conflict_vanishes_when_the_bottom_extent_is_inhabited(movies3_case):
    lat = movies3_case.lattice
    rng = random.Random(5)
    for _ in range(20):
        m1 = random_mass(rng.randrange(2 ** 32), lat)
        m2 = random_mass(rng.randrange(2 ** 32), lat)
        assert combine(m1, m2).conflict == 0


# ---------------------------------------------------------------------------
# Failure modes

def test_total_conflict_raises(movies1_case):
    lat = movies1_case.lattice
    c1 = movies1_case.labels.index("c1")
    c3 = movies1_case.labels.index("c3")
    m1 = MassFunction.from_mapping(lat, {c1: F(1)})
    m2 = MassFunction.from_mapping(lat, {c3: F(1)})
    with pytest.raises(TotalConflictError):
        combine(m1, m2)


def test_fold_reports_the_failing_step(movies1_case):
    lat = movies1_case.lattice
    c1 = movies1_case.labels.index("c1")
    c3 = movies1_case.labels.index("c3")
    delta1 = MassFunction.from_mapping(lat, {c1: F(1)})
    delta3 = MassFunction.from_mapping(lat, {c3: F(1)})
    with pytest.raises(TotalConflictError) as info:
        combine_many([delta1, MassFunction.vacuous(lat), delta3])
    assert info.value.step == 3
    assert "3 of 3" in str(info.value)


def test_fold_result_is_order_independent(music_case):
    masses = music_case.masses
    baseline = combine_many([masses[n] for n in ("m1", "m2", "m3")])
    for order in itertools.permutations(("m1", "m2", "m3")):
        report = combine_many([masses[n] for n in order])
        assert report.result.values == baseline.result.values


def test_fold_of_one_is_the_identity(music_case):
    m = music_case.masses["m1"]
    report = combine_many([m])
    assert report.result is m
    assert report.conflict == 0
    with pytest.raises(PreconditionError,
                       match="need at least one mass function"):
        combine_many([])


def test_mismatched_lattices_are_rejected(music_case, movies1_case):
    with pytest.raises(PreconditionError,
                       match="mass functions live on different lattices"):
        combine(music_case.masses["m1"], movies1_case.masses["m1"])


# ---------------------------------------------------------------------------
# Set-level combination

def test_set_combination_matches_hand_arithmetic():
    carrier = frozenset("ab")
    m1 = SetMassFunction(carrier, {frozenset("a"): F(9, 10),
                                   frozenset("ab"): F(1, 10)})
    m2 = SetMassFunction(carrier, {frozenset("b"): F(9, 10),
                                   frozenset("ab"): F(1, 10)})
    report = combine_set(m1, m2)
    assert report.conflict == F(81, 100)
    assert report.result.values == {frozenset("a"): F(9, 19),
                                    frozenset("b"): F(9, 19),
                                    frozenset("ab"): F(1, 19)}


def test_set_combination_total_conflict():
    carrier = frozenset("ab")
    m1 = SetMassFunction(carrier, {frozenset("a"): F(1)})
    m2 = SetMassFunction(carrier, {frozenset("b"): F(1)})
    with pytest.raises(TotalConflictError):
        combine_set(m1, m2)
    with pytest.raises(PreconditionError,
                       match="mass functions live on different carriers"):
        combine_set(m1, SetMassFunction(frozenset("abc"),
                                        {frozenset("a"): F(1)}))
