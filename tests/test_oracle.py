"""The brute-force validators and seeded generators used as ground truth."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conceptds import (CapacityError, MassError, PreconditionError,
                       check_belief_axioms_set, check_plausibility_axioms_set,
                       brute_bel, brute_pl, enumerate_concepts, random_context,
                       random_mass, random_partition_space, random_set_mass)
from conceptds.errors import ENV_UNSAFE_SCALE

from conftest import lattice_masses, set_masses

F = Fraction


def _powerset(carrier):
    out = [frozenset()]
    for e in sorted(carrier, key=repr):
        out += [s | {e} for s in out]
    return out


def _bel_table(m):
    return {x: m.bel(x) for x in _powerset(m.carrier)}


def _pl_table(m):
    return {x: m.pl(x) for x in _powerset(m.carrier)}


# ---------------------------------------------------------------------------
# Axiom checkers on honest tables

@given(set_masses())
def test_belief_tables_pass_the_belief_axioms(m):
    report = check_belief_axioms_set(_bel_table(m))
    assert report.passed
    assert report.first_violation is None


@given(set_masses())
def test_plausibility_tables_pass_the_dual_axioms(m):
    report = check_plausibility_axioms_set(_pl_table(m))
    assert report.passed


@given(set_masses())
def test_the_complement_dual_of_belief_is_a_plausibility(m):
    bel = _bel_table(m)
    dual = {x: 1 - bel[m.carrier - x] for x in bel}
    assert dual == _pl_table(m)
    assert check_plausibility_axioms_set(dual).passed


@pytest.mark.parametrize("seed", range(3))
def test_axioms_hold_at_the_full_carrier_bound(seed):
    m = random_set_mass(seed + 300, {f"v{i}" for i in range(5)},
                        denominator_bound=16)
    assert check_belief_axioms_set(_bel_table(m), n_max=3).passed
    assert check_plausibility_axioms_set(_pl_table(m), n_max=3).passed


def test_checked_tuple_count_is_exhaustive():
    m = random_set_mass(7, {1, 2})
    report = check_belief_axioms_set(_bel_table(m), n_max=3)
    assert report.passed
    assert report.checked_tuples == 4 + 16 + 64
    report = check_plausibility_axioms_set(_pl_table(m), n_max=2)
    assert report.checked_tuples == 4 + 16


# ---------------------------------------------------------------------------
# Violations and their witnesses

def test_the_constant_one_table_is_not_a_belief_function():
    table = {x: F(1) for x in _powerset({1, 2})}
    table[frozenset()] = F(0)
    report = check_belief_axioms_set(table)
    assert not report.passed
    violation = report.first_violation
    assert violation.sets == (frozenset({1}), frozenset({2}))
    assert violation.note == "belief inequality fails at n=2"
    assert violation.lhs == 1
    assert violation.rhs == 2


def test_range_and_normalization_violations():
    table = {x: F(1, 2) for x in _powerset({1, 2})}
    report = check_belief_axioms_set(table)
    assert not report.passed
    assert "must be 1 on the whole carrier" in report.first_violation.note

    table = dict.fromkeys(_powerset({1, 2}), F(0))
    table[frozenset({1, 2})] = F(1)
    table[frozenset({1})] = F(-1, 2)
    report = check_plausibility_axioms_set(table)
    assert not report.passed
    assert "out of [0, 1]" in report.first_violation.note


def test_reports_do_not_depend_on_dict_insertion_order():
    m = random_set_mass(11, {"a", "b"})
    table = _bel_table(m)
    reversed_table = dict(reversed(list(table.items())))
    assert (check_belief_axioms_set(table)
            == check_belief_axioms_set(reversed_table))

    bad = {x: F(1) for x in _powerset({1, 2})}
    bad[frozenset()] = F(0)
    bad_reversed = dict(reversed(list(bad.items())))
    assert (check_belief_axioms_set(bad)
            == check_belief_axioms_set(bad_reversed))


def test_checker_capacity_limits():
    table = {x: F(1) if x else F(0) for x in _powerset(range(6))}
    with pytest.raises(CapacityError):
        check_belief_axioms_set(table)
    small = {x: F(1) if x == frozenset({1}) or x == frozenset({1, 2}) else F(0)
             for x in _powerset({1, 2})}
    with pytest.raises(PreconditionError):
        check_belief_axioms_set(small, n_max=4)


@pytest.mark.parametrize("checker", [check_belief_axioms_set,
                                     check_plausibility_axioms_set])
@pytest.mark.parametrize("n_max", [0, 4])
def test_checkers_reject_tuple_lengths_they_do_not_implement(
        checker, n_max, monkeypatch):
    # Only n = 1..3 are implemented; the escape hatch cannot lift that.
    monkeypatch.setenv(ENV_UNSAFE_SCALE, "1")
    table = {x: F(1) if x else F(0) for x in _powerset({1, 2})}
    with pytest.raises(PreconditionError, match="must be within 1..3"):
        checker(table, n_max=n_max)


def test_incomplete_tables_are_rejected():
    table = {frozenset({1, 2}): F(1), frozenset(): F(0)}
    with pytest.raises(MassError, match="expected all"):
        check_belief_axioms_set(table)


# ---------------------------------------------------------------------------
# Brute-force belief and plausibility

@given(lattice_masses())
def test_brute_scans_agree_with_the_table_implementations(m):
    lat = m.lattice
    for c in range(len(lat)):
        assert brute_bel(m, c) == m.bel(c)
        assert brute_pl(m, c) == m.pl(c)
        assert brute_bel(m, lat[c]) == m.bel(c)


# ---------------------------------------------------------------------------
# Seeded generators

def test_random_context_is_deterministic_and_respects_density():
    a = random_context(42, 4, 3, 0.5)
    b = random_context(42, 4, 3, 0.5)
    assert a == b
    assert a.objects == ("o0", "o1", "o2", "o3")
    assert a.attributes == ("a0", "a1", "a2")
    assert random_context(1, 3, 3, 0).incidence == frozenset()
    assert len(random_context(1, 3, 3, 1).incidence) == 9
    with pytest.raises(ValueError, match="density"):
        random_context(1, 2, 2, 1.5)
    with pytest.raises(ValueError, match="nonnegative"):
        random_context(1, -1, 2, 0.5)
    with pytest.raises(CapacityError):
        random_context(1, 25, 2, 0.5)


@pytest.mark.parametrize("seed", range(5))
def test_random_mass_is_valid_and_bounded(seed):
    lat = enumerate_concepts(random_context(seed + 100, 4, 4, 0.4))
    m = random_mass(seed, lat, denominator_bound=16)
    assert m.values == random_mass(seed, lat, denominator_bound=16).values
    assert sum(m.values) == 1
    for v in m.values:
        assert v.denominator <= 16
    if not lat.extent_nonempty[lat.bottom_index]:
        assert m.values[lat.bottom_index] == 0


def test_random_mass_needs_an_eligible_concept():
    from conceptds import FormalContext
    lat = enumerate_concepts(FormalContext((), ("x",), frozenset()))
    with pytest.raises(MassError, match="may carry mass"):
        random_mass(3, lat)


@pytest.mark.parametrize("seed", range(5))
def test_random_set_mass_avoids_the_empty_set(seed):
    m = random_set_mass(seed, {"p", "q", "r"}, denominator_bound=8)
    assert sum(m.values.values()) == 1
    assert frozenset() not in m.values
    for v in m.values.values():
        assert v.denominator <= 8
    assert m.values == random_set_mass(seed, {"p", "q", "r"},
                                       denominator_bound=8).values
    with pytest.raises(MassError):
        random_set_mass(seed, set())


@pytest.mark.parametrize("seed", range(5))
def test_random_partition_space_is_deterministic(seed):
    a = random_partition_space(seed, {1, 2, 3, 4})
    b = random_partition_space(seed, {1, 2, 3, 4})
    assert a == b
    assert sum(a.mu) == 1
    with pytest.raises(ValueError, match="nonempty"):
        random_partition_space(seed, set())


@given(st.integers(0, 500))
def test_axiom_checkers_accept_every_generated_mass(seed):
    m = random_set_mass(seed, {"x", "y"}, denominator_bound=12)
    assert check_belief_axioms_set(_bel_table(m)).passed
    assert check_plausibility_axioms_set(_pl_table(m)).passed
