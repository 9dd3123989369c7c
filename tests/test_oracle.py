"""The brute-force validators and seeded generators used as ground truth."""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from typing import Mapping

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conceptds import (AxiomReport, AxiomViolation, CapacityError,
                       MassError, ParseError, PreconditionError,
                       check_belief_axioms_set, check_plausibility_axioms_set,
                       brute_bel, brute_pl, enumerate_concepts, random_context,
                       random_mass, random_partition_space, random_set_mass)
from conceptds.errors import ENV_UNSAFE_SCALE
from conceptds.oracle import (_range_violation, _require_tuple_length,
                              _scaled_table)

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


def test_a_table_that_fails_only_at_n_3():
    # bel is 1/2 on each pair and 1 on the carrier: every pair inequality
    # holds, but the three pairs together overcount the carrier.
    carrier = frozenset({1, 2, 3})
    bel = {x: F(1) if x == carrier else F(len(x) == 2, 2)
           for x in _powerset(carrier)}
    assert check_belief_axioms_set(bel, n_max=2) == AxiomReport(72, None)
    pairs = (frozenset({1, 2}), frozenset({1, 3}), frozenset({2, 3}))
    assert check_belief_axioms_set(bel) == AxiomReport(311, AxiomViolation(
        pairs, F(1), F(3, 2), "belief inequality fails at n=3"))

    pl = {x: 1 - bel[carrier - x] for x in bel}
    assert check_plausibility_axioms_set(pl, n_max=2) == AxiomReport(72, None)
    singletons = (frozenset({1}), frozenset({2}), frozenset({3}))
    assert check_plausibility_axioms_set(pl) == AxiomReport(
        157, AxiomViolation(singletons, F(0), F(-1, 2),
                            "plausibility inequality fails at n=3"))


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


@pytest.mark.parametrize("checker", [check_belief_axioms_set,
                                     check_plausibility_axioms_set])
def test_a_subset_named_by_two_keys_is_refused(checker):
    """The table below held two values for {a}: the checkers kept the last
    one and passed it."""
    table = {frozenset(): F(0), ("a",): F(1, 2), frozenset("a"): F(1)}
    with pytest.raises(MassError) as info:
        checker(table)
    assert str(info.value) == "subset {'a'} is named by two keys"
    with pytest.raises(MassError) as info:
        checker({"": 0, "a": None, "b": 0, "ab": 1, "ba": 1})
    assert str(info.value) == "subset {'a', 'b'} is named by two keys"


@pytest.mark.parametrize("checker", [check_belief_axioms_set,
                                     check_plausibility_axioms_set])
def test_a_key_that_is_not_a_set_is_named(checker):
    with pytest.raises(MassError) as info:
        checker({frozenset(): 0, 5: 1})
    assert str(info.value) == "subset 5 is not an iterable of hashable elements"
    with pytest.raises(MassError) as info:
        checker({"": 0, "a": 0, "b": 0, "ba": None})
    assert str(info.value) == \
        "subset {'a', 'b'} has value None, which is not a rational number"


# ---------------------------------------------------------------------------
# Differential test against the ordered sweep
#
# The two functions below are the checkers as they were before they evaluated
# antichains only: they evaluate every ordered tuple.  They stay here as the
# reference whose reports the antichain checkers must reproduce exactly.

def ordered_check_belief_axioms_set(f: Mapping[frozenset, Fraction],
                                    n_max: int = 3) -> AxiomReport:
    """Exhaustively test the superadditive inclusion-exclusion inequalities.

    For every tuple (A_1..A_n), 1 <= n <= n_max <= 3, the table must satisfy
    f(A_1 ∪ ... ∪ A_n) >= sum over nonempty I of (-1)^(|I|+1) f(∩_{i in I} A_i),
    along with f(S) = 1 and values within [0, 1].
    """
    _require_tuple_length(n_max)
    every, t, denom = _scaled_table(f)
    bad = _range_violation(every, t, denom, "a belief function's")
    if bad is not None:
        return AxiomReport(0, bad)
    m = len(t)
    checked = m  # n=1: f(A) >= f(A) holds identically
    if n_max >= 2:
        for a in range(m):
            ta = t[a]
            for b in range(m):
                checked += 1
                rhs = ta + t[b] - t[a & b]
                if t[a | b] < rhs:
                    return AxiomReport(checked, AxiomViolation(
                        (every[a], every[b]),
                        Fraction(t[a | b], denom), Fraction(rhs, denom),
                        "belief inequality fails at n=2"))
    if n_max >= 3:
        for a in range(m):
            ta = t[a]
            for b in range(m):
                ab = a & b
                pair = ta + t[b] - t[ab]
                union_ab = a | b
                for c in range(m):
                    checked += 1
                    rhs = pair + t[c] - t[a & c] - t[b & c] + t[ab & c]
                    if t[union_ab | c] < rhs:
                        return AxiomReport(checked, AxiomViolation(
                            (every[a], every[b], every[c]),
                            Fraction(t[union_ab | c], denom),
                            Fraction(rhs, denom),
                            "belief inequality fails at n=3"))
    return AxiomReport(checked, None)


def ordered_check_plausibility_axioms_set(f: Mapping[frozenset, Fraction],
                                          n_max: int = 3) -> AxiomReport:
    """Exhaustively test the dual (subadditive) inclusion-exclusion bounds.

    For every tuple (A_1..A_n), 1 <= n <= n_max <= 3, the table must satisfy
    f(A_1 ∩ ... ∩ A_n) <= sum over nonempty I of (-1)^(|I|+1) f(∪_{i in I} A_i),
    along with f(S) = 1 and values within [0, 1].
    """
    _require_tuple_length(n_max)
    every, t, denom = _scaled_table(f)
    bad = _range_violation(every, t, denom, "a plausibility function's")
    if bad is not None:
        return AxiomReport(0, bad)
    m = len(t)
    checked = m  # n=1: f(A) <= f(A) holds identically
    if n_max >= 2:
        for a in range(m):
            ta = t[a]
            for b in range(m):
                checked += 1
                rhs = ta + t[b] - t[a | b]
                if t[a & b] > rhs:
                    return AxiomReport(checked, AxiomViolation(
                        (every[a], every[b]),
                        Fraction(t[a & b], denom), Fraction(rhs, denom),
                        "plausibility inequality fails at n=2"))
    if n_max >= 3:
        for a in range(m):
            ta = t[a]
            for b in range(m):
                ab_union = a | b
                pair = ta + t[b] - t[ab_union]
                ab = a & b
                for c in range(m):
                    checked += 1
                    rhs = pair + t[c] - t[a | c] - t[b | c] + t[ab_union | c]
                    if t[ab & c] > rhs:
                        return AxiomReport(checked, AxiomViolation(
                            (every[a], every[b], every[c]),
                            Fraction(t[ab & c], denom),
                            Fraction(rhs, denom),
                            "plausibility inequality fails at n=3"))
    return AxiomReport(checked, None)


def _table(kind, size, q, raw):
    """A subset table over {0..size-1} built from the integers `raw`.

    "bel" gives subset B the mass raw[B] / total over the nonempty subsets,
    so masses may be negative; if the total is not positive, the carrier's
    raw mass is raised until the total is 1.  "pl" is the dual 1 - bel(carrier - A)
    of that table.  "random" takes values raw[A] mod (q + 1) over q, with 1
    on the carrier.
    """
    carrier = frozenset(range(size))
    every = _powerset(carrier)
    full = len(every) - 1
    if kind == "random":
        values = [F(r % (q + 1), q) for r in raw[:full]] + [F(1)]
        return dict(zip(every, values))
    mass = [0] + raw[1:full + 1]
    total = sum(mass)
    if total <= 0:
        mass[full] += 1 - total
        total = 1
    bel = {x: F(sum(mass[b] for b in range(full + 1) if b & a == b), total)
           for a, x in enumerate(every)}
    if kind == "bel":
        return bel
    return {x: 1 - bel[carrier - x] for x in bel}


def _reports(table):
    """Every (checker, n_max) report pair, new and reference."""
    for new, old in ((check_belief_axioms_set,
                      ordered_check_belief_axioms_set),
                     (check_plausibility_axioms_set,
                      ordered_check_plausibility_axioms_set)):
        for n_max in (1, 2, 3):
            yield new(table, n_max), old(table, n_max)


@st.composite
def axiom_tables(draw):
    size = draw(st.sampled_from((0, 1, 2, 3, 4) * 3 + (5,)))
    kind = draw(st.sampled_from(("bel", "pl", "random")))
    q = draw(st.integers(1, 12))
    raw = draw(st.lists(st.integers(-1, 6), min_size=2 ** size,
                        max_size=2 ** size))
    return _table(kind, size, q, raw)


@given(axiom_tables())
def test_antichain_reports_equal_the_ordered_sweep(table):
    for new, old in _reports(table):
        assert new == old


def test_antichain_reports_equal_the_ordered_sweep_at_every_failing_n():
    rng = random.Random(2019)
    failing_notes = Counter()
    for i in range(600):
        size = 5 if i % 50 == 0 else rng.randint(0, 4)
        kind = ("bel", "pl", "random")[i % 3]
        q = rng.randint(1, 12)
        raw = [rng.randint(-1, 6) for _ in range(2 ** size)]
        for new, old in _reports(_table(kind, size, q, raw)):
            assert new == old
            if not new.passed:
                failing_notes[new.first_violation.note] += 1
    for kind in ("belief", "plausibility"):
        for n in (2, 3):
            assert failing_notes[f"{kind} inequality fails at n={n}"]


def test_carriers_past_the_bound_hold_masks_past_a_byte(monkeypatch):
    # Uniform probability on nine points, with bel({7, 8}) lowered to 1/9:
    # the witness pair has masks 128 and 256.
    monkeypatch.setenv(ENV_UNSAFE_SCALE, "1")
    carrier = frozenset(range(9))
    bel = {x: F(len(x), 9) for x in _powerset(carrier)}
    bel[frozenset({7, 8})] = F(1, 9)
    report = check_belief_axioms_set(bel, n_max=2)
    assert report == ordered_check_belief_axioms_set(bel, n_max=2)
    assert report.checked_tuples == 512 + 128 * 512 + 256 + 1
    assert report.first_violation.sets == (frozenset({7}), frozenset({8}))
    # The pl dual sweeps complemented masks, 385 and 510 at its witness.
    pl = {x: 1 - bel[carrier - x] for x in bel}
    report = check_plausibility_axioms_set(pl, n_max=2)
    assert report == ordered_check_plausibility_axioms_set(pl, n_max=2)
    assert report.checked_tuples == 512 + 1 * 512 + 126 + 1
    assert report.first_violation.sets == (frozenset({0}),
                                           frozenset(range(1, 7)))


# ---------------------------------------------------------------------------
# Brute-force belief and plausibility

@given(lattice_masses())
def test_brute_scans_agree_with_the_table_implementations(m):
    lat = m.lattice
    for c in range(len(lat)):
        assert brute_bel(m, c) == m.bel(c)
        assert brute_pl(m, c) == m.pl(c)


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
    with pytest.raises(PreconditionError, match="density"):
        random_context(1, 2, 2, 1.5)
    with pytest.raises(PreconditionError, match="nonnegative"):
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
    if not lat.extents[lat.bottom_index]:
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
    with pytest.raises(PreconditionError, match="nonempty"):
        random_partition_space(seed, set())


@pytest.mark.parametrize("carrier", [5, ["a", []]])
def test_generators_name_a_carrier_that_is_not_a_set(carrier):
    """Each raises what its constructor raises on that carrier."""
    message = f"carrier {carrier!r} is not an iterable of hashable elements"
    with pytest.raises(MassError) as info:
        random_set_mass(0, carrier)
    assert str(info.value) == message
    with pytest.raises(ParseError) as info:
        random_partition_space(0, carrier)
    assert str(info.value) == message


@pytest.mark.parametrize("bound", [0, -3])
def test_generators_refuse_a_denominator_bound_below_one(bound):
    lat = enumerate_concepts(random_context(1, 3, 3, 0.5))
    message = f"^denominator_bound must be at least 1, got {bound}$"
    for call in (lambda: random_mass(1, lat, bound),
                 lambda: random_set_mass(1, {"x", "y"}, bound),
                 lambda: random_partition_space(1, {1, 2, 3}, bound)):
        with pytest.raises(PreconditionError, match=message):
            call()


@given(st.integers(0, 500))
def test_axiom_checkers_accept_every_generated_mass(seed):
    m = random_set_mass(seed, {"x", "y"}, denominator_bound=12)
    assert check_belief_axioms_set(_bel_table(m)).passed
    assert check_plausibility_axioms_set(_pl_table(m)).passed
