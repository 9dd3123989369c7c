"""Acceptance suite: one test per criterion, one printed verdict line each.

Every number asserted exactly here was recomputed by hand or by the
brute-force oracle module before being frozen into the test; printed-table
comparisons go through the same rounding the tables themselves use.
"""

from __future__ import annotations

import contextlib
import random
import time
from fractions import Fraction

from conceptds import (MassFunction, TotalConflictError, brute_bel, brute_pl,
                       build_case, check_belief_axioms_set,
                       check_plausibility_axioms_set, combine, combine_many,
                       enumerate_concepts, mass_from_bel_lattice,
                       mass_from_bel_set, normalize_no_universal_object,
                       parse_rational, random_context, random_mass,
                       random_partition_space, random_set_mass,
                       represent_concepts, represent_set, round_half_away)

from conftest import seeded_lattice_mass

F = Fraction


@contextlib.contextmanager
def criterion(capsys, number: int, summary: str, budget: float | None = None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"criterion {number:2d}: FAIL  {summary}")
        raise
    elapsed = time.monotonic() - start
    ok = budget is None or elapsed < budget
    with capsys.disabled():
        print(f"criterion {number:2d}: {'PASS' if ok else 'FAIL'}  "
              f"{summary} ({elapsed:.2f}s)")
    assert ok, f"runtime {elapsed:.2f}s is over the {budget}s budget"


def _powerset(carrier):
    out = [frozenset()]
    for e in sorted(carrier, key=repr):
        out += [s | {e} for s in out]
    return out


def _note_keys(report):
    return [(n.table, n.row, n.column) for n in report.notes]


def test_criterion_01(capsys):
    with criterion(capsys, 1, "movies-1 combined mass, rounded and annotated",
                   budget=1.0):
        report = build_case("movies-1")
        mass = report.combined_rows["mass"]
        at = {name: mass[report.labels.index(name)] for name in report.labels}
        assert at["c1"] == F(9, 19)
        assert at["c3"] == F(9, 19)
        assert at["⊤"] == F(1, 19)
        printed = report.document.expected["combined"]["mass"]
        assert printed["c1"] == "0.47"
        assert printed["c3"] == "0.47"
        assert printed["⊤"] == "0.06"
        for name in ("c1", "c3", "⊤"):
            rounded = round_half_away(at[name], 2)
            assert abs(rounded - parse_rational(printed[name])) <= F(1, 100)
        assert _note_keys(report) == [("combined", "mass", "⊤")]


def test_criterion_02(capsys):
    with criterion(capsys, 2, "movies-2 compromise takes all mass"):
        report = build_case("movies-2")
        mass = report.combined_rows["mass"]
        assert mass[report.labels.index("c2")] == 1
        assert report.conflicts == (F(99, 100),)


def test_criterion_03(capsys):
    with criterion(capsys, 3, "movies-3 inhabited bottom absorbs conflict"):
        report = build_case("movies-3")
        mass = report.combined_rows["mass"]
        at = {name: mass[report.labels.index(name)] for name in report.labels}
        assert at["⊥"] == F(81, 100)
        assert at["c1"] == F(9, 100)
        assert at["c3"] == F(9, 100)
        assert at["⊤"] == F(1, 100)
        assert report.conflicts == (F(0),)
        lat = report.lattice
        objects = report.document.context.objects
        bottom_extent = {objects[g] for g in lat[lat.bottom_index].extent}
        assert bottom_extent == {"c"}


def test_criterion_04(capsys):
    with criterion(capsys, 4, "music tables match the printed grids",
                   budget=1.0):
        report = build_case("music")
        mass = report.combined_rows["mass"]
        at = {name: mass[report.labels.index(name)] for name in report.labels}
        assert at["E-Pop"] == F(5, 69)
        assert at["Pop-R&B"] == F(20, 69)
        assert at["Funk"] == F(24, 69)
        assert at["Pop"] == F(12, 69)
        assert at["⊤"] == F(8, 69)
        assert at["R&B"] == 0 and at["⊥"] == 0

        notes = _note_keys(report)
        assert notes == [("pl", "m2", "Pop")]
        checked = 0
        for table_name, computed_rows in (("mass", report.mass_rows),
                                          ("bel", report.bel_rows),
                                          ("pl", report.pl_rows),
                                          ("combined", report.combined_rows)):
            block = report.document.expected[table_name]
            for row_name, cells in block.items():
                if row_name == "order":
                    continue
                for column, printed in cells.items():
                    if (table_name, row_name, column) in notes:
                        continue
                    computed = computed_rows[row_name][
                        report.labels.index(column)]
                    rounded = round_half_away(computed, 2)
                    assert abs(rounded - parse_rational(printed)) <= F(1, 200)
                    checked += 1
        assert checked == 4 * 21 - 1


def test_criterion_05(capsys):
    with criterion(capsys, 5, "lattice representation exact on the music "
                              "masses and 50 seeded pairs", budget=30.0):
        report = build_case("music")
        masses = [report.masses[name] for name in report.combined_order]
        masses.append(combine_many(masses).result)
        for m in masses:
            result = represent_concepts(m)
            assert result.all_passed
            for row in result.rows:
                assert row.bel == row.inner and row.pl == row.outer
        rng = random.Random(501)
        for _ in range(50):
            m = seeded_lattice_mass(rng, max_concepts=10, normalize=True)
            assert represent_concepts(m).all_passed


def test_criterion_06(capsys):
    with criterion(capsys, 6, "powerset representation exact on 100 seeded "
                              "masses", budget=30.0):
        for k in range(100):
            size = k % 3 + 1
            carrier = frozenset(f"e{i}" for i in range(size))
            m = random_set_mass(600 + k, carrier, denominator_bound=8)
            rep = represent_set(m)
            assert rep.all_passed
            for row in rep.rows:
                assert row.bel == row.inner and row.pl == row.outer


def test_criterion_07(capsys):
    with criterion(capsys, 7, "inner/outer measures of 100 seeded partition "
                              "spaces pass the axioms and duality",
                   budget=60.0):
        for k in range(100):
            size = k % 5 + 1
            carrier = frozenset(f"e{i}" for i in range(size))
            space = random_partition_space(700 + k, carrier)
            subsets = _powerset(carrier)
            inner = {x: space.inner_measure(x) for x in subsets}
            outer = {x: space.outer_measure(x) for x in subsets}
            assert check_belief_axioms_set(inner, n_max=3).passed
            assert check_plausibility_axioms_set(outer, n_max=3).passed
            for x in subsets:
                assert outer[x] == 1 - inner[carrier - x]


def _combined_or_none(*masses):
    try:
        return combine_many(list(masses)).result.values
    except TotalConflictError:
        return None


def test_criterion_08(capsys):
    with criterion(capsys, 8, "combination is commutative, associative, "
                              "unital, and avoids empty extents"):
        rng = random.Random(801)
        for _ in range(100):
            m1 = seeded_lattice_mass(rng, max_concepts=10)
            lat = m1.lattice
            m2 = random_mass(rng.randrange(2 ** 32), lat)
            try:
                left = combine(m1, m2)
            except TotalConflictError:
                left = None
            try:
                right = combine(m2, m1)
            except TotalConflictError:
                right = None
            if left is None or right is None:
                assert left is None and right is None
            else:
                assert left.result.values == right.result.values
                assert left.conflict == right.conflict
                for i in left.result.support():
                    assert lat.extents[i]
            vac = MassFunction.vacuous(lat)
            assert combine(m1, vac).result.values == m1.values
            assert combine(vac, m1).result.values == m1.values

        rng = random.Random(802)
        for _ in range(100):
            m1 = seeded_lattice_mass(rng, max_concepts=10)
            lat = m1.lattice
            m2 = random_mass(rng.randrange(2 ** 32), lat)
            m3 = random_mass(rng.randrange(2 ** 32), lat)
            left = _combined_or_none(m1, m2, m3)
            right = None
            try:
                right = combine(m1, combine(m2, m3).result).result.values
            except TotalConflictError:
                right = None
            assert left == right
            if left is not None:
                support = [i for i, v in enumerate(left) if v]
                assert all(lat.extents[i] for i in support)


def test_criterion_09(capsys):
    with criterion(capsys, 9, "mass to bel and back is the identity, "
                              "100 set and 100 lattice instances"):
        for k in range(100):
            size = k % 6 + 1
            carrier = frozenset(f"e{i}" for i in range(size))
            m = random_set_mass(900 + k, carrier)
            table = {x: m.bel(x) for x in _powerset(carrier)}
            assert mass_from_bel_set(table).values == m.values
        rng = random.Random(902)
        for _ in range(100):
            m = seeded_lattice_mass(rng, max_concepts=12)
            bel_values = [m.bel(i) for i in range(len(m.lattice))]
            assert mass_from_bel_lattice(bel_values, m.lattice).values \
                == m.values


def test_criterion_10(capsys):
    with criterion(capsys, 10, "bel/pl agree with the brute-force oracle on "
                               "500 seeded triples"):
        rng = random.Random(1001)
        for _ in range(500):
            m = seeded_lattice_mass(rng, max_concepts=10)
            c = rng.randrange(len(m.lattice))
            assert m.bel(c) == brute_bel(m, c)
            assert m.pl(c) == brute_pl(m, c)


def test_criterion_11(capsys):
    """The converse of the representation theorem, on concept lattices.

    "Toward a Dempster-Shafer theory of concepts" represents every
    conceptual belief function as the inner measure of a suitable
    probability function (its representation result for conceptual belief
    functions, which criteria 5 and 6 check).  Conversely, take a
    partition space (Omega, blocks, P) and any map f from Omega to the
    objects of a context, and pull each concept c back to h(c) =
    f^-1(extent c); h preserves meets, since preimages preserve
    intersections.  The inner measure of h(c) sums P(B) over the blocks B
    with f(B) inside extent c.  Extents are closed, so f(B) lies inside
    extent c exactly when the closure of f(B) does: that inner measure is
    bel at c of the pushed-forward mass, which puts P(B) on the concept
    whose extent is the closure of f(B).  So the table is a belief function
    on the lattice, and Moebius inversion returns exactly that mass.  A
    nonempty block has a nonempty image, so an empty least extent carries
    none of it.  Nothing here builds a `MassFunction` before the inversion.
    """
    with criterion(capsys, 11, "inner measures pulled back to concepts "
                               "invert to the pushed-forward mass on 400 "
                               "seeded triples", budget=30.0):
        rng = random.Random(1101)
        for k in range(400):
            ctx = random_context(rng.randrange(2 ** 32), rng.randint(1, 5),
                                 rng.randint(1, 5), rng.uniform(0.2, 0.8))
            if k % 2:
                ctx = normalize_no_universal_object(ctx)
            lat = enumerate_concepts(ctx)
            points = range(rng.randint(1, 8))
            space = random_partition_space(rng.randrange(2 ** 32), points,
                                           denominator_bound=16)
            f = [rng.randrange(len(ctx.objects)) for _ in points]
            inner = [space.inner_measure(frozenset(
                         w for w in points if e >> f[w] & 1))
                     for e in lat.extents]
            pushed = [F(0)] * len(lat)
            for block, p in zip(space.blocks, space.mu):
                # f repeats objects, so the image is an OR of bits, not a sum.
                image = 0
                for w in block:
                    image |= 1 << f[w]
                pushed[lat.index_by_extent[ctx.closure(image)]] += p
            assert mass_from_bel_lattice(inner, lat).values == tuple(pushed)
