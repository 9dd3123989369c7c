"""How many passes over a lattice's step list the benchmark's op sequences
make, counted on seeded contexts of the benchmark's shapes.

A pass is one forward or reverse read of the step list: an up-zeta, a
down-zeta (which carries two rows), or an inverse.  A mass keeps its
commonality once a bel/pl table computes it, the fold reads the kept ones
and builds its result holding the commonality its product already is, and
the lattice's Moebius row of its least concept is one pass on first use.
"""

from __future__ import annotations

from conceptds import (combine_many, enumerate_concepts,
                       mass_from_bel_lattice, random_context, random_mass)

from conftest import count_passes


def test_a_lattice_scale_op_makes_at_most_ten_passes():
    """Three tables, the fold of their masses, the result's table and its
    inversion on a 24 x 12 context: the Moebius row 1, each input table 2
    (the kept up-sweep and the two-row down-sweep), the fold 1 (the
    inverse), the result's table 1 and the inversion 1."""
    lat = enumerate_concepts(random_context(24, 24, 12, 0.5))
    assert not lat.extents[lat.bottom_index] and 150 <= len(lat) <= 250
    masses = [random_mass(seed, lat) for seed in range(3)]
    lat.covers()
    passes = count_passes(lat)
    for m in masses:
        m.belief_table()
    result = combine_many(masses).result
    table = result.belief_table()
    assert mass_from_bel_lattice(table.bel, lat) == result
    assert passes.passes <= 10


def test_a_deep_fold_op_makes_at_most_eleven_passes():
    """An eight-mass fold and its result's table on a 16 x 10 context: the
    Moebius row 1, one up-sweep per mass, the inverse 1 and the result's
    table 1, whose commonality the fold built."""
    lat = enumerate_concepts(random_context(16, 16, 10, 0.5))
    assert not lat.extents[lat.bottom_index] and 50 <= len(lat) <= 120
    masses = [random_mass(seed, lat, 1000) for seed in range(8)]
    passes = count_passes(lat)
    combine_many(masses).result.belief_table()
    assert passes.passes <= 11
