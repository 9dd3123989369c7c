"""Evidence combination: the conjunctive rule with conflict reweighting.

Two mass functions combine by meeting their focal elements pairwise.  Pairs
whose meet has an empty extent are conflict; their weight is discarded and the
rest is rescaled.  When every pair conflicts the combination is undefined and
`TotalConflictError` is raised.

On a lattice the rule runs in commonality space.  The commonality of a mass m
at a concept c is q(c) = sum of m(d) over the concepts d >= c.  In any lattice
a meet a ^ b lies at or above c exactly when both a and b do, so the
unnormalised combination has commonality q12 = q1 * q2, pointwise, and a fold
of k masses has the product Q_k of their commonalities.  Its unnormalised
mass at the least concept, the conflict, is the Moebius inversion
K_k = sum of mu(bottom, c) * Q_k(c) over the concepts c, when the least
extent is empty; otherwise nothing conflicts.  Step k of a fold discards
(K_k - K_(k-1)) / (1 - K_(k-1)) of the weight that the first k - 1 masses
left, and K_k = 1 is total conflict at step k.  One peel down the order at
the end recovers the masses, and one division by 1 - K normalises them.
The row mu(bottom, .) and that peel are both `lattice.mobius_inversion`, the
second run on complemented extents.

Between steps everything is an integer: numerators of the commonalities over
the product of the masses' denominators.  Products vanish outside a down-set
of concepts, the live set, which only shrinks.  A concept's commonality sums
only the focal concepts above it, found once for all masses among the focal
concepts at or before it in canonical order, so a mass costs at most
O(live concepts x focal elements).

On a powerset, `combine_set` is the same fold, run on the powerset lattice
that every `SetMassFunction` is held on.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import TotalConflictError
from .evidence import MassFunction, SetMassFunction
from .lattice import ConceptLattice, mobius_inversion


@dataclass(frozen=True)
class CombinationReport:
    """A combined mass function plus the conflict it discarded.

    `conflicts` holds, for each combination step, the total weight of the
    conflicting pairs before rescaling: one entry for a single combination,
    one per folded mass for a fold.  `conflict` is that of the final step.
    """

    result: MassFunction | SetMassFunction
    conflicts: tuple[Fraction, ...]

    @property
    def conflict(self) -> Fraction:
        return self.conflicts[-1] if self.conflicts else Fraction(0)


def _require_same_lattice(m1: MassFunction, m2: MassFunction) -> None:
    """Enumeration is deterministic, so equal contexts give equal lattices."""
    if m1.lattice is not m2.lattice \
            and m1.lattice.context != m2.lattice.context:
        raise ValueError("mass functions live on different lattices")


def _focal_above(lat: ConceptLattice,
                 masses: Sequence[MassFunction]) -> list[list[int]]:
    """For every concept, the concepts at or above it that are focal in some
    mass.  Only concepts at or before it in canonical order can lie above."""
    focal = {f for m in masses for f, _ in m.focal[1]}
    before: list[tuple[int, int]] = []
    out = []
    for i, e in enumerate(lat.extents):
        if e in focal:
            before.append((i, e))
        out.append([j for j, f in before if f & e == e])
    return out


def combine(m1: MassFunction, m2: MassFunction) -> CombinationReport:
    """Combine two mass functions on the same lattice: a fold of two."""
    return combine_many([m1, m2])


def combine_many(masses: Sequence[MassFunction]) -> CombinationReport:
    """Left fold of the conjunctive rule, keeping the conflict of every step.

    `product` maps each live concept, in canonical order, to the numerator
    over `total` of the unnormalised commonality of the masses folded so
    far; `conflict` is the numerator of their unnormalised conflict.
    """
    if not masses:
        raise ValueError("need at least one mass function")
    first = masses[0]
    for m in masses[1:]:
        _require_same_lattice(first, m)
    if len(masses) == 1:
        return CombinationReport(first, ())
    lat = first.lattice
    extents, bottom = lat.extents, lat.bottom_index
    index = lat.index_by_extent
    conflicting = not lat.extent_nonempty[bottom]
    above = _focal_above(lat, masses)
    product = {i: 1 for i, js in enumerate(above) if js}
    total, conflict = 1, 0
    mobius: dict[int, int] = {}
    conflicts: list[Fraction] = []
    for step, m in enumerate(masses, start=1):
        d = m.focal[0]
        num = [0] * len(lat)
        for e, x in m.focal[1]:
            num[index[e]] = x
        product = {i: p * x for i, p in product.items()
                   if (x := sum([num[j] for j in above[i]]))}
        total *= d
        if step == 1:
            continue
        if not conflicting:
            conflicts.append(Fraction(0))
            continue
        if step == 2:
            # mu(bottom, .) inverts bottom's indicator over the live down-set.
            mobius = {i: mu for i, mu in mobius_inversion(
                (i, extents[i], int(i == bottom)) for i in reversed(product))
                if mu}
        before = conflict * d
        conflict = sum(mu * product.get(i, 0) for i, mu in mobius.items())
        if conflict == total:
            raise TotalConflictError(
                f"total conflict while folding in mass {step} of {len(masses)}",
                step=step)
        conflicts.append(Fraction(conflict - before, total - before))

    # Peel top-down, on complemented extents: a concept's mass is its
    # commonality less the masses strictly above it; outside the live set, 0.
    normalizer = total - conflict
    values = [Fraction(0)] * len(lat)
    for i, w in mobius_inversion((i, ~extents[i], x)
                                 for i, x in product.items()):
        if w:
            values[i] = Fraction(w, normalizer)
    if conflicting:
        values[bottom] = Fraction(0)
    return CombinationReport(MassFunction(lat, tuple(values)), tuple(conflicts))


def combine_set(m1: SetMassFunction, m2: SetMassFunction) -> CombinationReport:
    """Combine two powerset mass functions over the same carrier."""
    if m1.carrier != m2.carrier:
        raise ValueError("mass functions live on different carriers")
    report = combine(m1.mass, m2.mass)
    return CombinationReport(SetMassFunction._wrap(m1.carrier, report.result),
                             report.conflicts)
