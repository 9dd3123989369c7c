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
extent is empty; otherwise K_k = 0.  Step k of a fold discards
(K_k - K_(k-1)) / (1 - K_(k-1)) of the weight that the first k - 1 masses
left, and K_k = 1 is total conflict at step k.  One inverse transform at the
end recovers the masses and, at the least concept, the conflict, which is
dropped; one division by 1 - K normalises the rest.  Those numerators are
nonnegative and sum to their denominator by construction, so the result is
built from them, reduced by their gcd, without a second check.

All three are transforms along the closure operator (`lattice.zeta`,
`lattice.mobius`, and the lattice's kept Moebius row of its least concept),
over the steps the lattice builds once and keeps (`ConceptLattice.steps`):
at most concepts x min(objects, attributes) lookups on the first use,
shared with covers, bel/pl tables and belief inversion, then per mass one
pass over the steps, none for a mass that keeps its commonality from an
earlier bel/pl table, and one inverse pass.  The result keeps the
commonality the product already is, so its own table needs no up-sweep.
A mass's commonality is computed for the fold but not kept, so that a
fold of many masses holds one such list at a time.  Between steps
everything is an integer: numerators of the commonalities over the product
of the masses' denominators.  The cost does not grow with the number of
focal elements, so dense masses fold fast; a sparse mass on a large lattice
pays for the full step list all the same.

On a powerset, `combine_set` is the same fold, run on the powerset lattice
that every `SetMassFunction` is held on.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import PreconditionError, TotalConflictError
from .evidence import MassFunction, SetMassFunction
from .lattice import mobius, zeta
from .rationals import fractions_over, lowest_numerators


class CombinationReport(NamedTuple):
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
        raise PreconditionError("mass functions live on different lattices")


def combine(m1: MassFunction, m2: MassFunction) -> CombinationReport:
    """Combine two mass functions on the same lattice: a fold of two."""
    return combine_many([m1, m2])


def combine_many(masses: Sequence[MassFunction]) -> CombinationReport:
    """Left fold of the conjunctive rule, keeping the conflict of every step.

    `product` holds, at every concept in canonical order, the numerator over
    `total` of the unnormalised commonality of the masses folded so far,
    from all ones; `conflict` is the numerator of their unnormalised
    conflict.  Every mass runs the same step body, on the commonality the
    mass keeps, or else on one computed for the step and then dropped.
    The result is built holding its own commonality, the final product
    less the conflict at the least concept, over its denominator.
    """
    if not masses:
        raise PreconditionError("need at least one mass function")
    first = masses[0]
    for m in masses[1:]:
        _require_same_lattice(first, m)
    if len(masses) == 1:
        return CombinationReport(first, ())
    lat = first.lattice
    steps, mobius_bottom = lat.steps, lat.mobius_bottom
    n, bottom = len(lat), lat.bottom_index
    product = [1] * n
    total, conflict = 1, 0
    conflicts: list[Fraction] = []
    for step, m in enumerate(masses, start=1):
        d, q = m.numerators[0], m._commonality
        if q is None:
            q = list(m.numerators[1])
            zeta(q, steps)
        product = [p * x for p, x in zip(product, q)]
        total *= d
        before = conflict * d
        conflict = sum([mu * product[i] for i, mu in mobius_bottom])
        if conflict == total:
            raise TotalConflictError(
                f"total conflict while folding in mass {step} of {len(masses)}",
                step=step)
        conflicts.append(Fraction(conflict - before, total - before))

    # The result's commonality: dropping the conflict from the least
    # concept, which lies above no other, changes the product only there.
    q = product[:]
    q[bottom] -= conflict
    mobius(product, steps)
    product[bottom] -= conflict  # the unnormalised mass of the least concept
    # Nonnegative numerators that sum to total - conflict: no second check.
    d, product = lowest_numerators(product, total - conflict)
    g = (total - conflict) // d
    if g != 1:
        q = [x // g for x in q]
    result = MassFunction._from_numerators(
        lat, tuple(fractions_over(product, d)), d, product, q)
    # The first mass discards nothing.
    return CombinationReport(result, tuple(conflicts[1:]))


def combine_set(m1: SetMassFunction, m2: SetMassFunction) -> CombinationReport:
    """Combine two powerset mass functions over the same carrier."""
    if m1.carrier != m2.carrier:
        raise PreconditionError("mass functions live on different carriers")
    report = combine(m1.mass, m2.mass)
    return CombinationReport(SetMassFunction._wrap(m1.carrier, report.result),
                             report.conflicts)
