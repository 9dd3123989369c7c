"""Evidence combination: the conjunctive rule with conflict reweighting.

Two mass functions combine by meeting their focal elements pairwise.  Pairs
whose meet has an empty extent are conflict; their weight is discarded and the
rest is rescaled.  When every pair conflicts the combination is undefined and
`TotalConflictError` is raised.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import TotalConflictError
from .evidence import MassFunction, SetMassFunction


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
    if m1.lattice is m2.lattice:
        return
    if m1.lattice.context == m2.lattice.context \
            and m1.lattice.concepts == m2.lattice.concepts:
        return
    raise ValueError("mass functions live on different lattices")


def combine(m1: MassFunction, m2: MassFunction) -> CombinationReport:
    """Combine two mass functions on the same lattice.

    Focal pairs meet by intersecting extent masks.  The products of their
    numerators accumulate as integers over d1*d2, so the only divisions are
    the final ones by the normaliser.
    """
    _require_same_lattice(m1, m2)
    lat = m1.lattice
    d1, focal1 = m1.focal
    d2, focal2 = m2.focal
    acc: dict[int, int] = {}
    conflict = 0
    for a, x in focal1:
        for b, y in focal2:
            c = a & b
            if c:
                acc[c] = acc.get(c, 0) + x * y
            else:
                conflict += x * y
    total = d1 * d2
    # (w / total) / (1 - conflict / total) == w / (total - conflict)
    normalizer = total - conflict
    if normalizer == 0:
        raise TotalConflictError()
    values = [Fraction(0)] * len(lat)
    index = lat.index_by_extent
    for c, w in acc.items():
        values[index[c]] = Fraction(w, normalizer)
    return CombinationReport(MassFunction(lat, tuple(values)),
                             (Fraction(conflict, total),))


def combine_many(masses: Sequence[MassFunction]) -> CombinationReport:
    """Left fold of `combine`, keeping the conflict of every step."""
    if not masses:
        raise ValueError("need at least one mass function")
    result, conflicts = masses[0], []
    for step, m in enumerate(masses[1:], start=2):
        try:
            report = combine(result, m)
        except TotalConflictError as exc:
            raise TotalConflictError(
                f"total conflict while folding in mass {step} of {len(masses)}",
                step=step) from exc
        result = report.result
        conflicts.append(report.conflict)
    return CombinationReport(result, tuple(conflicts))


def combine_set(m1: SetMassFunction, m2: SetMassFunction) -> CombinationReport:
    """Combine two powerset mass functions over the same carrier."""
    if m1.carrier != m2.carrier:
        raise ValueError("mass functions live on different carriers")
    acc: dict[frozenset, Fraction] = {}
    conflict = Fraction(0)
    for x, v1 in m1.values.items():
        for y, v2 in m2.values.items():
            weight = v1 * v2
            z = x & y
            if z:
                acc[z] = acc.get(z, Fraction(0)) + weight
            else:
                conflict += weight
    normalizer = 1 - conflict
    if normalizer == 0:
        raise TotalConflictError()
    return CombinationReport(
        SetMassFunction(m1.carrier, {k: v / normalizer for k, v in acc.items()}),
        (conflict,))
