"""Brute-force validators and seeded random generators used as ground truth.

Everything here recomputes from first principles: the axiom checkers test
plain inclusion-exclusion on subset tables, evaluating each distinct
inequality once, on an antichain of subsets, and report what a sweep over
every ordered tuple would report.  One sweep serves both: the plausibility
inequality of f at (A_1..A_n) is the belief inequality of u(X) = -f(S - X)
at (S - A_1..S - A_n), since complements swap ∪ and ∩ and the sign reverses
the inequality.  The brute belief and plausibility scans work directly on
extents.  None of it shares code paths with the modules it validates beyond
the domain types themselves.
"""

from __future__ import annotations

import functools
import math
import random
from array import array
from collections import Counter
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple

from .context import FormalContext
from .errors import MassError, ParseError, PreconditionError, check_capacity
from .evidence import MassFunction, SetMassFunction
from .lattice import MAX_OBJECTS, ConceptLattice
from .powerset import read_subset, read_table, size_key, subsets
from .probspace import ProbabilitySpace
from .rationals import read_size

MAX_AXIOM_CARRIER = 5
MAX_AXIOM_N = 3


class AxiomViolation(NamedTuple):
    sets: tuple[frozenset, ...]
    lhs: Fraction
    rhs: Fraction
    note: str


class AxiomReport(NamedTuple):
    checked_tuples: int
    first_violation: AxiomViolation | None

    @property
    def passed(self) -> bool:
        return self.first_violation is None


def _require_tuple_length(n_max: int) -> None:
    """The checkers implement tuple lengths 1..MAX_AXIOM_N and no others.

    This is not a capacity bound: the escape hatch cannot lift it, because a
    longer tuple would be reported as checked without being checked.
    """
    if not 1 <= n_max <= MAX_AXIOM_N:
        raise PreconditionError(
            f"tuple length for axiom checking must be within 1..{MAX_AXIOM_N}, "
            f"got {n_max}")


def _scaled_table(f: Mapping[frozenset, Fraction]
                  ) -> tuple[list[frozenset], list[int], int]:
    """Common-denominator integer table indexed by bitmask over the carrier.

    Returns the subsets in mask order, the scaled value of each, and the
    common denominator.
    """
    table = read_table(f, "value", MassError)
    carrier = frozenset().union(*table)
    check_capacity("carrier for axiom checking", len(carrier), MAX_AXIOM_CARRIER)
    every = subsets(carrier)
    if len(table) != len(every):
        raise MassError(f"table has {len(table)} entries; expected all "
                        f"{len(every)} subsets of the carrier")
    values = [table[s] for s in every]
    denom = math.lcm(*(v.denominator for v in values))
    return every, [v.numerator * (denom // v.denominator) for v in values], denom


def _range_violation(every: list[frozenset], scaled: list[int], denom: int,
                     kind: str) -> AxiomViolation | None:
    full = len(scaled) - 1
    for mask, value in enumerate(scaled):
        if value < 0 or value > denom:
            return AxiomViolation((every[mask],),
                                  Fraction(value, denom), Fraction(1),
                                  f"{kind} value out of [0, 1]")
    if scaled[full] != denom:
        return AxiomViolation((every[full],),
                              Fraction(scaled[full], denom), Fraction(1),
                              f"{kind} must be 1 on the whole carrier")
    return None


@functools.cache
def _antichains(m: int, n: int, flip: bool) -> array:
    """Every antichain of n (2 or 3) masks below m, flattened n at a time.

    The masks of each are increasing, and the antichains come in
    lexicographic order.  Within MAX_AXIOM_CARRIER a mask fits in a byte;
    wider carriers, let through by CONCEPTDS_UNSAFE_SCALE, take 8 bytes.
    With `flip`, each mask is complemented, XOR-ed by m - 1, in place.
    """
    if flip:
        plain = _antichains(m, n, False)
        return array(plain.typecode, (x ^ (m - 1) for x in plain))

    def apart(x: int, y: int) -> bool:
        return x & y != x and x & y != y

    if n == 2:
        flat = (x for a in range(m) for b in range(a + 1, m) if apart(a, b)
                for x in (a, b))
    else:
        pairs = iter(_antichains(m, 2, False))
        flat = (x for a, b in zip(pairs, pairs) for c in range(b + 1, m)
                if apart(a, c) and apart(b, c) for x in (a, b, c))
    return array("B" if m <= 256 else "Q", flat)


def _inclusion_exclusion(f: Mapping[frozenset, Fraction], n_max: int,
                         dual: bool) -> AxiomReport:
    """The sweep of `check_belief_axioms_set` on f, or with `dual` on u over
    complemented antichains; only a failure is mapped back to f."""
    _require_tuple_length(n_max)
    kind = "plausibility" if dual else "belief"
    every, t, denom = _scaled_table(f)
    bad = _range_violation(every, t, denom, f"a {kind} function's")
    if bad is not None:
        return AxiomReport(0, bad)
    m = len(t)
    full, sign = (m - 1, -1) if dual else (0, 1)
    u = [sign * t[x ^ full] for x in range(m)]

    def failure(masks: tuple[int, ...], lhs: int, rhs: int,
                before: int) -> AxiomReport:
        masks = tuple(x ^ full for x in masks)
        rank = functools.reduce(lambda acc, x: acc * m + x, masks, 0)
        return AxiomReport(before + rank + 1, AxiomViolation(
            tuple(every[x] for x in masks),
            Fraction(sign * lhs, denom), Fraction(sign * rhs, denom),
            f"{kind} inequality fails at n={len(masks)}"))

    checked = m  # n=1: each inequality holds identically
    if n_max >= 2:
        pairs = iter(_antichains(m, 2, dual))
        for a, b in zip(pairs, pairs):
            rhs = u[a] + u[b] - u[a & b]
            if u[a | b] < rhs:
                return failure((a, b), u[a | b], rhs, checked)
        checked += m * m
    if n_max >= 3:
        triples = iter(_antichains(m, 3, dual))
        for a, b, c in zip(triples, triples, triples):
            rhs = (u[a] + u[b] + u[c] - u[a & b] - u[a & c] - u[b & c]
                   + u[a & b & c])
            if u[a | b | c] < rhs:
                return failure((a, b, c), u[a | b | c], rhs, checked)
        checked += m * m * m
    return AxiomReport(checked, None)


def check_belief_axioms_set(f: Mapping[frozenset, Fraction],
                            n_max: int = 3) -> AxiomReport:
    """Test the superadditive inclusion-exclusion inequalities.

    For every tuple (A_1..A_n), 1 <= n <= n_max <= 3, the table must satisfy
    f(A_1 ∪ ... ∪ A_n) >= sum over nonempty I of (-1)^(|I|+1) f(∩_{i in I} A_i),
    along with f(S) = 1 and values within [0, 1].

    Only antichains, strictly increasing tuples of pairwise incomparable
    sets, are evaluated, and the report is the one the sweep over every
    ordered tuple would give:

    - Symmetry: the inequality does not change when the tuple is permuted.
    - Repeats and containment: if some A_i ⊆ A_j with i != j (a repeat is
      the case A_i = A_j), the inequality is trivial at n = 2 and is exactly
      the n = 2 inequality of the other two sets at n = 3: with x ⊆ y, the
      triple {x, y, z} reduces to the pair (y, z).  Once every pair has
      passed, no such triple can fail.
    - Same witness and count: so the lexicographically first failing
      ordered tuple is a sorted antichain (a, b) or (a, b, c) of subset
      masks, and the ordered sweep would have checked m + a·m + b + 1 or
      m + m² + a·m² + b·m + c + 1 tuples up to it, m = 2^|S|.  A passing
      report counts all m + m² + m³ ordered tuples up to n_max.
    """
    return _inclusion_exclusion(f, n_max, dual=False)


def check_plausibility_axioms_set(f: Mapping[frozenset, Fraction],
                                  n_max: int = 3) -> AxiomReport:
    """Test the dual (subadditive) inclusion-exclusion bounds.

    For every tuple (A_1..A_n), 1 <= n <= n_max <= 3, the table must satisfy
    f(A_1 ∩ ... ∩ A_n) <= sum over nonempty I of (-1)^(|I|+1) f(∪_{i in I} A_i),
    along with f(S) = 1 and values within [0, 1].

    This is the belief inequality of u(X) = -f(S - X) at (S - A_1..S - A_n):
    complements swap ∪ and ∩, negation reverses the inequality, and
    complements of an antichain form an antichain.  So the sweep of
    `check_belief_axioms_set` runs on u, and its report, mapped back, is
    the one the ordered sweep over f gives.
    """
    return _inclusion_exclusion(f, n_max, dual=True)


# ---------------------------------------------------------------------------
# Brute-force belief and plausibility (differential targets)

def brute_bel(m: MassFunction, c: int) -> Fraction:
    """Belief by direct extent-inclusion scan; no order tables involved."""
    lat = m.lattice
    extent = lat[c].extent
    total = Fraction(0)
    for concept, value in zip(lat, m.values):
        if concept.extent <= extent:
            total += value
    return total


def brute_pl(m: MassFunction, c: int) -> Fraction:
    """Plausibility by direct extent-intersection scan.

    The meet of two concepts has the intersection of their extents as its
    extent, so compatibility is exactly a nonempty extent intersection.
    """
    lat = m.lattice
    extent = lat[c].extent
    total = Fraction(0)
    for concept, value in zip(lat, m.values):
        if concept.extent & extent:
            total += value
    return total


# ---------------------------------------------------------------------------
# Seeded random generators

def random_context(seed: int, n_objects: int, n_attributes: int,
                   density: float | Fraction) -> FormalContext:
    """A context whose incidence pairs appear independently with `density`."""
    if not 0 <= density <= 1:
        raise PreconditionError(f"density must be within [0, 1], got {density}")
    n_objects = read_size(n_objects, "n_objects", PreconditionError)
    n_attributes = read_size(n_attributes, "n_attributes", PreconditionError)
    if n_objects < 0 or n_attributes < 0:
        raise PreconditionError("counts must be nonnegative")
    check_capacity("objects in random context", n_objects, MAX_OBJECTS)
    rng = random.Random(seed)
    incidence = frozenset((g, a)
                          for g in range(n_objects)
                          for a in range(n_attributes)
                          if rng.random() < density)
    return FormalContext(tuple(f"o{g}" for g in range(n_objects)),
                         tuple(f"a{a}" for a in range(n_attributes)),
                         incidence)


def _denominator(rng: random.Random, bound: int) -> int:
    """A common denominator for a random mass, drawn from 1..bound."""
    return rng.randint(1, read_size(bound, "denominator_bound",
                                    PreconditionError, least=1))


def random_mass(seed: int, lat: ConceptLattice,
                denominator_bound: int = 64) -> MassFunction:
    """A mass function with every value's denominator within the bound.

    One denominator q is drawn, q units are scattered over the concepts that
    may carry mass, and counts become values; this keeps exact arithmetic
    tame through combination folds.
    """
    eligible = [i for i in range(len(lat))
                if i != lat.bottom_index or lat.extents[i]]
    if not eligible:
        raise MassError("no concept of this lattice may carry mass")
    rng = random.Random(seed)
    q = _denominator(rng, denominator_bound)
    counts = Counter(rng.choices(eligible, k=q))
    return MassFunction.from_mapping(
        lat, {i: Fraction(k, q) for i, k in counts.items()})


def random_set_mass(seed: int, carrier: Iterable,
                    denominator_bound: int = 64) -> SetMassFunction:
    """A powerset mass function, supported on nonempty subsets."""
    carrier = read_subset(carrier, "carrier", MassError)
    candidates = sorted((s for s in subsets(carrier) if s), key=size_key)
    if not candidates:
        raise MassError("an empty carrier has no subsets that may carry mass")
    rng = random.Random(seed)
    q = _denominator(rng, denominator_bound)
    counts = Counter(rng.choices(range(len(candidates)), k=q))
    return SetMassFunction(carrier, {candidates[i]: Fraction(k, q)
                                     for i, k in counts.items()})


def random_partition_space(seed: int, carrier: Iterable,
                           denominator_bound: int = 64) -> ProbabilitySpace:
    """A random partition of the carrier with exact block probabilities."""
    carrier = read_subset(carrier, "carrier", ParseError)
    if not carrier:
        raise PreconditionError("the carrier of a probability space must be nonempty")
    elements = sorted(carrier, key=repr)
    rng = random.Random(seed)
    n_groups = rng.randint(1, len(elements))
    groups: dict[int, set] = {}
    for e in elements:
        groups.setdefault(rng.randrange(n_groups), set()).add(e)
    blocks = sorted((frozenset(b) for b in groups.values()),
                    key=lambda b: sorted(map(repr, b)))
    q = _denominator(rng, denominator_bound)
    counts = Counter(rng.choices(range(len(blocks)), k=q))
    mu = tuple(Fraction(counts.get(i, 0), q) for i in range(len(blocks)))
    return ProbabilitySpace(carrier, tuple(blocks), mu)
