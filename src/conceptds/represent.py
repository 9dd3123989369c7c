"""Constructive representation of belief and plausibility as measures.

Belief and plausibility are not additive, but each is the inner (resp. outer)
measure of an honest probability measure on a larger structure.  Three
constructions are provided:

* `represent_set`: for powerset masses, a partition space over pairs (focal
  set, element) with an embedding of the original powerset.
* `represent_concepts`: for lattice masses, a product of principal down-sets
  with one designated atom per concept.  The ambient algebra is exponential
  and is never materialized.  Coordinate d of the embedded concept h(c) is
  the meet of c and d, the concept whose extent is the intersection of
  theirs; inner and outer measures are read from that extent semantics over
  the focal concepts only, and checked against the bel/pl that the
  lattice's zeta transforms give, the tables the evidence module prints.
* `represent_concepts_frame`: the same content built concretely as a derived
  formal context, exercised at small scale as a cross-check; its rows
  check the same transforms (`MassFunction.belief_table`) against the
  inner and outer measures of the derived space.

Both conceptual constructions require the least concept to have an empty
extent; `normalize_with_mass` transports a mass function to the normalized
context first.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Mapping, NamedTuple

from .context import FormalContext, members
from .errors import PreconditionError, check_capacity
from .evidence import MassFunction, SetMassFunction
from .frozen import Frozen
from .lattice import ConceptLattice, is_context_lattice
from .powerset import size_key, subsets
from .probspace import ProbabilitySpace
from .rationals import fractions_over

# Cells of a construction's cross table, checked before it is built: pairs
# x subsets for the powerset construction, derived objects x derived
# attributes for the frame.  A frame at this bound took 55-88 ms and a
# 7-element powerset construction (57344 cells) 41 ms (2-vCPU host, Python
# 3.11), about 1 microsecond a cell.
MAX_REPRESENTATION_CELLS = 65536


# ---------------------------------------------------------------------------
# Verification records

class VerificationRow(NamedTuple):
    """Belief/plausibility against inner/outer measure at one concept."""

    concept_index: int
    bel: Fraction
    inner: Fraction
    pl: Fraction
    outer: Fraction

    @property
    def passed(self) -> bool:
        return self.bel == self.inner and self.pl == self.outer


class SetVerificationRow(NamedTuple):
    subset: frozenset
    bel: Fraction
    inner: Fraction
    pl: Fraction
    outer: Fraction

    passed = VerificationRow.passed


# ---------------------------------------------------------------------------
# Powerset construction

class SetRepresentation(NamedTuple):
    """A partition space whose inner measure is the given belief function.

    The carrier holds pairs (focal candidate Y, element of Y); the block for
    Y collects all pairs with first component Y and weighs m(Y).  A subset X
    of the original carrier embeds as every pair whose element lies in X.
    That embedding is a Boolean embedding by construction, and the block for
    Y lies inside the image of X exactly when Y is a subset of X, so only the
    rows can fail: `all_passed` means every row passed.
    """

    mass: SetMassFunction
    space: ProbabilitySpace
    embedding: Mapping[frozenset, frozenset]
    rows: tuple[SetVerificationRow, ...]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.rows)


def represent_set(m: SetMassFunction) -> SetRepresentation:
    """Build the partition space representing a powerset mass function.

    Each row compares `m.bel`/`m.pl`, read from the mass's lattice, with the
    inner/outer measure of the embedded subset, read from the blocks of the
    space: two independent paths, so a row fails when they disagree.
    """
    # Each pair (Y, u), n * 2^(n-1) of them, is tested against each subset.
    n = len(m.carrier)
    check_capacity("cells of the powerset representation",
                   (n << 2 * n) >> 1, MAX_REPRESENTATION_CELLS)
    every = sorted(subsets(m.carrier), key=size_key)
    nonempty = [s for s in every if s]

    blocks = tuple(frozenset((y, u) for u in y) for y in nonempty)
    carrier = frozenset().union(*blocks)
    space = ProbabilitySpace(carrier, blocks, tuple(m[y] for y in nonempty))

    embedding = {x: frozenset(p for p in carrier if p[1] in x) for x in every}

    rows = tuple(SetVerificationRow(subset=x,
                                    bel=m.bel(x),
                                    inner=space.inner_measure(embedding[x]),
                                    pl=m.pl(x),
                                    outer=space.outer_measure(embedding[x]))
                 for x in every)
    return SetRepresentation(m, space, embedding, rows)


# ---------------------------------------------------------------------------
# Normalization transport

def normalize_with_mass(m: MassFunction) -> tuple[MassFunction, dict[int, int]]:
    """Move a mass function onto the normalized context.

    Adding an attribute held by no object keeps every concept extent and adds
    a new empty-extent least concept.  Mass rides along by extent, the new
    least concept gets zero, and belief/plausibility at surviving concepts are
    unchanged.  Returns the transported mass and the old-to-new index map.

    That map is the identity, so no extent is looked up.  The fresh attribute
    is held by no object, so every old extent and intent keeps its mask; the
    one new concept has the empty extent, so the canonical order (descending
    extent size) puts it last.
    """
    lat = m.lattice
    if lat.normalized is not lat:
        m = MassFunction(lat.normalized, m.values + (Fraction(0),))
    return m, {i: i for i in range(len(lat))}


# ---------------------------------------------------------------------------
# Conceptual construction, algebraic form

class ConceptRepresentation(Frozen):
    """Per-concept rows of the product-of-down-sets construction.

    The embedded concept h(c) has, at coordinate a, the meet of c and a; the
    atom for concept d sits at d on coordinate d and at the least concept
    everywhere else.  Neither the n x n embedding nor the atoms are stored:
    `embedding(c)` builds the one vector h(c) on demand.
    """

    mass: MassFunction
    rows: tuple[VerificationRow, ...]
    _compared = ("mass", "rows")

    def __init__(self, mass: MassFunction,
                 rows: tuple[VerificationRow, ...]) -> None:
        object.__setattr__(self, "mass", mass)
        object.__setattr__(self, "rows", rows)

    @property
    def all_passed(self) -> bool:
        """Every row and every structural check passed."""
        return all(r.passed for r in self.rows) and all(self.checks.values())

    def embedding(self, c: int) -> tuple[int, ...]:
        """The coordinate vector of h(c): at coordinate a, c meet a."""
        lat = self.mass.lattice
        e = lat.extents[c]
        return tuple(lat.index_by_extent[e & a] for a in lat.extents)

    @cached_property
    def checks(self) -> dict[str, bool]:
        """The structural checks, by display name, in print order.

        They read only the context, the extent masks, the extent index and
        the least concept.  When the extents are exactly the context's, c
        meet d is found at the intersection of their extents, so h preserves
        meets and the atom of d lies below h(c) exactly when d <= c: order
        and meet read that one predicate.  Distinct atoms differ from the
        least concept only at their own coordinates, so they are disjoint
        when it meets every concept at itself.  O(concepts x attributes).
        """
        lat = self.mass.lattice
        extents, index = lat.extents, lat.index_by_extent
        exact = is_context_lattice(lat)
        bottom, below = lat.bottom_index, extents[lat.bottom_index]
        return {
            "atom order matches the lattice order": exact,
            "atoms pairwise disjoint": len(lat) < 2 or all(
                index.get(e & below) == bottom for e in extents),
            "embedding meet-preserving": exact,
        }


def _require_empty_bottom(lat: ConceptLattice, what: str) -> None:
    if lat.extents[lat.bottom_index]:
        raise PreconditionError(
            f"{what} requires the least concept to have an empty extent; "
            "normalize the context first (see normalize_with_mass)")


def represent_concepts(m: MassFunction) -> ConceptRepresentation:
    """Represent bel/pl as inner/outer measures over designated atoms.

    Only focal atoms carry measure.  For a focal concept d, coordinate d of
    h(c) is the concept k found by looking up the extent intersection of c
    and d; every other coordinate of the atom is the least concept, which
    lies below anything.  So the atom lies below h(c) when d's extent lies
    inside k's, and it meets h(c) above the least element when k is not the
    least concept.  The sums over those criteria, numerators over the
    mass's one denominator, in O(concepts x focal concepts), sit beside the
    bel and pl numerators of the lattice's zeta transforms, the path that
    `belief_table` prints, so the certificate checks the transforms against
    the meet sums.  A lattice that does not hold its steps yet builds them.
    Each distinct numerator of the rows becomes one Fraction, so a row's bel
    and inner are one object when equal, and so are its pl and outer.  The
    structural checks run on first use of `checks` or `all_passed`.
    """
    lat = m.lattice
    _require_empty_bottom(lat, "the conceptual representation")
    extents, index, bottom = lat.extents, lat.index_by_extent, lat.bottom_index
    denominator, focal = m.focal
    # bel, inner, pl and outer numerators over `denominator`, row by row.
    numerators = []
    # Every meet lands in the index: extents are closed under intersection.
    for e, bel, pl in zip(extents, *m._table_numerators()):
        inner = outer = 0
        for f, x in focal:
            k = index[e & f]
            if f & ~extents[k] == 0:
                inner += x
            if k != bottom:
                outer += x
        numerators += (bel, inner, pl, outer)
    exact = fractions_over(numerators, denominator)
    return ConceptRepresentation(m, tuple([
        VerificationRow(c, *exact[4 * c:4 * c + 4])
        for c in range(len(extents))]))


def atom_order_matches(rep: ConceptRepresentation) -> bool:
    """Atom-below-embedding agrees with the lattice order on all pairs."""
    return rep.checks["atom order matches the lattice order"]


def embedding_meet_preserving(rep: ConceptRepresentation) -> bool:
    """h(c meet d) equals the coordinatewise meet of h(c) and h(d)."""
    return rep.checks["embedding meet-preserving"]


def atoms_pairwise_disjoint(rep: ConceptRepresentation) -> bool:
    """Distinct atoms meet at the bottom of the product, coordinatewise."""
    return rep.checks["atoms pairwise disjoint"]


# ---------------------------------------------------------------------------
# Conceptual construction, derived-context (frame) form

class FrameRepresentation(NamedTuple):
    """The conceptual representation built concretely as a derived context.

    Derived objects are pairs (concept, object of its extent); derived
    attributes are pairs (concept, attribute).  A pair is incident unless its
    concepts coincide and the underlying object lacks the attribute.  The
    atom for concept c collects the derived objects tagged with c, and those
    atoms partition the derived object set into an embedded copy of the
    powerset of concepts.

    An attribute (d, x) fails only on objects tagged d, so the closure of
    the union of the atoms of the concepts in C adds each (d, g), d not in
    C, whose object g has every attribute.  So with two or more concepts,
    every union of atoms is closed exactly when every atom is, and "atom
    unions closed" reads the atom check; one concept has an empty extent,
    and both hold.
    """

    mass: MassFunction
    derived_context: FormalContext
    object_keys: tuple[tuple[int, int], ...]
    atoms: tuple[frozenset, ...]
    space: ProbabilitySpace
    embedding: tuple[frozenset, ...]
    rows: tuple[VerificationRow, ...]
    checks: Mapping[str, bool]

    all_passed = ConceptRepresentation.all_passed


def represent_concepts_frame(m: MassFunction) -> FrameRepresentation:
    lat = m.lattice
    ctx = lat.context
    _require_empty_bottom(lat, "the frame representation")
    derived_objects = sum(map(int.bit_count, lat.extents))
    n = len(lat)
    # Every derived object is tested against every derived attribute.
    check_capacity("derived cross-table cells for the frame representation",
                   derived_objects * n * len(ctx.attributes),
                   MAX_REPRESENTATION_CELLS)
    object_keys = tuple((ci, g) for ci, e in enumerate(lat.extents)
                        for g in members(e))
    attribute_keys = tuple((ci, x) for ci in range(n)
                           for x in range(len(ctx.attributes)))

    object_names = tuple(f"{ci}:{ctx.objects[g]}" for ci, g in object_keys)
    attribute_names = tuple(f"{ci}:{ctx.attributes[x]}"
                            for ci, x in attribute_keys)
    incidence = frozenset(
        (p, q)
        for p, (ci, g) in enumerate(object_keys)
        for q, (dj, x) in enumerate(attribute_keys)
        if ci != dj or ctx.rows[g] >> x & 1)
    derived = FormalContext(object_names, attribute_names, incidence)

    def closed(extent: frozenset) -> bool:
        mask = sum(1 << p for p in extent)
        return derived.closure(mask) == mask

    atoms = tuple(frozenset(p for p, (ci, _) in enumerate(object_keys)
                            if ci == c)
                  for c in range(n))
    embedding = tuple(frozenset(p for p, (_, g) in enumerate(object_keys)
                                if lat.extents[c] >> g & 1)
                      for c in range(n))
    atoms_closed = all(closed(a) for a in atoms)
    checks = {
        "atom extents closed": atoms_closed,
        "atom unions closed": atoms_closed,
        "embedded concepts closed": all(closed(e) for e in embedding),
        "embedding injective": len(set(embedding)) == n,
        "embedding meet-preserving": is_context_lattice(lat),
    }

    block_indices = [c for c in range(n) if atoms[c]]
    space = ProbabilitySpace(frozenset(range(len(object_keys))),
                             tuple(atoms[c] for c in block_indices),
                             tuple(m.values[c] for c in block_indices))
    _, bel, pl = m.belief_table()
    rows = tuple(VerificationRow(c, bel[c], space.inner_measure(e), pl[c],
                                 space.outer_measure(e))
                 for c, e in enumerate(embedding))
    return FrameRepresentation(m, derived, object_keys, atoms, space,
                               embedding, rows, checks)
