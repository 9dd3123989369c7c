"""Mass, belief, and plausibility, on concept lattices and on powersets.

A mass function distributes one unit of evidence over concepts.  Belief at a
concept sums the mass at or below it; plausibility sums the mass of every
concept whose meet with it has a nonempty extent.  Both are computed on
integer numerators over a common denominator.  A whole table comes from one
path, the lattice's zeta transforms (`MassFunction.belief_table`), about
three passes over its step list whatever the support; the certificates of
`represent` check those transforms against their own meet sums.  `bel` and
`pl` at one concept sweep the focal concepts once (`_numerators`).

Set-level evidence is the special case of a powerset.  The powerset of a
carrier is the concept lattice of its contranominal context, so a
`SetMassFunction` holds a `MassFunction` on that lattice, and its bel, pl and
inversion are the lattice ones.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Sequence

from .context import FormalContext, MassSpec, ObjectSet, read_index
from .errors import LabelError, MassError, check_capacity
from .frozen import Frozen
from .lattice import (MAX_CONCEPTS, ConceptLattice, enumerate_concepts,
                      mobius_down, zeta, zeta_down)
from .powerset import (read_mapping, read_sequence, read_subset, read_table,
                       read_text, size_key, subset_text, subsets)
from .rationals import (check_unit, common_numerators, fractions_over,
                        lowest_numerators, parse_rationals)

# A carrier of n elements has a 2^n-concept powerset lattice.
MAX_SET_CARRIER = MAX_CONCEPTS.bit_length() - 1

_TOP_NAMES = frozenset({"top", "⊤"})
_BOTTOM_NAMES = frozenset({"bottom", "bot", "⊥"})


class MassFunction(Frozen):
    """An exact mass assignment over the concepts of a lattice.

    Values are indexed by canonical concept index.  The total is exactly one,
    and the least concept carries no mass whenever its extent is empty.
    The constructor reads every value, checks the length, and checks signs
    and the total on the values' integer ratios (`rationals.check_unit`);
    it then ends in the one constructor body, `_hold`, which checks the
    least concept and fills `focal`: the support over one common
    denominator, as (d, ((extent mask, numerator), ...)) in index order,
    where d is the lcm of the values' denominators and focal concept i
    carries mass numerator / d.  `_from_numerators` runs that body alone,
    for numerators that a document, the fold or belief inversion has
    already checked.  Equality and hashing read `lattice` and `values` only.
    """

    lattice: ConceptLattice
    values: tuple[Fraction, ...]
    focal: tuple[int, tuple[tuple[int, int], ...]]
    _compared = ("lattice", "values")

    def __init__(self, lattice: ConceptLattice,
                 values: Iterable[Fraction]) -> None:
        values = parse_rationals(read_sequence(values, "values", MassError),
                                 lambda i: f"concept {i} has mass", MassError)
        if len(values) != len(lattice):
            raise MassError(f"expected {len(lattice)} values, "
                            f"got {len(values)}")
        d, numerators = common_numerators(values)
        check_unit(d, numerators,
                   lambda i: f"concept {i} has negative mass {values[i]}",
                   "mass sums to", MassError)
        self._hold(lattice, values, d, numerators)

    @classmethod
    def _from_numerators(cls, lattice: ConceptLattice,
                         values: tuple[Fraction, ...], d: int,
                         numerators: Sequence[int]) -> "MassFunction":
        """The mass whose value at concept i is values[i] == numerators[i] / d,
        for nonnegative numerators that sum to d over the lcm of the values'
        denominators, checked by the caller; only `_hold`'s check runs."""
        mass = cls.__new__(cls)
        mass._hold(lattice, values, d, numerators)
        return mass

    def _hold(self, lattice: ConceptLattice, values: tuple[Fraction, ...],
              d: int, numerators: Sequence[int]) -> None:
        """The one constructor body: the check that needs the lattice, no
        mass on an empty least extent, and then the fields."""
        extents, bottom = lattice.extents, lattice.bottom_index
        if numerators[bottom] and not extents[bottom]:
            raise MassError(
                f"the least concept has an empty extent but carries mass "
                f"{values[bottom]}")
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "focal", (d, tuple(
            [(extents[i], x) for i, x in enumerate(numerators) if x])))

    @classmethod
    def from_mapping(cls, lattice: ConceptLattice,
                     mapping: Mapping[int, Fraction]) -> "MassFunction":
        n = len(lattice)
        values = [Fraction(0)] * n
        # Keys are checked here, before the constructor reads any value.
        for index, value in read_mapping(mapping, "mass table",
                                         MassError).items():
            values[read_index(index, n, "concept")] = value
        return cls(lattice, values)

    @classmethod
    def vacuous(cls, lattice: ConceptLattice) -> "MassFunction":
        """All mass on the greatest concept: total ignorance."""
        return cls.from_mapping(lattice, {lattice.top_index: Fraction(1)})

    def __getitem__(self, c: int) -> Fraction:
        return self.values[read_index(c, len(self.values), "concept")]

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, v in enumerate(self.values) if v)

    def _numerators(self, extent: int) -> tuple[int, int]:
        """The bel and pl numerators, over `focal`'s denominator, at an extent.

        One pass over the support.  No focal extent is empty: only the least
        concept can have an empty extent, and then it carries no mass.  So a
        focal extent inside `extent` also meets it, and the inside test runs
        only on focal extents that meet.
        """
        outside = ~extent
        bel = pl = 0
        for f, x in self.focal[1]:
            if f & extent:
                pl += x
                if not f & outside:
                    bel += x
        return bel, pl

    def bel(self, c: int) -> Fraction:
        """Total mass of concepts at or below concept c."""
        e = self.lattice.extents[read_index(c, len(self.values), "concept")]
        return Fraction(self._numerators(e)[0], self.focal[0])

    def pl(self, c: int) -> Fraction:
        """Total mass of concepts compatible with concept c.

        Compatible means the meet has a nonempty extent, i.e. some object
        witnesses both concepts at once.
        """
        e = self.lattice.extents[read_index(c, len(self.values), "concept")]
        return Fraction(self._numerators(e)[1], self.focal[0])

    def _table_numerators(self) -> tuple[list[int], list[int]]:
        """bel and pl numerators, over `focal`'s denominator, at every
        concept, from the lattice's zeta transforms.

        bel is the down-zeta of the mass.  The mass that meets concept c at
        an empty least concept is the conflict of m with the categorical
        mass on c, the sum of mu(bottom, x) * q(x) over x <= c, for q the
        commonality of m; so it is the down-zeta of mu(bottom, .) * q, and
        pl is the total less it.  When the least extent is inhabited, the
        kept row is empty, no meet is empty and pl is the total.  About
        three passes over the lattice's steps, plus at most concepts x
        objects closure lookups when the lattice does not hold them yet.
        `belief_table` converts these numerators, and the certificates of
        `represent` compare them with their meet sums.
        """
        lat = self.lattice
        d, focal = self.focal
        n, index, steps = len(lat), lat.index_by_extent, lat.steps
        bel = [0] * n
        for e, x in focal:
            bel[index[e]] = x
        q = bel[:]
        zeta(q, steps)
        pl = [0] * n
        for c, mu in lat.mobius_bottom:
            pl[c] = mu * q[c]
        # q is dropped before pl's last list is built, so that no more
        # than three lists of n numerators are alive at once.
        del q
        zeta_down(pl, steps)
        pl = [d - k for k in pl]
        zeta_down(bel, steps)
        return bel, pl

    def belief_table(self) -> "BeliefTable":
        """bel and pl at every concept, from the lattice's zeta transforms
        (`_table_numerators`)."""
        bel, pl = self._table_numerators()
        n = len(bel)
        # One conversion of both, so that equal numerators share a Fraction;
        # pl is appended in place, so that no list of 2n numerators is built
        # beside both.
        bel += pl
        exact = fractions_over(bel, self.focal[0])
        return BeliefTable(self.lattice, tuple(exact[:n]), tuple(exact[n:]))


class BeliefTable(NamedTuple):
    """Belief and plausibility at every concept, in canonical order."""

    lattice: ConceptLattice
    bel: tuple[Fraction, ...]
    pl: tuple[Fraction, ...]


# ---------------------------------------------------------------------------
# Powerset (set-level) evidence

def _powerset_lattice(elements: Sequence) -> ConceptLattice:
    """The concept lattice of the contranominal context over `elements`
    (g has a exactly when g != a): subset mask k is extent mask k."""
    names = tuple(map(repr, elements))
    n = len(names)
    return enumerate_concepts(FormalContext(
        names, names,
        frozenset((g, a) for g in range(n) for a in range(n) if g != a)))


class SetMassFunction:
    """A mass assignment over the powerset of a finite carrier.

    It is held as `mass`, a `MassFunction` on the powerset lattice of the
    carrier sorted by repr, the order `powerset.subsets` uses.  The empty set
    is that lattice's empty-extent least concept, so it never carries mass.
    """

    def __init__(self, carrier: Iterable, values: Mapping[Iterable, Fraction]):
        self.carrier = read_subset(carrier, "carrier", MassError)
        check_capacity("carrier of a set-level mass", len(self.carrier),
                       MAX_SET_CARRIER)
        table = read_table(values, "mass", MassError, self.carrier)
        lat = _powerset_lattice(self._elements)
        self.mass = MassFunction.from_mapping(lat, {
            lat.index_by_extent[self._mask(x)]: v for x, v in table.items()})

    @classmethod
    def _wrap(cls, carrier: frozenset, mass: MassFunction) -> "SetMassFunction":
        """A mass already on the powerset lattice of `carrier`."""
        out = cls.__new__(cls)
        out.carrier, out.mass = carrier, mass
        return out

    @cached_property
    def _elements(self) -> list:
        return sorted(self.carrier, key=repr)

    def _mask(self, subset: Iterable) -> int:
        x = read_subset(subset, "subset", MassError, self.carrier)
        return sum(1 << i for i, e in enumerate(self._elements) if e in x)

    def _index(self, subset: Iterable) -> int:
        return self.mass.lattice.index_by_extent[self._mask(subset)]

    @cached_property
    def values(self) -> dict[frozenset, Fraction]:
        """Each focal subset with its mass, in `size_key` order."""
        lat, elements = self.mass.lattice, self._elements
        focal = {frozenset(elements[g] for g in lat[i].extent): self.mass[i]
                 for i in self.mass.support()}
        return {x: focal[x] for x in sorted(focal, key=size_key)}

    def __getitem__(self, subset: Iterable) -> Fraction:
        return self.mass[self._index(subset)]

    def support(self) -> tuple[frozenset, ...]:
        return tuple(self.values)

    def bel(self, subset: Iterable) -> Fraction:
        """Total mass of focal sets included in `subset`."""
        return self.mass.bel(self._index(subset))

    def pl(self, subset: Iterable) -> Fraction:
        """Total mass of focal sets meeting `subset`."""
        return self.mass.pl(self._index(subset))


def mass_from_bel_set(bel_table: Mapping[frozenset, Fraction]) -> SetMassFunction:
    """Invert a belief table over a full powerset back into a mass function.

    The table must cover every subset of its carrier; `mass_from_bel_lattice`
    inverts it on the powerset lattice.
    """
    table = read_table(bel_table, "bel", MassError)
    carrier: frozenset = frozenset().union(*table)
    check_capacity("carrier for belief inversion", len(carrier), MAX_SET_CARRIER)
    every = subsets(carrier)
    if len(table) != len(every):
        raise MassError(f"belief table has {len(table)} entries; expected all "
                        f"{len(every)} subsets of {subset_text(carrier)}")
    lat = _powerset_lattice(sorted(carrier, key=repr))
    mass = mass_from_bel_lattice([table[every[e]] for e in lat.extents], lat)
    return SetMassFunction._wrap(carrier, mass)


def _require_monotone(values: Sequence[Fraction], scaled: Sequence[int],
                      extents: Sequence[int]) -> None:
    """Raise on the first pair of concepts i <= j with bel(i) > bel(j)."""
    # Only a concept earlier in canonical order can lie strictly above i.
    for i, (e, s) in enumerate(zip(extents, scaled)):
        for j in range(i):
            if s > scaled[j] and e & ~extents[j] == 0:
                raise MassError(
                    f"bel is not monotone: concept {i} <= concept {j} but "
                    f"{values[i]} > {values[j]}")


def mass_from_bel_lattice(bel_values: Sequence[Fraction],
                          lat: ConceptLattice) -> MassFunction:
    """Invert a per-concept belief table by Moebius inversion.

    One inverse down-zeta along the lattice's kept steps
    (`lattice.mobius_down`) gives every concept the belief that the
    concepts strictly below it do not already account for: one integer
    subtraction per step, on numerators over the lcm of the table's
    denominators, whatever the support, plus at most concepts x objects
    closure lookups when the lattice does not hold its steps yet.
    Failures carry a witness.  A negative mass is reported at the first
    concept by ascending extent size, then index, the order in which a peel
    from the bottom would meet it.  Nonnegative masses sum to a monotone
    table, so a table that is not monotone always inverts to a negative
    mass; only then is monotonicity scanned for, and a violating pair
    reported in preference to the mass.
    """
    values = parse_rationals(
        read_sequence(bel_values, "bel_values", MassError),
        lambda i: f"concept {i} has bel", MassError)
    if len(values) != len(lat):
        raise MassError(f"expected {len(lat)} belief values, got {len(values)}")
    if values[lat.top_index] != 1:
        raise MassError(f"bel at the greatest concept is {values[lat.top_index]}, "
                        "expected 1")
    d, scaled = common_numerators(values)
    extents = lat.extents

    masses = scaled[:]
    mobius_down(masses, lat.steps)
    if min(masses) < 0:
        i = min((i for i, w in enumerate(masses) if w < 0),
                key=lambda i: (extents[i].bit_count(), i))
        _require_monotone(values, scaled, extents)
        raise MassError(f"not a belief function on this lattice: recovered "
                        f"mass {Fraction(masses[i], d)} on concept {i}")
    bottom = lat.bottom_index
    if not extents[bottom] and masses[bottom] != 0:
        raise MassError(f"recovered mass {Fraction(masses[bottom], d)} on the "
                        "empty-extent least concept; the table is not a belief "
                        "function here")
    d, masses = lowest_numerators(masses, d)
    return MassFunction._from_numerators(
        lat, tuple(fractions_over(masses, d)), d, masses)


# ---------------------------------------------------------------------------
# Label resolution for mass assignments parsed from JSON documents

def labeled_index(lat: ConceptLattice, label: str, extent: ObjectSet) -> int:
    """The index of the concept whose extent a document label names."""
    index = lat.index_with_extent(extent)
    if index is None:
        raise LabelError(
            f"label {label!r} names object set "
            f"{list(lat.context.object_names(extent))} which is not a "
            "concept extent")
    return index


def _literal_extent(ctx: FormalContext, label: str) -> int:
    """The extent mask that an extent literal like "{a,b}" spells out."""
    inner = label[1:-1].strip()
    bits = ctx.object_bit
    extent = 0
    for name in inner.split(",") if inner else ():
        bit = bits.get(name.strip())
        if bit is None:
            raise LabelError(f"unknown object name {name.strip()!r} in "
                             f"extent literal {label!r}")
        extent |= bit
    return extent


def _is_literal(label: str) -> bool:
    return label.startswith("{") and label.endswith("}")


def _lattice_index(lat: ConceptLattice, label: str) -> int | None:
    """The concept a label names by a built-in name or as an extent
    literal, or None; kept in `lat.resolved_labels` once found."""
    index = lat.resolved_labels.get(label)
    if index is None:
        if label in _TOP_NAMES:
            index = lat.top_index
        elif label in _BOTTOM_NAMES:
            index = lat.bottom_index
        elif _is_literal(label):
            index = lat.index_by_extent.get(_literal_extent(lat.context, label))
        if index is not None:
            lat.resolved_labels[label] = index
    return index


def resolve_concept_label(lat: ConceptLattice, label: str,
                          label_extents: Mapping[str, ObjectSet] | None = None) -> int:
    """Resolve a label to a concept index, by name or by extent literal.

    Routes: the document's label map, the built-in top/bottom names, and
    braced extent literals like "{a,b}".  Two routes naming different
    concepts make the label ambiguous, which is an error.

    The built-in names and the literals depend only on the lattice and the
    label, so the lattice keeps the concept they name (`resolved_labels`)
    and each literal is read once per lattice.  The label map is consulted
    on every call, and a label that fails is never kept.  A label that is
    not a `str` raises `LabelError` ("label must be a str, not int").
    """
    label = read_text(label, "label", LabelError)
    if label_extents and label in label_extents:
        named = labeled_index(lat, label, label_extents[label])
        index = _lattice_index(lat, label)
        if index is None or index == named:
            return named
        if label in _TOP_NAMES:
            how = "built-in name for the greatest concept"
        elif label in _BOTTOM_NAMES:
            how = "built-in name for the least concept"
        else:
            how = "extent literal"
        routes = "; ".join(f"concept {i} via {route}" for i, route in
                           sorted([(named, "document label"), (index, how)]))
        raise LabelError(f"label {label!r} is ambiguous: {routes}")
    index = _lattice_index(lat, label)
    if index is None:
        if _is_literal(label):
            raise LabelError(f"no concept has extent {label}")
        raise LabelError(f"label {label!r} matches no concept")
    return index


def resolve_mass(spec: MassSpec, lat: ConceptLattice) -> MassFunction:
    """Tie a parsed mass assignment to the concepts of a lattice.

    Each label is resolved by `resolve_concept_label`, except a `str` that
    is no document label and that the lattice already keeps in
    `resolved_labels`, which is read from there; two labels of one concept
    are refused.  A spec from `document_from_json` carries the numerators
    of its one sign-and-total check, kept with the entries they were
    computed for; while those are the spec's own `entries` object, the
    mass is built from them, and only the check that needs the lattice
    runs here: no mass on an empty least extent.  Every other spec, built
    by hand or with replaced entries, goes through the validating
    `MassFunction` constructor, with every check and error text of a
    hand-built mass.
    """
    n = len(lat)
    named, known = spec.label_extents, lat.resolved_labels
    seen: list[str | None] = [None] * n
    values = [Fraction(0)] * n
    indexes = []
    for label, value in spec.entries:
        index = None
        if type(label) is str and not (named and label in named):
            index = known.get(label)
        if index is None:
            index = resolve_concept_label(lat, label, named)
        if seen[index] is not None:
            raise LabelError(f"mass {spec.name!r}: labels {seen[index]!r} and "
                             f"{label!r} resolve to the same concept")
        seen[index] = label
        values[index] = value
        indexes.append(index)
    # Only a `CheckedNumerators` of this very entries tuple is trusted.
    if getattr(spec.numerators, "entries", None) is not spec.entries:
        return MassFunction(lat, tuple(values))
    _, d, checked = spec.numerators
    numerators = [0] * n
    for index, x in zip(indexes, checked):
        numerators[index] = x
    return MassFunction._from_numerators(lat, tuple(values), d, numerators)
