"""Concept enumeration and the finite lattice structure of a context.

Concepts are the closed (extent, intent) pairs of a context.  They are stored
in a canonical order (descending extent size, then lexicographic extent) as
`int` bitmasks over object and attribute indices only, and a concept is named
by its index in that order; a `Concept` view is built from the masks when one
is read.  The concepts come from the context's one fold of intersections,
`FormalContext.concepts`, run on the side with fewer passes, which yields
each extent with its intent; the canonical order is then one sort by extent
size and a byte key of the extent mask.  Every other extent, intent and
closure test comes from the context's mask operators (`extent_of`,
`intent_of`, `closure`); only the incremental lookups below and the check
`is_context_lattice` cut a mask by a row or a column themselves.
Order, meets and joins are read from the masks: c <= d when c's
extent mask has no bit outside d's, a meet is the concept whose extent is the
intersection of the two extents, and a join the concept whose intent is the
intersection of the two intents.  Both intersections land on concepts because
closed sets are closed under intersection.  No n x n table of the order or of
meets is ever built.

Sums along the order run as zeta transforms over one step list per lattice,
built from the closure lookups (Kennes 1992; Bjorklund et al., SODA 2012).
Number the objects 0..|G|-1.  For an extent S and an object k outside it,
the closure T of S plus k is the concept whose intent is S's intent cut by
k's row; the step (S, T) is kept when T adds no object above k but k.  One
pass per k of h[S] += h[T] turns h into its up-zeta, the sum of h over the
extents containing S, because every extent has a least closed superset of S
plus k.  The passes in reverse, subtracting, invert it.  The down-zeta, the
sum of h over the extents inside S, is the transpose: the steps in reverse,
h[T] += h[S]; its inverse is the steps forward, h[T] -= h[S].

The attributes generate the lattice just as well, from the other side: for
an intent A and an attribute m outside it, the concept whose extent is A's
extent cut by m's column is the closure of A plus m, and one pass per m
gives the down-zeta.  Its transpose is the up-zeta, so those steps are
stored as (lower, upper) pairs with the passes reversed, and every
transform reads either list the same way.  A lattice builds its list on the
side with fewer passes: attributes when it has fewer attributes than
objects, objects otherwise.  The list holds at most concepts x min(objects,
attributes) steps and costs as many lookups to build; the lattice builds it
on first use (`ConceptLattice.steps`) and keeps it, with the Moebius row of
its least concept, so that covers, bel/pl tables, combination and belief
inversion on one lattice share one build.  The lookups always land, because
a lattice is only ever built from its context.
"""

from __future__ import annotations

from array import array
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple

from .context import (AttributeSet, FormalContext, ObjectSet, mask_of,
                      members, normalize_no_universal_object, read_index)
from .errors import check_capacity

MAX_OBJECTS = 24
MAX_CONCEPTS = 4096

Steps = tuple[array, array]

# Each byte with its bits in reverse order.  An extent's little-endian bytes
# through this table compare, as byte strings, the way its ascending member
# lists compare, reversed: the mask holding the lowest differing object is
# the greater.
_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


class Concept(NamedTuple):
    extent: ObjectSet
    intent: AttributeSet


class ConceptLattice:
    """All concepts of a context, as extent and intent bitmasks.

    A concept is named by its canonical index i alone.  `extents[i]` and
    `intents[i]` are its masks; `index_by_extent` maps an extent mask back to
    its concept, and `index_by_intent`, built on first use, maps an intent
    mask back.  Order, meets and joins are one mask operation each: i <= j
    when `extents[i] & ~extents[j] == 0`, the meet of i and j is
    `index_by_extent[extents[i] & extents[j]]`, and their join is
    `index_by_intent[intents[i] & intents[j]]`.  `lat[i]` and iteration give
    read-only `Concept` views, built from the masks on each read; i must be
    an int in 0..n-1, or `lat[i]` raises `LabelError`.

    The constructor takes the context alone and enumerates its concepts
    (`enumerate_concepts` is the same call) with `FormalContext.concepts`:
    one fold of intersections over the columns when the context has fewer
    attributes than objects, over the rows otherwise, each closed mask
    arriving with its dual.  The fold's count is checked against
    MAX_CONCEPTS after each pass, so an oversized lattice fails before it is
    built.  Sorting by (extent size, the extent's bytes with each byte's
    bits reversed), descending, gives the canonical order without listing
    an extent's members.  In canonical order the greatest concept is always
    0 and the least always n - 1.  O(concepts x min(objects, attributes))
    mask cuts, plus the sort.

    Instances are immutable by convention; the one exception is
    `resolved_labels`, the memo in which `evidence.resolve_concept_label`
    keeps each built-in name and extent literal with the concept it names
    on this lattice.  `steps` and `mobius_bottom` are built on first use
    and kept.
    """

    def __init__(self, context: FormalContext):
        check_capacity("objects in context", len(context.objects), MAX_OBJECTS)
        concepts = context.concepts(lambda count: check_capacity(
            "concepts in lattice", count, MAX_CONCEPTS))
        width = (len(context.objects) + 7) // 8
        extents = sorted(concepts, reverse=True, key=lambda e: (
            e.bit_count(), e.to_bytes(width, "little").translate(_REVERSED)))
        self.context = context
        self.extents = tuple(extents)
        self.intents = tuple(map(concepts.__getitem__, extents))
        self.index_by_extent = dict(zip(extents, range(len(extents))))
        self.top_index, self.bottom_index = 0, len(extents) - 1
        self.resolved_labels: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self.extents)

    def __iter__(self) -> Iterator[Concept]:
        for e, a in zip(self.extents, self.intents):
            yield Concept(frozenset(members(e)), frozenset(members(a)))

    def __getitem__(self, index: int) -> Concept:
        i = read_index(index, len(self), "concept")
        return Concept(frozenset(members(self.extents[i])),
                       frozenset(members(self.intents[i])))

    def index_with_extent(self, extent: Iterable[int]) -> int | None:
        """The index of the concept with this extent, or None if none has it.
        An object index outside 0..n-1 raises `LabelError`."""
        return self.index_by_extent.get(
            mask_of(extent, len(self.context.objects), "object"))

    @property
    def normalized(self) -> ConceptLattice:
        """This lattice, or when its least extent is nonempty, the lattice
        of the context with a fresh attribute held by no object, built once."""
        if self.extents[self.bottom_index]:
            return self._normalized
        return self

    # Not cached in `normalized` itself: a lattice caching itself would be a
    # reference cycle, freed only by the cycle collector.
    @cached_property
    def _normalized(self) -> ConceptLattice:
        return ConceptLattice(normalize_no_universal_object(self.context))

    @cached_property
    def index_by_intent(self) -> dict[int, int]:
        """Each intent mask with the index of its concept."""
        return {a: i for i, a in enumerate(self.intents)}

    @cached_property
    def steps(self) -> Steps:
        """The steps of every zeta and Moebius transform on this lattice,
        on the side with fewer passes (`attribute_steps` or
        `object_steps`), built on first use."""
        context = self.context
        tall = len(context.attributes) < len(context.objects)
        return (attribute_steps if tall else object_steps)(self)

    @cached_property
    def mobius_bottom(self) -> tuple[tuple[int, int], ...]:
        """(c, mu(bottom, c)) at every concept c where it is nonzero, when
        the least extent is empty: then the unnormalised conflict of a
        commonality q is the sum of mu(bottom, c) * q(c).  Empty when the
        least extent is inhabited, since then no meet is empty."""
        if self.extents[self.bottom_index]:
            return ()
        row = [0] * len(self)
        row[self.bottom_index] = 1
        mobius_down(row, self.steps)
        return tuple((c, mu) for c, mu in enumerate(row) if mu)

    def covers(self) -> tuple[tuple[int, int], ...]:
        """Edges (i, j) where concept i is covered by concept j.

        Read from `steps`, whose (lower, upper) pairs hold every cover edge
        on either side.  On the object side, a cover j of i is the upper
        partner of i's step in pass k, the greatest object j adds to i's
        extent, because the closure of i's extent plus k lies above i and
        inside j.  On the attribute side, dually, i is the lower partner of
        j's step in pass m, the greatest attribute i adds to j's intent,
        because the closure of j's intent plus m lies below j and above i.
        Every other upper partner of i lies above some cover, so the covers
        are the minimal upper partners, found in ascending extent size,
        which is descending index; a lone upper partner is the one cover.
        """
        extents = self.extents
        above: list[list[int]] = [[] for _ in extents]
        for s, t in zip(*self.steps):
            above[s].append(t)
        edges = []
        for i, targets in enumerate(above):
            if len(targets) == 1:
                edges.append((i, targets[0]))
                continue
            targets.sort(reverse=True)
            covers: list[tuple[int, int]] = []
            found: list[int] = []  # their extents
            for j in targets:
                outside = ~extents[j]
                for e in found:
                    if not e & outside:
                        break
                else:
                    covers.append((i, j))
                    found.append(extents[j])
            covers.reverse()
            edges += covers
        return tuple(edges)


def is_context_lattice(lat: ConceptLattice) -> bool:
    """Whether the stored extents are exactly the context's: every
    intersection of columns, and nothing else, each stored once and indexed
    back to itself.

    One fold builds the intersections, the full object set cut by each
    column in turn, and stops as soon as it holds more than the stored
    extents.  That is the same predicate as a family that holds the full
    object set, is closed under cuts by columns and holds only closed sets,
    with an exact index.  O(concepts x attributes) set insertions.
    """
    extents, index = lat.extents, lat.index_by_extent
    reach = {(1 << len(lat.context.objects)) - 1}
    for column in lat.context.columns:
        reach |= {e & column for e in reach}
        if len(reach) > len(extents):
            return False
    return reach == index.keys() and len(index) == len(extents) and all(
        index.get(e) == i for i, e in enumerate(extents))


def object_steps(lat: ConceptLattice) -> Steps:
    """The pairs (s, t), pass by pass, of the zeta transforms of `lat`, one
    pass per object.

    Pass k runs over the concepts s whose extent lacks object k.  The
    closure of s's extent plus k is t, found as `index_by_intent[intents[s]
    & rows[k]]`; the pair is kept when t adds no object above k besides k.
    At most sum(|G| - |extent|) steps, one lookup each.
    """
    return _passes(lat.extents, lat.intents, lat.context.rows,
                   lat.index_by_intent)


def attribute_steps(lat: ConceptLattice) -> Steps:
    """The same transforms' pairs, one pass per attribute.

    Pass m runs over the concepts s whose intent lacks attribute m.  The
    closure of s's intent plus m is t, found as `index_by_extent[extents[s]
    & columns[m]]`; the pair is kept when t adds no attribute above m
    besides m.  These passes give the down-zeta, so the list is stored
    transposed, as (t, s) pairs with the passes reversed, and runs the
    up-zeta forward as `object_steps` does.  At most sum(|M| - |intent|)
    steps, one lookup each.
    """
    upper, lower = _passes(lat.intents, lat.extents, lat.context.columns,
                           lat.index_by_extent)
    upper.reverse()
    lower.reverse()
    return lower, upper


def _passes(own: tuple[int, ...], other: tuple[int, ...],
            generators: tuple[int, ...], lookup: dict[int, int]) -> Steps:
    """One pass per generator k of one side: for each concept s whose
    `own` mask lacks bit k, t is `lookup[other[s] & generators[k]]`, the
    closure of s's own mask plus k, and the pair (s, t) is kept when t
    adds no bit above k besides k."""
    # Two bytes an index while they fit: the lattice keeps the list.
    code = "h" if len(own) <= 1 << 15 else "i"
    sources, targets = array(code), array(code)
    keep_s, keep_t = sources.append, targets.append
    concepts = range(len(own))
    for k, generator in enumerate(generators):
        bit, shift = 1 << k, k + 1
        for s, e, a in zip(concepts, own, other):
            if not e & bit:
                t = lookup[a & generator]
                if not (own[t] ^ e) >> shift:
                    keep_s(s)
                    keep_t(t)
    return sources, targets


def zeta(values: list, steps: Steps) -> None:
    """The up-zeta, in place: h(c) becomes the sum of h(d) over the
    concepts d >= c, so that masses turn into commonalities."""
    for s, t in zip(*steps):
        values[s] += values[t]


def mobius(values: list, steps: Steps) -> None:
    """The inverse of `zeta`, in place: the passes in reverse.  Within a
    pass no t is an s, so order there is free."""
    sources, targets = steps
    for s, t in zip(reversed(sources), reversed(targets)):
        values[s] -= values[t]


def zeta_down(values: list, steps: Steps) -> None:
    """The down-zeta, in place: h(c) becomes the sum of h(d) over the
    concepts d <= c, so that masses turn into beliefs.  It is the transpose
    of `zeta`: the steps in reverse, each adding the source to the
    target."""
    sources, targets = steps
    for s, t in zip(reversed(sources), reversed(targets)):
        values[t] += values[s]


def mobius_down(values: list, steps: Steps) -> None:
    """The inverse of `zeta_down`, in place, and the transpose of `mobius`:
    the steps forward, each subtracting the source from the target.  Run
    on the indicator of i, it gives mu(i, .)."""
    for s, t in zip(*steps):
        values[t] -= values[s]


# The constructor is the enumeration; this is its public name.
enumerate_concepts = ConceptLattice
