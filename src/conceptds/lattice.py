"""Concept enumeration and the finite lattice structure of a context.

Concepts are the closed (extent, intent) pairs of a context.  They are stored
in a canonical order (descending extent size, then lexicographic extent) as
`int` bitmasks over object and attribute indices only, and a concept is named
by its index in that order; a `Concept` view is built from the masks when one
is read.  Extents, intents and closure tests come from the context's mask
operators (`FormalContext.extent_of`, `intent_of`, `closure`); only the
incremental lookups below cut an intent by a row themselves.
Order, meets and joins are read from the masks: c <= d when c's
extent mask has no bit outside d's, a meet is the concept whose extent is the
intersection of the two extents, and a join the concept whose intent is the
intersection of the two intents.  Both intersections land on concepts because
closed sets are closed under intersection.  No n x n table of the order or of
meets is ever built.

Sums along the order run as zeta transforms over step lists built from the
closure lookups (Kennes 1992; Bjorklund et al., SODA 2012).  Number the
objects 0..|G|-1.  For an extent S and an object k outside it, the closure T
of S plus k is the concept whose intent is S's intent cut by k's row; the
step (S, T) is kept when T adds no object above k but k.  One pass per k of
h[S] += h[T] turns h into its up-zeta, the sum of h over the extents
containing S, because every extent has a least closed superset of S plus k.
The passes in reverse, subtracting, invert it.  The same steps on intents,
along attribute columns, give the down-zeta.  A list holds at most
concepts x objects (resp. attributes) steps and costs as many lookups to
build; combination and belief inversion build theirs per call.  The
lookups always land, because a lattice is only ever built from its context.
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
    (`enumerate_concepts` is the same call): intents are exactly the
    intersections of object intents, including the empty intersection, all
    attributes; extents are derived from them.  The number of intents is
    checked against MAX_CONCEPTS after each object is folded in, so an
    oversized lattice fails before it is built.  In canonical order the
    greatest concept is always 0 and the least always n - 1.

    Instances are immutable by convention; the one exception is
    `resolved_labels`, the memo in which `evidence.resolve_concept_label`
    keeps each built-in name and extent literal with the concept it names
    on this lattice.
    """

    def __init__(self, context: FormalContext):
        check_capacity("objects in context", len(context.objects), MAX_OBJECTS)
        intents = {(1 << len(context.attributes)) - 1}
        for row in context.rows:
            intents |= {intent & row for intent in intents}
            check_capacity("concepts in lattice", len(intents), MAX_CONCEPTS)
        pairs = [(context.extent_of(intent), intent) for intent in intents]
        pairs.sort(key=lambda pair: (-pair[0].bit_count(), members(pair[0])))
        self.context = context
        self.extents = tuple(e for e, _ in pairs)
        self.intents = tuple(a for _, a in pairs)
        self.index_by_extent = {e: i for i, e in enumerate(self.extents)}
        self.top_index, self.bottom_index = 0, len(pairs) - 1
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

    def covers(self) -> tuple[tuple[int, int], ...]:
        """Edges (i, j) where concept i is covered by concept j.

        Lindig's neighbour test: for each object g outside i's extent, the
        closure of that extent plus g is the concept whose intent is i's
        intent cut down to g's attributes.  Such a closure j covers i exactly
        when every object j adds to i's extent generates j; an object that
        generated a smaller closure would lie strictly between i and j.
        """
        rows = self.context.rows
        everyone = (1 << len(rows)) - 1
        by_intent = self.index_by_intent
        extents = self.extents
        edges = []
        for i, (e, a) in enumerate(zip(extents, self.intents)):
            generated: dict[int, int] = {}
            for g in members(everyone & ~e):
                j = by_intent[a & rows[g]]
                generated[j] = generated.get(j, 0) + 1
            size = e.bit_count()
            edges.extend((i, j) for j in sorted(generated)
                         if generated[j] == extents[j].bit_count() - size)
        return tuple(edges)


def is_context_lattice(lat: ConceptLattice) -> bool:
    """Whether the stored extents are exactly the context's: the index maps
    each extent back to it and holds nothing else; each extent is the meet
    of the columns containing it; the full object set and each extent cut
    by a column are stored, so every intersection of columns is stored."""
    extents, index = lat.extents, lat.index_by_extent
    top = (1 << len(lat.context.objects)) - 1
    return len(index) == len(extents) and top in index and all(
        index.get(e) == i and all(e & c in index for c in lat.context.columns)
        and lat.context.closure(e) == e
        for i, e in enumerate(extents))


Steps = tuple[array, array]


def _steps(along: tuple[int, ...], own: tuple[int, ...],
           other: tuple[int, ...], lookup: dict[int, int]) -> Steps:
    """The pairs (s, t), pass by pass, of a zeta transform on `own` masks.

    Pass k runs over the concepts s whose mask lacks bit k.  The least
    closed mask holding s's and k is t's, found as `lookup[other[s] &
    along[k]]`; the pair is kept when t adds no bit above k besides k.
    """
    sources, targets = array("i"), array("i")
    keep_s, keep_t = sources.append, targets.append
    concepts = range(len(own))
    for k, line in enumerate(along):
        bit, shift = 1 << k, k + 1
        for s, e, a in zip(concepts, own, other):
            if not e & bit:
                t = lookup[a & line]
                if not (own[t] ^ e) >> shift:
                    keep_s(s)
                    keep_t(t)
    return sources, targets


def object_steps(lat: ConceptLattice) -> Steps:
    """The steps of the up-zeta along the objects: `zeta` then turns masses
    into commonalities, h(c) = sum of h(d) over the concepts d >= c.

    At most sum(|G| - |extent|) steps, one `index_by_intent` lookup each.
    """
    return _steps(lat.context.rows, lat.extents, lat.intents,
                  lat.index_by_intent)


def attribute_steps(lat: ConceptLattice) -> Steps:
    """The steps of the down-zeta along the attributes: `zeta` then turns
    masses into beliefs, h(c) = sum of h(d) over the concepts d <= c.

    At most sum(|M| - |intent|) steps, one `index_by_extent` lookup each.
    """
    return _steps(lat.context.columns, lat.intents, lat.extents,
                  lat.index_by_extent)


def zeta(values: list, steps: Steps) -> None:
    """The zeta transform of `values`, in place, along `steps`."""
    for s, t in zip(*steps):
        values[s] += values[t]


def mobius(values: list, steps: Steps) -> None:
    """The Moebius transform, the inverse of `zeta`, in place: the passes
    in reverse.  Within a pass no t is an s, so order there is free."""
    sources, targets = steps
    for s, t in zip(reversed(sources), reversed(targets)):
        values[s] -= values[t]


def mobius_row(steps: Steps, size: int, i: int) -> list[int]:
    """mu(i, c) at every concept c, for `object_steps`: row i of the
    inverse up-zeta, so that m(i) = sum of mu(i, c) * q(c).  It is the
    transpose of `mobius` run on the indicator of i: the steps forward,
    each subtracting the source from the target."""
    row = [0] * size
    row[i] = 1
    for s, t in zip(*steps):
        row[t] -= row[s]
    return row


# The constructor is the enumeration; this is its public name.
enumerate_concepts = ConceptLattice
