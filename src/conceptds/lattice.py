"""Concept enumeration and the finite lattice structure of a context.

Concepts are the closed (extent, intent) pairs of a context.  They are stored
in a canonical order (descending extent size, then lexicographic extent) as
`int` bitmasks over object and attribute indices only, and a concept is named
by its index in that order; a `Concept` view is built from the masks when one
is read.  Order, meets and joins are read from the masks: c <= d when c's
extent mask has no bit outside d's, a meet is the concept whose extent is the
intersection of the two extents, and a join the concept whose intent is the
intersection of the two intents.  Both intersections land on concepts because
closed sets are closed under intersection.  No n x n table of the order or of
meets is ever built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from .context import (AttributeSet, FormalContext, ObjectSet,
                      normalize_no_universal_object)
from .errors import PreconditionError, check_capacity

MAX_OBJECTS = 24
MAX_CONCEPTS = 4096


@dataclass(frozen=True)
class Concept:
    extent: ObjectSet
    intent: AttributeSet


def _mask(indices: Iterable[int]) -> int:
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def _members(mask: int) -> list[int]:
    """The set bits of a mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class ConceptLattice:
    """All concepts of a context, as extent and intent bitmasks.

    A concept is named by its canonical index i alone.  `extents[i]` and
    `intents[i]` are its masks; `index_by_extent` maps an extent mask back to
    its concept, and `index_by_intent`, built on first use, maps an intent
    mask back.  Order, meets and joins are one mask operation each: i <= j
    when `extents[i] & ~extents[j] == 0`, the meet of i and j is
    `index_by_extent[extents[i] & extents[j]]`, and their join is
    `index_by_intent[intents[i] & intents[j]]`.  `lat[i]` and iteration give
    read-only `Concept` views, built from the masks on each read.

    Instances are immutable by convention, built by `enumerate_concepts`;
    the one exception is `resolved_labels`, the memo in which
    `evidence.resolve_concept_label` keeps each built-in name and extent
    literal with the concept it names on this lattice.  A lattice built by
    hand must hold a greatest and a least concept.
    """

    def __init__(self, context: FormalContext, extents: tuple[int, ...],
                 intents: tuple[int, ...]):
        self.context = context
        self.extents = extents
        self.intents = intents
        self.index_by_extent = {e: i for i, e in enumerate(extents)}
        top = self.index_by_extent.get((1 << len(context.objects)) - 1)
        if top is None:
            raise PreconditionError("this lattice lacks its greatest concept: "
                                    "no extent holds every object")
        full = (1 << len(context.attributes)) - 1
        if full not in intents:
            raise PreconditionError("this lattice lacks its least concept: "
                                    "no intent holds every attribute")
        self.top_index = top
        self.bottom_index = intents.index(full)
        self.resolved_labels: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self.extents)

    def __iter__(self) -> Iterator[Concept]:
        return map(self.__getitem__, range(len(self.extents)))

    def __getitem__(self, index: int) -> Concept:
        return Concept(frozenset(_members(self.extents[index])),
                       frozenset(_members(self.intents[index])))

    def index_with_extent(self, extent: Iterable[int]) -> int | None:
        """The index of the concept with this extent, or None if none has it."""
        return self.index_by_extent.get(_mask(extent))

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
        return enumerate_concepts(normalize_no_universal_object(self.context))

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
        rows = [_mask(intent) for intent in self.context.object_intents]
        everyone = (1 << len(rows)) - 1
        by_intent = self.index_by_intent
        extents = self.extents
        edges = []
        for i, (e, a) in enumerate(zip(extents, self.intents)):
            generated: dict[int, int] = {}
            for g in _members(everyone & ~e):
                j = by_intent[a & rows[g]]
                generated[j] = generated.get(j, 0) + 1
            size = e.bit_count()
            edges.extend((i, j) for j in sorted(generated)
                         if generated[j] == extents[j].bit_count() - size)
        return tuple(edges)


def mobius_inversion(triples: Iterable[tuple[int, int, int]]
                     ) -> Iterator[tuple[int, int]]:
    """Moebius inversion of integer values along the inclusion of masks.

    `triples` holds (index, mask, value) with distinct masks, each after the
    masks strictly inside it.  Yields (index, w): the value less the w already
    yielded at masks inside this one.  For reverse inclusion pass complemented
    masks, since f contains e exactly when ~f lies inside ~e.
    """
    peeled: list[tuple[int, int]] = []
    for index, mask, value in triples:
        outside = ~mask
        w = value - sum([x for f, x in peeled if not f & outside])
        if w:
            peeled.append((mask, w))
        yield index, w


def enumerate_concepts(ctx: FormalContext) -> ConceptLattice:
    """Build the concept lattice of a context.

    Intents are exactly the intersections of object intents (including the
    empty intersection, i.e. all attributes); extents are derived from them.
    The number of intents is checked against MAX_CONCEPTS after each object
    is folded in, so an oversized lattice fails before it is built.
    """
    check_capacity("objects in context", len(ctx.objects), MAX_OBJECTS)
    rows = [_mask(intent) for intent in ctx.object_intents]
    intents = {(1 << len(ctx.attributes)) - 1}
    for row in rows:
        intents |= {intent & row for intent in intents}
        check_capacity("concepts in lattice", len(intents), MAX_CONCEPTS)
    pairs = []
    for intent in intents:
        extent = 0
        for g, row in enumerate(rows):
            if intent & ~row == 0:
                extent |= 1 << g
        pairs.append((extent, intent))
    pairs.sort(key=lambda pair: (-pair[0].bit_count(), _members(pair[0])))
    return ConceptLattice(ctx, tuple(e for e, _ in pairs),
                          tuple(a for _, a in pairs))

