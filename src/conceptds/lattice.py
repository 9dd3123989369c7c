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

Sums along the order run as zeta transforms over one step list per lattice,
built from the closure lookups (Kennes 1992; Bjorklund et al., SODA 2012).
Number the objects 0..|G|-1.  For an extent S and an object k outside it,
the closure T of S plus k is the concept whose intent is S's intent cut by
k's row; the step (S, T) is kept when T adds no object above k but k.  One
pass per k of h[S] += h[T] turns h into its up-zeta, the sum of h over the
extents containing S, because every extent has a least closed superset of S
plus k.  The passes in reverse, subtracting, invert it.  The down-zeta, the
sum of h over the extents inside S, is the transpose: the steps in reverse,
h[T] += h[S]; its inverse is the steps forward, h[T] -= h[S].  The list
holds at most concepts x objects steps and costs as many lookups to build;
the lattice builds it on first use (`ConceptLattice.steps`) and keeps it,
with the Moebius row of its least concept, so that covers, bel/pl tables,
combination and belief inversion on one lattice share one build.  The
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

Steps = tuple[array, array]


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
    on this lattice.  `steps` and `mobius_bottom` are built on first use
    and kept.
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

    @cached_property
    def steps(self) -> Steps:
        """The object steps of every zeta and Moebius transform on this
        lattice (`object_steps`), built on first use."""
        return object_steps(self)

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

        Read from `steps`: a cover j of i is the target of i's step in pass
        k, the greatest object j adds to i's extent, because the closure of
        i's extent plus k lies above i and inside j.  Every other target of
        i lies above some cover, so the covers are the minimal targets,
        found in ascending extent size, which is descending index.
        """
        extents = self.extents
        above: list[list[int]] = [[] for _ in extents]
        for s, t in zip(*self.steps):
            above[s].append(t)
        edges = []
        for i, targets in enumerate(above):
            covers: list[int] = []
            found: list[int] = []  # their extents
            for j in sorted(targets, reverse=True):
                outside = ~extents[j]
                for e in found:
                    if not e & outside:
                        break
                else:
                    covers.append(j)
                    found.append(extents[j])
            edges.extend((i, j) for j in reversed(covers))
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


def object_steps(lat: ConceptLattice) -> Steps:
    """The pairs (s, t), pass by pass, of the zeta transforms of `lat`.

    Pass k runs over the concepts s whose extent lacks object k.  The
    closure of s's extent plus k is t, found as `index_by_intent[intents[s]
    & rows[k]]`; the pair is kept when t adds no object above k besides k.
    At most sum(|G| - |extent|) steps, one lookup each; `lat.steps` keeps
    the one list a lattice needs.
    """
    extents, intents = lat.extents, lat.intents
    lookup = lat.index_by_intent
    # Two bytes an index while they fit: the lattice keeps the list.
    code = "h" if len(extents) <= 1 << 15 else "i"
    sources, targets = array(code), array(code)
    keep_s, keep_t = sources.append, targets.append
    concepts = range(len(extents))
    for k, row in enumerate(lat.context.rows):
        bit, shift = 1 << k, k + 1
        for s, e, a in zip(concepts, extents, intents):
            if not e & bit:
                t = lookup[a & row]
                if not (extents[t] ^ e) >> shift:
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
