"""Reference results for the correctness gate.

Concepts, covers and the conjunctive fold are recomputed here on integer
bitmasks of object indices, sharing no code with the `lattice` and `combine`
modules they check.  Belief and plausibility come from the brute-force scans
in `conceptds.oracle`, evaluated on masses built from the document, not from
the op's own resolution.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from conceptds import FormalContext, MassFunction, enumerate_concepts
from conceptds.oracle import brute_bel, brute_pl

TOP_NAMES = ("top", "⊤")
BOTTOM_NAMES = ("bottom", "bot", "⊥")


def bits(indices: Iterable[int]) -> int:
    out = 0
    for i in indices:
        out |= 1 << i
    return out


def _rows(ctx: FormalContext) -> list[int]:
    """Attribute mask of each object."""
    rows = [0] * len(ctx.objects)
    for g, a in ctx.incidence:
        rows[g] |= 1 << a
    return rows


def _intents(rows: Sequence[int], n_attributes: int) -> set[int]:
    intents = {(1 << n_attributes) - 1}
    for row in rows:
        intents |= {intent & row for intent in intents}
    return intents


def concept_count(ctx: FormalContext) -> int:
    return len(_intents(_rows(ctx), len(ctx.attributes)))


def _canonical_key(extent: int) -> tuple:
    members = tuple(g for g in range(extent.bit_length()) if extent >> g & 1)
    return (-len(members), members)


def concept_extents(ctx: FormalContext) -> list[int]:
    """Every concept extent, in the package's canonical concept order."""
    rows = _rows(ctx)
    extents = {bits(g for g, row in enumerate(rows) if intent & ~row == 0)
               for intent in _intents(rows, len(ctx.attributes))}
    return sorted(extents, key=_canonical_key)


def cover_pairs(extents: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """Index pairs (i, j) where extent i is a maximal proper subset of j."""
    index = {e: k for k, e in enumerate(extents)}
    edges = []
    for i, e in enumerate(extents):
        above = [u for u in extents if u != e and e & ~u == 0]
        for u in above:
            if not any(v != u and v & ~u == 0 for v in above):
                edges.append((i, index[u]))
    return tuple(sorted(edges))


def conjunctive_fold(masses: Sequence[Mapping[int, Fraction]]):
    """Fold masses keyed by extent bitmask with the conjunctive rule.

    Returns the result, the conflict of every step, the focal pairs
    attempted, and the pairs whose extents intersect (the useful ones).
    """
    acc = dict(masses[0])
    conflicts: list[Fraction] = []
    pairs = useful = 0
    for m in masses[1:]:
        out: dict[int, Fraction] = {}
        conflict = Fraction(0)
        for x, vx in acc.items():
            for y, vy in m.items():
                pairs += 1
                z = x & y
                if z:
                    useful += 1
                    out[z] = out.get(z, 0) + vx * vy
                else:
                    conflict += vx * vy
        conflicts.append(conflict)
        acc = {z: v / (1 - conflict) for z, v in out.items()}
    return acc, conflicts, pairs, useful


def vector(extents: Sequence[int], mass: Mapping[int, Fraction]) -> tuple:
    return tuple(mass.get(e, Fraction(0)) for e in extents)


def brute_tables(ctx: FormalContext, extents: Sequence[int],
                 vectors: Sequence[tuple]) -> list[tuple[tuple, tuple]]:
    """(bel, pl) of each mass vector by the oracle's extent scans."""
    lat = enumerate_concepts(ctx)
    if [bits(c.extent) for c in lat] != list(extents):
        raise ValueError("reference lattice disagrees with the reference "
                         "extents")
    out = []
    for values in vectors:
        m = MassFunction(lat, values)
        out.append((tuple(brute_bel(m, i) for i in range(len(lat))),
                    tuple(brute_pl(m, i) for i in range(len(lat)))))
    return out


def set_tables(mass: Mapping[frozenset, Fraction],
               subsets: Sequence[frozenset]) -> tuple[tuple, tuple]:
    """Set-level bel and pl straight from the definitions."""
    return (tuple(sum((v for y, v in mass.items() if y <= x), Fraction(0))
                  for x in subsets),
            tuple(sum((v for y, v in mass.items() if y & x), Fraction(0))
                  for x in subsets))


def measure_tables(blocks: Sequence[frozenset], mu: Sequence[Fraction],
                   subsets: Sequence[frozenset]) -> tuple[tuple, tuple]:
    """Inner and outer measure of every subset of a partition space."""
    return (tuple(sum((v for b, v in zip(blocks, mu) if b <= x), Fraction(0))
                  for x in subsets),
            tuple(sum((v for b, v in zip(blocks, mu) if b & x), Fraction(0))
                  for x in subsets))


def document_context(doc: Mapping) -> FormalContext:
    objects = {name: g for g, name in enumerate(doc["objects"])}
    attributes = {name: a for a, name in enumerate(doc["attributes"])}
    return FormalContext(tuple(doc["objects"]), tuple(doc["attributes"]),
                         frozenset((objects[g], attributes[a])
                                   for g, a in doc.get("incidence", [])))


def document_masses(doc: Mapping, ctx: FormalContext,
                    extents: Sequence[int]) -> dict[str, dict[int, Fraction]]:
    """Named masses of a JSON document, keyed by extent bitmask.

    Labels resolve through the document's label map, the built-in top and
    bottom names, and braced extent literals, as the document schema says.
    """
    objects = {name: g for g, name in enumerate(ctx.objects)}
    labels = {name: bits(objects[o] for o in members)
              for name, members in doc.get("labels", {}).items()}
    masses = {}
    for name, entries in doc.get("masses", {}).items():
        mass: dict[int, Fraction] = {}
        for label, raw in entries.items():
            if label in labels:
                extent = labels[label]
            elif label in TOP_NAMES:
                extent = extents[0]
            elif label in BOTTOM_NAMES:
                extent = extents[-1]
            else:
                inner = label.strip("{}").strip()
                extent = bits(objects[o.strip()]
                              for o in inner.split(",")) if inner else 0
            value = Fraction(raw if isinstance(raw, str) else repr(raw))
            if value:
                mass[extent] = mass.get(extent, Fraction(0)) + value
        masses[name] = mass
    return masses
