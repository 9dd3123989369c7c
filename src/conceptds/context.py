"""Formal contexts: derivation operators, CXT and JSON input, normalization.

A formal context is a finite cross table between objects and attributes.  The
two derivation operators, the intent of a set of objects (the attributes they
share) and the extent of a set of attributes (the objects having them all),
form the Galois connection that everything else in this package is built on.
`FormalContext` owns them, on bitmasks: `intent_of`, `extent_of` and
`closure`, with `members` the one conversion of a mask back to indexes;
`up` and `down` are their frozenset views.  Objects and attributes are
addressed by index; the name lists fix the index spaces.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from fractions import Fraction
from functools import cached_property, reduce
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

from .errors import LabelError, MassError, ParseError, value_text
from .frozen import Frozen
from .powerset import read_sequence, read_subset, read_text
from .rationals import check_unit, read_over_lcm

ObjectSet = frozenset[int]
AttributeSet = frozenset[int]

FRESH_ATTRIBUTE = "__none__"


def _is_index(i: object) -> bool:
    return isinstance(i, int) and not isinstance(i, bool)


def members(mask: int) -> list[int]:
    """The set bits of a mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def read_index(i: object, size: int, what: str) -> int:
    """i, when an int indexing one of `size` `what`s; no negative wraps.
    Anything else raises `LabelError`."""
    if not _is_index(i):
        raise LabelError(f"{what} index {value_text(i)} is not an int")
    if not 0 <= i < size:
        raise LabelError(f"{what} index {i} is outside 0..{size - 1}")
    return i


def mask_of(indexes: Iterable[int], size: int, what: str) -> int:
    """The mask of an iterable of `what` indexes, each read by
    `read_index`."""
    mask = 0
    for i in read_sequence(indexes, f"{what} indexes", LabelError):
        mask |= 1 << read_index(i, size, what)
    return mask


class FormalContext(Frozen):
    """Objects, attributes, and which object has which attribute.

    `incidence` holds (object index, attribute index) pairs of `int`s.  Name
    order is significant: every derived structure reports in these index
    spaces.

    The table is also held as `int` bitmasks, set in the one pass that
    validates each pair: bit m of `rows[g]`, and bit g of `columns[m]`, is
    set when object g has attribute m.  The derivation operators
    `intent_of`, `extent_of` and `closure` run on them.
    """

    objects: tuple[str, ...]
    attributes: tuple[str, ...]
    incidence: frozenset[tuple[int, int]]
    rows: tuple[int, ...]
    columns: tuple[int, ...]
    _compared = ("objects", "attributes", "incidence")

    def __init__(self, objects: Iterable[str], attributes: Iterable[str],
                 incidence: Iterable[tuple[int, int]]) -> None:
        objects = read_sequence(objects, "objects", ParseError)
        attributes = read_sequence(attributes, "attributes", ParseError)
        incidence = read_subset(incidence, "incidence", ParseError)
        object.__setattr__(self, "objects", objects)
        object.__setattr__(self, "attributes", attributes)
        object.__setattr__(self, "incidence", incidence)
        if len(read_subset(objects, "objects", ParseError)) != len(objects):
            raise ParseError("object names are not pairwise distinct")
        if len(read_subset(attributes, "attributes", ParseError)) \
                != len(attributes):
            raise ParseError("attribute names are not pairwise distinct")
        n_objects, n_attributes = len(objects), len(attributes)
        rows, columns = [0] * n_objects, [0] * n_attributes
        for pair in incidence:
            try:
                g, m = pair
            except (TypeError, ValueError):
                raise ParseError(f"incidence pair {value_text(pair)} does "
                                 "not hold two items") from None
            # A bool or a float would pass the range test below and be
            # read as an index, or fail later as a bare TypeError.
            if (type(g) is not int or type(m) is not int) \
                    and not (_is_index(g) and _is_index(m)):
                raise ParseError(f"incidence pair {value_text((g, m))} "
                                 "does not hold two int indices")
            if not (0 <= g < n_objects and 0 <= m < n_attributes):
                raise ParseError(f"incidence pair ({g}, {m}) is out of range")
            rows[g] |= 1 << m
            columns[m] |= 1 << g
        object.__setattr__(self, "rows", tuple(rows))
        object.__setattr__(self, "columns", tuple(columns))

    @cached_property
    def object_bit(self) -> Mapping[str, int]:
        """Each object name with its bit in an extent mask."""
        return {name: 1 << i for i, name in enumerate(self.objects)}

    def intent_of(self, extent: int) -> int:
        """The attributes whose columns hold an object mask."""
        return sum([1 << m for m, c in enumerate(self.columns)
                    if extent & ~c == 0])

    def extent_of(self, intent: int) -> int:
        """The AND of an attribute mask's columns; all objects when empty."""
        mask = (1 << len(self.objects)) - 1
        for m in members(intent):
            mask &= self.columns[m]
        return mask

    def closure(self, extent: int) -> int:
        """`extent_of(intent_of(extent))` in one pass over the columns."""
        return reduce(int.__and__, [c for c in self.columns
                                    if extent & ~c == 0],
                      (1 << len(self.objects)) - 1)

    def up(self, objs: Iterable[int]) -> AttributeSet:
        """Attributes shared by all of `objs`; all attributes when empty."""
        return frozenset(members(self.intent_of(
            mask_of(objs, len(self.objects), "object"))))

    def down(self, attrs: Iterable[int]) -> ObjectSet:
        """Objects that have all of `attrs`; all objects when empty."""
        return frozenset(members(self.extent_of(
            mask_of(attrs, len(self.attributes), "attribute"))))

    def object_names(self, objs: Iterable[int]) -> tuple[str, ...]:
        """The names of `objs`, ascending; each index is read by
        `read_index`."""
        return tuple(self.objects[g] for g in members(
            mask_of(objs, len(self.objects), "object")))

    def attribute_names(self, attrs: Iterable[int]) -> tuple[str, ...]:
        """The names of `attrs`, ascending; each index is read by
        `read_index`."""
        return tuple(self.attributes[m] for m in members(
            mask_of(attrs, len(self.attributes), "attribute")))


def normalize_no_universal_object(ctx: FormalContext) -> FormalContext:
    """Ensure no object has every attribute, so the least extent is empty.

    When some object already has all attributes, a fresh attribute held by no
    object is appended; otherwise the context is returned unchanged.
    """
    if not ctx.extent_of((1 << len(ctx.attributes)) - 1):
        return ctx
    name = FRESH_ATTRIBUTE
    for k in itertools.count(1):
        if name not in ctx.attributes:
            break
        name = f"{FRESH_ATTRIBUTE}{k}"
    return FormalContext(ctx.objects, ctx.attributes + (name,), ctx.incidence)


# ---------------------------------------------------------------------------
# CXT format (the canonical on-disk format)

def parse_cxt(text: str) -> FormalContext:
    """Parse the CXT cross-table format.

    Layout: a literal `B` line, a blank line, the object count, the attribute
    count, a blank line, one name per line (objects then attributes), then one
    row per object made of `X` / `.` characters.
    """
    lines = [line.rstrip("\r")
             for line in read_text(text, "CXT text", ParseError).split("\n")]

    def get(i: int, what: str) -> str:
        if i >= len(lines):
            raise ParseError(f"unexpected end of input, expected {what}", i + 1)
        return lines[i]

    if get(0, "format header").strip() != "B":
        raise ParseError("expected format header 'B'", 1)
    if get(1, "blank line").strip():
        raise ParseError("expected a blank line after the header", 2)

    def count(i: int, what: str) -> int:
        raw = get(i, what).strip()
        if raw.isdecimal():
            try:
                return int(raw)
            except ValueError:  # more digits than int() converts
                pass
        raise ParseError(f"expected {what}, got {raw!r}", i + 1)

    n_objects = count(2, "object count")
    n_attributes = count(3, "attribute count")
    if get(4, "blank line").strip():
        raise ParseError("expected a blank line after the counts", 5)

    pos = 5
    objects = tuple(get(pos + i, "object name") for i in range(n_objects))
    pos += n_objects
    attributes = tuple(get(pos + i, "attribute name") for i in range(n_attributes))
    pos += n_attributes

    incidence: set[tuple[int, int]] = set()
    for g in range(n_objects):
        row = get(pos + g, "incidence row")
        if len(row) != n_attributes:
            raise ParseError(
                f"incidence row has {len(row)} entries, expected {n_attributes}",
                pos + g + 1)
        for m, ch in enumerate(row):
            if ch == "X":
                incidence.add((g, m))
            elif ch != ".":
                raise ParseError(f"illegal character {ch!r} in incidence row",
                                 pos + g + 1)
    pos += n_objects
    for i in range(pos, len(lines)):
        if lines[i].strip():
            raise ParseError("unexpected trailing content", i + 1)

    return FormalContext(objects, attributes, frozenset(incidence))


def serialize_cxt(ctx: FormalContext) -> str:
    """Render a context in the CXT format parsed by `parse_cxt`."""
    out = ["B", "", str(len(ctx.objects)), str(len(ctx.attributes)), ""]
    out.extend(ctx.objects)
    out.extend(ctx.attributes)
    for row in ctx.rows:
        out.append("".join("X" if row >> m & 1 else "."
                           for m in range(len(ctx.attributes))))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# JSON documents: a context plus optional labels and named mass functions

class CheckedNumerators(NamedTuple):
    """What `document_from_json`'s one check of a mass computed: d, the lcm
    of the values' denominators, and the entries' numerators over d, in
    entry order, kept with the very entries tuple they were computed for."""

    entries: tuple[tuple[str, Fraction], ...]
    d: int
    numerators: tuple[int, ...]


class MassSpec(NamedTuple):
    """A named mass assignment whose labels are not yet tied to concepts.

    Resolution against a concept lattice happens in the evidence module
    (`resolve_mass`).  `document_from_json` checks the signs and the total
    of the entries' values once, so that a bad document fails at parse
    time, and keeps what that check computed as `numerators`, a
    `CheckedNumerators`; `resolve_mass` builds the mass from them without
    a second check, but only while `numerators.entries` is this spec's
    `entries` object.  Any other spec, built by hand or with its entries
    replaced (`spec._replace(entries=...)`), has its values read and
    checked when it is resolved, whatever its `numerators` hold.
    """

    name: str
    entries: tuple[tuple[str, Fraction], ...]
    label_extents: Mapping[str, ObjectSet] = MappingProxyType({})
    numerators: CheckedNumerators | None = None


class ContextDocument(NamedTuple):
    context: FormalContext
    masses: tuple[MassSpec, ...]
    labels: Mapping[str, ObjectSet]
    expected: Mapping | None = None


_DOCUMENT_KEYS = {"objects", "attributes", "incidence", "labels", "masses",
                  "expected"}


def _unique_keys(pairs: list[tuple[str, object]]) -> dict[str, object]:
    doc = dict(pairs)
    if len(doc) != len(pairs):
        counts = Counter(key for key, _ in pairs)
        key = next(key for key, n in counts.items() if n > 1)
        raise ValueError(f"duplicate key {key!r}")
    return doc


def parse_json_object(text: str) -> dict:
    """Parse JSON text whose top-level value is an object.

    Every input path reads JSON through here.  A key repeated within one
    object is an error rather than a silent overwrite.
    """
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("top-level JSON value must be an object")
    return doc


def load_document(text: str) -> ContextDocument:
    """Parse the JSON context document format; see `document_from_json`."""
    return document_from_json(parse_json_object(
        read_text(text, "document text", ParseError)))


def document_from_json(doc: Mapping) -> ContextDocument:
    """Build a context document from parsed JSON.

    Schema: {"objects": [...], "attributes": [...], "incidence": [[obj, attr],
    ...], "labels": {name: [objects...]}, "masses": {name: {label: rational}}}
    plus an optional "expected" block of published tables used by the bundled
    example cases.  Rationals are "p/q" strings, decimal strings, or numbers.
    """
    unknown = set(doc) - _DOCUMENT_KEYS
    if unknown:
        raise ParseError(f"unknown document keys: {sorted(unknown)}")
    for key in ("objects", "attributes"):
        if key not in doc or not isinstance(doc[key], list) \
                or not all(isinstance(s, str) for s in doc[key]):
            raise ParseError(f"{key!r} must be a list of strings")

    objects = tuple(doc["objects"])
    attributes = tuple(doc["attributes"])
    obj_idx = {name: i for i, name in enumerate(objects)}
    attr_idx = {name: i for i, name in enumerate(attributes)}

    raw_incidence = doc.get("incidence", [])
    if not isinstance(raw_incidence, list):
        raise ParseError("'incidence' must be a list of [object, attribute] pairs")
    incidence: set[tuple[int, int]] = set()
    for pair in raw_incidence:
        if not (isinstance(pair, list) and len(pair) == 2
                and all(isinstance(name, str) for name in pair)):
            raise ParseError(f"incidence entries must be [object, attribute] pairs, got {pair!r}")
        g, m = pair
        if g not in obj_idx:
            raise ParseError(f"unknown object name {g!r} in incidence")
        if m not in attr_idx:
            raise ParseError(f"unknown attribute name {m!r} in incidence")
        incidence.add((obj_idx[g], attr_idx[m]))
    context = FormalContext(objects, attributes, frozenset(incidence))

    labels: dict[str, ObjectSet] = {}
    raw_labels = doc.get("labels", {})
    if not isinstance(raw_labels, dict):
        raise ParseError("'labels' must be an object mapping names to object lists")
    for label, names in raw_labels.items():
        if not (isinstance(names, list) and all(isinstance(s, str) for s in names)):
            raise ParseError(f"label {label!r} must map to a list of object names")
        for name in names:
            if name not in obj_idx:
                raise ParseError(f"unknown object name {name!r} in label {label!r}")
        labels[label] = frozenset(obj_idx[name] for name in names)

    # Documents repeat their value strings, so each is read once.
    known: dict[str, tuple[Fraction, int, int]] = {}
    masses: list[MassSpec] = []
    raw_masses = doc.get("masses", {})
    if not isinstance(raw_masses, dict):
        raise ParseError("'masses' must be an object mapping names to assignments")
    for name, assignment in raw_masses.items():
        if not isinstance(assignment, dict):
            raise ParseError(f"mass {name!r} must be an object mapping labels to rationals")
        values, d, numerators = read_over_lcm(assignment.values(), known)
        entries = tuple(zip(assignment, values))
        check_unit(d, numerators,
                   lambda i: f"mass {name!r} assigns {values[i]} to "
                             f"{entries[i][0]!r}; masses must be nonnegative",
                   f"mass {name!r} sums to", MassError)
        masses.append(MassSpec(name, entries, labels, CheckedNumerators(
            entries, d, tuple(numerators))))

    return ContextDocument(context, tuple(masses), labels, doc.get("expected"))

