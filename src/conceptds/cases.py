"""Bundled worked cases: published tables recomputed and cross-checked.

Each case ships as a JSON document with a context, named mass functions, and
an `expected` block holding the published two-decimal grids.  Nothing from
the grids feeds the computation; every table is recomputed from the context
and masses, rounded, and compared cell by cell.  Disagreements come back as
notes rather than errors, so a case with a known bad printed cell still
renders, annotated.
"""

from __future__ import annotations

from fractions import Fraction
from importlib import resources
from typing import Mapping, NamedTuple

from .combine import combine_many
from .context import ContextDocument, ObjectSet, load_document
from .errors import LabelError, ParseError
from .evidence import MassFunction, labeled_index, resolve_mass
from .lattice import ConceptLattice, enumerate_concepts
from .rationals import parse_rational, round_half_away

CASE_IDS = ("movies-1", "movies-2", "movies-3", "music")

TOP_SYMBOL = "⊤"
BOTTOM_SYMBOL = "⊥"

_TABLE_KEYS = {"mass", "bel", "pl", "combined"}
_COMBINED_KEYS = {"order", "mass", "bel", "pl"}


def display_labels(lat: ConceptLattice,
                   labels: Mapping[str, ObjectSet]) -> tuple[str, ...]:
    """One display name per concept, in canonical order.

    Document labels win; unlabeled extremes render as the top and bottom
    symbols; anything else falls back to its index, `#i`.  A label equal to
    the name another concept keeps is refused, so no two rows share a name.
    """
    names = [f"#{i}" for i in range(len(lat))]
    names[lat.top_index] = TOP_SYMBOL
    names[lat.bottom_index] = BOTTOM_SYMBOL
    taken: dict[int, str] = {}
    for label, extent in labels.items():
        i = labeled_index(lat, label, extent)
        if i in taken:
            raise LabelError(
                f"labels {taken[i]!r} and {label!r} name the same concept")
        taken[i] = label
        names[i] = label
    kept = {name: j for j, name in enumerate(names) if j not in taken}
    for i, label in taken.items():
        if label in kept:
            raise LabelError(f"label {label!r} of concept {i} is also the "
                             f"display name of concept {kept[label]}")
    return tuple(names)


class CellNote(NamedTuple):
    """A recomputed cell whose rounding disagrees with the expected grid."""

    table: str
    row: str
    column: str
    computed: Fraction
    expected: Fraction


class CaseReport(NamedTuple):
    """Everything recomputed for one case, plus the disagreement notes."""

    case_id: str
    document: ContextDocument
    lattice: ConceptLattice
    labels: tuple[str, ...]
    masses: Mapping[str, MassFunction]
    mass_rows: Mapping[str, tuple[Fraction, ...]]
    bel_rows: Mapping[str, tuple[Fraction, ...]]
    pl_rows: Mapping[str, tuple[Fraction, ...]]
    combined_order: tuple[str, ...]
    combined_rows: Mapping[str, tuple[Fraction, ...]]
    conflicts: tuple[Fraction, ...]
    notes: tuple[CellNote, ...]

    @property
    def combined_name(self) -> str:
        return "⊕".join(self.combined_order)


def load_case(case_id: str) -> ContextDocument:
    if case_id not in CASE_IDS:
        raise ParseError(f"unknown case {case_id!r}; available: {', '.join(CASE_IDS)}")
    text = resources.files("conceptds.data").joinpath(f"{case_id}.json").read_text("utf-8")
    return load_document(text)


def build_case(case_id: str) -> CaseReport:
    return build_report(load_case(case_id), case_id)


def build_report(doc: ContextDocument, case_id: str = "document") -> CaseReport:
    """Recompute every table for a document and note expected-grid mismatches."""
    lat = enumerate_concepts(doc.context)
    labels = display_labels(lat, doc.labels)
    label_index = {label: i for i, label in enumerate(labels)}

    masses: dict[str, MassFunction] = {}
    mass_rows: dict[str, tuple[Fraction, ...]] = {}
    bel_rows: dict[str, tuple[Fraction, ...]] = {}
    pl_rows: dict[str, tuple[Fraction, ...]] = {}
    for spec in doc.masses:
        m = resolve_mass(spec, lat)
        table = m.belief_table()
        masses[spec.name] = m
        mass_rows[spec.name] = m.values
        bel_rows[spec.name] = table.bel
        pl_rows[spec.name] = table.pl

    expected = {} if doc.expected is None else doc.expected
    if not isinstance(expected, dict):
        raise ParseError("'expected' must be an object of tables")
    unknown = set(expected) - _TABLE_KEYS
    if unknown:
        raise ParseError(f"unknown expected tables: {sorted(unknown)}")

    combined_block = expected.get("combined", {})
    if not isinstance(combined_block, dict):
        raise ParseError("'expected.combined' must be an object")
    if set(combined_block) - _COMBINED_KEYS:
        raise ParseError(
            f"unknown keys in expected combined table: "
            f"{sorted(set(combined_block) - _COMBINED_KEYS)}")
    order = combined_block.get("order", list(masses))
    if not (isinstance(order, list)
            and all(isinstance(name, str) for name in order)):
        raise ParseError("'expected.combined.order' must be a list of mass names")
    order = tuple(order)
    for name in order:
        if name not in masses:
            raise ParseError(f"combination order names unknown mass {name!r}")

    combined_rows: dict[str, tuple[Fraction, ...]] = {}
    conflicts: tuple[Fraction, ...] = ()
    if order:
        fold = combine_many([masses[name] for name in order])
        conflicts = fold.conflicts
        table = fold.result.belief_table()
        combined_rows = {"mass": fold.result.values, "bel": table.bel,
                         "pl": table.pl}

    notes: list[CellNote] = []

    def compare(table_name: str, rows: Mapping[str, tuple[Fraction, ...]],
                grid: object) -> None:
        if not isinstance(grid, dict):
            raise ParseError(f"expected table {table_name!r} must be an object")
        for row_name, cells in grid.items():
            if row_name not in rows:
                raise ParseError(
                    f"expected table {table_name!r} references unknown row "
                    f"{row_name!r}")
            if not isinstance(cells, dict):
                raise ParseError(
                    f"row {row_name!r} of expected table {table_name!r} must "
                    "be an object")
            computed = rows[row_name]
            for column, raw in cells.items():
                if column not in label_index:
                    raise ParseError(
                        f"expected table {table_name!r} references unknown "
                        f"concept label {column!r}")
                value = computed[label_index[column]]
                printed = parse_rational(raw)
                if round_half_away(value, 2) != printed:
                    notes.append(CellNote(table_name, row_name, column,
                                          value, printed))

    for table_name, rows in (("mass", mass_rows), ("bel", bel_rows),
                             ("pl", pl_rows)):
        if table_name in expected:
            compare(table_name, rows, expected[table_name])
    if combined_block:
        compare("combined", combined_rows,
                {k: v for k, v in combined_block.items() if k != "order"})

    return CaseReport(
        case_id=case_id,
        document=doc,
        lattice=lat,
        labels=labels,
        masses=masses,
        mass_rows=mass_rows,
        bel_rows=bel_rows,
        pl_rows=pl_rows,
        combined_order=order,
        combined_rows=combined_rows,
        conflicts=conflicts,
        notes=tuple(notes),
    )
