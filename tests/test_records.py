"""Record semantics of the package's value types.

Plain records are `typing.NamedTuple`s: immutable, built by position or by
keyword in a fixed field order, equal and hashed by their fields.  The four
types that validate or cache (`FormalContext`, `MassFunction`,
`ProbabilitySpace`, `ConceptRepresentation`) are plain classes with the
same guarantees, and equality only within their own class.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from conceptds import (AxiomReport, AxiomViolation, BeliefTable, CaseReport,
                       CellNote, CombinationReport, Concept,
                       ConceptRepresentation, ContextDocument, FormalContext,
                       FrameRepresentation, MassFunction, MassSpec,
                       ProbabilitySpace, SetRepresentation, VerificationRow,
                       enumerate_concepts, represent_concepts)
from conceptds.represent import SetVerificationRow

RECORDS = {
    Concept: ("extent", "intent"),
    MassSpec: ("name", "entries", "label_extents", "numerators"),
    ContextDocument: ("context", "masses", "labels", "expected"),
    BeliefTable: ("lattice", "bel", "pl"),
    CombinationReport: ("result", "conflicts"),
    VerificationRow: ("concept_index", "bel", "inner", "pl", "outer"),
    SetVerificationRow: ("subset", "bel", "inner", "pl", "outer"),
    SetRepresentation: ("mass", "space", "embedding", "rows"),
    FrameRepresentation: ("mass", "derived_context", "object_keys", "atoms",
                          "space", "embedding", "rows", "checks"),
    AxiomViolation: ("sets", "lhs", "rhs", "note"),
    AxiomReport: ("checked_tuples", "first_violation"),
    CellNote: ("table", "row", "column", "computed", "expected"),
    CaseReport: ("case_id", "document", "lattice", "labels", "masses",
                 "mass_rows", "bel_rows", "pl_rows", "combined_order",
                 "combined_rows", "conflicts", "notes"),
}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_a_record_builds_by_position_and_by_keyword(cls):
    fields = RECORDS[cls]
    values = tuple(f"{name}-value" for name in fields)
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(fields, values)))
    assert cls._fields == fields
    assert by_position == by_keyword
    assert hash(by_position) == hash(by_keyword)
    assert tuple(getattr(by_position, name) for name in fields) == values
    assert by_position != cls(*values[:-1], "another value")
    # A record is a tuple: iterable, and equal to a plain tuple of its fields.
    assert tuple(by_position) == values
    assert by_position == values


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_a_record_refuses_assignment(cls):
    record = cls(*range(len(RECORDS[cls])))
    for name in RECORDS[cls]:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
    with pytest.raises(AttributeError):
        record.unknown = 0


def test_record_defaults():
    ctx = FormalContext(("a",), ("x",), ())
    assert ContextDocument(ctx, (), {}).expected is None
    spec, other = MassSpec("m", ()), MassSpec("n", ())
    assert spec.label_extents == {}
    assert spec.label_extents is other.label_extents
    with pytest.raises(TypeError):
        spec.label_extents["label"] = frozenset()
    assert MassSpec("m", (), {"x": frozenset()}).label_extents == {
        "x": frozenset()}


def test_record_properties():
    assert VerificationRow(0, 1, 1, 2, 2).passed
    assert not VerificationRow(0, 1, 1, 2, 3).passed
    assert AxiomReport(3, None).passed
    assert CombinationReport(None, ()).conflict == 0
    assert CombinationReport(None, (Fraction(1, 3), Fraction(1, 2))) \
        .conflict == Fraction(1, 2)
    row = VerificationRow(0, 1, 1, 1, 1)
    checks = {"a check": True}
    assert FrameRepresentation(*[None] * 6, (row,), checks).all_passed
    assert not FrameRepresentation(*[None] * 6, (row,),
                                   {"a check": False}).all_passed
    assert SetRepresentation(None, None, None, ()).all_passed


# ---------------------------------------------------------------------------
# Validated types: plain classes

def _context():
    return FormalContext(("a", "b"), ("x", "y"), {(0, 0), (1, 1)})


def _mass():
    lat = enumerate_concepts(_context())
    return MassFunction.from_mapping(lat, {lat.top_index: Fraction(1)})


def _space():
    return ProbabilitySpace({1, 2}, ({1}, {2}), (Fraction(1, 3), Fraction(2, 3)))


def test_validated_types_build_by_position_and_by_keyword():
    ctx = _context()
    assert FormalContext(objects=ctx.objects, attributes=ctx.attributes,
                         incidence=ctx.incidence) == ctx
    m = _mass()
    assert MassFunction(lattice=m.lattice, values=m.values) == m
    space = _space()
    assert ProbabilitySpace(carrier=space.carrier, blocks=space.blocks,
                            mu=space.mu) == space
    rep = represent_concepts(m)
    assert ConceptRepresentation(mass=rep.mass, rows=rep.rows) == rep


def test_validated_types_compare_and_hash_by_their_fields():
    pairs = [(_context(), _context()), (_space(), _space())]
    m = _mass()
    pairs.append((m, MassFunction(m.lattice, m.values)))
    pairs.append((represent_concepts(m), represent_concepts(m)))
    for one, two in pairs:
        assert one is not two
        assert one == two and hash(one) == hash(two)
    ctx = _context()
    assert ctx != FormalContext(("a", "b"), ("x", "y"), {(0, 0)})
    # Unlike a record, a validated type is not equal to a tuple.
    assert ctx != (ctx.objects, ctx.attributes, ctx.incidence)
    # Equality leaves out the numerators that construction derives.
    other = MassFunction(m.lattice, m.values)
    other.__dict__["numerators"] = (1, ())
    assert other == m and hash(other) == hash(m)
    # The lattice compares by identity, as it has no equality of its own.
    rebuilt = enumerate_concepts(_context())
    assert MassFunction(rebuilt, m.values) != m


def test_validated_types_refuse_assignment_and_deletion():
    m = _mass()
    values = [(_context(), "objects"), (m, "values"), (m, "numerators"),
              (_space(), "mu"), (represent_concepts(m), "rows")]
    for obj, name in values:
        before = getattr(obj, name)
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert getattr(obj, name) is before


def test_validated_types_cache_in_their_instance_dict():
    ctx = _context()
    assert ctx.rows == (0b01, 0b10)
    assert vars(ctx)["rows"] is ctx.rows
    rep = represent_concepts(_mass())
    assert rep.all_passed
    assert vars(rep)["checks"] is rep.checks


def test_validated_types_repr_their_compared_fields():
    ctx = FormalContext(("a",), ("x",), {(0, 0)})
    assert repr(ctx) == ("FormalContext(objects=('a',), attributes=('x',), "
                         "incidence=frozenset({(0, 0)}))")
    space = ProbabilitySpace({1}, ({1},), (1,))
    assert repr(space) == ("ProbabilitySpace(carrier=frozenset({1}), "
                           "blocks=(frozenset({1}),), "
                           "mu=(Fraction(1, 1),))")
    m = _mass()
    assert repr(m) == f"MassFunction(lattice={m.lattice!r}, values={m.values!r})"
