"""Contexts, derivation operators, the CXT format, and JSON documents."""

from __future__ import annotations

import json
import math
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conceptds import (FRESH_ATTRIBUTE, CapacityError, FormalContext,
                       LabelError, MassError, ParseError, format_exact,
                       format_fixed, load_document,
                       normalize_no_universal_object, parse_cxt,
                       parse_rational, round_half_away, serialize_cxt)
from conceptds.context import members
from conceptds.errors import ENV_UNSAFE_SCALE
from conceptds.rationals import common_numerators, fractions_over

from conftest import small_contexts, subsets_of

MUSIC_DOC = json.dumps({
    "objects": ["a", "b", "c"],
    "attributes": ["w", "x", "y", "z"],
    "incidence": [["a", "w"], ["a", "x"], ["b", "x"], ["b", "y"],
                  ["c", "y"], ["c", "z"]],
})


# ---------------------------------------------------------------------------
# Rationals

@pytest.mark.parametrize("raw, expected", [
    ("1/3", Fraction(1, 3)),
    ("0.25", Fraction(1, 4)),
    (" 2/5 ", Fraction(2, 5)),
    (0.2, Fraction(1, 5)),
    (3, Fraction(3)),
    ("-0.5", Fraction(-1, 2)),
])
def test_parse_rational_accepts_common_forms(raw, expected):
    assert parse_rational(raw) == expected


@pytest.mark.parametrize("raw", [
    True, False, "abc", "1/0", None, [1],
    # Past int()'s 4300-digit limit: a ParseError, not int()'s ValueError.
    pytest.param("1" * 5000, id="5000-digit-integer"),
    pytest.param("1/" + "2" * 5000, id="5000-digit-denominator"),
])
def test_parse_rational_rejects_junk(raw):
    with pytest.raises(ParseError):
        parse_rational(raw)


# Exponents of at most three characters stay under MAX_DECIMAL_EXPONENT, so
# the bound never fires and Fraction never builds a huge power of ten.
NUMERAL_TEXTS = st.text(alphabet="0123456789/-+_. \u0663e",
                        max_size=12).filter(
    lambda text: not re.search(r"e[-+]?[\d_]{4}", text))


@settings(max_examples=500)
@given(NUMERAL_TEXTS)
def test_parse_rational_agrees_with_fraction(text):
    """The integer fast path and the fallback together read a string
    exactly as Fraction does, and fail exactly where it fails."""
    try:
        expected = Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        with pytest.raises(ParseError):
            parse_rational(text)
    else:
        assert parse_rational(text) == expected


@pytest.mark.parametrize("raw", ["1e1000000", "1e-1000000", "2.5E+1001"])
def test_parse_rational_bounds_the_decimal_exponent(raw, monkeypatch):
    monkeypatch.delenv(ENV_UNSAFE_SCALE, raising=False)
    start = time.perf_counter()
    with pytest.raises(CapacityError, match="decimal exponent"):
        parse_rational(raw)
    assert time.perf_counter() - start < 0.1


def test_parse_rational_exponent_bound(monkeypatch):
    monkeypatch.delenv(ENV_UNSAFE_SCALE, raising=False)
    assert parse_rational(5e-324) == Fraction(5, 10 ** 324)
    assert parse_rational("1e1000") == 10 ** 1000
    with pytest.raises(CapacityError):
        parse_rational("1e1001")
    monkeypatch.setenv(ENV_UNSAFE_SCALE, "1")
    assert parse_rational("1e1001") == 10 ** 1001


def test_rounding_is_half_away_from_zero():
    assert round_half_away(Fraction(1, 40)) == Fraction(3, 100)
    assert round_half_away(Fraction(-1, 40)) == Fraction(-3, 100)
    assert round_half_away(Fraction(1, 19)) == Fraction(5, 100)
    assert round_half_away(Fraction(3, 50)) == Fraction(3, 50)
    assert round_half_away(Fraction(7, 2), 0) == 4


def test_fixed_formatting():
    assert format_fixed(Fraction(1, 19)) == "0.05"
    assert format_fixed(Fraction(0)) == "0.00"
    assert format_fixed(Fraction(1)) == "1.00"
    assert format_fixed(Fraction(-1, 40)) == "-0.03"
    assert format_fixed(Fraction(5, 2), 0) == "3"
    assert format_exact(Fraction(9, 19)) == "9/19"
    assert format_exact(Fraction(2)) == "2"


def test_numerators_over_the_lcm_and_back():
    values = [Fraction(1, 6), Fraction(0), Fraction(3, 4), Fraction(1, 6),
              Fraction(-2, 3)]
    d, numerators = common_numerators(values)
    assert (d, numerators) == (12, [2, 0, 9, 2, -8])
    assert common_numerators([]) == (1, [])
    exact = fractions_over(numerators, d)
    assert exact == values
    assert exact[0] is exact[3]
    assert exact[1] == Fraction(0) and exact[1].denominator == 1
    assert fractions_over([0, 0], 7) == [Fraction(0), Fraction(0)]


@given(st.lists(st.fractions(max_denominator=60), max_size=12))
def test_numerator_form_round_trips_with_one_object_per_numerator(values):
    d, numerators = common_numerators(values)
    assert d == math.lcm(*(v.denominator for v in values))
    exact = fractions_over(numerators, d)
    assert exact == values
    assert all(type(x) is Fraction for x in exact)
    assert len({id(x) for x in exact}) == len(set(numerators))


@given(st.fractions(), st.integers(0, 6))
def test_rounding_error_is_at_most_half_a_unit(x, digits):
    unit = Fraction(1, 10 ** digits)
    assert abs(round_half_away(x, digits) - x) * 2 <= unit


# ---------------------------------------------------------------------------
# Contexts and derivation

def test_duplicate_names_rejected():
    with pytest.raises(ParseError):
        FormalContext(("a", "a"), ("x",), frozenset())
    with pytest.raises(ParseError):
        FormalContext(("a",), ("x", "x"), frozenset())


def test_out_of_range_incidence_rejected():
    with pytest.raises(ParseError):
        FormalContext(("a",), ("x",), frozenset({(0, 1)}))


@pytest.mark.parametrize("pair", [(0.5, 0), (0, 0.0), (True, 0), (0, False),
                                  ("0", 0), (None, 0)])
def test_an_incidence_index_that_is_not_an_int_is_rejected(pair):
    """A float or a bool would pass the range check; a bool would be read
    as object 1 and a float fail later as a bare TypeError."""
    with pytest.raises(ParseError) as info:
        FormalContext(("a", "b"), ("x",), {pair})
    assert str(info.value) == \
        f"incidence pair ({pair[0]!r}, {pair[1]!r}) does not hold two int indices"


def test_an_int_subclass_is_an_incidence_index():
    class Index(int):
        pass

    ctx = FormalContext(("a", "b"), ("x",), {(Index(1), Index(0))})
    assert ctx.rows == (0, 1)


def test_empty_derivations_return_everything():
    ctx = load_document(MUSIC_DOC).context
    assert ctx.up(()) == frozenset(range(4))
    assert ctx.down(()) == frozenset(range(3))


@given(small_contexts())
def test_derivation_operators_form_a_galois_connection(ctx):
    objects = list(range(len(ctx.objects)))
    for g in objects:
        b = frozenset([g])
        assert b <= ctx.down(ctx.up(b))
        assert ctx.up(ctx.down(ctx.up(b))) == ctx.up(b)
    full = frozenset(objects)
    assert full <= ctx.down(ctx.up(full))


@given(small_contexts())
def test_row_and_column_masks_hold_the_incidence_pairs(ctx):
    objects, attributes = range(len(ctx.objects)), range(len(ctx.attributes))
    assert len(ctx.rows) == len(objects)
    assert len(ctx.columns) == len(attributes)
    assert {(g, m) for g in objects for m in attributes
            if ctx.rows[g] >> m & 1} == ctx.incidence
    assert {(g, m) for g in objects for m in attributes
            if ctx.columns[m] >> g & 1} == ctx.incidence
    # The masks are derived, so they take no part in equality or hashing.
    again = FormalContext(ctx.objects, ctx.attributes, ctx.incidence)
    assert again == ctx and hash(again) == hash(ctx)


@given(small_contexts(), st.data())
def test_up_and_down_match_their_set_definitions(ctx, data):
    objects, attributes = range(len(ctx.objects)), range(len(ctx.attributes))
    objs = data.draw(subsets_of(frozenset(objects)))
    attrs = data.draw(subsets_of(frozenset(attributes)))
    assert ctx.up(objs) == frozenset(
        m for m in attributes if all((g, m) in ctx.incidence for g in objs))
    assert ctx.down(attrs) == frozenset(
        g for g in objects if all((g, m) in ctx.incidence for m in attrs))


@given(small_contexts())
def test_up_is_antitone(ctx):
    n = len(ctx.objects)
    for size in range(n + 1):
        smaller = frozenset(range(size))
        larger = frozenset(range(n))
        assert ctx.up(larger) <= ctx.up(smaller)


TWO_OBJECTS = FormalContext(("a", "b"), ("x", "y"), {(0, 0), (1, 1)})


@pytest.mark.parametrize("call, message", [
    (lambda: TWO_OBJECTS.up([-1]), "object index -1 is outside 0..1"),
    (lambda: TWO_OBJECTS.down([-1]), "attribute index -1 is outside 0..1"),
    (lambda: TWO_OBJECTS.up([2]), "object index 2 is outside 0..1"),
    (lambda: TWO_OBJECTS.down([0, 2]), "attribute index 2 is outside 0..1"),
    (lambda: TWO_OBJECTS.up([True]), "object index True is not an int"),
    (lambda: TWO_OBJECTS.down([0.0]), "attribute index 0.0 is not an int"),
    (lambda: TWO_OBJECTS.up(5), "object indexes must be an iterable, not int"),
    (lambda: TWO_OBJECTS.object_names([-1]),
     "object index -1 is outside 0..1"),
    (lambda: TWO_OBJECTS.object_names([2]), "object index 2 is outside 0..1"),
    (lambda: TWO_OBJECTS.attribute_names([-2]),
     "attribute index -2 is outside 0..1"),
    (lambda: TWO_OBJECTS.attribute_names([True]),
     "attribute index True is not an int"),
], ids=["up-negative", "down-negative", "up-past-the-end", "down-past-the-end",
        "up-bool", "down-float", "up-not-iterable", "object-names-negative",
        "object-names-past-the-end", "attribute-names-negative",
        "attribute-names-bool"])
def test_up_and_down_read_only_indexes_in_range(call, message):
    """A negative index no longer wraps to the last object or attribute,
    and one past the end is not a bare IndexError; the name readers
    `object_names` and `attribute_names` read indexes the same way."""
    with pytest.raises(LabelError) as info:
        call()
    assert str(info.value) == message


def _mask(indexes) -> int:
    return sum(1 << i for i in indexes)


@given(small_contexts(), st.data())
def test_mask_operators_agree_with_up_down_and_the_set_definitions(ctx, data):
    objects, attributes = range(len(ctx.objects)), range(len(ctx.attributes))
    objs = data.draw(subsets_of(frozenset(objects)))
    attrs = data.draw(subsets_of(frozenset(attributes)))
    intent = _mask(m for m in attributes
                   if all((g, m) in ctx.incidence for g in objs))
    extent = _mask(g for g in objects
                   if all((g, m) in ctx.incidence for m in attrs))
    assert ctx.intent_of(_mask(objs)) == intent == _mask(ctx.up(objs))
    assert ctx.extent_of(_mask(attrs)) == extent == _mask(ctx.down(attrs))
    assert ctx.closure(_mask(objs)) == _mask(ctx.down(ctx.up(objs)))
    assert members(_mask(objs)) == sorted(objs)


@given(small_contexts(), st.data())
def test_closure_is_extensive_monotone_and_idempotent(ctx, data):
    objects = frozenset(range(len(ctx.objects)))
    small = _mask(data.draw(subsets_of(objects)))
    large = small | _mask(data.draw(subsets_of(objects)))
    closure = ctx.closure
    assert small & ~closure(small) == 0
    assert closure(small) & ~closure(large) == 0
    assert closure(closure(small)) == closure(small)
    assert closure(small) == ctx.extent_of(ctx.intent_of(small))


# ---------------------------------------------------------------------------
# CXT round trip and errors

@given(small_contexts())
def test_cxt_round_trip(ctx):
    assert parse_cxt(serialize_cxt(ctx)) == ctx


def test_cxt_parses_crlf_line_endings():
    ctx = load_document(MUSIC_DOC).context
    text = serialize_cxt(ctx).replace("\n", "\r\n")
    assert parse_cxt(text) == ctx


@pytest.mark.parametrize("mangle, bad_line", [
    (lambda lines: ["A"] + lines[1:], 1),
    (lambda lines: lines[:2] + ["x"] + lines[3:], 3),
    (lambda lines: lines[:12] + ["X"] + lines[13:], 13),
    (lambda lines: lines[:12] + ["?..."] + lines[13:], 13),
    (lambda lines: lines + ["junk"], 17),
])
def test_cxt_errors_carry_line_numbers(mangle, bad_line):
    ctx = load_document(MUSIC_DOC).context
    lines = serialize_cxt(ctx).split("\n")
    with pytest.raises(ParseError) as info:
        parse_cxt("\n".join(mangle(lines)))
    assert info.value.line == bad_line
    assert f"line {bad_line}:" in str(info.value)


def test_cxt_truncated_input():
    with pytest.raises(ParseError):
        parse_cxt("B\n\n2\n")


@pytest.mark.parametrize("text, message", [
    ("B\nx\n1\n1\n\na\nx\nX\n",
     "line 2: expected a blank line after the header"),
    ("B\n\n1\n1\nx\na\nx\nX\n",
     "line 5: expected a blank line after the counts"),
], ids=["header", "counts"])
def test_cxt_wants_a_blank_line_after_the_header_and_the_counts(text,
                                                                message):
    with pytest.raises(ParseError) as info:
        parse_cxt(text)
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# JSON documents

def test_document_with_labels_masses_and_expected():
    doc = load_document(json.dumps({
        "objects": ["a", "b"],
        "attributes": ["x"],
        "incidence": [["a", "x"]],
        "labels": {"c1": ["a"]},
        "masses": {"m1": {"c1": "1/4", "top": "0.75"}},
        "expected": {"mass": {"m1": {"c1": "0.25"}}},
    }))
    assert doc.context.objects == ("a", "b")
    assert doc.labels == {"c1": frozenset({0})}
    assert doc.masses[0].name == "m1"
    assert dict(doc.masses[0].entries) == {"c1": Fraction(1, 4),
                                           "top": Fraction(3, 4)}
    assert doc.expected == {"mass": {"m1": {"c1": "0.25"}}}


@pytest.mark.parametrize("payload", [
    "[]",
    '{"objects": ["a"], "attributes": ["x"], "surprise": 1}',
    '{"objects": "a", "attributes": ["x"]}',
    '{"objects": ["a"], "attributes": ["x"], "incidence": [["b", "x"]]}',
    '{"objects": ["a"], "attributes": ["x"], "incidence": [["a", "y"]]}',
    '{"objects": ["a"], "attributes": ["x"], "incidence": ["ax"]}',
    '{"objects": ["a"], "attributes": ["x"], "labels": {"c": ["b"]}}',
    '{"objects": ["a"], "attributes": ["x"], "labels": ["c"]}',
    '{"objects": ["a"], "attributes": ["x"], "incidence": 5}',
    '{"objects": ["a"], "attributes": ["x"], "incidence": [[["a"], "x"]]}',
    '{"objects": ["a"], "objects": ["a"], "attributes": ["x"]}',
    '{"objects": ["a"], "attributes": ["x"], "masses": {"m": '
    '{"top": "0.5", "top": "0.5", "{a}": "0.5"}}}',
    "[" * 100000,
    "not json",
])
def test_document_rejects_malformed_payloads(payload):
    with pytest.raises(ParseError):
        load_document(payload)


@pytest.mark.parametrize("part, message", [
    ({"labels": {"c": "a"}}, "label 'c' must map to a list of object names"),
    ({"masses": ["m"]},
     "'masses' must be an object mapping names to assignments"),
    ({"masses": {"m": ["top"]}},
     "mass 'm' must be an object mapping labels to rationals"),
], ids=["label", "masses", "mass"])
def test_document_names_a_label_or_mass_of_the_wrong_shape(part, message):
    with pytest.raises(ParseError) as info:
        load_document(json.dumps({"objects": ["a"], "attributes": ["x"],
                                  **part}))
    assert str(info.value) == message


def test_document_rejects_bad_masses():
    base = {"objects": ["a"], "attributes": ["x"], "incidence": []}
    with pytest.raises(MassError):
        load_document(json.dumps({**base, "masses": {"m": {"top": "0.5"}}}))
    with pytest.raises(MassError):
        load_document(json.dumps(
            {**base, "masses": {"m": {"top": "3/2", "{a}": "-1/2"}}}))


def test_document_parses_each_value_string_once():
    base = {"objects": ["a", "b"], "attributes": ["x"], "incidence": [],
            "labels": {"A": ["a"], "B": ["b"]}}
    doc = load_document(json.dumps({**base, "masses": {
        "m1": {"A": "1/2", "top": "1/2"}, "m2": {"B": "1/2", "top": 0.5}}}))
    (_, half), (_, again) = doc.masses[0].entries
    assert half == Fraction(1, 2) and again is half
    assert doc.masses[1].entries[0][1] is half
    # Keys are strings only: True == 1, but true is still rejected.
    with pytest.raises(ParseError, match="expected a rational number, got True"):
        load_document(json.dumps({**base, "masses": {
            "m1": {"top": "1"}, "m2": {"top": True}}}))
    # A value that fails raises its usual text.
    with pytest.raises(ParseError, match=r"not a rational number: '1/0'"):
        load_document(json.dumps({**base, "masses": {
            "m1": {"top": "1"}, "m2": {"top": "1/0"}}}))


# ---------------------------------------------------------------------------
# Normalization

def test_normalization_leaves_clean_contexts_alone():
    ctx = load_document(MUSIC_DOC).context
    assert normalize_no_universal_object(ctx) is ctx


def test_normalization_adds_an_attribute_no_object_has():
    ctx = FormalContext(("a", "b"), ("x",), frozenset({(0, 0), (1, 0)}))
    fixed = normalize_no_universal_object(ctx)
    assert fixed.attributes == ("x", FRESH_ATTRIBUTE)
    assert fixed.down(range(len(fixed.attributes))) == frozenset()
    assert normalize_no_universal_object(fixed) is fixed


def test_normalization_dodges_name_collisions():
    ctx = FormalContext(("a",), (FRESH_ATTRIBUTE,), frozenset({(0, 0)}))
    fixed = normalize_no_universal_object(ctx)
    assert fixed.attributes == (FRESH_ATTRIBUTE, f"{FRESH_ATTRIBUTE}1")


@given(small_contexts())
def test_normalization_is_idempotent_and_preserves_objects(ctx):
    fixed = normalize_no_universal_object(ctx)
    assert fixed.objects == ctx.objects
    assert fixed.down(range(len(fixed.attributes))) == frozenset()
    assert normalize_no_universal_object(fixed) is fixed
