"""Malformed input fails with a ConceptDSError, never with another exception.

Each parser is fed documents that mix the expected keys with arbitrary JSON
values, and arbitrary text.  Any exception other than a ConceptDSError is a
crash the command line would print as a traceback.  The library's entry
points are fed the same values, and read them as documents do.
"""

from __future__ import annotations

import json
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conceptds import (CapacityError, ConceptDSError, FormalContext,
                       MassError, MassFunction, ParseError, PreconditionError,
                       ProbabilitySpace, SetMassFunction, build_report,
                       check_belief_axioms_set, check_plausibility_axioms_set,
                       enumerate_concepts, format_fixed, load_document,
                       mass_from_bel_lattice, mass_from_bel_set, parse_cxt,
                       parse_probability_space, parse_rational,
                       probability_space_from_json, random_context,
                       random_mass, random_partition_space, random_set_mass,
                       round_half_away)
from conceptds.errors import ENV_UNSAFE_SCALE

NAMES = st.sampled_from(["a", "b", "x", "y", "top", "⊥", "{a}", "{a,b}", ""])
SCALARS = (st.none() | st.booleans() | st.integers(-3, 3) | st.floats()
           | NAMES | st.sampled_from(["1/2", "0.5", "1/0", "1e5000", "-1",
                                      "1e" + "9" * 5000, "1" * 5000]))
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(NAMES, inner, max_size=4),
    max_leaves=16)


NAME_LISTS = st.lists(NAMES, max_size=3, unique=True)


@st.composite
def context_documents(draw):
    """A context document with names in place and arbitrary other parts."""
    doc = {"objects": draw(NAME_LISTS | VALUES),
           "attributes": draw(NAME_LISTS | VALUES)}
    for key in ("incidence", "labels", "masses", "expected"):
        if draw(st.booleans()):
            doc[key] = draw(VALUES | st.lists(NAME_LISTS | VALUES, max_size=3))
    return doc


def run_parser(parse, arg) -> None:
    try:
        parse(arg)
    except ConceptDSError:
        pass


@settings(max_examples=200)
@given(context_documents().map(json.dumps) | st.text(max_size=40))
def test_load_document_raises_only_conceptds_errors(text):
    run_parser(load_document, text)


CXT_LINES = st.sampled_from(["B", "", "a", "b", "x", "X", ".", "X.", ".X",
                             "XX", "1"])
CXT_COUNTS = st.sampled_from(["0", "1", "2", "²", "x", "-1", "1" * 5000])


@st.composite
def cxt_texts(draw):
    """The CXT layout with drawn counts, names and rows."""
    lines = ["B", "", draw(CXT_COUNTS), draw(CXT_COUNTS), ""]
    lines += draw(st.lists(CXT_LINES, max_size=8))
    return "\n".join(lines)


@settings(max_examples=200)
@given(cxt_texts() | st.text(max_size=40))
def test_parse_cxt_raises_only_conceptds_errors(text):
    run_parser(parse_cxt, text)


SPACE_PARTS = VALUES | st.lists(VALUES, max_size=3)


@settings(max_examples=200)
@given(st.fixed_dictionaries({"carrier": SPACE_PARTS, "blocks": SPACE_PARTS,
                              "mu": SPACE_PARTS}) | VALUES)
def test_probability_space_from_json_raises_only_conceptds_errors(doc):
    run_parser(probability_space_from_json, doc)


# Two objects with no shared attribute: concepts ⊤, {a} "A", {b} "#2", ⊥.
CASE = {"objects": ["a", "b"], "attributes": ["x", "y"],
        "incidence": [["a", "x"], ["b", "y"]], "labels": {"A": ["a"]},
        "masses": {"m": {"A": "1/2", "top": "1/2"}, "n": {"{b}": "1"}}}
CELLS = st.dictionaries(st.sampled_from(["⊤", "⊥", "A", "#2", "#9"]), VALUES,
                        max_size=3)
TABLE = st.dictionaries(st.sampled_from(["m", "n", "o", "order"]),
                        CELLS | VALUES, max_size=3) | VALUES
ORDERS = st.lists(st.sampled_from(["m", "n", "o"]) | VALUES, max_size=3)
COMBINED = st.dictionaries(st.sampled_from(["order", "mass", "bel", "pl"]),
                           ORDERS | CELLS | VALUES, max_size=3) | VALUES
EXPECTED = st.fixed_dictionaries({}, optional={
    "mass": TABLE, "bel": TABLE, "pl": TABLE, "combined": COMBINED}) | VALUES


@settings(max_examples=200)
@given(EXPECTED)
def test_build_report_raises_only_conceptds_errors(expected):
    text = json.dumps({**CASE, "expected": expected})
    run_parser(lambda doc: build_report(load_document(doc)), text)


# The powerset of {a, b} as a concept lattice, whose canonical order is
# {a,b}, {a}, {b}, {}.  Each entry point takes four values in that order (or
# as the measures of four blocks).  The tables below put x at {a} and y at
# {b} and `top` first: 0 for a mass or measure, 1 for a belief table.
LATTICE = enumerate_concepts(FormalContext(
    ("a", "b"), ("x", "y"), frozenset({(0, 1), (1, 0)})))
SUBSETS = (frozenset("ab"), frozenset("a"), frozenset("b"), frozenset())
ENTRY_POINTS = {
    "MassFunction": (lambda v: MassFunction(LATTICE, v), 0),
    "from_mapping": (
        lambda v: MassFunction.from_mapping(LATTICE, dict(enumerate(v))), 0),
    "SetMassFunction": (
        lambda v: SetMassFunction("ab", dict(zip(SUBSETS, v))).values, 0),
    "ProbabilitySpace": (lambda v: ProbabilitySpace("abcd", "abcd", v), 0),
    "mass_from_bel_lattice": (lambda v: mass_from_bel_lattice(v, LATTICE), 1),
    "mass_from_bel_set": (
        lambda v: mass_from_bel_set(dict(zip(SUBSETS, v))).values, 1),
    "check_belief_axioms_set": (
        lambda v: check_belief_axioms_set(dict(zip(SUBSETS, v))), 1),
    "check_plausibility_axioms_set": (
        lambda v: check_plausibility_axioms_set(dict(zip(SUBSETS, v))), 1),
}
entry_points = pytest.mark.parametrize(
    "call, top", ENTRY_POINTS.values(), ids=list(ENTRY_POINTS))


def outcome(call, values) -> object:
    """What the call returns, or the type and text of its ConceptDSError."""
    try:
        return call(values)
    except ConceptDSError as exc:
        return type(exc), str(exc)


@entry_points
@given(values=st.lists(SCALARS, min_size=4, max_size=4))
@example(values=[True, 0, 0, 0])
def test_library_entry_points_read_values_as_documents_do(call, top, values):
    """Only a ConceptDSError escapes, and a call that succeeds took only
    values a document may hold."""
    try:
        call(values)
    except ConceptDSError:
        return
    for value in values:
        parse_rational(value)


@entry_points
def test_an_exponent_past_the_bound_is_refused_at_every_entry_point(
        call, top, monkeypatch):
    values = [top, "1e1001", 0, 0]
    with pytest.raises(CapacityError, match="decimal exponent: 1001"):
        call(values)
    with pytest.raises(CapacityError, match="decimal exponent: 5000000"):
        call([top, "1e5000000", 0, 0])
    monkeypatch.setenv(ENV_UNSAFE_SCALE, "1")
    assert str(10 ** 1001) in str(outcome(call, values))


@entry_points
def test_a_float_means_its_shortest_repr_at_every_entry_point(call, top):
    """0.1 + 0.9 and 0.3 + 0.7 are 1 exactly, though not as binary floats."""
    for x, y in ((0.1, 0.9), (0.3, 0.7)):
        exact = call([top, Fraction(repr(x)), Fraction(repr(y)), 0])
        assert outcome(call, [top, x, y, 0]) == exact


@entry_points
def test_a_bool_is_not_a_value_at_any_entry_point(call, top):
    with pytest.raises(ConceptDSError, match="has [a-z]+ True, which is not "
                                             "a rational number"):
        call([True, 0, 0, 0])


@entry_points
def test_a_decimal_is_read_through_its_string_at_every_entry_point(call, top):
    half = Decimal("0.5")
    exact = call([top, Fraction(1, 2), Fraction(1, 2), 0])
    assert outcome(call, [top, half, half, 0]) == exact
    with pytest.raises(CapacityError, match="decimal exponent: 1001"):
        call([top, Decimal("1E+1001"), 0, 0])


# ---------------------------------------------------------------------------
# Subsets: every carrier, block, subset argument and table key is read as a
# set, and a value that is not one is named with the argument it was given as.

class Unhashables:
    """A hashable key whose members are not hashable."""

    def __iter__(self):
        return iter([[]])

    def __repr__(self):
        return "Unhashables()"


SET_MASS = SetMassFunction("ab", {"ab": 1})
SPACE = ProbabilitySpace("ab", ["a", "b"], [Fraction(1, 2), Fraction(1, 2)])
# Name -> (the call on one value, the name its error gives the value, and
# whether the value is a table key, so that it must be hashable itself).
SUBSET_ARGUMENTS = {
    "SetMassFunction carrier": (lambda v: SetMassFunction(v, {}), "carrier",
                                False),
    "SetMassFunction key": (lambda v: SetMassFunction("ab", {v: 1}), "subset",
                            True),
    "SetMassFunction[]": (SET_MASS.__getitem__, "subset", False),
    "SetMassFunction.bel": (SET_MASS.bel, "subset", False),
    "SetMassFunction.pl": (SET_MASS.pl, "subset", False),
    "mass_from_bel_set key": (lambda v: mass_from_bel_set({v: 1}), "subset",
                              True),
    "ProbabilitySpace carrier": (lambda v: ProbabilitySpace(v, [], []),
                                 "carrier", False),
    "ProbabilitySpace block": (lambda v: ProbabilitySpace(["a"], [v], [1]),
                               "block", False),
    "iota": (SPACE.iota, "subset", False),
    "gamma": (SPACE.gamma, "subset", False),
    "inner_measure": (SPACE.inner_measure, "subset", False),
    "outer_measure": (SPACE.outer_measure, "subset", False),
    "check_belief_axioms_set key": (
        lambda v: check_belief_axioms_set({v: 1}), "subset", True),
    "check_plausibility_axioms_set key": (
        lambda v: check_plausibility_axioms_set({v: 1}), "subset", True),
    "random_set_mass carrier": (lambda v: random_set_mass(0, v), "carrier",
                                False),
    "random_partition_space carrier": (
        lambda v: random_partition_space(0, v), "carrier", False),
}
subset_arguments = pytest.mark.parametrize(
    "call, what, key", SUBSET_ARGUMENTS.values(), ids=list(SUBSET_ARGUMENTS))
NOT_SETS = [5, None, 1.5, True, Unhashables(), ["a", []], [{}], ([1], 2)]


def hashable(value) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


@pytest.mark.parametrize("call, what, value", [
    pytest.param(call, what, value, id=f"{name}-{value!r}")
    for name, (call, what, key) in SUBSET_ARGUMENTS.items()
    for value in NOT_SETS if hashable(value) or not key])
def test_a_value_that_is_not_a_set_is_named_with_its_argument(
        call, what, value):
    """SetMassFunction(5, {}) and ProbabilitySpace(["a"], [5], [1]) among
    them: a named ConceptDSError, never a bare TypeError."""
    with pytest.raises(ConceptDSError) as info:
        call(value)
    assert str(info.value) == \
        f"{what} {value!r} is not an iterable of hashable elements"


@subset_arguments
@settings(max_examples=40)
@given(value=SCALARS | st.frozensets(SCALARS, max_size=3)
       | st.lists(VALUES, max_size=3) | st.sampled_from(NOT_SETS))
def test_subset_arguments_raise_only_conceptds_errors(call, what, key, value):
    assume(hashable(value) or not key)
    run_parser(call, value)


# ---------------------------------------------------------------------------
# Containers: a table or a sequence argument that is not one is named, with
# the caller's error class, where it was a bare TypeError (or, for a pair
# that does not hold two items, a ValueError, and for a mapping without
# `items`, an AttributeError).

def _lattice():
    return enumerate_concepts(FormalContext("ab", "x", {(0, 0)}))


NOT_CONTAINERS = {
    "SetMassFunction values": (lambda: SetMassFunction("a", 5), MassError,
                               "mass table must be a mapping, not int"),
    "mass_from_bel_set": (lambda: mass_from_bel_set(5), MassError,
                          "bel table must be a mapping, not int"),
    "check_belief_axioms_set": (lambda: check_belief_axioms_set(5), MassError,
                                "value table must be a mapping, not int"),
    "check_plausibility_axioms_set": (
        lambda: check_plausibility_axioms_set(5), MassError,
        "value table must be a mapping, not int"),
    "ProbabilitySpace blocks": (lambda: ProbabilitySpace(["a"], 5, [1]),
                                ParseError,
                                "blocks must be an iterable, not int"),
    "ProbabilitySpace mu": (lambda: ProbabilitySpace(["a"], ["a"], 5),
                            ParseError, "mu must be an iterable, not int"),
    "FormalContext objects": (lambda: FormalContext(5, "x", []), ParseError,
                              "objects must be an iterable, not int"),
    "FormalContext incidence": (
        lambda: FormalContext("a", "x", 5), ParseError,
        "incidence 5 is not an iterable of hashable elements"),
    "FormalContext pair": (lambda: FormalContext("a", "x", [(0,)]),
                           ParseError,
                           "incidence pair (0,) does not hold two items"),
    "FormalContext object names": (
        lambda: FormalContext([[1]], "x", []), ParseError,
        "objects ([1],) is not an iterable of hashable elements"),
    "FormalContext attribute names": (
        lambda: FormalContext("a", [{}], []), ParseError,
        "attributes ({},) is not an iterable of hashable elements"),
    "load_document": (lambda: load_document(5), ParseError,
                      "document text must be a str, not int"),
    "parse_probability_space": (
        lambda: parse_probability_space(b"{}"), ParseError,
        "partition-space text must be a str, not bytes"),
    "parse_cxt": (lambda: parse_cxt(5), ParseError,
                  "CXT text must be a str, not int"),
    "MassFunction values": (lambda: MassFunction(_lattice(), 5), MassError,
                            "values must be an iterable, not int"),
    "mass_from_bel_lattice": (
        lambda: mass_from_bel_lattice(5, _lattice()), MassError,
        "bel_values must be an iterable, not int"),
    "MassFunction.from_mapping": (
        lambda: MassFunction.from_mapping(_lattice(), 5), MassError,
        "mass table must be a mapping, not int"),
}


@pytest.mark.parametrize("call, error, message", NOT_CONTAINERS.values(),
                         ids=list(NOT_CONTAINERS))
def test_a_table_or_sequence_that_is_not_one_is_named(call, error, message):
    with pytest.raises(ConceptDSError) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


def test_a_long_value_is_cut_in_its_error_text():
    """Sixteen members of each container, then "...": 303 incidence pairs
    print as 186 characters, not 2964."""
    pairs = [[0, 0]] * 3 + [[0, i] for i in range(300)]
    with pytest.raises(ParseError) as info:
        FormalContext("a", "x", pairs)
    shown = ", ".join(map(str, pairs[:16]))
    assert str(info.value) == (f"incidence [{shown}, ...] is not an iterable "
                               "of hashable elements")
    assert len(str(info.value)) == 186
    # A set's members are cut after they are put in the order of their texts.
    with pytest.raises(MassError) as info:
        SetMassFunction("ab", {frozenset(range(20)): 1})
    assert str(info.value) == (
        "{0, 1, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 2, 3, 4, 5, ...} "
        "is not a subset of the carrier")


NOT_SIZES = {
    "random_context n_objects": (
        lambda: random_context(0, "x", 2, 0.5),
        "n_objects must be an int, not str"),
    "random_context bool": (lambda: random_context(0, True, 2, 0.5),
                            "n_objects must be an int, not bool"),
    "random_context n_attributes": (
        lambda: random_context(0, 2, 2.0, 0.5),
        "n_attributes must be an int, not float"),
    "random_context negative": (lambda: random_context(0, -1, 2, 0.5),
                                "counts must be nonnegative"),
    "random_mass": (lambda: random_mass(0, _lattice(), "x"),
                    "denominator_bound must be an int, not str"),
    "random_mass zero": (lambda: random_mass(0, _lattice(), 0),
                         "denominator_bound must be at least 1, got 0"),
    "random_set_mass": (lambda: random_set_mass(0, range(3), "x"),
                        "denominator_bound must be an int, not str"),
    "random_partition_space": (
        lambda: random_partition_space(0, "ab", False),
        "denominator_bound must be an int, not bool"),
    "round_half_away": (lambda: round_half_away(Fraction(1, 2), "x"),
                        "digits must be an int, not str"),
    "format_fixed": (lambda: format_fixed(Fraction(1, 3), 1.0),
                     "digits must be an int, not float"),
    "format_fixed negative": (lambda: format_fixed(Fraction(1, 3), -1),
                              "digits must be at least 0, got -1"),
}


@pytest.mark.parametrize("call, message", NOT_SIZES.values(),
                         ids=list(NOT_SIZES))
def test_a_count_or_digits_that_is_not_a_size_is_named(call, message):
    with pytest.raises(ConceptDSError) as info:
        call()
    assert type(info.value) is PreconditionError
    assert str(info.value) == message


NOT_RATIONALS = {
    "random_context density": (lambda: random_context(0, 2, 2, "x"),
                               "density is 'x', which is not a rational "
                               "number"),
    "random_context bool density": (
        lambda: random_context(0, 2, 2, True),
        "density is True, which is not a rational number"),
    "format_fixed": (lambda: format_fixed("x", 2),
                     "x is 'x', which is not a rational number"),
    "round_half_away": (lambda: round_half_away("x"),
                        "x is 'x', which is not a rational number"),
    "round_half_away None": (lambda: round_half_away(None, 1),
                             "x is None, which is not a rational number"),
}


@pytest.mark.parametrize("call, message", NOT_RATIONALS.values(),
                         ids=list(NOT_RATIONALS))
def test_a_density_or_value_that_is_not_rational_is_named(call, message):
    with pytest.raises(ConceptDSError) as info:
        call()
    assert type(info.value) is PreconditionError
    assert str(info.value) == message


def test_reading_densities_leaves_every_draw_as_it_was():
    """Each context's rows, as drawn before densities were read by
    `parse_rationals`; a float is still drawn against as a float."""
    drawn = {(1, 5, 4, 0.3): (9, 0, 3, 2, 9),
             (2, 4, 6, Fraction(1, 3)): (12, 34, 0, 46),
             (3, 6, 3, Decimal("0.7")): (7, 7, 5, 5, 6, 3),
             (4, 3, 5, 0.5): (31, 17, 30),
             (5, 4, 4, 1): (15, 15, 15, 15),
             (6, 4, 4, 0): (0, 0, 0, 0)}
    for args, rows in drawn.items():
        assert random_context(*args).rows == rows
    assert random_context(4, 3, 5, "1/2").rows == (31, 17, 30)
    assert round_half_away("0.125") == Fraction(13, 100)
    assert format_fixed("-1/3", 3) == "-0.333"


def test_reading_sizes_leaves_every_draw_and_rounding_as_it_was():
    ctx = random_context(7, 4, 3, 0.5)
    assert sorted(ctx.incidence) == [(0, 0), (0, 1), (1, 0), (1, 2), (2, 0),
                                     (2, 2), (3, 0), (3, 1), (3, 2)]
    assert random_mass(3, enumerate_concepts(ctx), 10).values == \
        (Fraction(1, 4),) * 4
    assert random_set_mass(5, range(3), 8).values == {
        frozenset({1, 2}): Fraction(3, 5), frozenset({0, 1, 2}): Fraction(2, 5)}
    assert round_half_away(Fraction(15), -1) == 20
    assert format_fixed(Fraction(2, 3), 0) == "1"
