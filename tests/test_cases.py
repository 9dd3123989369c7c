"""Malformed worked-case documents fail with one input error."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from conceptds import LabelError, ParseError, build_report, load_document
from conceptds.cases import CellNote, load_case

# Concepts in canonical order: top {a,b} "⊤", {a} "A", {b} "#2", bottom "⊥".
DOC = {"objects": ["a", "b"], "attributes": ["x", "y"],
       "incidence": [["a", "x"], ["b", "y"]], "labels": {"A": ["a"]},
       "masses": {"m1": {"A": "1/2", "top": "1/2"},
                  "m2": {"{b}": "1/2", "top": "1/2"}}}


def _report(**changes):
    return lambda: build_report(load_document(json.dumps({**DOC, **changes})))


def _expected(block):
    return _report(expected=block)


ORDER_ERROR = "'expected.combined.order' must be a list of mass names"


@pytest.mark.parametrize("build, error, message", [
    (_expected([]), ParseError, "'expected' must be an object of tables"),
    (_expected(0), ParseError, "'expected' must be an object of tables"),
    (_expected({"mass": {}, "masses": {}}), ParseError,
     "unknown expected tables: ['masses']"),
    (_expected({"combined": ["m1"]}), ParseError,
     "'expected.combined' must be an object"),
    (_expected({"combined": {"order": ["m1"], "weights": {}}}), ParseError,
     "unknown keys in expected combined table: ['weights']"),
    (_expected({"combined": {"order": 5}}), ParseError, ORDER_ERROR),
    (_expected({"combined": {"order": [["m1"]]}}), ParseError, ORDER_ERROR),
    (_expected({"combined": {"order": "m1"}}), ParseError, ORDER_ERROR),
    (_expected({"combined": {"order": ["m1", "m3"]}}), ParseError,
     "combination order names unknown mass 'm3'"),
    (_expected({"bel": ["m1"]}), ParseError,
     "expected table 'bel' must be an object"),
    (_expected({"pl": {"m3": {}}}), ParseError,
     "expected table 'pl' references unknown row 'm3'"),
    (_expected({"bel": {"order": {"A": "0.5"}}}), ParseError,
     "expected table 'bel' references unknown row 'order'"),
    (_expected({"mass": {"m1": ["0.5"]}}), ParseError,
     "row 'm1' of expected table 'mass' must be an object"),
    (_expected({"combined": {"bel": {"B": "1"}}}), ParseError,
     "expected table 'combined' references unknown concept label 'B'"),
    (_report(labels={"A": ["a"], "B": ["a"]}), LabelError,
     "labels 'A' and 'B' name the same concept"),
    (lambda: load_case("movies-4"), ParseError,
     "unknown case 'movies-4'; available: movies-1, movies-2, movies-3, "
     "music"),
], ids=["expected-list", "expected-zero", "unknown-table",
        "combined-not-an-object", "unknown-combined-key", "order-number",
        "order-nested-list", "order-string", "order-unknown-mass",
        "table-not-an-object", "unknown-row", "unknown-row-order",
        "row-not-an-object",
        "unknown-column", "duplicate-label", "unknown-case"])
def test_malformed_cases_raise_one_input_error(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message



def test_a_mass_named_order_has_its_cells_compared():
    """Only the combined block's `order` key is skipped, not a row of that name."""
    masses = {"order": DOC["masses"]["m1"]}
    report = _report(masses=masses,
                     expected={"mass": {"order": {"A": "0.10"}}})()
    assert report.notes == (CellNote("mass", "order", "A", Fraction(1, 2),
                                     Fraction(1, 10)),)
