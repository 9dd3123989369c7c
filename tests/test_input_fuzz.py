"""Malformed input fails with a ConceptDSError, never with another exception.

Each parser is fed documents that mix the expected keys with arbitrary JSON
values, and arbitrary text.  Any exception other than a ConceptDSError is a
crash the command line would print as a traceback.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from conceptds import (ConceptDSError, build_report, load_document,
                       parse_cxt, probability_space_from_json)

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
