"""Partition probability spaces and their inner/outer approximations."""

from __future__ import annotations

import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conceptds import ParseError, ProbabilitySpace, parse_probability_space

from conftest import partition_spaces, subsets_of

F = Fraction

HALVES = ProbabilitySpace(
    frozenset({1, 2, 3, 4}),
    (frozenset({1, 2}), frozenset({3}), frozenset({4})),
    (F(1, 2), F(1, 4), F(1, 4)),
)


# ---------------------------------------------------------------------------
# Construction

@pytest.mark.parametrize(
    "blocks, mu, fragment",
    [
        (({1, 2}, {2, 3}), (F(1, 2), F(1, 2)), "disjoint"),
        (({1},), (F(1),), "cover"),
        (({1, 2}, ()), (F(1, 2), F(1, 2)), "nonempty"),
        (({1, 2}, {3}), (F(3, 2), F(-1, 2)), "negative"),
        (({1, 2}, {3}), (F(1, 2), F(1, 4)), "sum"),
        (({1, 2}, {3}), (F(1, 2),), "measures"),
        (({1, 2}, {3}), (None, F(1)),
         "^block 0 has measure None, which is not a rational number$"),
        (({1, 2}, {3}), (F(1, 2), "x"),
         "^block 1 has measure 'x', which is not a rational number$"),
    ],
)
def test_invalid_spaces_are_rejected(blocks, mu, fragment):
    with pytest.raises(ParseError, match=fragment):
        ProbabilitySpace(frozenset({1, 2, 3}), tuple(map(frozenset, blocks)),
                         mu)


def test_zero_measure_blocks_are_fine():
    space = ProbabilitySpace(frozenset({1, 2}),
                             (frozenset({1}), frozenset({2})),
                             (F(1), F(0)))
    assert space.inner_measure({2}) == 0
    assert space.outer_measure({2}) == 0


def test_subset_queries_stay_inside_the_carrier():
    with pytest.raises(ParseError, match="subset"):
        HALVES.iota({9})
    with pytest.raises(ParseError, match="subset"):
        HALVES.outer_measure({1, 9})


def test_a_subset_argument_that_is_not_a_set_is_named():
    for query in (HALVES.inner_measure, HALVES.outer_measure, HALVES.iota,
                  HALVES.gamma):
        with pytest.raises(ParseError) as info:
            query(5)
        assert str(info.value) == \
            "subset 5 is not an iterable of hashable elements"


# ---------------------------------------------------------------------------
# The approximating sets

def test_iota_and_gamma_on_a_worked_example():
    assert HALVES.iota({1, 3}) == frozenset({3})
    assert HALVES.gamma({1, 3}) == frozenset({1, 2, 3})
    assert HALVES.inner_measure({1, 3}) == F(1, 4)
    assert HALVES.outer_measure({1, 3}) == F(3, 4)


@given(partition_spaces(), st.data())
def test_approximants_sandwich_the_subset(space, data):
    y = data.draw(subsets_of(space.carrier))
    inner = space.iota(y)
    outer = space.gamma(y)
    assert inner <= y <= outer
    assert space.iota(inner) == inner
    assert space.gamma(outer) == outer


@given(partition_spaces(), st.data())
def test_measures_are_the_measures_of_the_approximants(space, data):
    y = data.draw(subsets_of(space.carrier))

    def measure(z):
        return sum((v for b, v in zip(space.blocks, space.mu) if b <= z),
                   F(0))

    assert space.inner_measure(y) == measure(space.iota(y))
    assert space.outer_measure(y) == measure(space.gamma(y))
    assert space.inner_measure(y) <= space.outer_measure(y)


@given(partition_spaces(), st.data())
def test_monotone_in_the_subset(space, data):
    y = data.draw(subsets_of(space.carrier))
    z = data.draw(subsets_of(y))
    assert space.iota(z) <= space.iota(y)
    assert space.gamma(z) <= space.gamma(y)
    assert space.inner_measure(z) <= space.inner_measure(y)
    assert space.outer_measure(z) <= space.outer_measure(y)


@given(partition_spaces())
def test_extremes(space):
    assert space.iota(space.carrier) == space.carrier
    assert space.gamma(frozenset()) == frozenset()
    assert space.inner_measure(space.carrier) == 1
    assert space.outer_measure(space.carrier) == 1
    assert space.inner_measure(frozenset()) == 0
    assert space.outer_measure(frozenset()) == 0


@given(partition_spaces(), st.data())
def test_outer_is_dual_to_inner(space, data):
    y = data.draw(subsets_of(space.carrier))
    assert space.outer_measure(y) == 1 - space.inner_measure(space.carrier - y)


# ---------------------------------------------------------------------------
# Parsing and the lattice-indexed variant

def test_parse_round_trip():
    space = parse_probability_space(
        '{"carrier": [1, 2, 3], "blocks": [[1, 2], [3]],'
        ' "mu": ["1/2", "0.5"]}')
    assert space.blocks == (frozenset({1, 2}), frozenset({3}))
    assert space.mu == (F(1, 2), F(1, 2))


@pytest.mark.parametrize(
    "text",
    [
        "[1, 2]",
        "{not json",
        '{"carrier": [1], "blocks": [[1]]}',
        '{"carrier": 3, "blocks": [[1]], "mu": [1]}',
        '{"carrier": [1], "blocks": [1], "mu": [1]}',
        '{"carrier": [1], "blocks": [[1]], "mu": "1"}',
    ],
)
def test_parse_rejects_malformed_documents(text):
    with pytest.raises(ParseError):
        parse_probability_space(text)



@pytest.mark.parametrize("text, message", [
    ('{"carrier": [0, 0.0, 1], "blocks": [[0, 1]], "mu": ["1"]}',
     "'carrier' repeats an element"),
    ('{"carrier": ["a", "b"], "blocks": [["a"], ["b", "b"]],'
     ' "mu": ["1/2", "1/2"]}',
     "'blocks'[1] repeats an element"),
])
def test_a_repeated_element_is_rejected_by_field(text, message):
    with pytest.raises(ParseError, match=re.escape(message)):
        parse_probability_space(text)


@pytest.mark.parametrize("text, message", [
    ('{"carrier": [null, true, "x"], "blocks": [[null, true], ["x"]],'
     ' "mu": ["1/2", "1/2"]}',
     "'carrier' must hold strings or numbers, got None"),
    ('{"carrier": ["x", false], "blocks": [["x", false]], "mu": ["1"]}',
     "'carrier' must hold strings or numbers, got False"),
    ('{"carrier": ["x", 1], "blocks": [["x"], [true]], "mu": ["1/2", "1/2"]}',
     "'blocks'[1] must hold strings or numbers, got True"),
], ids=["null-and-true", "false", "true-in-a-block"])
def test_null_and_booleans_are_not_elements(text, message):
    with pytest.raises(ParseError) as info:
        parse_probability_space(text)
    assert str(info.value) == message
