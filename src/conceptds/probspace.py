"""Finite probability spaces over a partition; inner and outer measures.

The measurable sets are the unions of blocks.  A subset of the carrier is
approximated from inside by the union of blocks it contains and from outside
by the union of blocks it meets; the inner and outer measures are the measures
of those two approximants.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from .context import parse_json_object
from .errors import ParseError
from .frozen import Frozen
from .powerset import read_sequence, read_subset
from .rationals import parse_rationals


class ProbabilitySpace(Frozen):
    """A carrier partitioned into blocks, each carrying exact probability.

    Blocks with measure zero are permitted; empty blocks are not.
    """

    carrier: frozenset
    blocks: tuple[frozenset, ...]
    mu: tuple[Fraction, ...]
    _compared = ("carrier", "blocks", "mu")

    def __init__(self, carrier: Iterable, blocks: Iterable[Iterable],
                 mu: Iterable[Fraction]) -> None:
        carrier = read_subset(carrier, "carrier", ParseError)
        blocks = tuple(read_subset(b, "block", ParseError)
                       for b in read_sequence(blocks, "blocks", ParseError))
        mu = parse_rationals(read_sequence(mu, "mu", ParseError),
                             lambda i: f"block {i} has measure", ParseError)
        object.__setattr__(self, "carrier", carrier)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "mu", mu)
        if len(blocks) != len(mu):
            raise ParseError(f"{len(blocks)} blocks but {len(mu)} measures")
        seen: set = set()
        for block in blocks:
            if not block:
                raise ParseError("blocks must be nonempty")
            if block & seen:
                raise ParseError("blocks must be pairwise disjoint")
            seen |= block
        if seen != carrier:
            raise ParseError("blocks must cover the carrier exactly")
        for v in mu:
            if v < 0:
                raise ParseError(f"negative block measure {v}")
        total = sum(mu, Fraction(0))
        if total != 1:
            raise ParseError(f"block measures sum to {total}, expected 1")

    def _subset(self, subset: Iterable) -> frozenset:
        return read_subset(subset, "subset", ParseError, self.carrier)

    def iota(self, subset: Iterable) -> frozenset:
        """Largest measurable set inside: union of blocks included in it."""
        y = self._subset(subset)
        return frozenset().union(*(b for b in self.blocks if b <= y))

    def gamma(self, subset: Iterable) -> frozenset:
        """Smallest measurable set around: union of blocks meeting it."""
        y = self._subset(subset)
        return frozenset().union(*(b for b in self.blocks if b & y))

    def inner_measure(self, subset: Iterable) -> Fraction:
        y = self._subset(subset)
        return sum((v for b, v in zip(self.blocks, self.mu) if b <= y),
                   Fraction(0))

    def outer_measure(self, subset: Iterable) -> Fraction:
        y = self._subset(subset)
        return sum((v for b, v in zip(self.blocks, self.mu) if b & y),
                   Fraction(0))


def parse_probability_space(text: str) -> ProbabilitySpace:
    """Parse {"carrier": [...], "blocks": [[...], ...], "mu": [...]} JSON."""
    return probability_space_from_json(parse_json_object(text))


def json_elements(value: object, what: str) -> frozenset:
    """A JSON list of set elements as a frozenset.

    Elements are JSON strings and numbers; null, true, false, a nested list
    or an object is rejected.  So is a list that repeats an element,
    including numbers Python holds equal, such as 0 and 0.0.
    """
    if not isinstance(value, list):
        raise ParseError(f"{what} must be a list")
    for element in value:
        if not isinstance(element, (str, int, float)) \
                or isinstance(element, bool):
            raise ParseError(f"{what} must hold strings or numbers, "
                             f"got {element!r}")
    elements = frozenset(value)
    if len(elements) != len(value):
        raise ParseError(f"{what} repeats an element")
    return elements


def probability_space_from_json(doc: Mapping) -> ProbabilitySpace:
    if not isinstance(doc, Mapping):
        raise ParseError("partition-space document must be a JSON object")
    for key in ("carrier", "blocks", "mu"):
        if key not in doc:
            raise ParseError(f"partition-space document is missing {key!r}")
    carrier = json_elements(doc["carrier"], "'carrier'")
    blocks = doc["blocks"]
    mu = doc["mu"]
    if not isinstance(blocks, list) or not all(isinstance(b, list) for b in blocks):
        raise ParseError("'blocks' must be a list of lists")
    if not isinstance(mu, list):
        raise ParseError("'mu' must be a list of rationals")
    return ProbabilitySpace(carrier,
                            tuple(json_elements(b, f"'blocks'[{i}]")
                                  for i, b in enumerate(blocks)), mu)
