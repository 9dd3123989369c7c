"""Finite probability spaces over a partition; inner and outer measures.

The measurable sets are the unions of blocks.  A subset of the carrier is
approximated from inside by the union of blocks it contains and from outside
by the union of blocks it meets; the inner and outer measures are the measures
of those two approximants.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .context import parse_json_object
from .errors import ParseError
from .rationals import parse_rational


@dataclass(frozen=True)
class ProbabilitySpace:
    """A carrier partitioned into blocks, each carrying exact probability.

    Blocks with measure zero are permitted; empty blocks are not.
    """

    carrier: frozenset
    blocks: tuple[frozenset, ...]
    mu: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "carrier", frozenset(self.carrier))
        object.__setattr__(self, "blocks", tuple(frozenset(b) for b in self.blocks))
        object.__setattr__(self, "mu", tuple(Fraction(v) for v in self.mu))
        if len(self.blocks) != len(self.mu):
            raise ParseError(f"{len(self.blocks)} blocks but {len(self.mu)} measures")
        seen: set = set()
        for block in self.blocks:
            if not block:
                raise ParseError("blocks must be nonempty")
            if block & seen:
                raise ParseError("blocks must be pairwise disjoint")
            seen |= block
        if seen != self.carrier:
            raise ParseError("blocks must cover the carrier exactly")
        for v in self.mu:
            if v < 0:
                raise ParseError(f"negative block measure {v}")
        total = sum(self.mu, Fraction(0))
        if total != 1:
            raise ParseError(f"block measures sum to {total}, expected 1")

    def _subset(self, subset: Iterable) -> frozenset:
        y = frozenset(subset)
        if not y <= self.carrier:
            raise ParseError(f"{set(y)!r} is not a subset of the carrier")
        return y

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

    Elements are JSON scalars; a nested list or object cannot be a member of
    a set and is rejected.  So is a list that repeats an element, including
    scalars Python holds equal, such as 0, 0.0 and false.
    """
    if not isinstance(value, list):
        raise ParseError(f"{what} must be a list")
    for element in value:
        if isinstance(element, (list, dict)):
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
                                  for i, b in enumerate(blocks)),
                            tuple(parse_rational(v) for v in mu))
