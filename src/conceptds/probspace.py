"""Finite probability spaces over a partition; inner and outer measures.

The measurable sets are the unions of blocks.  A subset of the carrier is
approximated from inside by the union of blocks it contains and from outside
by the union of blocks it meets; the inner and outer measures are the measures
of those two approximants (Fagin and Halpern, "Uncertainty, belief, and
probability", 1991).  Both are sums of integers: the block measures are read
once as numerators over the lcm of their denominators
(`rationals.common_numerators`), and a measure is one Fraction of a numerator
sum over that one denominator.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from .context import check_document_keys, parse_json_object
from .errors import ParseError
from .frozen import Frozen
from .powerset import read_sequence, read_subset, read_text
from .rationals import check_unit, common_numerators, parse_rationals


class ProbabilitySpace(Frozen):
    """A carrier partitioned into blocks, each carrying exact probability.

    Blocks with measure zero are permitted; empty blocks are not.  The
    constructor reads `mu` once, as numerators over the lcm of its
    denominators, and checks signs and the total on those integers
    (`rationals.check_unit`): the first negative block measure is named,
    then a total other than 1.  The numerators are kept beside `mu` for
    the measures; equality and hashing read `carrier`, `blocks` and `mu`.
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
        d, numerators = common_numerators(mu)
        check_unit(d, numerators, lambda i: f"negative block measure {mu[i]}",
                   "block measures sum to", ParseError)
        # (d, ((block, numerator), ...)): block i weighs numerator / d.
        object.__setattr__(self, "_weights",
                           (d, tuple(zip(blocks, numerators))))

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
        """The measure of `iota(subset)`: the block numerators summed over
        the blocks inside the subset, over the space's one denominator."""
        y = self._subset(subset)
        d, weights = self._weights
        return Fraction(sum([x for b, x in weights if b <= y]), d)

    def outer_measure(self, subset: Iterable) -> Fraction:
        """The measure of `gamma(subset)`: the block numerators summed over
        the blocks meeting the subset, over the space's one denominator."""
        y = self._subset(subset)
        d, weights = self._weights
        return Fraction(sum([x for b, x in weights if not y.isdisjoint(b)]), d)


def parse_probability_space(text: str) -> ProbabilitySpace:
    """Parse {"carrier": [...], "blocks": [[...], ...], "mu": [...]} JSON."""
    return probability_space_from_json(parse_json_object(
        read_text(text, "partition-space text", ParseError)))


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


_SPACE_KEYS = ("carrier", "blocks", "mu")


def probability_space_from_json(doc: Mapping) -> ProbabilitySpace:
    """A space from parsed JSON: {"carrier": [...], "blocks": [[...], ...],
    "mu": [...]}, elements read by `json_elements`.  Any other key is
    refused (`context.check_document_keys`)."""
    if not isinstance(doc, Mapping):
        raise ParseError("partition-space document must be a JSON object")
    check_document_keys(doc, _SPACE_KEYS)
    for key in _SPACE_KEYS:
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
