"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from conceptds import (FormalContext, MassFunction, ProbabilitySpace,
                       SetMassFunction, build_case, enumerate_concepts,
                       normalize_no_universal_object, random_context,
                       random_mass)

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def movies1_case():
    return build_case("movies-1")


@pytest.fixture(scope="session")
def movies2_case():
    return build_case("movies-2")


@pytest.fixture(scope="session")
def movies3_case():
    return build_case("movies-3")


@pytest.fixture(scope="session")
def music_case():
    return build_case("music")


@pytest.fixture(scope="session")
def music_lattice(music_case):
    return music_case.lattice


def seeded_lattice_mass(rng: random.Random, max_concepts: int = 10,
                        normalize: bool = False,
                        denominator_bound: int = 64) -> MassFunction:
    """A random mass on a random lattice under a concept-count cap."""
    while True:
        ctx = random_context(rng.randrange(2 ** 32), rng.randint(1, 5),
                             rng.randint(1, 5), rng.uniform(0.2, 0.8))
        if normalize:
            ctx = normalize_no_universal_object(ctx)
        lat = enumerate_concepts(ctx)
        if len(lat) <= max_concepts:
            return random_mass(rng.randrange(2 ** 32), lat,
                               denominator_bound=denominator_bound)


def contranominal(n: int) -> FormalContext:
    """Object i has every attribute but i: all 2^n subsets are extents."""
    return FormalContext(tuple(f"o{i}" for i in range(n)),
                         tuple(f"a{i}" for i in range(n)),
                         frozenset((g, m) for g in range(n) for m in range(n)
                                   if g != m))


def with_universal_object(ctx):
    """The context plus an object holding every attribute, so that the
    least concept's extent is inhabited."""
    g = len(ctx.objects)
    return FormalContext(ctx.objects + ("universal",), ctx.attributes,
                         ctx.incidence | {(g, a)
                                          for a in range(len(ctx.attributes))})



# ---------------------------------------------------------------------------
# Strategies

@st.composite
def small_contexts(draw, max_objects: int = 5, max_attributes: int = 5,
                   min_objects: int = 0, min_attributes: int = 0):
    n_obj = draw(st.integers(min_objects, max_objects))
    n_attr = draw(st.integers(min_attributes, max_attributes))
    if n_obj and n_attr:
        incidence = draw(st.frozensets(
            st.tuples(st.integers(0, n_obj - 1), st.integers(0, n_attr - 1)),
            max_size=n_obj * n_attr))
    else:
        incidence = frozenset()
    return FormalContext(tuple(f"o{i}" for i in range(n_obj)),
                         tuple(f"a{j}" for j in range(n_attr)),
                         incidence)


@st.composite
def lattice_masses(draw, max_objects: int = 4, max_attributes: int = 4,
                   normalize: bool = False):
    ctx = draw(small_contexts(max_objects, max_attributes, min_objects=1))
    if normalize:
        ctx = normalize_no_universal_object(ctx)
    lat = enumerate_concepts(ctx)
    weights = draw(st.lists(st.integers(0, 6), min_size=len(lat),
                            max_size=len(lat)))
    if not lat.extents[lat.bottom_index]:
        weights[lat.bottom_index] = 0
    if sum(weights) == 0:
        weights[lat.top_index] = 1
    total = sum(weights)
    return MassFunction(lat, tuple(Fraction(w, total) for w in weights))


def _nonempty_subsets(elements: list) -> list[frozenset]:
    out = [frozenset()]
    for e in elements:
        out += [s | {e} for s in out]
    return [s for s in out if s]


@st.composite
def set_masses(draw, max_carrier: int = 4):
    n = draw(st.integers(1, max_carrier))
    carrier = frozenset(f"s{i}" for i in range(n))
    candidates = _nonempty_subsets(sorted(carrier))
    weights = draw(st.lists(st.integers(0, 6), min_size=len(candidates),
                            max_size=len(candidates)))
    if sum(weights) == 0:
        weights[-1] = 1
    total = sum(weights)
    return SetMassFunction(carrier, {
        s: Fraction(w, total) for s, w in zip(candidates, weights) if w})


@st.composite
def partition_spaces(draw, max_carrier: int = 5):
    n = draw(st.integers(1, max_carrier))
    elements = [f"e{i}" for i in range(n)]
    assignment = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    groups: dict[int, set] = {}
    for element, group in zip(elements, assignment):
        groups.setdefault(group, set()).add(element)
    blocks = sorted((frozenset(b) for b in groups.values()), key=sorted)
    weights = draw(st.lists(st.integers(0, 6), min_size=len(blocks),
                            max_size=len(blocks)))
    if sum(weights) == 0:
        weights[0] = 1
    total = sum(weights)
    return ProbabilitySpace(frozenset(elements), tuple(blocks),
                            tuple(Fraction(w, total) for w in weights))


def subsets_of(carrier: frozenset):
    """Strategy drawing arbitrary subsets of a fixed finite carrier."""
    if not carrier:
        return st.just(frozenset())
    return st.frozensets(st.sampled_from(sorted(carrier)))
