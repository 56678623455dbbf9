import random
from fractions import Fraction
from pathlib import Path

import pytest

from corrpoly import CorrelationSet, FeasibleStart, Marginal, ProductSpace

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
F = Fraction


def random_marginal(index: int, size: int, rng: random.Random, denominator: int = 12) -> Marginal:
    """A full-support rational marginal with bounded denominator."""
    while True:
        cuts = sorted(rng.randint(0, denominator) for _ in range(size - 1))
        parts = [a - b for a, b in zip(cuts + [denominator], [0] + cuts)]
        if all(p > 0 for p in parts):
            return Marginal(index, tuple(Fraction(p, denominator) for p in parts))


def random_correlation_set(sizes, rng: random.Random) -> CorrelationSet:
    space = ProductSpace(tuple(sizes))
    marginals = [random_marginal(i, s, rng) for i, s in enumerate(sizes)]
    return CorrelationSet(space, marginals)


def replaced_start(start: FeasibleStart, **changes) -> FeasibleStart:
    """A new start, built by the constructor, with the fields of ``start``
    but those named in ``changes``; its caches start empty."""
    fields = {name: getattr(start, name) for name in ("rows", "rhs", "basis", "flipped", "system")}
    return FeasibleStart(**{**fields, **changes})


def _uniform(*sizes):
    return [tuple(F(1, s) for _ in range(s)) for s in sizes]


# Degenerate marginals, one tuple of weights per subspace: zero-weight
# states, 1-state subspaces and tied partial sums.
DEGENERATE_MARGINALS = {
    "zero-weight-state": [(F(1, 2), F(1, 2)), (F(1, 3), F(0), F(2, 3))],
    "zero-weight-both": [(F(0), F(1, 4), F(3, 4)), (F(1, 2), F(0), F(1, 2))],
    "1x3": [(F(1),), (F(1, 6), F(1, 3), F(1, 2))],
    "2x1x2": [(F(1, 3), F(2, 3)), (F(1),), (F(1, 4), F(3, 4))],
    "uniform-3x3": _uniform(3, 3),
    "uniform-2x2x2": _uniform(2, 2, 2),
    "tied-2x2": [(F(1, 3), F(2, 3)), (F(2, 3), F(1, 3))],
}


def correlation_set_of(weights) -> CorrelationSet:
    """The correlation set with one marginal per tuple of weights."""
    space = ProductSpace(tuple(len(w) for w in weights))
    return CorrelationSet(space, [Marginal(i, w) for i, w in enumerate(weights)])


@pytest.fixture
def uniform_2x2() -> CorrelationSet:
    space = ProductSpace((2, 2))
    half = Fraction(1, 2)
    return CorrelationSet(space, [Marginal(0, (half, half)), Marginal(1, (half, half))])


@pytest.fixture
def skew_2x2() -> CorrelationSet:
    space = ProductSpace((2, 2))
    return CorrelationSet(
        space,
        [
            Marginal(0, (Fraction(1, 3), Fraction(2, 3))),
            Marginal(1, (Fraction(1, 4), Fraction(3, 4))),
        ],
    )


@pytest.fixture
def uniform_cube() -> CorrelationSet:
    space = ProductSpace((2, 2, 2))
    half = Fraction(1, 2)
    return CorrelationSet(space, [Marginal(i, (half, half)) for i in range(3)])
