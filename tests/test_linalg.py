from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrpoly import CorrpolyError, linalg

F = Fraction


@pytest.mark.parametrize("value", ["abc", "1/0", "0.5.1", float("nan"), float("inf"), None])
def test_fraction_tuple_rejects_what_is_no_finite_rational(value):
    with pytest.raises(CorrpolyError, match="not a finite rational"):
        linalg.fraction_tuple((F(1, 2), value))


def test_rref_and_rank():
    m = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
    red, pivots = linalg.rref(m)
    assert pivots == [0, 1]
    assert linalg.rank(m) == 2


def test_nullspace_dimensions():
    m = [[1, 1, 0, 0], [0, 0, 1, 1]]
    basis = linalg.nullspace(m)
    assert len(basis) == 2
    for v in basis:
        assert all(x == 0 for x in linalg.mat_vec(m, v))


def test_solve_affine_unique_and_underdetermined():
    m = [[1, 0], [0, 1]]
    assert linalg.solve_affine(m, [F(1, 2), F(1, 3)]) == ((F(1, 2), F(1, 3)), [])
    wide = [[1, 1]]
    res = linalg.solve_affine(wide, [F(1)])
    assert res is not None
    sol, basis = res
    assert sum(sol) == 1 and len(basis) == 1
    assert linalg.solve_affine(wide, [F(1)])[1] != []  # not unique
    inconsistent = [[1, 0], [1, 0]]
    assert linalg.solve_affine(inconsistent, [F(1), F(2)]) is None


@st.composite
def small_systems(draw):
    rows = draw(st.integers(min_value=1, max_value=4))
    cols = draw(st.integers(min_value=1, max_value=4))
    matrix = [
        [F(draw(st.integers(min_value=-3, max_value=3))) for _ in range(cols)]
        for _ in range(rows)
    ]
    x = [F(draw(st.integers(min_value=-3, max_value=3)), 2) for _ in range(cols)]
    return matrix, x


@settings(max_examples=60, deadline=None)
@given(small_systems())
def test_solve_affine_recovers_consistent_systems(system):
    matrix, x = system
    rhs = linalg.mat_vec(matrix, x)
    res = linalg.solve_affine(matrix, rhs)
    assert res is not None
    sol, basis = res
    assert linalg.mat_vec(matrix, sol) == tuple(rhs)
    for v in basis:
        assert all(e == 0 for e in linalg.mat_vec(matrix, v))
    # rank-nullity on the coefficient matrix
    assert len(basis) == len(matrix[0]) - linalg.rank(matrix)
