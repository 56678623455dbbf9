from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corrpoly import CorrpolyError, linalg
from bruteforce import _rref as rref_reference

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


def test_rref_rejects_ragged_rows():
    with pytest.raises(CorrpolyError, match="ragged matrix: row 1 has 2 entries, row 0 has 3"):
        linalg.rref([[1, 2, 3], [4, 5]])


def test_nullspace_rejects_ragged_rows():
    with pytest.raises(CorrpolyError, match="ragged matrix: row 1 has 3 entries, row 0 has 2"):
        linalg.nullspace([[1, 2], [3, 4, 5]])


def test_solve_affine_rejects_a_missing_right_hand_side():
    with pytest.raises(CorrpolyError, match="2 equations but 1 right-hand sides"):
        linalg.solve_affine([[1, 0], [0, 1]], [1])
    with pytest.raises(CorrpolyError, match="ragged matrix"):
        linalg.solve_affine([[1, 0], [0]], [1, 1])


@st.composite
def sparse_matrices(draw):
    """Rational matrices of 0-6 rows and columns, most entries zero, with
    some rows and columns zeroed out."""
    n_rows = draw(st.integers(min_value=0, max_value=6))
    n_cols = draw(st.integers(min_value=0, max_value=6))
    nonzero = st.builds(F, st.integers(min_value=-4, max_value=4), st.integers(min_value=1, max_value=3))
    entry = st.one_of(st.just(F(0)), st.just(F(0)), nonzero)
    m = [[draw(entry) for _ in range(n_cols)] for _ in range(n_rows)]
    zero_rows = draw(st.sets(st.integers(min_value=0, max_value=5)))
    zero_cols = draw(st.sets(st.integers(min_value=0, max_value=5)))
    return [
        [F(0) if i in zero_rows or j in zero_cols else x for j, x in enumerate(row)]
        for i, row in enumerate(m)
    ]


@settings(max_examples=300, deadline=None)
@given(sparse_matrices())
@example([])
@example([[]])
@example([[F(0), F(2), F(0), F(-1, 3)]])  # 1 x n
@example([[F(0)], [F(3, 2)], [F(0)], [F(-1)]])  # n x 1
@example([[0, 0, 0], [0, 1, 1], [0, 0, 0], [1, 0, 1]])  # a zero row and a zero column
def test_rref_matches_the_reference_entry_for_entry(m):
    red, pivots = linalg.rref(m)
    ref_red, ref_pivots = rref_reference(m)
    assert pivots == ref_pivots
    assert red == ref_red
    assert all(type(x) is Fraction for row in red for x in row)


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
