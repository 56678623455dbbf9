import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corrpoly import CorrpolyError, dimension, enumerate_extreme_points, linalg, mix
from corrpoly.polytope import face_basis
from bruteforce import _rref as rref_reference
from conftest import DEGENERATE_MARGINALS, correlation_set_of, random_correlation_set

F = Fraction


@pytest.mark.parametrize("value", ["abc", "1/0", "0.5.1", float("nan"), float("inf"), None])
def test_fraction_tuple_rejects_what_is_no_finite_rational(value):
    with pytest.raises(CorrpolyError, match="not a finite rational"):
        linalg.fraction_tuple((F(1, 2), value))


def _fraction_rref(m):
    """The rref of ``m`` in Fractions, read off `linalg._integer_reduce`:
    each pivot row divided by its entry in its pivot column."""
    rows, pivots = linalg._integer_reduce(m)
    scales = [row[c] for row, c in zip(rows, pivots)] + [1] * (len(rows) - len(pivots))
    return [[F(x, s) for x in row] for row, s in zip(rows, scales)], pivots


def test_rref_and_rank():
    m = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
    rows, pivots = linalg._integer_reduce(m)
    assert pivots == [0, 1]
    assert rows == [(1, 0, 1), (0, 1, 1), (0, 0, 0)]
    assert linalg.rank(m) == 2


def test_rref_rejects_ragged_rows():
    with pytest.raises(CorrpolyError, match="ragged matrix: row 1 has 2 entries, row 0 has 3"):
        linalg._integer_reduce([[1, 2, 3], [4, 5]])
    with pytest.raises(CorrpolyError, match="ragged matrix: row 1 has 1 entries, row 0 has 2"):
        linalg._reduce([[1, 0], [0]])


def test_nullspace_rejects_ragged_rows():
    with pytest.raises(CorrpolyError, match="ragged matrix: row 1 has 3 entries, row 0 has 2"):
        linalg._integer_kernel([[1, 2], [3, 4, 5]])


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
    red, pivots = _fraction_rref(m)
    ref_red, ref_pivots = rref_reference(m)
    assert pivots == ref_pivots
    assert red == ref_red
    assert all(type(x) is int for row in linalg._integer_reduce(m)[0] for x in row)


def test_nullspace_dimensions():
    m = [[1, 1, 0, 0], [0, 0, 1, 1]]
    basis, scale = linalg._integer_kernel(m)
    assert len(basis) == 2 and scale == 1
    for v in basis:
        assert all(x == 0 for x in linalg.mat_vec(m, v))


# Integer elimination: ints stay ints until a pivot other than 1 divides,
# and every result, read as Fractions, equals the Fraction reference's.
@st.composite
def leading_pivot_matrices(draw, entries, leads):
    """Matrices of 1-5 rows and 1-5 columns, about half their entries zero,
    whose first entry is one of ``leads``: a pivot other than 1."""
    n_rows = draw(st.integers(min_value=1, max_value=5))
    n_cols = draw(st.integers(min_value=1, max_value=5))
    entry = st.one_of(st.just(0), entries)
    m = [[draw(entry) for _ in range(n_cols)] for _ in range(n_rows)]
    m[0][0] = draw(st.sampled_from(leads))
    return m


MIXED = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.builds(F, st.integers(min_value=-3, max_value=3), st.integers(min_value=1, max_value=3)),
)
MATRICES = st.one_of(
    leading_pivot_matrices(st.integers(min_value=-3, max_value=3), (-1, 2, 3)),
    leading_pivot_matrices(MIXED, (-1, 2, 3, F(1, 3))),
)
PIVOT_EXAMPLES = (
    [[-1, 1, 0], [1, 1, 1]],
    [[2, 1], [1, 3]],
    [[3, 0, 1], [0, 2, 1]],
    [[F(1, 3), 1], [1, 0]],
    [[0, 1, 1], [1, 0, 1], [1, 1, 0]],  # pivots 1, 1, then -2
)


def _with_pivot_examples(test):
    for m in PIVOT_EXAMPLES:
        test = example(m)(test)
    return test


@st.composite
def systems(draw):
    m = draw(MATRICES)
    return m, [draw(MIXED) for _ in m]


def _reference_kernel(red, pivots, n_cols):
    """The kernel basis that `bruteforce._rref`'s reduced matrix gives."""
    basis = []
    for fc in (c for c in range(n_cols) if c not in pivots):
        v = [F(0)] * n_cols
        v[fc] = F(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(tuple(v))
    return basis


def _all_fractions(vectors):
    return all(type(x) is Fraction for v in vectors for x in v)


@settings(max_examples=200, deadline=None)
@given(MATRICES)
@_with_pivot_examples
def test_rank_and_nullspace_match_the_reference_in_fractions(m):
    ref_red, ref_pivots = rref_reference(m)
    assert linalg.rank(m) == len(ref_pivots)
    basis, scale = linalg._integer_kernel(m)
    assert [tuple(F(x, scale) for x in v) for v in basis] == _reference_kernel(ref_red, ref_pivots, len(m[0]))
    assert _fraction_rref(m) == (ref_red, ref_pivots)


@st.composite
def augmented_systems(draw):
    """The augmented rows [A | b] of a system from `systems`."""
    m, rhs = draw(systems())
    return [[*row, b] for row, b in zip(m, rhs)]


@settings(max_examples=300, deadline=None)
@given(st.one_of(MATRICES, sparse_matrices(), augmented_systems()))
@_with_pivot_examples
@example([[2, 1, 1], [1, 3, 1]])
@example([[3, 0, 1, F(1, 2)], [0, 2, 1, 1]])
@example([[F(1, 3), 1, 2], [1, 0, 3]])
@example([[1, 1, 0], [1, 1, 1]])  # inconsistent: the rhs column is a pivot
@example([])
@example([[]])
def test_reduce_matches_the_reference_in_fractions(m):
    # the vertex search reads each support's solution off this reduction
    reduced = [list(row) for row in m]
    pivots = linalg._reduce(reduced)
    ref_red, ref_pivots = rref_reference(m)
    assert pivots == ref_pivots
    assert reduced == ref_red  # entry for entry, as rationals


@settings(max_examples=200, deadline=None)
@given(MATRICES)
@_with_pivot_examples
def test_elimination_makes_no_float(m):
    reduced = [list(row) for row in m]
    pivots = linalg._reduce(reduced)
    assert all(type(x) in (int, Fraction) for row in reduced for x in row)
    assert all(reduced[r][c] == 1 for r, c in enumerate(pivots))


def test_unit_pivots_keep_ints_and_other_pivots_divide_as_fractions():
    # every pivot is 1, so no Fraction is made
    m = [[1, 1, 0, 1], [0, 1, 1, 0], [0, 0, 1, 1]]
    assert linalg._reduce(m) == [0, 1, 2]
    assert m == [[1, 0, 0, 2], [0, 1, 0, -1], [0, 0, 1, 1]]
    assert all(type(x) is int for row in m for x in row)
    for row, col, expected in [
        ([0, -1, 3], 1, [(1, 1), (2, -3)]),
        ([2, 1], 0, [(0, 1), (1, F(1, 2))]),
        ([3, 0, 1], 0, [(0, 1), (2, F(1, 3))]),
        ([F(1, 3), 1], 0, [(0, 1), (1, 3)]),
    ]:
        pivot = linalg._pivot_entries(row, col)
        assert pivot == expected and all(type(x) is Fraction for _, x in pivot)


@pytest.mark.parametrize("weights", [
    *DEGENERATE_MARGINALS.values(),
    *(
        [m.weights for m in random_correlation_set(shape, random.Random(seed)).marginals]
        for shape, seed in [((2, 2), 1), ((2, 3), 2), ((3, 3), 3), ((2, 2, 2), 4), ((2, 2, 3), 5)]
    ),
])
def test_vertices_and_face_bases_hold_fractions_only(weights):
    cs = correlation_set_of(weights)
    vertices = enumerate_extreme_points(cs)
    assert vertices and _all_fractions(v.weights for v in vertices)
    points = [*vertices, cs.independent_product, mix(vertices[0], vertices[-1], F(1, 3))]
    for p in points:
        assert _all_fractions(face_basis(cs, p))
    assert all(face_basis(cs, v) == [] for v in vertices)
    assert len(face_basis(cs, cs.independent_product)) == dimension(cs)


# The integer kernel: `rank`, `_integer_reduce` and `_integer_kernel` reduce
# on primitive integer rows with `_pivot_step`, and the kernel is the
# reference kernel times its least common denominator.
INTEGER_KERNEL_EXAMPLES = (
    [[F(0), F(2), F(0), F(-1, 3)]],  # one row
    [[F(0)], [F(3, 2)], [F(0)], [F(-1)]],  # one column
    [[0, 0, 0], [-2, 4, 6], [0, 0, 0], [3, -1, F(1, 2)]],  # zero rows, pivot -2
    [[3, 1, 0, 2], [0, 2, 1, 1]],  # pivots 3 and 2: the kernel has thirds and sixths
    [[-1, 1, 0], [1, 1, 1]],
)


def _with_integer_kernel_examples(test):
    for m in INTEGER_KERNEL_EXAMPLES:
        test = example(m)(test)
    return test


@settings(max_examples=300, deadline=None)
@given(st.one_of(MATRICES, sparse_matrices()))
@_with_integer_kernel_examples
def test_integer_kernel_is_the_reference_kernel_times_its_least_common_denominator(m):
    n_cols = len(m[0]) if m else 0
    ref_red, ref_pivots = rref_reference(m)
    reference = _reference_kernel(ref_red, ref_pivots, n_cols) if m else []
    rows, pivots = linalg._integer_reduce(m)
    assert pivots == ref_pivots and linalg.rank(m) == len(ref_pivots)
    for r, (row, pc) in enumerate(zip(rows, pivots)):
        # each pivot row is the rref's row times its positive pivot entry
        assert row[pc] > 0 and [F(x, row[pc]) for x in row] == ref_red[r]
    assert all(not any(row) for row in rows[len(pivots):])
    basis, scale = linalg._integer_kernel(m)
    assert all(type(x) is int for v in basis for x in v) and type(scale) is int
    assert scale == math.lcm(*(x.denominator for v in reference for x in v))
    assert [tuple(x * scale for x in v) for v in reference] == [tuple(v) for v in basis]
    assert math.gcd(*(x for v in basis for x in v)) == (1 if basis else 0)
    assert _fraction_rref(m) == (ref_red, ref_pivots)


def test_pivot_step_makes_the_pivot_row_positive_and_the_other_rows_primitive():
    rows = [(2, 4, 6), (-3, 1, 0), (0, 5, 5)]
    out = linalg._pivot_step(rows, 1, 0)
    # 3 * (2, 4, 6) + 2 * (-3, 1, 0) = (0, 14, 18) = 2 * (0, 7, 9)
    assert out == [(0, 7, 9), (3, -1, 0), (0, 5, 5)]
    assert out[2] is rows[2]  # a zero in the pivot column keeps the row
    assert linalg._pivot_step(rows, 0, 0)[0] is rows[0]  # a positive pivot row too
