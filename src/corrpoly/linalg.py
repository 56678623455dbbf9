"""Exact Gaussian elimination over the rationals.

All routines take matrices as sequences of rows whose entries are ints or
``fractions.Fraction`` and never round: ranks, kernels and solutions are
exact.  A matrix whose rows differ in length raises `CorrpolyError`.

`rank`, `_integer_reduce` and `_integer_kernel` reduce on one integer
pivot step, `_pivot_step`, which `lp`'s simplex pivots on too:
fraction-free, as in Bareiss (1968), on integer rows that it keeps
primitive.  Rational rows are first scaled to integer rows, which changes
no rank, kernel or rref.  `_integer_reduce` returns the rref as integer
rows, each the rref's row times its pivot entry, and `_integer_kernel` the
rref's kernel basis times the least common denominator of its entries,
with that denominator beside it.

A sparse Fraction step serves only the vertex search in `polytope`: its
column reduction, and `_reduce`, which solves each covering support's
augmented system once.  `_pivot_entries` normalizes a pivot row and keeps
only its nonzero entries; `_eliminate` subtracts that row from another on
those columns alone.  The marginal systems reduced there are 0/1 matrices
whose rows stay mostly zero, and ``a - f * 0`` is ``a`` exactly, so
skipping the zero columns gives the dense algorithm's results with a
fraction of its `Fraction` operations.  Entries are kept as given: an int
stays an int through every subtraction, and a `Fraction` appears only
where a pivot other than 1 divides.  The step functions are private by
name because they run once per row update or per support of the vertex
search: a public name would be wrapped, call by call, by tools that wrap
every public function (the benchmark's tracer).

`integer_numerators` puts exact rationals over one common denominator; it
is the one scaling that the integer code paths of the other modules start
from.  `fraction_tuple` is the one conversion of input values to
Fractions, and the one place that turns a value that is no finite rational
into `CorrpolyError`; `require_count` is the one check of a count argument.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import CorrpolyError

Row = Sequence[Fraction | int]
Vector = tuple[Fraction, ...]
Pivot = list[tuple[int, Fraction | int]]  # a normalized pivot row's nonzero (column, value) pairs


def fraction_tuple(values: Iterable) -> tuple[Fraction, ...]:
    """``values`` as Fractions; a value that already is one is kept.  A value
    that is no finite rational (``"abc"``, ``"1/0"``, nan, inf, None, or a
    bool, which Python counts as an int) raises CorrpolyError."""
    try:
        return tuple(
            [
                v if type(v) is Fraction else _reject_bool(v) if type(v) is bool else Fraction(v)
                for v in values
            ]
        )
    except (ValueError, TypeError, OverflowError, ZeroDivisionError) as exc:
        raise CorrpolyError(f"not a finite rational: {exc}") from None


def _reject_bool(value: bool):
    raise TypeError(f"{value!r} is a bool")


def require_count(value, name: str, minimum: Optional[int]) -> None:
    """CorrpolyError unless ``value`` is an integer, not a bool, of at least
    ``minimum`` (of any size when ``minimum`` is None, as a seed is)."""
    if (
        not isinstance(value, int)
        or isinstance(value, bool)
        or (minimum is not None and value < minimum)
    ):
        bound = "" if minimum is None else f" >= {minimum}"
        raise CorrpolyError(f"{name} must be an integer{bound}, got {value!r}")


def integer_numerators(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Exact rationals as integer numerators over their common denominator."""
    denom = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (denom // v.denominator) for v in values], denom


def _pivot_entries(row: Sequence[Fraction | int], col: int) -> Pivot:
    """The pivot row ``row`` divided by its entry at ``col``, kept sparse:
    ``(column, value)`` for each nonzero entry.  Only those are divided, and
    as Fractions: an int pivot of 1 keeps the row's ints."""
    pv = row[col]
    if pv == 1:
        return [(j, x) for j, x in enumerate(row) if x]
    pv = Fraction(pv)  # int / int would be a float
    return [(j, x / pv) for j, x in enumerate(row) if x]


def _eliminate(row: list[Fraction | int], col: int, pivot: Pivot) -> None:
    """The elimination step: clear ``row[col]`` in place by subtracting
    ``row[col]`` times the normalized pivot row, given by its nonzero
    entries ``pivot`` (from `_pivot_entries` at ``col``), on those columns
    only."""
    f = row[col]
    if f:
        for j, x in pivot:
            row[j] -= f * x


def _reduce(m: list[list[Fraction | int]]) -> list[int]:
    """Bring ``m`` to reduced row echelon form in place, with its entries
    kept as given: ints stay ints until a pivot other than 1 divides.
    Returns the pivot columns."""
    if not m:
        return []
    _require_rectangular(m)
    n_rows, n_cols = len(m), len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pivot = _pivot_entries(m[r], c)
        row_r = m[r]
        for j, x in pivot:
            row_r[j] = x
        for i in range(n_rows):
            if i != r:
                _eliminate(m[i], c, pivot)
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return pivots


def _require_rectangular(m: Sequence[Sequence]) -> None:
    n_cols = len(m[0])
    for i, row in enumerate(m):
        if len(row) != n_cols:
            raise CorrpolyError(
                f"ragged matrix: row {i} has {len(row)} entries, row 0 has {n_cols}"
            )


def _primitive(row: list[int]) -> list[int]:
    """An integer row divided by the gcd of its entries."""
    g = math.gcd(*row)
    return [a // g for a in row] if g > 1 else row


def _pivot_step(rows: Sequence[Sequence[int]], r: int, col: int) -> list[Sequence[int]]:
    """The fraction-free pivot on the integer entry ``rows[r][col]``: the
    pivot row, negated if that entry is negative so that it is the positive
    ``p``, and each other row with an entry ``f`` in ``col`` replaced by the
    tuple ``primitive(p * row - f * pivot row)``.  Rows with a zero in
    ``col`` are kept as they are.  Returns the new list of rows."""
    prow = rows[r]
    p = prow[col]
    if p < 0:
        prow = tuple(-a for a in prow)
        p = -p
    out = [
        other if not (f := other[col]) or i == r
        else tuple(_primitive([p * a - f * b for a, b in zip(other, prow)]))
        for i, other in enumerate(rows)
    ]
    out[r] = prow
    return out


def _integer_reduce(rows: Sequence[Row]) -> tuple[list[Sequence[int]], list[int]]:
    """The reduced row echelon form of ``rows`` as integer rows, by
    `_pivot_step`: a row with a `Fraction` is first scaled to integers
    (which changes no rank, kernel or rref), and row r of the result is the
    rref's row r times the positive entry it has in the r-th pivot column;
    the rows past the pivots are zero.  Returns (rows, pivot columns)."""
    if not rows:
        return [], []
    _require_rectangular(rows)
    m = [
        list(row) if all(type(x) is int for x in row) else integer_numerators(row)[0]
        for row in rows
    ]
    n_rows = len(m)
    pivots: list[int] = []
    for c in range(len(m[0])):
        r = len(pivots)
        pivot_row = next((i for i in range(r, n_rows) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        m = _pivot_step(m, r, c)
        pivots.append(c)
        if r + 1 == n_rows:
            break
    return m, pivots


def rank(rows: Sequence[Row]) -> int:
    return len(_integer_reduce(rows)[1])


def _integer_kernel(rows: Sequence[Row]) -> tuple[list[list[int]], int]:
    """The kernel basis read off the rref (one vector per free column,
    with 1 there and the negated rref entries in the pivot columns) times
    the least common denominator ``L`` of its entries, and ``L``: integer
    vectors whose entries have gcd 1 over the whole basis (each vector has
    ``L`` in its free column).  ``([], 1)`` when the kernel is trivial."""
    m, pivots = _integer_reduce(rows)
    if not m:
        return [], 1
    pivot_set = set(pivots)
    free_cols = [c for c in range(len(m[0])) if c not in pivot_set]
    pivot_rows = list(zip(m, pivots))
    # rref entry row[fc] / row[pc] has the denominator row[pc] / gcd(row[pc], row[fc])
    scale = math.lcm(
        *(row[pc] // math.gcd(row[pc], *(row[fc] for fc in free_cols)) for row, pc in pivot_rows)
    )
    basis = []
    for fc in free_cols:
        v = [0] * len(m[0])
        v[fc] = scale
        for row, pc in pivot_rows:
            v[pc] = -row[fc] * scale // row[pc]
        basis.append(v)
    return basis, scale


def mat_vec(rows: Sequence[Row], x: Sequence[Fraction | int]) -> Vector:
    return tuple(sum(a * b for a, b in zip(row, x)) for row in rows)

