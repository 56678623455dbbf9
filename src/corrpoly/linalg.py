"""Exact Gaussian elimination over the rationals.

All routines take matrices as sequences of rows whose entries are ints or
``fractions.Fraction`` and never round: ranks, kernels and solutions are
exact.  A matrix whose rows differ in length raises `CorrpolyError`.

There is one elimination step, and `_reduce` (so `rref`, `rank`,
`nullspace` and `solve_affine`) and the vertex search's column reduction in
`polytope` are built on it.  `_pivot_entries` normalizes a pivot row and
keeps only its nonzero entries; `_eliminate` subtracts that row from
another on those columns alone.  The marginal systems reduced here are 0/1
matrices whose rows stay mostly zero, and ``a - f * 0`` is ``a`` exactly,
so skipping the zero columns gives the dense algorithm's results with a
fraction of its `Fraction` operations.  Entries are kept as given: an int
stays an int through every subtraction, and a `Fraction` appears only where
a pivot other than 1 divides.  So a 0/1 system whose pivots are all 1 is
reduced in Python ints alone.  `rref` returns Fractions, and so do the
vectors of `nullspace` and `solve_affine`.  `_reduce` and the two step
functions are private by name because they run once per row update or per
support of the vertex search: a public name would be wrapped, call by call,
by tools that wrap every public function (the benchmark's tracer).

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
    n_rows, n_cols = len(m), len(m[0])
    for i, row in enumerate(m):
        if len(row) != n_cols:
            raise CorrpolyError(
                f"ragged matrix: row {i} has {len(row)} entries, row 0 has {n_cols}"
            )
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


def _fraction(x: Fraction | int) -> Fraction:
    return x if type(x) is Fraction else Fraction(x)


def rref(rows: Sequence[Row]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form, with Fraction entries.  Returns (reduced
    matrix, pivot columns)."""
    m = [list(row) for row in rows]
    pivots = _reduce(m)
    return [[_fraction(x) for x in row] for row in m], pivots


def rank(rows: Sequence[Row]) -> int:
    return len(_reduce([list(row) for row in rows]))


def nullspace(rows: Sequence[Row]) -> list[Vector]:
    """Basis of the kernel, one vector per free column of the rref."""
    if not rows:
        return []
    m = [list(row) for row in rows]
    return _kernel(m, _reduce(m), len(rows[0]))


def _kernel(m: list[list[Fraction | int]], pivots: list[int], n_cols: int) -> list[Vector]:
    """The kernel basis of the first ``n_cols`` columns of a reduced ``m``,
    one vector per free column."""
    pivot_set = set(pivots)
    free_cols = [c for c in range(n_cols) if c not in pivot_set]
    basis = []
    for fc in free_cols:
        v = [Fraction(0)] * n_cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = _fraction(-m[r][fc])
        basis.append(tuple(v))
    return basis


def solve_affine(
    rows: Sequence[Row], rhs: Sequence[Fraction | int]
) -> Optional[tuple[Vector, list[Vector]]]:
    """Solve ``rows @ x = rhs`` exactly.

    Returns ``None`` if the system is inconsistent, otherwise a particular
    solution together with a kernel basis (empty iff the solution is unique).
    """
    if len(rhs) != len(rows):
        raise CorrpolyError(f"{len(rows)} equations but {len(rhs)} right-hand sides")
    if not rows:
        return (), []
    n_cols = len(rows[0])
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    pivots = _reduce(aug)
    if n_cols in pivots:
        return None
    sol = [Fraction(0)] * n_cols
    for r, pc in enumerate(pivots):
        sol[pc] = _fraction(aug[r][n_cols])
    return tuple(sol), _kernel(aug, pivots, n_cols)


def mat_vec(rows: Sequence[Row], x: Sequence[Fraction | int]) -> Vector:
    return tuple(sum(a * b for a, b in zip(row, x)) for row in rows)

