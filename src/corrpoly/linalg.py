"""Exact Gaussian elimination over the rationals.

All routines take matrices as sequences of rows whose entries are ints or
``fractions.Fraction`` and never round: ranks, kernels and solutions are
exact.  Matrices here are tiny (tens of rows/columns), so the plain dense
reduced-row-echelon algorithm is the right tool.  `integer_numerators`
puts exact rationals over one common denominator; it is the one scaling
that the integer code paths of the other modules start from.
`fraction_tuple` is the one conversion of input values to Fractions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence

Row = Sequence[Fraction | int]
Vector = tuple[Fraction, ...]


def fraction_tuple(values: Iterable) -> tuple[Fraction, ...]:
    """``values`` as Fractions; a value that already is one is kept."""
    return tuple(v if type(v) is Fraction else Fraction(v) for v in values)


def integer_numerators(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Exact rationals as integer numerators over their common denominator."""
    denom = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (denom // v.denominator) for v in values], denom


def rref(rows: Sequence[Row]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form.  Returns (reduced matrix, pivot columns)."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return m, []
    n_rows, n_cols = len(m), len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pv = m[r][c]
        if pv != 1:
            m[r] = [x / pv for x in m[r]]
        for i in range(n_rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                row_r = m[r]
                m[i] = [a - f * b for a, b in zip(m[i], row_r)]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return m, pivots


def rank(rows: Sequence[Row]) -> int:
    return len(rref(rows)[1])


def nullspace(rows: Sequence[Row]) -> list[Vector]:
    """Basis of the kernel, one vector per free column of the rref."""
    if not rows:
        return []
    m, pivots = rref(rows)
    return _kernel(m, pivots, len(rows[0]))


def _kernel(m: list[list[Fraction]], pivots: list[int], n_cols: int) -> list[Vector]:
    """The kernel basis of the first ``n_cols`` columns of an rref ``m``,
    one vector per free column."""
    pivot_set = set(pivots)
    free_cols = [c for c in range(n_cols) if c not in pivot_set]
    basis = []
    for fc in free_cols:
        v = [Fraction(0)] * n_cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc]
        basis.append(tuple(v))
    return basis


def solve_affine(
    rows: Sequence[Row], rhs: Sequence[Fraction | int]
) -> Optional[tuple[Vector, list[Vector]]]:
    """Solve ``rows @ x = rhs`` exactly.

    Returns ``None`` if the system is inconsistent, otherwise a particular
    solution together with a kernel basis (empty iff the solution is unique).
    """
    if not rows:
        return (), []
    n_cols = len(rows[0])
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    m, pivots = rref(aug)
    if n_cols in pivots:
        return None
    sol = [Fraction(0)] * n_cols
    for r, pc in enumerate(pivots):
        sol[pc] = m[r][n_cols]
    return tuple(sol), _kernel(m, pivots, n_cols)


def mat_vec(rows: Sequence[Row], x: Sequence[Fraction | int]) -> Vector:
    return tuple(sum(a * b for a, b in zip(row, x)) for row in rows)

