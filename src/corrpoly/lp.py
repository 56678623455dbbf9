"""Exact linear programming over the rationals.

A small dense two-phase simplex in standard equality form (min c.x subject
to A x = b, x >= 0) with Bland's anti-cycling rule.  Every pivot is a
Fraction operation, so optima and minimizers are exact and the returned
minimizer is a basic feasible solution, i.e. a vertex of the feasible
polytope.  Problem sizes here are tiny; no sparsity or revised-simplex
machinery is warranted.

Phase 1 ignores the objective, so it is its own step: `feasible_start`
runs it once for a system ``A x = b`` and returns the basic feasible
tableau it ends on, and `solve_lp_min` runs phase 2 on a copy of that
start.  A caller that minimizes many objectives over one system (the
capacity of a correlation set) builds the start once and passes it to
every solve; a solve given no start builds its own.  Both take the same
path, so both end on the same vertex.

Every solve is certified.  The artificial columns of the final tableau
hold B^-1, from which the exact dual ``y`` is read; rows negated to make
``b >= 0`` negate their dual entry, and redundant rows dropped in phase 1
carry no basic cost, so they add nothing to ``y``.  The solve then checks
``A x = b``, ``x >= 0``, ``A^T y <= c`` and ``b.y = c.x``, which together
prove ``x`` optimal (Applegate, Cook, Dash & Espinoza 2007).  A failed
check can only come from a start that does not belong to the program, and
raises ConsistencyError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .errors import ConsistencyError, CorrpolyError, InfeasibleError, UnboundedError


@dataclass(frozen=True)
class LinearProgram:
    """min objective . x  subject to  eq_matrix @ x = eq_rhs, x >= 0."""

    objective: tuple[Fraction, ...]
    eq_matrix: tuple[tuple[Fraction, ...], ...]
    eq_rhs: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "objective", tuple(Fraction(c) for c in self.objective))
        object.__setattr__(
            self, "eq_matrix", tuple(tuple(Fraction(a) for a in row) for row in self.eq_matrix)
        )
        object.__setattr__(self, "eq_rhs", tuple(Fraction(b) for b in self.eq_rhs))
        n = len(self.objective)
        if len(self.eq_matrix) != len(self.eq_rhs):
            raise CorrpolyError("constraint matrix and rhs sizes differ")
        if any(len(row) != n for row in self.eq_matrix):
            raise CorrpolyError("constraint row length does not match objective length")


@dataclass(frozen=True)
class LPSolution:
    """An optimal vertex ``argmin`` and the exact dual ``dual`` (one entry
    per equality row) that certifies it."""

    optimum: Fraction
    argmin: tuple[Fraction, ...]
    dual: tuple[Fraction, ...]


class FeasibleStart(NamedTuple):
    """The basic feasible tableau that simplex phase 1 ends on for
    ``A x = b, x >= 0``.

    With ``A' x = b'`` the system whose ``flipped`` rows are negated so that
    ``b' >= 0``, ``rows`` is B^-1 [A' | I] and ``rhs`` is B^-1 b': the
    trailing identity block holds one artificial column per original row,
    ``width`` counts all columns, and rows found redundant are dropped.
    Every column in ``basis`` is an original one.
    """

    rows: tuple[tuple[Fraction, ...], ...]
    rhs: tuple[Fraction, ...]
    basis: tuple[int, ...]
    width: int
    flipped: tuple[bool, ...]


class _Tableau:
    def __init__(
        self,
        rows: Sequence[Sequence[Fraction]],
        rhs: Sequence[Fraction],
        basis: Sequence[int],
        width: int,
    ):
        self.rows = [list(row) for row in rows]
        self.rhs = list(rhs)
        self.basis = list(basis)
        self.m = len(self.rows)
        self.n = width

    def pivot(self, row: int, col: int) -> None:
        pv = self.rows[row][col]
        inv = 1 / pv
        self.rows[row] = [a * inv for a in self.rows[row]]
        self.rhs[row] *= inv
        for r in range(self.m):
            if r != row and self.rows[r][col] != 0:
                f = self.rows[r][col]
                prow = self.rows[row]
                self.rows[r] = [a - f * b for a, b in zip(self.rows[r], prow)]
                self.rhs[r] -= f * self.rhs[row]
        self.basis[row] = col

    def reduced_costs(self, cost: Sequence[Fraction]) -> list[Fraction]:
        # price out the basic columns: z_j = c_j - sum_r c_B(r) * a_rj
        red = list(cost)
        for r, bv in enumerate(self.basis):
            cb = cost[bv]
            if cb != 0:
                row = self.rows[r]
                for j in range(self.n):
                    if row[j] != 0:
                        red[j] -= cb * row[j]
        return red

    def objective_value(self, cost: Sequence[Fraction]) -> Fraction:
        return sum((cost[bv] * self.rhs[r] for r, bv in enumerate(self.basis)), Fraction(0))

    def run_simplex(self, cost: list[Fraction], allowed: Sequence[bool]) -> None:
        """Minimize cost over the tableau by Bland's rule, restricted to
        ``allowed`` entering columns.  Raises UnboundedError when a negative
        reduced-cost column has no positive entry."""
        while True:
            red = self.reduced_costs(cost)
            entering = next(
                (j for j in range(self.n) if allowed[j] and red[j] < 0), None
            )
            if entering is None:
                return
            leaving = None
            best = None
            for r in range(self.m):
                a = self.rows[r][entering]
                if a > 0:
                    ratio = self.rhs[r] / a
                    if best is None or ratio < best or (
                        ratio == best and self.basis[r] < self.basis[leaving]
                    ):
                        best = ratio
                        leaving = r
            if leaving is None:
                raise UnboundedError("objective is unbounded below")
            self.pivot(leaving, entering)


def feasible_start(lp: LinearProgram) -> FeasibleStart:
    """Simplex phase 1 on the constraints of ``lp``; the objective is not read.

    Raises InfeasibleError when the constraints admit no nonnegative
    solution.
    """
    n = len(lp.objective)
    m = len(lp.eq_rhs)
    flipped = tuple(b < 0 for b in lp.eq_rhs)
    rows = [
        [-a if flip else a for a in row] + [Fraction(1 if i == r else 0) for i in range(m)]
        for r, (row, flip) in enumerate(zip(lp.eq_matrix, flipped))
    ]
    rhs = [-b if flip else b for b, flip in zip(lp.eq_rhs, flipped)]
    tab = _Tableau(rows, rhs, range(n, n + m), n + m)

    phase1_cost = [Fraction(0)] * n + [Fraction(1)] * m
    tab.run_simplex(phase1_cost, [True] * tab.n)
    if tab.objective_value(phase1_cost) != 0:
        raise InfeasibleError("equality constraints admit no nonnegative solution")

    # drive remaining artificials out of the basis; drop redundant rows
    for r in range(tab.m - 1, -1, -1):
        if tab.basis[r] >= n:
            col = next(
                (j for j in range(n) if tab.rows[r][j] != 0), None
            )
            if col is None:
                del tab.rows[r], tab.rhs[r], tab.basis[r]
                tab.m -= 1
            else:
                tab.pivot(r, col)
    return FeasibleStart(
        tuple(map(tuple, tab.rows)), tuple(tab.rhs), tuple(tab.basis), tab.n, flipped
    )


def solve_lp_min(lp: LinearProgram, start: Optional[FeasibleStart] = None) -> LPSolution:
    """Exact optimum, a vertex minimizer and its dual certificate.

    ``start`` is `feasible_start` of a program with the same constraints;
    when omitted it is built here.  Raises InfeasibleError when the
    constraints admit no nonnegative solution, UnboundedError when the
    objective has no finite minimum, and ConsistencyError when the
    certificate fails.
    """
    if start is None:
        start = feasible_start(lp)
    n = len(lp.objective)
    m = len(lp.eq_rhs)
    if start.width != n + m or len(start.flipped) != m:
        raise CorrpolyError(
            f"start of width {start.width} does not fit a {m}x{n} program"
        )
    tab = _Tableau(start.rows, start.rhs, start.basis, start.width)
    cost = list(lp.objective) + [Fraction(0)] * m
    tab.run_simplex(cost, [j < n for j in range(tab.n)])

    x = [Fraction(0)] * n
    y = [Fraction(0)] * m
    for r, bv in enumerate(tab.basis):
        if bv < n:
            x[bv] = tab.rhs[r]
        cb = cost[bv]
        if cb != 0:
            row = tab.rows[r]
            for i in range(m):
                if row[n + i] != 0:
                    y[i] += cb * row[n + i]
    y = [-v if flip else v for v, flip in zip(y, start.flipped)]
    optimum = sum((c * v for c, v in zip(lp.objective, x)), Fraction(0))
    _certify(lp, x, y, optimum)
    return LPSolution(optimum, tuple(x), tuple(y))


def _certify(
    lp: LinearProgram, x: Sequence[Fraction], y: Sequence[Fraction], optimum: Fraction
) -> None:
    """Raise ConsistencyError unless x is feasible, y is dual feasible and
    their objectives agree: weak duality then makes both optimal."""
    support = [(j, v) for j, v in enumerate(x) if v != 0]
    if any(v < 0 for _, v in support):
        failure = "x has a negative entry"
    elif any(
        sum((row[j] * v for j, v in support if row[j] != 0), Fraction(0)) != b
        for row, b in zip(lp.eq_matrix, lp.eq_rhs)
    ):
        failure = "A x != b"
    elif any(
        sum((row[j] * yi for row, yi in zip(lp.eq_matrix, y) if row[j] != 0), Fraction(0)) > c
        for j, c in enumerate(lp.objective)
    ):
        failure = "A^T y <= c fails"
    elif sum((b * yi for b, yi in zip(lp.eq_rhs, y)), Fraction(0)) != optimum:
        failure = "b.y != c.x"
    else:
        return
    raise ConsistencyError(
        f"LP certificate failed: {failure}",
        size=f"{len(lp.eq_rhs)}x{len(lp.objective)}",
        objective=[str(c) for c in lp.objective],
        eq_rhs=[str(b) for b in lp.eq_rhs],
    )


def minimize_over_system(
    matrix: Sequence[Sequence[Fraction | int]],
    rhs: Sequence[Fraction],
    objective: Sequence[Fraction | int],
) -> LPSolution:
    return solve_lp_min(
        LinearProgram(tuple(objective), tuple(tuple(row) for row in matrix), tuple(rhs))
    )


def is_feasible(
    matrix: Sequence[Sequence[Fraction | int]], rhs: Sequence[Fraction]
) -> bool:
    """Whether ``matrix @ x = rhs`` has a nonnegative solution."""
    try:
        minimize_over_system(matrix, rhs, [0] * len(matrix[0]))
    except InfeasibleError:
        return False
    return True


def in_convex_hull(
    point: Sequence[Fraction], vertices: Sequence[Sequence[Fraction]]
) -> bool:
    """Exact membership of ``point`` in the convex hull of ``vertices``."""
    if not vertices:
        return False
    dim = len(point)
    matrix = [[Fraction(v[k]) for v in vertices] for k in range(dim)]
    matrix.append([Fraction(1)] * len(vertices))
    rhs = [Fraction(x) for x in point] + [Fraction(1)]
    return is_feasible(matrix, rhs)
