"""Exact linear programming over the rationals.

A small dense two-phase simplex in standard equality form (min c.x subject
to A x = b, x >= 0) with Bland's anti-cycling rule.  The tableau is kept
fraction-free: each row is an integer vector, the row of the rational
tableau scaled by the lcm of its denominators, so its basic entry is its
positive scale.  A pivot combines integer rows without division, as in
Bareiss (1968), and then divides each changed row by its gcd (rows keep
their own scales, so there is no common previous pivot to divide by).
Bland's rule reads only signs: the reduced costs form one more integer
row of positive scale, and the ratio test compares rhs/entry ratios by
cross-multiplication, ties going to the lower basis index.  So the pivots
are those of the simplex on Fractions, optima and minimizers are exact,
and the returned minimizer is a basic feasible solution, i.e. a vertex of
the feasible polytope.  Problem sizes here are tiny; no sparsity or
revised-simplex machinery is warranted.

Phase 1 ignores the objective, so it is its own step: `feasible_start`
runs it once for a system ``A x = b`` and returns the basic feasible
integer tableau it ends on.  A `FeasibleStart` checks itself, once, on
first use: its `tableau` is a feasible integer basis or raises.  `phase2`
is the one door into phase 2: it runs the simplex from a start for an
integer cost and certifies the result against the start's own
constraints.  `solve_lp_min` is `feasible_start`, then `phase2`, then
Fractions.  The capacity of a correlation set minimizes many 0/1 costs
over one system: it keeps one start and calls `phase2` with each event's
indicator, with no `LinearProgram` and no Fractions per solve.  There is
one phase 2, so every caller ends on the same vertex for the same
objective.

Every solve is certified.  The reduced costs of the artificial columns
give the exact dual ``y``; rows negated to make ``b >= 0`` negate their
dual entry, and redundant rows dropped in phase 1 carry no basic cost, so
they add nothing to ``y``.  The solve then checks ``A x = b``, ``x >= 0``,
``A^T y <= c`` and ``b.y = c.x`` in integers over one common denominator,
which together prove ``x`` optimal (Applegate, Cook, Dash & Espinoza
2007).  Fractions are built only for the returned `LPSolution`.  A failed
check can only come from a start that does not belong to the program, and
raises ConsistencyError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from operator import mul
from typing import NamedTuple, NoReturn, Sequence

from .errors import ConsistencyError, CorrpolyError, InfeasibleError, UnboundedError
from .linalg import fraction_tuple, integer_numerators

_ZERO = Fraction(0)


@dataclass(frozen=True)
class LinearProgram:
    """min objective . x  subject to  eq_matrix @ x = eq_rhs, x >= 0."""

    objective: tuple[Fraction, ...]
    eq_matrix: tuple[tuple[Fraction, ...], ...]
    eq_rhs: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "objective", fraction_tuple(self.objective))
        object.__setattr__(self, "eq_matrix", tuple(map(fraction_tuple, self.eq_matrix)))
        object.__setattr__(self, "eq_rhs", fraction_tuple(self.eq_rhs))
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


class _IntegerSystem(NamedTuple):
    """The constraints ``A x = b`` of a program, scaled by the common
    denominator ``scale`` of all their entries."""

    scale: int
    rows: tuple[tuple[int, ...], ...]
    columns: tuple[tuple[int, ...], ...]
    rhs: tuple[int, ...]


def _integer_system(lp: LinearProgram) -> _IntegerSystem:
    n, m = len(lp.objective), len(lp.eq_rhs)
    flat, scale = integer_numerators([*chain.from_iterable(lp.eq_matrix), *lp.eq_rhs])
    rows = tuple(tuple(flat[r * n : (r + 1) * n]) for r in range(m))
    rhs = tuple(flat[m * n :])
    columns = tuple(zip(*rows)) if rows else ((),) * len(lp.objective)
    return _IntegerSystem(scale, rows, columns, rhs)


@dataclass(frozen=True)
class FeasibleStart:
    """The basic feasible tableau that simplex phase 1 ends on for
    ``A x = b, x >= 0``, in integers.

    With ``A' x = b'`` the system whose ``flipped`` rows are negated so that
    ``b' >= 0``, row r of ``rows`` and ``rhs[r]`` are row r of the rational
    tableau B^-1 [A' | I] and of B^-1 b', scaled by the lcm of the row's
    denominators; its entry in column ``basis[r]`` is that scale.  The
    trailing identity block holds one artificial column per original row,
    and rows found redundant are dropped.  Every column in ``basis`` is an
    original one.  ``system`` is the program's constraints that the start
    was built for, and that every solve from it is certified against.
    """

    rows: tuple[tuple[int, ...], ...]
    rhs: tuple[int, ...]
    basis: tuple[int, ...]
    flipped: tuple[bool, ...]
    system: _IntegerSystem

    @cached_property
    def tableau(self) -> tuple[tuple[int, ...], ...]:
        """The rows with their rhs appended, which `phase2` starts from,
        checked on first use to form a feasible integer basis.  Raises
        ConsistencyError, without context, when they do not."""
        rows = tuple(row + (b,) for row, b in zip(self.rows, self.rhs))
        if not _is_feasible_basis(rows, self.basis, len(self.system.columns)):
            raise ConsistencyError("LP start is not a feasible integer basis")
        return rows


def _primitive(row: list[int]) -> list[int]:
    g = math.gcd(*row)
    return [a // g for a in row] if g > 1 else row


class _Tableau:
    """Integer rows, rhs last, and the objective row ``z`` whose entries
    are the reduced costs (the rhs the negated objective) times ``1/scale``."""

    def __init__(self, rows: list[Sequence[int]], basis: list[int]):
        self.rows = rows
        self.basis = basis
        self.z: list[int] = []
        self.scale = 1

    def price(self, cost: Sequence[int]) -> None:
        """Set ``z`` to the reduced costs of ``cost``, one entry per column:
        z_j = c_j - sum_r c_B(r) a_rj / s_r, scaled by the lcm of the
        scales s_r of the priced rows."""
        priced = [(row, cost[bv], row[bv]) for row, bv in zip(self.rows, self.basis) if cost[bv]]
        lcm = math.lcm(*(s for _, _, s in priced))
        z = [c * lcm for c in cost] + [0]
        for row, cb, s in priced:
            f = cb * (lcm // s)
            z = [a - f * b for a, b in zip(z, row)]
        g = math.gcd(lcm, *z)
        self.z = [a // g for a in z]
        self.scale = lcm // g

    def pivot(self, row: int, col: int) -> None:
        prow = self.rows[row]
        p = prow[col]
        if p < 0:
            prow = self.rows[row] = [-a for a in prow]
            p = -p
        for r, other in enumerate(self.rows):
            f = other[col]
            if f and r != row:
                self.rows[r] = _primitive([p * a - f * b for a, b in zip(other, prow)])
        f = self.z[col] if self.z else 0
        if f:
            z = [p * a - f * b for a, b in zip(self.z, prow)]
            g = math.gcd(self.scale * p, *z)
            self.z = [a // g for a in z]
            self.scale = self.scale * p // g
        self.basis[row] = col

    def run_simplex(self, entering_limit: int) -> None:
        """Minimize by Bland's rule over entering columns ``< entering_limit``.
        Raises UnboundedError when a negative reduced-cost column has no
        positive entry."""
        while True:
            z = self.z
            entering = next((j for j in range(entering_limit) if z[j] < 0), None)
            if entering is None:
                return
            leaving = None
            for r, row in enumerate(self.rows):
                a = row[entering]
                if a > 0:
                    if leaving is None:
                        leaving, best_rhs, best_a = r, row[-1], a
                        continue
                    lhs, rhs = row[-1] * best_a, best_rhs * a
                    if lhs < rhs or (lhs == rhs and self.basis[r] < self.basis[leaving]):
                        leaving, best_rhs, best_a = r, row[-1], a
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
    system = _integer_system(lp)
    flipped = tuple(b < 0 for b in system.rhs)
    rows = []
    for r, (row, b, flip) in enumerate(zip(system.rows, system.rhs, flipped)):
        sign = -1 if flip else 1
        artificial = [system.scale if i == r else 0 for i in range(m)]
        rows.append(_primitive([sign * a for a in row] + artificial + [sign * b]))
    tab = _Tableau(rows, list(range(n, n + m)))
    tab.price([0] * n + [1] * m)
    tab.run_simplex(n + m)
    if tab.z[-1] != 0:
        raise InfeasibleError("equality constraints admit no nonnegative solution")

    # drive remaining artificials out of the basis; drop redundant rows
    tab.z = []
    for r in range(len(tab.rows) - 1, -1, -1):
        if tab.basis[r] >= n:
            row = tab.rows[r]
            col = next((j for j in range(n) if row[j] != 0), None)
            if col is None:
                del tab.rows[r], tab.basis[r]
            else:
                tab.pivot(r, col)
    return FeasibleStart(
        tuple(tuple(row[:-1]) for row in tab.rows),
        tuple(row[-1] for row in tab.rows),
        tuple(tab.basis),
        flipped,
        system,
    )


def solve_lp_min(lp: LinearProgram) -> LPSolution:
    """Exact optimum, a vertex minimizer and its dual certificate.

    `feasible_start`, then `phase2` on the objective's numerators over
    their common denominator, and only then Fractions.  Raises
    InfeasibleError when the constraints admit no nonnegative solution,
    UnboundedError when the objective has no finite minimum, and
    ConsistencyError when the start or the certificate fails.
    """
    cost, cost_scale = integer_numerators(lp.objective)
    try:
        cx, xs, x_scale, ys, y_scale = phase2(feasible_start(lp), cost)
    except ConsistencyError as exc:
        _fail(lp, str(exc))
    return LPSolution(
        Fraction(cx, cost_scale * x_scale),
        tuple(Fraction(v, x_scale) if v else _ZERO for v in xs),
        tuple(Fraction(v, cost_scale * y_scale) if v else _ZERO for v in ys),
    )


def phase2(
    start: FeasibleStart, cost: Sequence[int]
) -> tuple[int, list[int], int, list[int], int]:
    """Phase 2 for the integer ``cost`` (one entry per original column)
    from ``start``, certified against the start's constraints, all in
    integers.

    Returns ``(cx, xs, x_scale, ys, y_scale)``: the minimizer is
    ``xs / x_scale``, the dual ``ys / y_scale`` and the optimum
    ``cx / x_scale``.  Raises UnboundedError when the cost has no finite
    minimum and ConsistencyError, without context, when the start is not a
    feasible integer basis or the certificate fails.
    """
    n, m = len(cost), len(start.flipped)
    tab = _Tableau(list(start.tableau), list(start.basis))
    tab.price([*cost, *[0] * m])
    tab.run_simplex(n)

    scales = [row[bv] for row, bv in zip(tab.rows, tab.basis)]
    x_scale = math.lcm(*scales)
    xs = [0] * n
    for row, bv, s in zip(tab.rows, tab.basis, scales):
        xs[bv] = row[-1] * (x_scale // s)
    ys = [z if flip else -z for z, flip in zip(tab.z[n:n + m], start.flipped)]
    cx = sum(map(mul, cost, xs))
    _certify(start.system, xs, x_scale, ys, tab.scale, cost, cx)
    return cx, xs, x_scale, ys, tab.scale


def _is_feasible_basis(rows: Sequence[Sequence], basis: Sequence[int], n: int) -> bool:
    """Whether ``rows`` hold integers, a nonnegative rhs and, in the columns
    of ``basis`` (all original ones), a positive diagonal and zeros elsewhere."""
    if not set(map(type, chain.from_iterable(rows))) <= {int}:
        return False
    if len(basis) != len(rows) or any(not 0 <= bv < n for bv in basis):
        return False
    zeros = len(basis) - 1
    for row, bv in zip(rows, basis):
        in_basis = [row[b] for b in basis]
        if row[-1] < 0 or row[bv] <= 0 or in_basis.count(0) != zeros:
            return False
    return True


def _certify(
    system: _IntegerSystem,
    xs: Sequence[int],
    x_scale: int,
    ys: Sequence[int],
    y_scale: int,
    cost: Sequence[int],
    cx: int,
) -> None:
    """Raise ConsistencyError unless x is feasible, y is dual feasible and
    their objectives agree: weak duality then makes both optimal.

    With A = rows / L, b = rhs / L, x = xs / X and y = ys / Y the four
    conditions read, over integers: xs >= 0, rows . xs = rhs * X,
    columns . ys <= L * Y * cost and X * (rhs . ys) = L * Y * (cost . xs).
    """
    dual_bound = system.scale * y_scale
    if min(xs, default=0) < 0:
        failure = "x has a negative entry"
    elif any(
        sum(map(mul, row, xs)) != b * x_scale for row, b in zip(system.rows, system.rhs)
    ):
        failure = "A x != b"
    elif any(
        sum(map(mul, column, ys)) > dual_bound * c
        for column, c in zip(system.columns, cost)
    ):
        failure = "A^T y <= c fails"
    elif x_scale * sum(map(mul, system.rhs, ys)) != dual_bound * cx:
        failure = "b.y != c.x"
    else:
        return
    raise ConsistencyError(f"LP certificate failed: {failure}")


def _fail(lp: LinearProgram, message: str) -> NoReturn:
    raise ConsistencyError(
        message,
        size=f"{len(lp.eq_rhs)}x{len(lp.objective)}",
        objective=[str(c) for c in lp.objective],
        eq_rhs=[str(b) for b in lp.eq_rhs],
    )


def in_convex_hull(
    point: Sequence[Fraction], vertices: Sequence[Sequence[Fraction]]
) -> bool:
    """Exact membership of ``point`` in the convex hull of ``vertices``:
    whether some convex weights on the vertices sum to it."""
    if not vertices:
        return False
    matrix = [[v[k] for v in vertices] for k in range(len(point))]
    matrix.append([1] * len(vertices))
    try:
        solve_lp_min(LinearProgram((0,) * len(vertices), matrix, (*point, 1)))
    except InfeasibleError:
        return False
    return True
