"""Exact linear programming over the rationals.

A two-phase simplex in standard equality form (min c.x subject to A x = b,
x >= 0) with Bland's anti-cycling rule.  The tableau is kept
fraction-free: each row is an integer vector, the row of the rational
tableau scaled by the lcm of its denominators, so its basic entry is its
positive scale.  A pivot combines integer rows without division, as in
Bareiss (1968), and then divides each changed row by its gcd (rows keep
their own scales, so there is no common previous pivot to divide by).
So each row is the primitive integer multiple of its rational row, and a
tableau is a function of its ordered basis alone.  Bland's rule reads
only signs: the reduced costs form one more integer row of positive
scale, and the ratio test compares rhs/entry ratios by
cross-multiplication, ties going to the lower basis index.  So the pivots
are those of the simplex on Fractions, optima and minimizers are exact,
and the returned minimizer is a basic feasible solution, i.e. a vertex of
the feasible polytope.  One pivot routine (`_pivot`, on the integer
pivot step `linalg._pivot_step` that `linalg`'s rank and kernel share) and
one Bland loop (`_bland`) serve both phases.

Phase 1 ignores the objective, so it is its own step: `feasible_start`
runs it once for a system ``A x = b`` and returns the basic feasible
integer tableau it ends on.  `phase2` is the one door into phase 2: it
runs the simplex from a start for an integer cost and certifies the
result against the start's own constraints.  `solve_lp_min` is
`feasible_start`, then `phase2`, then Fractions.  The capacity of a
correlation set minimizes many 0/1 costs over one system: it keeps one
start and calls `phase2` with each event's indicator, with no
`LinearProgram` and no Fractions per solve.  There is one phase 2, so
every caller ends on the same vertex for the same objective.

A `FeasibleStart` caches the feasible bases that phase 2 reaches from it,
keyed by the ordered basis.  An entry holds the pivoted integer tableau
(immutable tuples) and its basic solution ``xs / x_scale``.  Phase 2
prices the cost on the start's pricing table: the start's rows, each
scaled once so that every basic entry is their lcm L, so a cost c is
priced as L c - sum_r c_B(r) row_r and one gcd, with no per-cost lcm or
row scaling.  Phase 1 prices its cost by the same routine.  Phase 2 then
walks Bland's rule through the cache: each step runs the ratio test on
the entry's tableau and computes a pivot only towards a basis not
reached before; the reduced costs follow each step from the pivot row.
Many costs over one system, as a capacity's events are, meet the same
few bases.  The cache and the table live and die with their start: they
hold no reference back.

Every returned optimum is certified, in integers over one common
denominator (Applegate, Cook, Dash & Espinoza 2007), in two halves.  The
primal half, ``x >= 0`` and ``A x = b``, does not depend on the cost: it
is checked once per basis, when the basis enters the cache, so a basis
that fails it never enters and fails again on the next solve that reaches
it.  The start checks first that its own tableau is a feasible integer
basis.  The dual half is checked on every solve, against the system's own
rows and not the pricing table: the reduced costs of the artificial
columns give the exact dual ``y`` (rows negated to make ``b >= 0`` negate
their dual entry, and redundant rows dropped in phase 1 carry no basic
cost, so they add nothing to ``y``), ``A^T y`` is summed in one pass over
the sparse rows whose dual entry is nonzero, and the solve checks
``A^T y <= c`` and ``b.y = c.x``.
With the primal half these prove ``x`` optimal.  Fractions are built only
for the returned `LPSolution`.  A failed check can only come from a start
that does not belong to the program, and raises ConsistencyError, which
names the basis where the certificate failed.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from itertools import chain
from operator import gt, mul, sub
from typing import NoReturn, Sequence

from ._value import FrozenValue, record
from .errors import ConsistencyError, CorrpolyError, InfeasibleError, UnboundedError
from .linalg import _pivot_step, _primitive, fraction_tuple, integer_numerators

_ZERO = Fraction(0)


class LinearProgram(FrozenValue):
    """min objective . x  subject to  eq_matrix @ x = eq_rhs, x >= 0."""

    objective: tuple[Fraction, ...]
    eq_matrix: tuple[tuple[Fraction, ...], ...]
    eq_rhs: tuple[Fraction, ...]

    def __init__(self, objective, eq_matrix, eq_rhs):
        objective = fraction_tuple(objective)
        eq_matrix = tuple(map(fraction_tuple, eq_matrix))
        eq_rhs = fraction_tuple(eq_rhs)
        if len(eq_matrix) != len(eq_rhs):
            raise CorrpolyError("constraint matrix and rhs sizes differ")
        if any(len(row) != len(objective) for row in eq_matrix):
            raise CorrpolyError("constraint row length does not match objective length")
        object.__setattr__(self, "objective", objective)
        object.__setattr__(self, "eq_matrix", eq_matrix)
        object.__setattr__(self, "eq_rhs", eq_rhs)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.objective, self.eq_matrix, self.eq_rhs) == (
                other.objective,
                other.eq_matrix,
                other.eq_rhs,
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.objective, self.eq_matrix, self.eq_rhs))


@record
class LPSolution:
    """An optimal vertex ``argmin`` and the exact dual ``dual`` (one entry
    per equality row) that certifies it."""

    optimum: Fraction
    argmin: tuple[Fraction, ...]
    dual: tuple[Fraction, ...]


@record
class _Line:
    """The nonzero entries of one row or column: their indices and values."""

    indices: tuple[int, ...]
    values: tuple[int, ...]

    def dot(self, vector: Sequence[int]) -> int:
        return sum(map(mul, self.values, map(vector.__getitem__, self.indices)))


@record
class _IntegerSystem:
    """The constraints ``A x = b`` of a program, scaled by the common
    denominator ``scale`` of all their entries, with the ``width`` columns
    of ``A`` stored by sparse rows."""

    scale: int
    width: int
    rows: tuple[_Line, ...]
    rhs: tuple[int, ...]


def _line(entries: Sequence[int]) -> _Line:
    indices = tuple(k for k, a in enumerate(entries) if a)
    return _Line(indices, tuple(entries[k] for k in indices))


def _integer_system(lp: LinearProgram) -> _IntegerSystem:
    n, m = len(lp.objective), len(lp.eq_rhs)
    flat, scale = integer_numerators([*chain.from_iterable(lp.eq_matrix), *lp.eq_rhs])
    rows = tuple(_line(flat[r * n : (r + 1) * n]) for r in range(m))
    return _IntegerSystem(scale, n, rows, tuple(flat[m * n :]))


@record
class _Tableau:
    """Integer rows, rhs last, with their ordered basis: the entry of row r
    in column ``basis[r]`` is its positive scale."""

    rows: tuple[tuple[int, ...], ...]
    basis: tuple[int, ...]


@record
class _PricingTable:
    """The rows of a tableau, rhs last, each scaled so that its basic entry
    is the lcm ``scale`` of the basic entries, with the tableau's basis."""

    rows: tuple[tuple[int, ...], ...]
    basis: tuple[int, ...]
    scale: int


@record
class _Basis:
    """A feasible basis in the cache of a start: its tableau and its basic
    solution ``xs / x_scale``, which passed the primal check."""

    tableau: _Tableau
    xs: tuple[int, ...]
    x_scale: int


class FeasibleStart(FrozenValue):
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

    The start also holds the cache of bases that `phase2` reaches from it
    and the pricing table of its own tableau (see the module docstring); a
    copy, built from the fields or made by `copy` or `pickle`, starts an
    empty cache and builds its own table.
    """

    rows: tuple[tuple[int, ...], ...]
    rhs: tuple[int, ...]
    basis: tuple[int, ...]
    flipped: tuple[bool, ...]
    system: _IntegerSystem

    def __init__(self, rows, rhs, basis, flipped, system: _IntegerSystem):
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "flipped", flipped)
        object.__setattr__(self, "system", system)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.rows, self.rhs, self.basis, self.flipped, self.system) == (
                other.rows,
                other.rhs,
                other.basis,
                other.flipped,
                other.system,
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.rows, self.rhs, self.basis, self.flipped, self.system))

    @cached_property
    def _bases(self) -> dict[tuple[int, ...], _Basis]:
        return {}

    @cached_property
    def _table(self) -> _PricingTable:
        """The pricing table of the start's own tableau, built on first use
        once the tableau passed its check."""
        return _pricing_table(self._root().tableau)

    def _root(self) -> _Basis:
        """The entry of the start's own basis.  On first use it checks that
        the rows with their rhs appended form a feasible integer basis, and
        raises ConsistencyError, without context, when they do not."""
        root = self._bases.get(self.basis)
        if root is None:
            rows = tuple(row + (b,) for row, b in zip(self.rows, self.rhs))
            if not _is_feasible_basis(rows, self.basis, self.system.width):
                raise ConsistencyError("LP start is not a feasible integer basis")
            root = self._enter(_Tableau(rows, self.basis))
        return root

    def _enter(self, tab: _Tableau) -> _Basis:
        """Cache ``tab`` once its basic solution passes the primal check."""
        scales = [row[bv] for row, bv in zip(tab.rows, tab.basis)]
        x_scale = math.lcm(*scales)
        xs = [0] * self.system.width
        for row, bv, s in zip(tab.rows, tab.basis, scales):
            xs[bv] = row[-1] * (x_scale // s)
        if min(xs, default=0) < 0:
            failure = "x has a negative entry"
        elif any(
            row.dot(xs) != b * x_scale for row, b in zip(self.system.rows, self.system.rhs)
        ):
            failure = "A x != b"
        else:
            entry = self._bases[tab.basis] = _Basis(tab, tuple(xs), x_scale)
            return entry
        raise ConsistencyError(f"LP certificate failed: {failure}", basis=tab.basis)

    def _move(self, entry: _Basis, col: int) -> tuple[tuple[int, ...], _Basis]:
        """Bland's pivot on ``col`` from ``entry``: the pivot row and the
        entry of the next basis, pivoted and entered only if not cached."""
        tab = entry.tableau
        row = _leaving(tab, col)
        after = self._bases.get(tab.basis[:row] + (col,) + tab.basis[row + 1 :])
        if after is None:
            after = self._enter(_pivot(tab, row, col))
        return tab.rows[row], after


def _pricing_table(tab: _Tableau) -> _PricingTable:
    """The rows of ``tab`` scaled to the lcm of their basic entries: the
    table from which `_price` prices every cost on ``tab``."""
    scales = [row[bv] for row, bv in zip(*tab)]
    lcm = math.lcm(*scales)
    rows = tuple(
        row if s == lcm else tuple(a * (lcm // s) for a in row)
        for row, s in zip(tab.rows, scales)
    )
    return _PricingTable(rows, tab.basis, lcm)


def _price(table: _PricingTable, cost: Sequence[int]) -> tuple[list[int], int]:
    """The reduced costs of ``cost`` (one entry per column) on the table's
    tableau, with the negated objective in the rhs entry: z_j = c_j -
    sum_r c_B(r) a_rj / s_r, as the primitive integer row ``z`` over its
    positive ``scale``.  The table's rows are the rows a_r / s_r times its
    lcm L, so ``z`` is L c - sum_r c_B(r) row_r, divided by one gcd."""
    rows, basis, lcm = table
    z = [c * lcm for c in cost]
    z.append(0)
    for row, bv in zip(rows, basis):
        cb = cost[bv]
        if cb == 1:
            z = list(map(sub, z, row))
        elif cb:
            z = [a - cb * b for a, b in zip(z, row)]
    g = math.gcd(lcm, *z)
    return ([a // g for a in z], lcm // g) if g > 1 else (z, lcm)


def _pivot(tab: _Tableau, row: int, col: int) -> _Tableau:
    """The tableau with ``col`` entering the basis at ``row``, by
    `linalg._pivot_step`."""
    rows = _pivot_step(tab.rows, row, col)
    return _Tableau(tuple(rows), tab.basis[:row] + (col,) + tab.basis[row + 1 :])


def _leaving(tab: _Tableau, col: int) -> int:
    """Bland's ratio test for entering column ``col``: the row of least
    rhs/entry over positive entries, ties to the lower basis index.  Raises
    UnboundedError when the column has no positive entry."""
    leaving = None
    for r, row in enumerate(tab.rows):
        a = row[col]
        if a > 0:
            if leaving is None:
                leaving, best_rhs, best_a = r, row[-1], a
                continue
            lhs, rhs = row[-1] * best_a, best_rhs * a
            if lhs < rhs or (lhs == rhs and tab.basis[r] < tab.basis[leaving]):
                leaving, best_rhs, best_a = r, row[-1], a
    if leaving is None:
        raise UnboundedError("objective is unbounded below")
    return leaving


def _bland(node, z: list[int], scale: int, entering_limit: int, step):
    """Minimize by Bland's rule over entering columns ``< entering_limit``,
    from ``node`` with reduced costs ``z / scale``.  ``step(node, col)``
    returns the pivot row, from which the reduced costs follow, and the
    node after the pivot.  Returns the last node and its reduced costs."""
    while True:
        for col in range(entering_limit):
            if z[col] < 0:
                break
        else:
            return node, z, scale
        prow, node = step(node, col)
        p, f = prow[col], z[col]
        z = [p * a - f * b for a, b in zip(z, prow)]
        scale *= p
        g = math.gcd(scale, *z)
        if g > 1:
            z = [a // g for a in z]
            scale //= g


def _phase1_step(tab: _Tableau, col: int) -> tuple[tuple[int, ...], _Tableau]:
    row = _leaving(tab, col)
    return tab.rows[row], _pivot(tab, row, col)


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
    for r, (line, b, flip) in enumerate(zip(system.rows, system.rhs, flipped)):
        sign = -1 if flip else 1
        row = [0] * (n + m + 1)
        for j, a in zip(*line):
            row[j] = sign * a
        row[n + r], row[-1] = system.scale, sign * b
        rows.append(tuple(_primitive(row)))
    tab = _Tableau(tuple(rows), tuple(range(n, n + m)))
    z, scale = _price(_pricing_table(tab), [0] * n + [1] * m)
    tab, z, _ = _bland(tab, z, scale, n + m, _phase1_step)
    if z[-1] != 0:
        raise InfeasibleError("equality constraints admit no nonnegative solution")

    # drive remaining artificials out of the basis; drop redundant rows
    for r in range(len(tab.rows) - 1, -1, -1):
        if tab.basis[r] >= n:
            row = tab.rows[r]
            col = next((j for j in range(n) if row[j] != 0), None)
            if col is None:
                tab = _Tableau(tab.rows[:r] + tab.rows[r + 1 :], tab.basis[:r] + tab.basis[r + 1 :])
            else:
                tab = _pivot(tab, r, col)
    return FeasibleStart(
        tuple(row[:-1] for row in tab.rows),
        tuple(row[-1] for row in tab.rows),
        tab.basis,
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
        _fail(lp, exc)
    return LPSolution(
        Fraction(cx, cost_scale * x_scale),
        tuple(Fraction(v, x_scale) if v else _ZERO for v in xs),
        tuple(Fraction(v, cost_scale * y_scale) if v else _ZERO for v in ys),
    )


def phase2(
    start: FeasibleStart, cost: Sequence[int]
) -> tuple[int, tuple[int, ...], int, list[int], int]:
    """Phase 2 for the integer ``cost`` (one entry per original column)
    from ``start``, through the start's cache of bases, certified against
    the start's constraints, all in integers.

    Returns ``(cx, xs, x_scale, ys, y_scale)``: the minimizer is
    ``xs / x_scale``, the dual ``ys / y_scale`` and the optimum
    ``cx / x_scale``.  Raises UnboundedError when the cost has no finite
    minimum and ConsistencyError when the start is not a feasible integer
    basis (without context) or the certificate fails (naming the basis).
    """
    n, m = len(cost), len(start.flipped)
    z, scale = _price(start._table, [*cost, *[0] * m])
    entry, z, scale = _bland(start._root(), z, scale, n, start._move)
    xs, x_scale, basis = entry.xs, entry.x_scale, entry.tableau.basis
    ys = [v if flip else -v for v, flip in zip(z[n:n + m], start.flipped)]
    cx = sum(map(mul, cost, xs))
    dual_bound = start.system.scale * scale
    aty = [0] * n
    for (indices, values), y in zip(start.system.rows, ys):
        if y:
            for j, a in zip(indices, values):
                aty[j] += a * y
    if any(map(gt, aty, [dual_bound * c for c in cost])):
        failure = "A^T y <= c fails"
    elif x_scale * sum(map(mul, start.system.rhs, ys)) != dual_bound * cx:
        failure = "b.y != c.x"
    else:
        return cx, xs, x_scale, ys, scale
    raise ConsistencyError(f"LP certificate failed: {failure}", basis=basis)


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


def _fail(lp: LinearProgram, exc: ConsistencyError) -> NoReturn:
    raise ConsistencyError(
        exc.reason,
        size=f"{len(lp.eq_rhs)}x{len(lp.objective)}",
        objective=[str(c) for c in lp.objective],
        eq_rhs=[str(b) for b in lp.eq_rhs],
        **exc.context,
    ) from exc


def in_convex_hull(
    point: Sequence[Fraction], vertices: Sequence[Sequence[Fraction]]
) -> bool:
    """Exact membership of ``point`` in the convex hull of ``vertices``:
    whether some convex weights on the vertices sum to it.  That is the
    feasibility of the weights, so phase 1 decides it, and the start's
    primal check certifies a positive verdict."""
    if not vertices:
        return False
    if any(len(v) != len(point) for v in vertices):
        raise CorrpolyError("every vertex needs as many coordinates as the point")
    matrix = [[v[k] for v in vertices] for k in range(len(point))]
    matrix.append([1] * len(vertices))
    program = LinearProgram((0,) * len(vertices), matrix, (*point, 1))
    try:
        feasible_start(program)._root()
    except InfeasibleError:
        return False
    except ConsistencyError as exc:
        _fail(program, exc)
    return True
