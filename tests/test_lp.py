import dataclasses
import math
import random
import re
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrpoly import (
    ConsistencyError,
    CorrpolyError,
    InfeasibleError,
    LinearProgram,
    Marginal,
    ProductSpace,
    CorrelationSet,
    UnboundedError,
    feasible_start,
    in_convex_hull,
    marginalize,
    solve_lp_min,
)
from corrpoly import lp
from corrpoly.linalg import rank
from bruteforce import feasible_start_reference, solve_lp_min_reference
from conftest import random_correlation_set

F = Fraction


def _uniform_2x2_system():
    space = ProductSpace((2, 2))
    cs = CorrelationSet(
        space, [Marginal(0, (F(1, 2), F(1, 2))), Marginal(1, (F(1, 2), F(1, 2)))]
    )
    return cs


def test_min_single_state_probability_is_zero():
    cs = _uniform_2x2_system()
    sol = solve_lp_min(LinearProgram((1, 0, 0, 0), cs.system.matrix, cs.system.rhs))
    assert sol.optimum == 0


def test_min_constant_zero_objective():
    cs = _uniform_2x2_system()
    sol = solve_lp_min(LinearProgram((0, 0, 0, 0), cs.system.matrix, cs.system.rhs))
    assert sol.optimum == 0


def test_min_full_event_is_one():
    cs = _uniform_2x2_system()
    sol = solve_lp_min(LinearProgram((1, 1, 1, 1), cs.system.matrix, cs.system.rhs))
    assert sol.optimum == 1


def test_argmin_is_a_coupling_vertex():
    cs = _uniform_2x2_system()
    sol = solve_lp_min(LinearProgram((1, 0, 0, 1), cs.system.matrix, cs.system.rhs))
    from corrpoly import JointDistribution

    p = JointDistribution(cs.space, sol.argmin)
    assert cs.contains(p)
    assert sol.optimum == 0
    assert {w for w in sol.argmin} == {F(0), F(1, 2)}


def test_infeasible_detection():
    # marginal rows demanding different totals cannot both hold
    matrix = ((F(1), F(1)), (F(1), F(1)))
    program = LinearProgram((F(0), F(0)), matrix, (F(1), F(2)))
    with pytest.raises(InfeasibleError):
        solve_lp_min(program)
    _assert_matches_reference(program, [program.objective])


def test_unbounded_detection():
    # x - y free to grow: minimize -(x) with x - y = 0 lets x run away
    lp = LinearProgram((F(-1), F(0)), ((F(1), F(-1)),), (F(0),))
    with pytest.raises(UnboundedError):
        solve_lp_min(lp)
    _assert_matches_reference(lp, [lp.objective, (F(1), F(1, 2))])


def test_dimension_mismatch_rejected():
    with pytest.raises(Exception):
        LinearProgram((F(1),), ((F(1), F(2)),), (F(1),))


def test_in_convex_hull():
    square = [(F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(1), F(1))]
    assert in_convex_hull((F(1, 2), F(1, 2)), square)
    assert in_convex_hull((F(1), F(1)), square)
    assert not in_convex_hull((F(2), F(0)), square)
    assert not in_convex_hull((F(1, 2), F(1, 2)), [])


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=-4, max_value=4), min_size=8, max_size=8), st.integers(0, 10 ** 6))
def test_lp_matches_vertex_minimum_on_random_objectives(objective, seed):
    rng = random.Random(seed)
    cs = random_correlation_set((2, 2, 2), rng)
    sol = solve_lp_min(LinearProgram(tuple(objective), cs.system.matrix, cs.system.rhs))
    vertex_min = min(
        sum(c * w for c, w in zip(objective, v.weights)) for v in cs.vertices()
    )
    assert sol.optimum == vertex_min
    p = type(cs.vertices()[0])(cs.space, sol.argmin)
    for i, m in enumerate(cs.marginals):
        assert marginalize(p, [i]).weights == m.weights


def _assert_certified(program, sol):
    """x feasible, y dual feasible, equal objectives: checked from scratch."""
    matrix, rhs, cost = program.eq_matrix, program.eq_rhs, program.objective
    x, y = sol.argmin, sol.dual
    assert len(y) == len(rhs)
    assert all(v >= 0 for v in x)
    assert [sum(a * v for a, v in zip(row, x)) for row in matrix] == list(rhs)
    for j, c in enumerate(cost):
        assert sum(row[j] * yi for row, yi in zip(matrix, y)) <= c
    assert sum(b * yi for b, yi in zip(rhs, y)) == sol.optimum
    assert sum(c * v for c, v in zip(cost, x)) == sol.optimum


def _program(cs, objective):
    return LinearProgram(tuple(objective), cs.system.matrix, cs.system.rhs)


def _solve_from(start, program):
    """`solve_lp_min` of ``program`` with its phase 2 run from ``start``."""
    with mock.patch.object(lp, "feasible_start", lambda _: start):
        return solve_lp_min(program)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([(2, 2, 2), (3, 3), (2, 4)]), st.integers(0, 10 ** 6))
def test_warm_start_equals_cold_solve(sizes, seed):
    rng = random.Random(seed)
    cs = random_correlation_set(sizes, rng)
    n = cs.space.total_size
    objectives = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(6)]
    objectives += [[rng.randint(0, 1) for _ in range(n)] for _ in range(6)]
    rng.shuffle(objectives)
    start = feasible_start(_program(cs, objectives[0]))
    for objective in objectives:
        program = _program(cs, objective)
        warm = _solve_from(start, program)
        cold = solve_lp_min(program)
        assert warm == cold
        _assert_certified(program, warm)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(2, 5), st.integers(0, 10 ** 6))
def test_certificate_with_negated_rows(m, n, seed):
    # b = A x0 with x0 >= 0 is feasible; negative entries of A make some
    # rows of b negative, so phase 1 negates them and their duals
    rng = random.Random(seed)
    matrix = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]
    x0 = [rng.randint(0, 2) for _ in range(n)]
    rhs = [sum(a * v for a, v in zip(row, x0)) for row in matrix]
    program = LinearProgram(tuple(rng.randint(-3, 3) for _ in range(n)), matrix, rhs)
    start = feasible_start(program)
    try:
        sol = _solve_from(start, program)
    except UnboundedError:
        with pytest.raises(UnboundedError):
            solve_lp_min(program)
        return
    assert sol == solve_lp_min(program)
    _assert_certified(program, sol)


def test_redundant_rows_are_dropped():
    # zero-weight states and one redundant row per extra subspace
    space = ProductSpace((2, 3))
    cs = CorrelationSet(
        space, [Marginal(0, (F(1), F(0))), Marginal(1, (F(1, 2), F(0), F(1, 2)))]
    )
    program = _program(cs, [3, -1, 2, 0, 1, -2])
    start = feasible_start(program)
    assert len(start.rows) == rank(cs.system.matrix) < len(cs.system.matrix)
    _assert_certified(program, _solve_from(start, program))


def test_corrupted_start_raises_consistency_error():
    # phase 2 on such a start would raise TypeError (a Fraction rhs) or
    # ZeroDivisionError (swapped labels); the start's own check comes first
    rng = random.Random(17)
    cs = random_correlation_set((3, 3), rng)
    program = _program(cs, [1, 0, 1, 0, 0, 1, 1, 1, 0])
    start = feasible_start(program)
    bumped_rhs = start.rhs[:1] + (start.rhs[1] + F(1, 7),) + start.rhs[2:]
    swapped = (start.basis[1], start.basis[0]) + start.basis[2:]
    negative_rhs = (-1,) + start.rhs[1:]
    message = "LP start is not a feasible integer basis"
    for corrupt in (
        dataclasses.replace(start, rhs=bumped_rhs),
        dataclasses.replace(start, basis=swapped),
        dataclasses.replace(start, rhs=negative_rhs),
    ):
        with pytest.raises(ConsistencyError, match=message) as info:
            _solve_from(corrupt, program)
        assert info.value.context["objective"] == [str(c) for c in program.objective]
        assert info.value.context["size"] == "6x9"
        with pytest.raises(ConsistencyError, match=message):
            lp.phase2(corrupt, [1] * 9)


def test_a_start_checks_itself_once(monkeypatch):
    checks = []

    def counted(*args):
        checks.append(args)
        return is_feasible_basis(*args)

    is_feasible_basis = lp._is_feasible_basis
    monkeypatch.setattr(lp, "_is_feasible_basis", counted)
    cs = random_correlation_set((2, 3), random.Random(3))
    start = feasible_start(_program(cs, [0] * 6))
    for objective in ([1, 0, 0, 0, 1, 1], [0, 1, 1, 0, 0, 0], [2, -1, 0, 1, 0, 3]):
        lp.phase2(start, objective)
    assert len(checks) == 1
    solve_lp_min(_program(cs, [1] * 6))
    assert len(checks) == 2  # a fresh start of its own


def test_integer_corrupted_start_fails_the_certificate():
    # integer changes keep the start a feasible basic tableau, so phase 2
    # runs to its end and only the certificate can tell
    rng = random.Random(17)
    cs = random_correlation_set((3, 3), rng)
    program = _program(cs, [1, 0, 1, 0, 0, 1, 1, 1, 0])
    start = feasible_start(program)
    assert start.basis == (2, 5, 7, 6, 4)

    def bump(row, col):  # one artificial-column entry of one row
        rows = [list(r) for r in start.rows]
        rows[row][col] += 1
        return dataclasses.replace(start, rows=tuple(map(tuple, rows)))

    bumped_rhs = dataclasses.replace(start, rhs=start.rhs[:1] + (start.rhs[1] + 1,) + start.rhs[2:])
    for corrupt, failure in (
        (bumped_rhs, "A x != b"),
        (bump(0, 9), "A^T y <= c fails"),
        (bump(2, 9), "b.y != c.x"),
    ):
        with pytest.raises(ConsistencyError, match=f"LP certificate failed: {re.escape(failure)}"):
            _solve_from(corrupt, program)


def test_unconstrained_program():
    assert solve_lp_min(LinearProgram((F(1), F(0)), (), ())).optimum == 0
    with pytest.raises(UnboundedError):
        solve_lp_min(LinearProgram((F(1), F(-1)), (), ()))


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([(2, 2), (2, 3), (3, 3), (2, 2, 2), (1, 3)]),
    st.booleans(),
    st.integers(0, 10 ** 6),
)
def test_matches_scipy_linprog(sizes, consistent, seed):
    optimize = pytest.importorskip("scipy.optimize")
    rng = random.Random(seed)
    cs = random_correlation_set(sizes, rng)
    rhs = list(cs.system.rhs)
    if not consistent:
        # the subspaces' rows no longer sum to a common total
        rhs[-1] += F(rng.choice([-1, 1]), rng.randint(2, 9))
    n = cs.space.total_size
    objective = [rng.randint(-5, 5) for _ in range(n)]
    program = LinearProgram(tuple(objective), cs.system.matrix, tuple(rhs))
    reference = optimize.linprog(
        objective,
        A_eq=[list(row) for row in cs.system.matrix],
        b_eq=[float(b) for b in rhs],
        bounds=(0, None),
        method="highs",
    )
    if reference.status == 2:
        assert not consistent
        with pytest.raises(InfeasibleError):
            solve_lp_min(program)
        return
    assert reference.status == 0
    sol = solve_lp_min(program)
    assert abs(float(sol.optimum) - reference.fun) <= 1e-9


def _outcome(solve, program):
    try:
        return solve(program)
    except (InfeasibleError, UnboundedError) as exc:
        return type(exc)


def _assert_matches_reference(program, objectives):
    """The integer phase-1 start is the Fraction reference's tableau, each
    row scaled by the lcm of its denominators, and every solve (warm and
    cold) returns the reference's `LPSolution` or raises its error."""
    try:
        rows, rhs, basis, width, flipped = feasible_start_reference(program)
    except InfeasibleError:
        with pytest.raises(InfeasibleError):
            feasible_start(program)
        return
    start = feasible_start(program)
    assert (start.basis, start.flipped) == (basis, flipped)
    assert width == len(program.objective) + len(flipped)
    scales = [row[bv] for row, bv in zip(start.rows, start.basis)]
    assert all(s > 0 and math.gcd(*row, b) == 1 for s, row, b in zip(scales, start.rows, start.rhs))
    assert [tuple(F(a, s) for a in row) for row, s in zip(start.rows, scales)] == list(rows)
    assert [F(b, s) for b, s in zip(start.rhs, scales)] == list(rhs)
    for objective in objectives:
        changed = LinearProgram(tuple(objective), program.eq_matrix, program.eq_rhs)
        expected = _outcome(solve_lp_min_reference, changed)
        assert _outcome(lambda p: _solve_from(start, p), changed) == expected
        assert _outcome(solve_lp_min, changed) == expected


@st.composite
def _marginal_programs(draw):
    """Marginal systems with zero-weight states, 1-state subspaces and, when
    ``tied``, equal marginals on subspaces of equal size; one in four has an
    inconsistent rhs."""
    sizes = draw(st.sampled_from([(1, 3), (2, 2), (2, 3), (3, 1, 2), (2, 2, 2), (1, 1), (3, 3), (2, 4)]))
    denominator = draw(st.sampled_from([2, 4, 6, 12]))
    tied = draw(st.booleans())
    by_size = {}
    marginals = []
    for i, size in enumerate(sizes):
        cuts = sorted(draw(st.lists(st.integers(0, denominator), min_size=size - 1, max_size=size - 1)))
        parts = tuple(F(b - a, denominator) for a, b in zip([0] + cuts, cuts + [denominator]))
        if tied:
            parts = by_size.setdefault(size, parts)
        marginals.append(Marginal(i, parts))
    cs = CorrelationSet(ProductSpace(sizes), marginals)
    n = cs.space.total_size
    objectives = draw(st.lists(
        st.lists(st.integers(-3, 3), min_size=n, max_size=n)
        | st.lists(st.integers(0, 1), min_size=n, max_size=n),
        min_size=1, max_size=4,
    ))
    rhs = list(cs.system.rhs)
    if draw(st.integers(0, 3)) == 0:
        # the last subspace's rows no longer sum to 1: infeasible
        rhs[-1] += F(1, denominator)
    return LinearProgram(tuple(objectives[0]), cs.system.matrix, tuple(rhs)), objectives


@settings(max_examples=80, deadline=None)
@given(_marginal_programs())
def test_marginal_programs_match_the_fraction_reference(drawn):
    program, objectives = drawn
    _assert_matches_reference(program, objectives)


_SMALL_FRACTIONS = st.builds(F, st.integers(-3, 3), st.sampled_from([1, 2, 3]))


@st.composite
def _rational_programs(draw):
    """Rational systems ``A x = A x0`` with negative rhs entries; a perturbed
    rhs may be infeasible and a cost with negative entries unbounded."""
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    matrix = draw(st.lists(st.lists(_SMALL_FRACTIONS, min_size=n, max_size=n), min_size=m, max_size=m))
    x0 = draw(st.lists(st.builds(F, st.integers(0, 3), st.sampled_from([1, 2])), min_size=n, max_size=n))
    rhs = [sum(a * v for a, v in zip(row, x0)) for row in matrix]
    if draw(st.booleans()):
        rhs[draw(st.integers(0, m - 1))] += draw(_SMALL_FRACTIONS)
    objectives = draw(st.lists(st.lists(_SMALL_FRACTIONS, min_size=n, max_size=n), min_size=1, max_size=4))
    return LinearProgram(tuple(objectives[0]), matrix, rhs), objectives


@settings(max_examples=150, deadline=None)
@given(_rational_programs())
def test_rational_programs_match_the_fraction_reference(drawn):
    program, objectives = drawn
    _assert_matches_reference(program, objectives)



@pytest.mark.parametrize("point, vertices", [
    ([1], [[1, 2]]),
    ([1, 2], [[1]]),
    ([1, 0], [[1, 0], [0]]),
])
def test_in_convex_hull_rejects_vertices_of_another_length(point, vertices):
    with pytest.raises(CorrpolyError, match="as many coordinates as the point"):
        in_convex_hull(point, vertices)
