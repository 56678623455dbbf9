import random
from fractions import Fraction

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
from corrpoly.linalg import rank
from corrpoly.lp import minimize_over_system
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
    sol = minimize_over_system(cs.system.matrix, cs.system.rhs, [1, 0, 0, 0])
    assert sol.optimum == 0


def test_min_constant_zero_objective():
    cs = _uniform_2x2_system()
    sol = minimize_over_system(cs.system.matrix, cs.system.rhs, [0, 0, 0, 0])
    assert sol.optimum == 0


def test_min_full_event_is_one():
    cs = _uniform_2x2_system()
    sol = minimize_over_system(cs.system.matrix, cs.system.rhs, [1, 1, 1, 1])
    assert sol.optimum == 1


def test_argmin_is_a_coupling_vertex():
    cs = _uniform_2x2_system()
    sol = minimize_over_system(cs.system.matrix, cs.system.rhs, [1, 0, 0, 1])
    from corrpoly import JointDistribution

    p = JointDistribution(cs.space, sol.argmin)
    assert cs.contains(p)
    assert sol.optimum == 0
    assert {w for w in sol.argmin} == {F(0), F(1, 2)}


def test_infeasible_detection():
    # marginal rows demanding different totals cannot both hold
    matrix = ((F(1), F(1)), (F(1), F(1)))
    with pytest.raises(InfeasibleError):
        solve_lp_min(LinearProgram((F(0), F(0)), matrix, (F(1), F(2))))


def test_unbounded_detection():
    # x - y free to grow: minimize -(x) with x - y = 0 lets x run away
    lp = LinearProgram((F(-1), F(0)), ((F(1), F(-1)),), (F(0),))
    with pytest.raises(UnboundedError):
        solve_lp_min(lp)


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
    sol = minimize_over_system(cs.system.matrix, cs.system.rhs, objective)
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
        warm = solve_lp_min(program, start)
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
        sol = solve_lp_min(program, start)
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
    _assert_certified(program, solve_lp_min(program, start))


def test_corrupted_start_raises_consistency_error():
    rng = random.Random(17)
    cs = random_correlation_set((3, 3), rng)
    other = random_correlation_set((3, 3), rng)
    assert other.marginals != cs.marginals
    program = _program(cs, [1, 0, 1, 0, 0, 1, 1, 1, 0])
    wrong_system = feasible_start(_program(other, [0] * 9))
    start = feasible_start(program)
    bumped_rhs = start.rhs[:1] + (start.rhs[1] + F(1, 7),) + start.rhs[2:]
    swapped = (start.basis[1], start.basis[0]) + start.basis[2:]
    for corrupt in (
        wrong_system,
        start._replace(rhs=bumped_rhs),
        start._replace(basis=swapped),
    ):
        with pytest.raises(ConsistencyError) as info:
            solve_lp_min(program, corrupt)
        assert info.value.context["objective"] == [str(c) for c in program.objective]
        assert info.value.context["size"] == "6x9"


def test_start_of_another_size_is_rejected(uniform_2x2, uniform_cube):
    start = feasible_start(_program(uniform_cube, [0] * 8))
    with pytest.raises(CorrpolyError):
        solve_lp_min(_program(uniform_2x2, [1, 0, 0, 0]), start)


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
