"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.  Every
tolerance is pinned here: set comparisons and rational identities are
exact, mutual-information probes carry the library's 1e-12 strictness
slack, and the finance threshold check uses 1e-9 against an independent
bisection oracle.  Each criterion also enforces its runtime budget.
"""

import itertools
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from corrpoly import (
    Act,
    Collection,
    CorrelationSet,
    Event,
    JointDistribution,
    Marginal,
    PriorSet,
    ProductSpace,
    RiskUtility,
    capacity_of,
    certify_local_max_mi,
    check_exactness,
    check_subspace_independence_axiom,
    choquet_integral,
    cylinder_additivity_check,
    dimension,
    dimension_formula,
    embed_cylinder,
    enumerate_extreme_points,
    event_from_mask,
    find_convexity_violation,
    is_maximally_zero,
    meu_value,
    mix,
    restricted_dimension,
    run_climate,
    run_finance,
    run_insurance,
    sample_member,
    sweep_rows,
    InsuranceVerdict,
)
from corrpoly import scenario as sc
from conftest import SCENARIO_DIR, random_correlation_set
from bruteforce import check_exactness_reference, oracle_vertices

F = Fraction
FINANCE = sc.load(SCENARIO_DIR / "finance.scn")


@contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    start = time.monotonic()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    elapsed = time.monotonic() - start
    if elapsed >= budget_seconds:
        print(
            f"ACCEPTANCE {number}: FAIL - {description} "
            f"(runtime {elapsed:.2f}s exceeded {budget_seconds}s)"
        )
        raise AssertionError(f"criterion {number} runtime budget exceeded")
    print(
        f"ACCEPTANCE {number}: PASS ({elapsed:.2f}s < {budget_seconds:g}s) - {description}"
    )


def _shapes_up_to(max_factors: int, max_size: int):
    shapes = []
    for n in range(1, max_factors + 1):
        shapes += list(itertools.combinations_with_replacement(range(1, max_size + 1), n))
    return shapes


def test_criterion_01_dimension_formula():
    with criterion(1, "rank-computed dimension equals the closed formula", 5.0):
        rng = random.Random(101)
        for shape in _shapes_up_to(3, 4):
            for _ in range(3):
                cs = random_correlation_set(shape, rng)
                # dimension() hard-fails internally if rank and formula split
                assert dimension(cs) == dimension_formula(shape)


def test_criterion_02_cube_dimensions():
    with criterion(2, "cube dimensions 4 / 3 / 1 / 2", 1.0):
        space = ProductSpace((2, 2, 2))
        cs = CorrelationSet(
            space, [Marginal(i, (F(1, 2), F(1, 2))) for i in range(3)]
        )
        assert dimension(cs) == 4
        assert restricted_dimension(cs, Collection.of({0}, {1})) == 3
        assert restricted_dimension(cs, Collection.of({0}, {1, 2})) == 1
        assert (
            restricted_dimension(
                cs, [Collection.of({0}, {1}), Collection.of({0}, {2})]
            )
            == 2
        )


def _desk_shapes(limit: int):
    shapes = [(1,)]
    for n in range(1, 4):
        for shape in itertools.combinations_with_replacement(range(2, limit + 1), n):
            total = 1
            for s in shape:
                total *= s
            if total <= limit:
                shapes.append(shape)
    return shapes


def test_criterion_03_extreme_point_triangle():
    with criterion(
        3,
        "support-enumerated vertices = maximally-zero set; certificates agree",
        60.0,
    ):
        rng = random.Random(103)
        for shape in _desk_shapes(12):
            for _ in range(5):
                cs = random_correlation_set(shape, rng)
                vertices = enumerate_extreme_points(cs)
                got = {v.weights for v in vertices}
                expected = oracle_vertices(shape, [m.weights for m in cs.marginals])
                assert got == expected
                for v in vertices:
                    assert is_maximally_zero(cs, v)
                    assert certify_local_max_mi(cs, v, probes=8, seed=7).is_local_max
                if dimension(cs) >= 1:
                    p_ind = cs.independent_product
                    assert not certify_local_max_mi(cs, p_ind, probes=8, seed=7).is_local_max
                    for a, b in itertools.combinations(vertices, 2):
                        midpoint = mix(a, b, F(1, 2))
                        report = certify_local_max_mi(cs, midpoint, probes=8, seed=7)
                        assert not report.is_local_max
                        break  # one midpoint per instance keeps the budget


def test_criterion_04_exact_capacity():
    with criterion(4, "core of the lower envelope recovers the coupling set", 30.0):
        instances = [
            CorrelationSet(
                ProductSpace((2, 2)),
                [Marginal(0, (F(1, 2), F(1, 2))), Marginal(1, (F(1, 2), F(1, 2)))],
            ),
            CorrelationSet(
                ProductSpace((2, 3)),
                [
                    Marginal(0, (F(1, 3), F(2, 3))),
                    Marginal(1, (F(1, 6), F(2, 6), F(3, 6))),
                ],
            ),
            CorrelationSet(
                ProductSpace((2, 2, 2)),
                [
                    Marginal(0, (F(1, 3), F(2, 3))),
                    Marginal(1, (F(1, 4), F(3, 4))),
                    Marginal(2, (F(2, 5), F(3, 5))),
                ],
            ),
        ]
        for cs in instances:
            assert check_exactness(cs)
            assert check_exactness_reference(cs)  # every event, against the vertex oracle
            space = cs.space
            for i in range(space.n_subspaces):
                size = space.subspace_sizes[i]
                sub = space.subspace([i])
                for r in range(1, size + 1):
                    for coords in itertools.combinations(range(size), r):
                        cyl = embed_cylinder(
                            Event.from_states(sub, [(c,) for c in coords]), space, [i]
                        )
                        cyl_mask = cyl.bitmask()
                        free = [
                            k for k in range(space.total_size) if not cyl_mask >> k & 1
                        ]
                        for extra_bits in range(2 ** len(free)):
                            mask = cyl_mask
                            for pos, k in enumerate(free):
                                if extra_bits >> pos & 1:
                                    mask |= 1 << k
                            event = event_from_mask(space, mask)
                            assert cylinder_additivity_check(cs, event, i, coords)


def test_criterion_05_nonconvexity_witness():
    with criterion(5, "crossing cylinders break convexity with gap 1/2", 5.0):
        space = ProductSpace((2, 2))
        cs = CorrelationSet(
            space, [Marginal(0, (F(1, 2), F(1, 2))), Marginal(1, (F(1, 2), F(1, 2)))]
        )
        cap = capacity_of(cs)
        e = Event.from_states(space, [(0, 0), (0, 1)])
        f = Event.from_states(space, [(0, 0), (1, 0)])
        assert cap.value(e | f) + cap.value(e & f) == F(1, 2)
        assert cap.value(e) + cap.value(f) == F(1)
        assert cap.value(e | f) + cap.value(e & f) < cap.value(e) + cap.value(f)
        assert find_convexity_violation(cs) is not None


def test_criterion_06_meu_ceu_divergence():
    with criterion(6, "maxmin ties the two acts, Choquet strictly separates them", 5.0):
        space = ProductSpace((2, 2))
        cs = CorrelationSet(
            space, [Marginal(0, (F(1, 2), F(1, 2))), Marginal(1, (F(1, 2), F(1, 2)))]
        )
        prior = PriorSet.from_correlation_set(cs)
        f = Act.from_state_values(space, {(0, 0): 4, (1, 0): 3, (0, 1): 2, (1, 1): 1})
        g = Act.from_state_values(space, {(0, 0): 5, (1, 0): 3, (0, 1): 2, (1, 1): 0})
        cap = capacity_of(cs)
        assert meu_value(prior, f) == F(5, 2)
        assert meu_value(prior, g) == F(5, 2)
        assert choquet_integral(cap, f) == F(2)
        assert choquet_integral(cap, g) == F(3, 2)
        assert choquet_integral(cap, f) > choquet_integral(cap, g)


def _perturbed_priors(rng):
    """Twenty seeded prior sets different from the independent product."""
    shapes = [(2, 2), (2, 3), (2, 4), (3, 3), (2, 2, 2)]
    priors = []
    while len(priors) < 20:
        shape = shapes[len(priors) % len(shapes)]
        cs = random_correlation_set(shape, rng)
        p_ind = cs.independent_product
        kind = len(priors) % 3
        if kind == 0:
            member = sample_member(cs, rng)
            if member.weights == p_ind.weights:
                continue
            priors.append(PriorSet.singleton(member))
        elif kind == 1:
            vertices = cs.vertices()
            priors.append(PriorSet(cs.space, [p_ind, vertices[rng.randrange(len(vertices))]]))
        else:
            priors.append(PriorSet.from_correlation_set(cs))
    return priors


def test_criterion_07_subspace_independence_axiom():
    with criterion(
        7, "independent product passes; every perturbed prior set is rejected", 60.0
    ):
        rng = random.Random(107)
        cs = random_correlation_set((2, 2, 2), rng)
        prior = PriorSet.singleton(cs.independent_product)
        holds, counterexample = check_subspace_independence_axiom(
            prior, trials=10000, seed=107
        )
        assert holds and counterexample is None
        for perturbed in _perturbed_priors(rng):
            holds, counterexample = check_subspace_independence_axiom(
                perturbed, trials=0, seed=107
            )
            assert not holds
            assert counterexample is not None
            base_f, base_g = counterexample.base_values
            cond_f, cond_g = counterexample.conditioned_values
            sign = lambda x: (x > 0) - (x < 0)
            assert sign(base_f - base_g) != sign(cond_f - cond_g)


def _finance_threshold_by_bisection(a: Fraction) -> float:
    """Independent oracle: solve the CRRA indifference in rho by bisection
    on the direct expected-utility comparison over the averaged table."""
    belief = FINANCE.prior_set(param_value=a).vertices[0]
    from corrpoly import marginalize

    pair = marginalize(belief, [0, 1])
    averaged = (F(6), F(0), F(0), F(-3))

    def buy_margin(rho: float) -> float:
        utility = RiskUtility(rho=rho, scale=6.0)
        eu = sum(float(w) * utility.apply(6 + r) for w, r in zip(pair.weights, averaged))
        return eu - utility.apply(6)

    lo, hi = -4.0, 1.0 - 1e-12  # the margin is positive below, negative above
    assert buy_margin(lo) > 0 and buy_margin(hi) < 0
    for _ in range(80):
        mid = (lo + hi) / 2
        if buy_margin(mid) > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def test_criterion_08_finance_fixture():
    with criterion(
        8, "averaged returns, linear expected return, CRRA buy threshold", 30.0
    ):
        report = run_finance(FINANCE, F(1, 6))
        assert report.averaged_returns == (F(6), F(0), F(0), F(-3))
        assert report.expected_return == 0
        for a in FINANCE.sweep.grid:
            assert run_finance(FINANCE, a).expected_return == 3 * a - F(1, 2)
        rows = [r for r in sweep_rows(FINANCE) if r.name == "buy_gold"]
        assert [r.value for r in rows] == [3 * a - F(1, 2) for a in FINANCE.sweep.grid]
        for a in (F(1, 12), F(1, 6), F(5, 24), F(1, 4), F(1, 3)):
            formula = 1 + math.log2(6 * float(a) / (1 + 6 * float(a)))
            oracle = _finance_threshold_by_bisection(a)
            assert abs(formula - oracle) <= 1e-9
            assert run_finance(FINANCE, a, rho=0.9).crra_threshold == pytest.approx(
                formula, abs=1e-12
            )


def test_criterion_09_insurance_fixture():
    with criterion(
        9, "degenerate interval at equal beliefs; verdicts flip at the joint weight", 5.0
    ):
        space = ProductSpace((2, 2), (("B", "NB"), ("F", "NF")), ("burn", "flood"))

        def belief(joint_bf):
            b = f = F(1, 4)
            return JointDistribution(
                space, (joint_bf, b - joint_bf, f - joint_bf, 1 - b - f + joint_bf)
            )

        scn = sc.load(SCENARIO_DIR / "insurance.scn")
        p = belief(F(1, 8))
        equal = run_insurance(scn, p, belief(F(1, 8)))
        assert equal.verdict is InsuranceVerdict.UNIQUE_PRICE
        lo, hi = equal.trade_interval
        assert lo == hi
        assert equal.insurer_profit_at_insuree_price == 0
        for eps in (F(1, 1000), F(1, 10 ** 9)):
            under = run_insurance(scn, p, belief(F(1, 8) - eps))
            over = run_insurance(scn, p, belief(F(1, 8) + eps))
            assert under.verdict is InsuranceVerdict.POSITIVE_PROFIT
            assert under.insurer_profit_at_insuree_price > 0
            assert over.verdict is InsuranceVerdict.MARKET_FAILURE
            assert over.trade_interval is None


def test_criterion_10_climate_fixture():
    with criterion(
        10, "inaction/mitigation prior-invariant; engineering weakly decreasing", 5.0
    ):
        scn = sc.load(SCENARIO_DIR / "climate.scn")
        cs = scn.correlation_set()
        p_ind = cs.independent_product
        chain = []
        for t in (F(0), F(1, 4), F(1, 2), F(3, 4), F(1)):
            chain.append(PriorSet(cs.space, [mix(p_ind, v, t) for v in cs.vertices()]))
        engineering = []
        for prior in chain:
            rows = {r.name: r.value for r in run_climate(scn, prior)}
            assert rows["business_as_usual"] == -F(1, 3) * 10
            assert rows["mitigation"] == -2 - F(1, 3) * 4
            engineering.append(rows["climate_engineering"])
        for earlier, later in zip(engineering, engineering[1:]):
            assert later <= earlier
        assert engineering[0] > engineering[-1]
