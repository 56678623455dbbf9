import csv
import io
import math
import random
from fractions import Fraction

import pytest

from corrpoly import (
    Act,
    ConsistencyError,
    CorrelationSet,
    CorrpolyError,
    InsuranceVerdict,
    JointDistribution,
    Marginal,
    MarginalMismatchError,
    PriorSet,
    ProductSpace,
    RiskUtility,
    decimal_string,
    embed_act,
    marginalize,
    meu_value,
    mix,
    run_climate,
    run_finance,
    run_insurance,
    sweep_csv,
    sweep_rows,
)
from corrpoly import applications, cli
from corrpoly import scenario as sc
from corrpoly.applications import SWEEP_CSV_HEADER
from bruteforce import oracle_vertices
from conftest import DEGENERATE_MARGINALS, SCENARIO_DIR, correlation_set_of

F = Fraction

CLIMATE = sc.load(SCENARIO_DIR / "climate.scn")
INSURANCE = sc.load(SCENARIO_DIR / "insurance.scn")
NEGLECT = sc.load(SCENARIO_DIR / "insurance_neglect.scn")
FINANCE_TEXT = (SCENARIO_DIR / "finance.scn").read_text(encoding="utf-8")
FINANCE = sc.loads(FINANCE_TEXT)
FINANCE_VERTEX = (
    "vertex: 1/4*a 3/4*a 1/12-1/4*a 1/4-3/4*a 1/8-1/4*a 3/8-3/4*a 1/24+1/4*a 1/8+3/4*a"
)


def _finance_with(*replacements):
    """``finance.scn`` with each ``(old, new)`` text replaced."""
    text = FINANCE_TEXT
    for old, new in replacements:
        assert old in text
        text = text.replace(old, new)
    return sc.loads(text)


# a valid gold scenario with other numbers: inflation marginal (1/4, 3/4),
# so the pair table is (a, 1/4 - a, 1/2 - a, 1/4 + a) for a in [0, 1/4]
FINANCE_SKEWED = _finance_with(
    ("inflation: 1/3 2/3", "inflation: 1/4 3/4"),
    (FINANCE_VERTEX,
     "vertex: 1/4*a 3/4*a 1/16-1/4*a 3/16-3/4*a 1/8-1/4*a 3/8-3/4*a 1/16+1/4*a 3/16+3/4*a"),
)


def _climate_cs():
    space = ProductSpace((2, 2))
    return CorrelationSet(
        space,
        [Marginal(0, (F(1, 3), F(2, 3))), Marginal(1, (F(1, 4), F(3, 4)))],
    )


def _nested_priors(cs, steps=(F(0), F(1, 4), F(1, 2), F(3, 4), F(1))):
    """A chain of prior sets interpolating the vertices toward the interior."""
    p_ind = cs.independent_product
    chain = []
    for t in steps:
        vertices = [mix(p_ind, v, t) for v in cs.vertices()]
        chain.append(PriorSet(cs.space, vertices))
    return chain


def test_decimal_string_rendering():
    assert decimal_string(F(5, 2)) == "2.5"
    assert decimal_string(F(1, 3)) == "0.333333333333"
    assert decimal_string(F(-10, 3)) == "-3.33333333333"
    assert decimal_string(F(0)) == "0"


def test_climate_values_and_prior_invariance():
    cs = _climate_cs()
    chain = _nested_priors(cs)
    values = []
    for prior in chain:
        rows = run_climate(CLIMATE, prior)
        by_name = {r.name: r.value for r in rows}
        # strategies that ignore the second subspace are prior-independent
        assert by_name["business_as_usual"] == -F(1, 3) * 10
        assert by_name["mitigation"] == -2 - F(1, 3) * 4
        values.append(by_name["climate_engineering"])
    # growing correlation uncertainty makes the engineering option weakly worse
    for earlier, later in zip(values, values[1:]):
        assert later <= earlier
    assert values[0] == -1 - 8 * F(1, 12)  # singleton independent prior
    assert values[-1] == -1 - 8 * F(1, 4)  # full set: worst joint weight is min(p1, p2)


def test_climate_requires_2x2():
    space = ProductSpace((2, 3))
    cs = CorrelationSet(
        space,
        [Marginal(0, (F(1, 2), F(1, 2))), Marginal(1, (F(1, 3), F(1, 3), F(1, 3)))],
    )
    with pytest.raises(CorrpolyError):
        run_climate(CLIMATE, PriorSet.from_correlation_set(cs))


def test_climate_errors_carry_the_inputs(monkeypatch):
    prior = PriorSet.from_correlation_set(_climate_cs())
    monkeypatch.setattr(applications, "meu_minimizer", lambda prior, f: (F(99), 0))
    with pytest.raises(ConsistencyError, match="maxmin value of business_as_usual") as info:
        run_climate(CLIMATE, prior)
    assert info.value.context == {
        "values": ["-10", "-10", "0", "0"],
        "act": "business_as_usual",
        "vertices": [[str(w) for w in v.weights] for v in prior.vertices],
    }


def _insurance_beliefs(joint_bf):
    space = ProductSpace((2, 2), (("B", "NB"), ("F", "NF")), ("burn", "flood"))
    b, f = F(1, 4), F(1, 4)
    weights = (joint_bf, b - joint_bf, f - joint_bf, 1 - b - f + joint_bf)
    return JointDistribution(space, weights)


def test_insurance_unique_price_and_zero_profit():
    p = _insurance_beliefs(F(1, 8))
    report = run_insurance(INSURANCE, p, p)
    assert report.verdict is InsuranceVerdict.UNIQUE_PRICE
    assert report.trade_interval == (report.insurer_reservation, report.insurer_reservation)
    assert report.insurer_profit_at_insuree_price == 0


def test_insurance_verdict_flips_exactly_at_equal_joint_weight():
    p = _insurance_beliefs(F(1, 8))
    below = _insurance_beliefs(F(1, 8) - F(1, 100))
    above = _insurance_beliefs(F(1, 8) + F(1, 100))
    assert run_insurance(INSURANCE, p, below).verdict is InsuranceVerdict.POSITIVE_PROFIT
    assert run_insurance(INSURANCE, p, above).verdict is InsuranceVerdict.MARKET_FAILURE
    assert run_insurance(INSURANCE, p, p).verdict is InsuranceVerdict.UNIQUE_PRICE


def test_insurance_neglect_profit_formula():
    # insuree ignoring positive correlation: independent belief underestimates (B, F)
    p = _insurance_beliefs(F(1, 8))
    neglect = _insurance_beliefs(F(1, 16))  # = product of the 1/4 marginals
    report = run_insurance(INSURANCE, p, neglect)
    assert report.verdict is InsuranceVerdict.POSITIVE_PROFIT
    assert report.insurer_profit_at_insuree_price == 100 * F(1, 2) * (F(3, 16) - F(2, 16))
    assert report.trade_interval is not None
    lo, hi = report.trade_interval
    assert lo < hi


def test_insurance_marginal_mismatch_rejected():
    p = _insurance_beliefs(F(1, 8))
    space = p.space
    other = JointDistribution(space, (F(1, 3), F(1, 6), F(1, 6), F(1, 3)))
    with pytest.raises(MarginalMismatchError):
        run_insurance(INSURANCE, p, other)


def test_insurance_errors_carry_the_inputs(monkeypatch):
    p = _insurance_beliefs(F(1, 8))
    ph = _insurance_beliefs(F(1, 16))
    monkeypatch.setattr(applications, "expectation", lambda belief, act: F(0))
    with pytest.raises(ConsistencyError, match="insurer reservation price") as info:
        run_insurance(INSURANCE, p, ph)
    assert info.value.context == {
        "values": ["50", "100", "0", "0"],
        "transfer": "insurer",
        "belief": ["1/8", "1/8", "1/8", "5/8"],
    }


def _evaluate_csv(capsys, name, *args):
    assert cli.main(["evaluate", str(SCENARIO_DIR / name), *args, "--format", "csv"]) == 0
    return {row["act"]: row for row in csv.DictReader(io.StringIO(capsys.readouterr().out))}


def test_runners_agree_with_cli_evaluate(capsys):
    # the CLI evaluates the same files without the runners
    table = _evaluate_csv(capsys, "climate.scn")
    rows = run_climate(CLIMATE, CLIMATE.prior_set())
    assert [(r.name, str(r.value), str(r.argmin_vertex)) for r in rows] == [
        (name, row["meu"], row["argmin_vertex"]) for name, row in table.items()
    ]

    insurer = _evaluate_csv(capsys, "insurance.scn", "--at", "0")
    insuree = _evaluate_csv(capsys, "insurance_neglect.scn", "--at", "0")
    report = run_insurance(
        INSURANCE,
        INSURANCE.prior_set(param_value=F(0)).vertices[0],
        NEGLECT.prior_set().vertices[0],
    )
    assert report.insurer_reservation == (
        F(insurer["no_cover_insurer"]["seu"]) - F(insurer["cover_insurer"]["seu"])
    )
    assert report.insuree_reservation == (
        F(insuree["cover_insuree"]["seu"]) - F(insuree["no_cover_insuree"]["seu"])
    )


CLIMATE_DEGENERATE_MARGINALS = {
    "point-mass-first": [(F(1), F(0)), (F(1, 4), F(3, 4))],
    "point-mass-second": [(F(1, 3), F(2, 3)), (F(0), F(1))],
    "point-masses": [(F(1), F(0)), (F(0), F(1))],
    "tied-halves": [(F(1, 2), F(1, 2)), (F(1, 2), F(1, 2))],
    "tied-2x2": DEGENERATE_MARGINALS["tied-2x2"],
}


@pytest.mark.parametrize("case", sorted(CLIMATE_DEGENERATE_MARGINALS))
def test_climate_identity_on_degenerate_marginals(case):
    weights = CLIMATE_DEGENERATE_MARGINALS[case]
    cs = correlation_set_of(weights)
    p_ind = cs.independent_product
    oracle = oracle_vertices((2, 2), weights)
    acts = CLIMATE.acts()
    for t, prior in (
        (F(0), PriorSet.singleton(p_ind)),
        (F(1, 2), PriorSet(cs.space, [mix(p_ind, v, F(1, 2)) for v in cs.vertices()])),
        (F(1), PriorSet.from_correlation_set(cs)),
    ):
        for row in run_climate(CLIMATE, prior):
            assert row.value == min(
                sum(((1 - t) * i + t * w) * f
                    for i, w, f in zip(p_ind.weights, vertex, acts[row.name].values))
                for vertex in oracle
            )


def test_insurance_identity_at_both_ends_of_the_double_damage_weight():
    # with burn and flood marginals 1/4 the double-damage weight ranges over
    # [0, 1/4]; the oracle's two vertices are its ends
    oracle = sorted(oracle_vertices((2, 2), [(F(1, 4), F(3, 4))] * 2))
    assert [w[0] for w in oracle] == [0, F(1, 4)]
    ends = [_insurance_beliefs(w[0]) for w in oracle]
    acts = INSURANCE.acts(param_value=F(0))

    def price(belief, gain, loss):
        return sum(
            w * (g - l)
            for w, g, l in zip(belief.weights, acts[gain].values, acts[loss].values)
        )

    for p in ends:
        for ph in ends:
            report = run_insurance(INSURANCE, p, ph)
            assert report.insurer_reservation == price(p, "no_cover_insurer", "cover_insurer")
            assert report.insuree_reservation == price(ph, "cover_insuree", "no_cover_insuree")
            assert (report.verdict is InsuranceVerdict.POSITIVE_PROFIT) == (
                p.prob((0, 0)) > ph.prob((0, 0))
            )


def test_runners_reject_the_wrong_scenario():
    belief = NEGLECT.prior_set().vertices[0]
    with pytest.raises(CorrpolyError, match="no act 'no_cover_insurer'") as info:
        run_insurance(NEGLECT, belief, belief)
    assert not isinstance(info.value, ConsistencyError)
    with pytest.raises(CorrpolyError, match=r"needs a 2x2 space, got shape \(2, 2, 2\)") as info:
        run_climate(FINANCE, FINANCE.prior_set(param_value=F(0)))
    assert not isinstance(info.value, ConsistencyError)


# Valid files that break one assumption of `run_finance` each: the input is
# rejected, and never reported as an internal ConsistencyError.
FINANCE_REJECTIONS = {
    "shape": (lambda: CLIMATE, r"needs a 2x2x2 space, got shape \(2, 2\)"),
    "no buy_gold": (lambda: _finance_with(("buy_gold:", "sell_gold:")), "no act 'buy_gold'"),
    "prior set": (lambda: _finance_with((FINANCE_VERTEX, "full")), "one prior vertex at a=1/4"),
    # at a = 1/6 the pair is independent; 1/24 moves from (HH, NG) and
    # (LL, G) to (HH, G) and (LL, NG), which keeps every marginal
    "deposit dependence": (
        lambda: _finance_with((FINANCE_VERTEX, "vertex: 1/12 1/12 1/24 1/8 1/12 1/4 1/24 7/24")),
        "deposit independent",
    ),
    "averaged table": (
        lambda: _finance_with(("-12 0", "-12 1")),
        r"are \(6, 0, 0, -9/4\), not \(6, 0, 0, -3\)",
    ),
}


@pytest.mark.parametrize("case", sorted(FINANCE_REJECTIONS))
def test_finance_rejects_a_scenario_outside_its_assumptions(case):
    scenario, message = FINANCE_REJECTIONS[case]
    with pytest.raises(CorrpolyError, match=message) as info:
        run_finance(scenario(), F(1, 4))
    assert not isinstance(info.value, ConsistencyError)


def test_finance_errors_carry_the_inputs(monkeypatch):
    monkeypatch.setattr(applications, "expectation", lambda belief, act: F(99))
    with pytest.raises(ConsistencyError, match="expected return") as info:
        run_finance(FINANCE, F(1, 12), rho=0.5)
    assert info.value.context == {"a": "1/12", "rho": "0.5"}


def test_finance_expected_return_is_linear_in_a():
    assert run_finance(FINANCE, F(1, 6)).expected_return == 0
    assert run_finance(FINANCE, F(1, 4)).expected_return == F(1, 4)
    assert run_finance(FINANCE, F(0)).expected_return == -F(1, 2)
    assert run_finance(FINANCE, F(1, 3)).expected_return == F(1, 2)
    # outside [0, 1/3] the prior vertex has a negative weight
    for a in (F(-1, 12), F(1, 2)):
        with pytest.raises(CorrpolyError, match="nonnegative") as info:
            run_finance(FINANCE, a)
        assert not isinstance(info.value, ConsistencyError)


def test_finance_risk_neutral_buy_verdicts():
    assert not run_finance(FINANCE, F(1, 6)).buy  # indifferent: no strict gain
    assert run_finance(FINANCE, F(1, 4)).buy
    assert not run_finance(FINANCE, F(1, 12)).buy


def test_finance_threshold_of_a_ratio_beyond_the_float_range():
    # p_LL = 10^-400 makes p_HH / p_LL overflow a float; the threshold is
    # 1 + log2(p_HH) - log2(p_LL), computed from the ratio's integers
    eps = F(1, 10**400)
    pair = (F(1, 2) + eps, F(1, 4) - eps, F(1, 4) - eps, eps)
    vertex = " ".join(str(w * d) for w in pair for d in (F(1, 4), F(3, 4)))
    scenario = _finance_with(
        ("inflation: 1/3 2/3", "inflation: 3/4 1/4"),
        ("uncertainty: 1/2 1/2", "uncertainty: 3/4 1/4"),
        (FINANCE_VERTEX, f"vertex: {vertex}"),
    )
    for rho in (None, 0.5, 2.0):
        report = run_finance(scenario, F(0), rho=rho)
        # p_HH / p_LL = 10^400 / 2 + 1
        assert report.crra_threshold == pytest.approx(400 * math.log2(10), rel=1e-12)
        assert report.buy and report.expected_return == 6 * pair[0] - 3 * eps


def test_finance_crra_threshold_and_verdict():
    report = run_finance(FINANCE, F(1, 4), rho=0.5)
    assert report.crra_threshold == pytest.approx(1 + math.log2(1.5 / 2.5), abs=1e-12)
    assert not report.buy  # 0.5 > 0.263
    assert run_finance(FINANCE, F(1, 4), rho=0.2).buy
    assert run_finance(FINANCE, F(1, 4), rho=0.26).buy
    assert not run_finance(FINANCE, F(1, 4), rho=0.27).buy
    assert not run_finance(FINANCE, F(0), rho=0.1).buy


FINANCE_FILES = [
    pytest.param(FINANCE, F(1, 3), id="finance.scn"),
    pytest.param(FINANCE_SKEWED, F(1, 4), id="inflation-1/4"),
]


@pytest.mark.parametrize("scenario, a_max", FINANCE_FILES)
def test_finance_threshold_agrees_with_direct_expectation_on_grid(scenario, a_max):
    # the internal cross-check raises on disagreement; sweep a grid to exercise it
    for num in range(1, int(24 * a_max) + 1):
        a = F(num, 24)
        for rho in (0.05, 0.3, 0.7, 0.95, 1.0, 1.5, 2.5):
            run_finance(scenario, a, rho=rho)


@pytest.mark.parametrize(
    "scenario, a",
    [
        *(pytest.param(FINANCE, a, id=f"finance.scn-{a}")
          for a in (F(1, 24), F(1, 12), F(1, 6), F(1, 4), F(1, 3))),
        *(pytest.param(FINANCE_SKEWED, a, id=f"inflation-1/4-{a}")
          for a in (F(1, 24), F(1, 12), F(1, 6), F(1, 4))),
    ],
)
def test_finance_crra_threshold_is_the_expected_utility_crossing(scenario, a):
    # at wealth 6 the averaged returns (6, 0, 0, -3) scale to outcomes
    # 2, 1, 1, 1/2, and buying pays in expected CRRA utility exactly up to
    # the closed-form threshold
    threshold = run_finance(scenario, a).crra_threshold
    belief = scenario.prior_set(param_value=a).vertices[0]
    weights = marginalize(belief, [0, 1]).weights
    assert threshold == 1 + math.log2(weights[0] / weights[3])

    def gain(rho):
        utility = RiskUtility(rho=rho, scale=6.0)
        return sum(
            float(w) * (utility.apply(6 + r) - utility.apply(6))
            for w, r in zip(weights, (6, 0, 0, -3))
        )

    for rho, buy in ((threshold - 1e-6, True), (threshold + 1e-6, False)):
        assert (gain(rho) > 0) is buy
        assert run_finance(scenario, a, rho=rho).buy is buy


@pytest.mark.parametrize(
    "inflation, vertex",
    [
        # buying cannot lose
        pytest.param("3/4 1/4", "1/16 3/16 1/8 3/8 1/16 3/16 0 0", id="p_HH=1/4,p_LL=0"),
    ],
)
def test_finance_threshold_is_infinite_when_the_trade_cannot_lose(inflation, vertex):
    scenario = _finance_with(
        ("inflation: 1/3 2/3", f"inflation: {inflation}"), (FINANCE_VERTEX, f"vertex: {vertex}")
    )
    assert run_finance(scenario, F(0)).crra_threshold == math.inf
    for rho in (-2.5, 0.5, 1.0, 3.0):
        assert run_finance(scenario, F(0), rho=rho).buy


def test_finance_declines_a_trade_that_changes_nothing():
    # p_HH = p_LL = 0: every outcome is the wealth kept, so no investor gains
    scenario = _finance_with(
        ("inflation: 1/3 2/3", "inflation: 1/2 1/2"),
        (FINANCE_VERTEX, "vertex: 0 0 1/8 3/8 1/8 3/8 0 0"),
    )
    report = run_finance(scenario, F(0))
    assert report.expected_return == 0 and report.crra_threshold is None
    assert not report.buy
    for rho in (-2.5, 0.0, 0.5, 1.0, 3.0):
        assert not run_finance(scenario, F(0), rho=rho).buy


def test_finance_crra_at_rho_zero_decides_as_risk_neutral():
    # one rule for both verdicts: buy only on a strict gain, so the
    # indifferent a = 1/6 buys under neither
    grid = FINANCE.sweep.grid
    for a in grid:
        assert run_finance(FINANCE, a).buy == run_finance(FINANCE, a, rho=0.0).buy
    assert [run_finance(FINANCE, a, rho=0.0).buy for a in grid] == [False, False, False, True, True]


def test_sweep_rows_and_csv():
    scn = sc.load(SCENARIO_DIR / "finance.scn")
    rows = sweep_rows(scn)
    grid = scn.sweep.grid
    assert len(rows) == len(grid) * len(scn.act_exprs)
    buy = [r for r in rows if r.name == "buy_gold"]
    values = [r.value for r in buy]
    assert values == [3 * a - F(1, 2) for a in grid]
    assert all(later > earlier for earlier, later in zip(values, values[1:]))
    text = sweep_csv(scn)
    parsed = list(csv.reader(io.StringIO(text)))
    assert tuple(parsed[0]) == SWEEP_CSV_HEADER
    assert len(parsed) == 1 + len(rows)
    first_buy = next(r for r in parsed if r[1] == "buy_gold")
    assert first_buy[2] == "-1/2" and first_buy[3] == "-0.5"


def test_sweep_empty_grid_gives_header_only():
    text = (SCENARIO_DIR / "finance.scn").read_text(encoding="utf-8")
    scn = sc.loads(text.replace("grid: 0 1/12 1/6 1/4 1/3", "grid:"))
    assert scn.sweep.grid == ()
    text = sweep_csv(scn)
    assert text == ",".join(SWEEP_CSV_HEADER) + "\n"


def test_sweep_unbound_parameter_rejected():
    scn = sc.load(SCENARIO_DIR / "finance.scn")
    with pytest.raises(Exception):
        sweep_rows(scn, parameter="zeta")
    climate = sc.load(SCENARIO_DIR / "climate.scn")
    with pytest.raises(Exception):
        sweep_rows(climate)


def test_correlation_irrelevance_across_prior_specs():
    # any act measurable on one subspace is valued identically by every
    # prior spec with the same marginals
    scn = sc.load(SCENARIO_DIR / "climate.scn")
    cs = scn.correlation_set()
    rng = random.Random(17)
    priors = [
        scn.prior_set(cs),
        PriorSet.singleton(cs.independent_product),
        PriorSet(cs.space, [mix(cs.independent_product, v, F(1, 3)) for v in cs.vertices()]),
    ]
    for i in (0, 1):
        sub = cs.space.subspace([i])
        for _ in range(5):
            values = tuple(F(rng.randint(-9, 9), 2) for _ in range(2))
            act = embed_act(Act(sub, values), cs.space, [i])
            results = {meu_value(prior, act) for prior in priors}
            assert len(results) == 1
