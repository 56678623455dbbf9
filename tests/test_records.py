"""The public behaviour of the plain result records.

Each record is built from the call that returns it.  Its fields read by
name, it equals and hashes like the same record rebuilt from those fields,
its repr text is pinned, a field cannot be assigned, and pickling or deep
copying gives back an equal record."""

import copy
import pickle
from fractions import Fraction

import pytest

from corrpoly import (
    Collection,
    CorrelationSet,
    JointDistribution,
    LinearProgram,
    Marginal,
    PriorSet,
    ProductSpace,
    SubspacePreference,
    check_collection_independence_axiom,
    check_subspace_consistency,
    check_subspace_independence_axiom,
    is_independent_on,
    load,
    loads,
    run_climate,
    run_finance,
    run_insurance,
    solve_lp_min,
)
from corrpoly.polytope import build_marginal_system
from conftest import SCENARIO_DIR

F = Fraction
HALF = (F(1, 2), F(1, 2))
SPACE_2X2 = ProductSpace((2, 2))
DIAGONAL = JointDistribution(SPACE_2X2, (F(1, 2), 0, 0, F(1, 2)))
FULL_2X2 = PriorSet.from_correlation_set(
    CorrelationSet(SPACE_2X2, [Marginal(0, HALF), Marginal(1, HALF)])
)

SCENARIO = loads(
    "SPACE\nx: H L\ny: G B\n\n"
    "MARGINALS\nx: 1/2 1/2\ny: 1/3 2/3\n\n"
    "ACTS\nf: 1/2-a 2*a 0 1\n\n"
    "PRIOR\nindependent\n\n"
    "SWEEP\nparam: a\ngrid: 0 1/4\n"
)


def _insurance_report():
    space = ProductSpace((2, 2), (("B", "NB"), ("F", "NF")), ("burn", "flood"))
    belief = JointDistribution(space, (F(1, 8), F(1, 8), F(1, 8), F(5, 8)))
    neglect = JointDistribution(space, (F(1, 16), F(3, 16), F(3, 16), F(9, 16)))
    return run_insurance(load(SCENARIO_DIR / "insurance.scn"), belief, neglect)


def _climate_row():
    scenario = load(SCENARIO_DIR / "climate.scn")
    return run_climate(scenario, scenario.prior_set())[0]


# name -> (a call that builds the record, its field names in order, its
# repr text or None where the generic check below suffices)
RECORDS = {
    "ReportRow": (
        _climate_row,
        ("name", "value", "value_decimal", "argmin_vertex", "param"),
        "ReportRow(name='business_as_usual', value=Fraction(-10, 3),"
        " value_decimal='-3.33333333333', argmin_vertex=0, param=None)",
    ),
    "InsuranceReport": (
        _insurance_report,
        (
            "insurer_reservation",
            "insuree_reservation",
            "trade_interval",
            "verdict",
            "insurer_profit_at_insuree_price",
        ),
        "InsuranceReport(insurer_reservation=Fraction(75, 4), insuree_reservation=Fraction(175, 8),"
        " trade_interval=(Fraction(75, 4), Fraction(175, 8)),"
        " verdict=<InsuranceVerdict.POSITIVE_PROFIT: 'positive-profit-trade'>,"
        " insurer_profit_at_insuree_price=Fraction(25, 8))",
    ),
    "FinanceReport": (
        lambda: run_finance(load(SCENARIO_DIR / "finance.scn"), F(1, 4), rho=0.5),
        ("averaged_returns", "expected_return", "rho", "crra_threshold", "buy"),
        None,
    ),
    "IndependenceVerdict": (
        lambda: is_independent_on(DIAGONAL, Collection.of({0}, {1})),
        ("collection", "holds", "witness", "max_abs_defect"),
        "IndependenceVerdict(collection=Collection(members=(frozenset({0}), frozenset({1}))),"
        " holds=False, witness=((0,), (0,)), max_abs_defect=Fraction(1, 4))",
    ),
    "LPSolution": (
        lambda: solve_lp_min(LinearProgram((1, 2, 0), ((1, 1, 1),), (1,))),
        ("optimum", "argmin", "dual"),
        "LPSolution(optimum=Fraction(0, 1),"
        " argmin=(Fraction(0, 1), Fraction(0, 1), Fraction(1, 1)), dual=(Fraction(0, 1),))",
    ),
    "MarginalSystem": (
        lambda: build_marginal_system(SPACE_2X2, [Marginal(0, HALF), Marginal(1, HALF)]),
        ("space", "marginals", "matrix", "rhs"),
        None,
    ),
    "ConsistencyReport": (
        lambda: check_subspace_consistency(
            FULL_2X2,
            [SubspacePreference(0, Marginal(0, HALF)), SubspacePreference(1, Marginal(1, (F(1), F(0))))],
        ),
        ("holds", "violations"),
        "ConsistencyReport(holds=False, violations=((0, 1), (1, 1)))",
    ),
    "AxiomCounterexample": (
        lambda: check_subspace_independence_axiom(FULL_2X2, trials=0)[1],
        (
            "subspace_index",
            "f_i",
            "g_i",
            "conditioning_event",
            "outside_value",
            "base_values",
            "conditioned_values",
        ),
        None,
    ),
    "ProductIdentityWitness": (
        lambda: check_collection_independence_axiom(DIAGONAL, Collection.of({0}, {1}))[1],
        ("anchor_member", "e", "e_prime", "f", "f_prime", "lhs", "rhs"),
        None,
    ),
    "LinExpr": (
        lambda: SCENARIO.act_exprs["f"][0],
        ("const", "coeff", "param"),
        "LinExpr(const=Fraction(1, 2), coeff=Fraction(-1, 1), param='a')",
    ),
    "PriorSpec": (
        lambda: SCENARIO.prior,
        ("kind", "vertex_exprs", "partition"),
        "PriorSpec(kind='independent', vertex_exprs=(), partition=None)",
    ),
    "SweepSpec": (
        lambda: SCENARIO.sweep,
        ("param", "grid"),
        "SweepSpec(param='a', grid=(Fraction(0, 1), Fraction(1, 4)))",
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_a_result_record_behaves_as_a_frozen_value(name):
    build, fields, pinned = RECORDS[name]
    record = build()
    assert type(record).__name__ == name
    values = {field: getattr(record, field) for field in fields}
    rebuilt = type(record)(**values)
    assert rebuilt == record and hash(rebuilt) == hash(record)
    assert build() == record
    assert repr(record) == name + "(" + ", ".join(f"{k}={v!r}" for k, v in values.items()) + ")"
    if pinned is not None:
        assert repr(record) == pinned
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, values[field])
    assert pickle.loads(pickle.dumps(record)) == record
    assert copy.deepcopy(record) == record
