"""Each shared precondition has one owner, and every public caller raises its
error: the same product space (`space.require_same_space`,
SpaceMismatchError), shared marginals (`space.shared_marginals`,
MarginalMismatchError) and membership of the correlation set
(`CorrelationSet.require_member`, NotInCorrelationSetError).  Also the
CRRA fields (`preferences.RiskUtility`, CorrpolyError), malformed rational
and count arguments (`linalg.fraction_tuple`, `linalg.require_count`,
CorrpolyError), the range checks of `unravel` and `prob_of`, the type
checks of subspace indices, coordinates and flat indices, the vertex
guard, and the
degenerate shapes that no other test file covers: 1-state subspaces and a
zero-weight state."""

import math
from fractions import Fraction

import pytest

from corrpoly import (
    Act,
    Collection,
    ConsistencyError,
    CorrelationSet,
    CorrpolyError,
    Event,
    GuardExceededError,
    JointDistribution,
    Marginal,
    MarginalMismatchError,
    NotInCorrelationSetError,
    PriorSet,
    ProductSpace,
    RiskUtility,
    SpaceMismatchError,
    SubspacePreference,
    UtilityAlignment,
    absolute_revealed_correlation,
    capacity_of,
    ceu_value,
    certify_local_max_mi,
    check_event_level_independence,
    check_exactness,
    check_subspace_independence_axiom,
    choquet_integral,
    compare_revealed_correlation,
    cylinder,
    decompose,
    dimension,
    embed_act,
    embed_cylinder,
    enumerate_extreme_points,
    event_from_mask,
    expectation,
    independent_product,
    is_maximally_zero,
    kl_divergence,
    load,
    loads,
    marginalize,
    meu_value,
    mix,
    more_correlation_averse,
    mutual_information,
    partition_factorize,
    product_of_components,
    restricted_dimension,
    run_finance,
    run_insurance,
    seu_subspace_value,
)
from corrpoly.independence import event_family
from corrpoly.space import shared_marginals
from bruteforce import oracle_vertices
from conftest import SCENARIO_DIR

F = Fraction

S22 = ProductSpace((2, 2))
S23 = ProductSpace((2, 3))
LINE2 = ProductSpace((2,))
LINE3 = ProductSpace((3,))
PAIR = Collection.of({0}, {1})
INSURANCE = load(SCENARIO_DIR / "insurance.scn")
FINANCE = load(SCENARIO_DIR / "finance.scn")


def _uniform(space):
    n = space.total_size
    return JointDistribution(space, (F(1, n),) * n)


def _uniform_marginals(space):
    return [Marginal(i, (F(1, s),) * s) for i, s in enumerate(space.subspace_sizes)]


def _cs(space):
    return CorrelationSet(space, _uniform_marginals(space))


# Each case calls a public function with one object on (2,2) and another on
# (2,3), or an event, act or component on (3,) where the (2,) sub-product
# of a (2,2) object is expected.
SPACE_MISMATCHES = {
    "Capacity.value": lambda: capacity_of(_cs(S22)).value(Event.full(S23)),
    "choquet_integral": lambda: choquet_integral(capacity_of(_cs(S22)), Act.constant(S23, 1)),
    "ceu_value": lambda: ceu_value(_cs(S22), Act.constant(S23, 1)),
    "event_family": lambda: event_family(
        _uniform(S22), PAIR, [Event.full(LINE2), Event.full(LINE3)]
    ),
    "check_event_level_independence": lambda: check_event_level_independence(
        _uniform(S22), PAIR, [Event.full(LINE2), Event.full(LINE3)]
    ),
    "absolute_revealed_correlation": lambda: absolute_revealed_correlation(
        _uniform(S22), PAIR, [Event.full(LINE2), Event.full(LINE3)]
    ),
    "product_of_components": lambda: product_of_components(
        S22, PAIR, [_uniform(LINE2), _uniform(LINE3)]
    ),
    "kl_divergence": lambda: kl_divergence(_uniform(S22), _uniform(S23)),
    "CorrelationSet.contains": lambda: _cs(S22).contains(_uniform(S23)),
    "is_maximally_zero": lambda: is_maximally_zero(_cs(S22), _uniform(S23)),
    "decompose": lambda: decompose(_cs(S22), _uniform(S23)),
    "mutual_information": lambda: mutual_information(_cs(S22), _uniform(S23)),
    "certify_local_max_mi": lambda: certify_local_max_mi(_cs(S22), _uniform(S23)),
    "mix": lambda: mix(_uniform(S22), _uniform(S23), F(1, 2)),
    "CorrelationSet": lambda: CorrelationSet(S22, _uniform_marginals(S23)),
    "independent_product": lambda: independent_product(_uniform_marginals(S23), S22),
    "expectation": lambda: expectation(_uniform(S22), Act.constant(S23, 1)),
    "prob_event": lambda: _uniform(S22).prob_event(Event.full(S23)),
    "Event.__or__": lambda: Event.full(S22) | Event.full(S23),
    "Event.__and__": lambda: Event.full(S22) & Event.full(S23),
    "Event.__sub__": lambda: Event.full(S22) - Event.full(S23),
    "Event.issubset": lambda: Event.full(S22).issubset(Event.full(S23)),
    "Act.bet": lambda: Act.bet(S22, Event.full(S23), 1, 0),
    "Act.splice": lambda: Act.constant(S22, 1).splice(Event.full(S22), Act.constant(S23, 0)),
    "Act.__add__": lambda: Act.constant(S22, 1) + Act.constant(S23, 1),
    "embed_cylinder": lambda: embed_cylinder(Event.full(LINE3), S22, [1]),
    "embed_act": lambda: embed_act(Act.constant(LINE3, 1), S22, [1]),
    "PriorSet": lambda: PriorSet(S22, [_uniform(S23)]),
    "meu_value": lambda: meu_value(PriorSet.singleton(_uniform(S22)), Act.constant(S23, 1)),
    "seu_subspace_value": lambda: seu_subspace_value(
        SubspacePreference(0, Marginal(0, (F(1, 2), F(1, 2)))), Act.constant(LINE3, 1)
    ),
    "more_correlation_averse": lambda: more_correlation_averse(
        PriorSet.singleton(_uniform(S22)), PriorSet.singleton(_uniform(S23))
    ),
    "compare_revealed_correlation": lambda: compare_revealed_correlation(
        _uniform(S22), _uniform(S23), PAIR, [Event.full(LINE2), Event.full(LINE2)]
    ),
    "run_insurance": lambda: run_insurance(INSURANCE, _uniform(S22), _uniform(S23)),
}


@pytest.mark.parametrize("caller", sorted(SPACE_MISMATCHES))
def test_space_mismatch_raises_space_mismatch_error(caller):
    with pytest.raises(SpaceMismatchError):
        SPACE_MISMATCHES[caller]()


def test_space_mismatch_names_the_object():
    with pytest.raises(SpaceMismatchError, match=r"event lives on a different space: "
                       r"shape \(2, 3\), expected \(2, 2\)"):
        capacity_of(_cs(S22)).value(Event.full(S23))
    with pytest.raises(SpaceMismatchError, match="component lives on a different space"):
        product_of_components(S22, PAIR, [_uniform(LINE2), _uniform(LINE3)])
    with pytest.raises(SpaceMismatchError, match="marginal on subspace 1 has 3 weights for 2"):
        CorrelationSet(S22, _uniform_marginals(S23))


def _independent(*marginal_weights):
    return independent_product([Marginal(i, w) for i, w in enumerate(marginal_weights)])


HALF = (F(1, 2), F(1, 2))
P = _independent(HALF, HALF)
Q = _independent((F(1, 3), F(2, 3)), HALF)

MARGINAL_MISMATCHES = {
    "PriorSet.shared_marginals": lambda: PriorSet(S22, [P, Q]).shared_marginals(),
    "more_correlation_averse": lambda: more_correlation_averse(
        PriorSet.singleton(P), PriorSet.singleton(Q)
    ),
    "compare_revealed_correlation": lambda: compare_revealed_correlation(
        P, Q, PAIR, [Event.full(LINE2), Event.full(LINE2)]
    ),
    "run_insurance": lambda: run_insurance(INSURANCE, P, Q),
}


@pytest.mark.parametrize("caller", sorted(MARGINAL_MISMATCHES))
def test_marginal_mismatch_raises_marginal_mismatch_error(caller):
    with pytest.raises(MarginalMismatchError, match="do not share marginals"):
        MARGINAL_MISMATCHES[caller]()


def test_shared_marginals_returns_the_common_marginals():
    corner = JointDistribution(S22, (F(1, 2), 0, 0, F(1, 2)))
    assert shared_marginals([P, corner], "beliefs") == (Marginal(0, HALF), Marginal(1, HALF))


NOT_A_MEMBER = JointDistribution(S22, (1, 0, 0, 0))

MEMBERSHIP = {
    "is_maximally_zero": lambda: is_maximally_zero(_cs(S22), NOT_A_MEMBER),
    "decompose": lambda: decompose(_cs(S22), NOT_A_MEMBER),
    "mutual_information": lambda: mutual_information(_cs(S22), NOT_A_MEMBER),
    "certify_local_max_mi": lambda: certify_local_max_mi(_cs(S22), NOT_A_MEMBER),
    "Scenario.prior_set": lambda: loads(
        "SPACE\na: x y\nb: u v\n\nMARGINALS\na: 1/2 1/2\nb: 1/2 1/2\n\n"
        "PRIOR\nvertex: 1/2 0 0 1/2\nvertex: 1 0 0 0\n"
    ).prior_set(),
}


@pytest.mark.parametrize("caller", sorted(MEMBERSHIP))
def test_non_member_raises_not_in_correlation_set_error(caller):
    with pytest.raises(NotInCorrelationSetError, match="does not have the prescribed marginals"):
        MEMBERSHIP[caller]()


# Malformed CRRA input to `run_finance`: `RiskUtility` owns the checks, so
# each case is a CorrpolyError naming the input, never a silent verdict, an
# internal ConsistencyError or a Python arithmetic error.
MALFORMED_CRRA = {
    "rho=nan": (dict(rho=math.nan), "rho must be finite"),
    "rho=inf": (dict(rho=math.inf), "rho must be finite"),
    "rho=-inf": (dict(rho=-math.inf), "rho must be finite"),
    "rho=2000": (dict(rho=2000.0), "overflows"),
    "rho=-2000": (dict(rho=-2000.0), "overflows"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CRRA))
def test_malformed_crra_input_raises_corrpoly_error(case):
    kwargs, message = MALFORMED_CRRA[case]
    with pytest.raises(CorrpolyError, match=message) as exc:
        run_finance(FINANCE, F(1, 4), **kwargs)
    assert not isinstance(exc.value, ConsistencyError)


# Malformed rational and count arguments: each is a CorrpolyError from the
# one conversion (`linalg.fraction_tuple`) or the one count check
# (`linalg.require_count`), never a ValueError or TypeError.  A bool is an
# int to Python but no rational here: `Marginal(0, (True, False))` would
# otherwise be a point mass.
MALFORMED_ARGUMENTS = {
    "mix lam='x'": lambda: mix(P, P, "x"),
    "mix lam=nan": lambda: mix(P, P, math.nan),
    "mix lam=True": lambda: mix(P, P, True),
    "Marginal weights=(True, False)": lambda: Marginal(0, (True, False)),
    "JointDistribution weights=(True, 0, 0, 0)": lambda: JointDistribution(S22, (True, 0, 0, 0)),
    "Act values=(True, 0, 0, 0)": lambda: Act(S22, (True, 0, 0, 0)),
    "Scenario.prior_set param_value=nan": lambda: FINANCE.prior_set(param_value=math.nan),
    "Scenario.prior_set param_value='x'": lambda: FINANCE.prior_set(param_value="x"),
    "Scenario.prior_set param_value=False": lambda: FINANCE.prior_set(param_value=False),
    "run_finance a='abc'": lambda: run_finance(FINANCE, "abc"),
    "run_finance a=nan": lambda: run_finance(FINANCE, math.nan),
    "run_finance a=True": lambda: run_finance(FINANCE, True),
    "UtilityAlignment scale='x'": lambda: UtilityAlignment(scale="x"),
    "UtilityAlignment shift=nan": lambda: UtilityAlignment(shift=math.nan),
    "UtilityAlignment.apply value='x'": lambda: UtilityAlignment().apply("x"),
    "RiskUtility rho='x'": lambda: RiskUtility(rho="x"),
    "RiskUtility scale='x'": lambda: RiskUtility(scale="x"),
    "RiskUtility rho=True": lambda: RiskUtility(rho=True),
    "RiskUtility scale=True": lambda: RiskUtility(scale=True),
    "check_subspace_independence_axiom trials=2.5": lambda: check_subspace_independence_axiom(
        PriorSet.singleton(P), trials=2.5
    ),
    "check_subspace_independence_axiom trials='3'": lambda: check_subspace_independence_axiom(
        PriorSet.singleton(P), trials="3"
    ),
    "enumerate_extreme_points guard='x'": lambda: enumerate_extreme_points(_cs(S22), guard="x"),
    "CorrelationSet.vertices guard=None": lambda: _cs(S22).vertices(guard=None),
    "Event mask=1.5": lambda: Event(S22, 1.5),
    "event_from_mask mask=1.5": lambda: event_from_mask(S22, 1.5),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_ARGUMENTS))
def test_malformed_arguments_raise_corrpoly_error(case):
    with pytest.raises(CorrpolyError) as exc:
        MALFORMED_ARGUMENTS[case]()
    assert not isinstance(exc.value, ConsistencyError)


def test_count_arguments_name_their_bound():
    with pytest.raises(CorrpolyError, match=r"probes must be an integer >= 0, got 2\.5"):
        certify_local_max_mi(_cs(S22), _cs(S22).independent_product, probes=2.5)
    with pytest.raises(CorrpolyError, match=r"guard must be an integer >= 0, got None"):
        _cs(S22).vertices(guard=None)
    # a bool is no count, though it is an int to isinstance
    with pytest.raises(CorrpolyError, match=r"probes must be an integer >= 0, got True"):
        certify_local_max_mi(_cs(S22), _cs(S22).independent_product, probes=True)
    with pytest.raises(CorrpolyError, match=r"guard must be an integer >= 0, got True"):
        _cs(S22).vertices(guard=True)
    with pytest.raises(CorrpolyError, match=r"guard must be an integer >= 0, got False"):
        enumerate_extreme_points(_cs(S22), guard=False)
    with pytest.raises(CorrpolyError, match=r"trials must be an integer >= 0, got True"):
        check_subspace_independence_axiom(PriorSet.singleton(P), trials=True)


@pytest.mark.parametrize("seed", [None, 1.5, "3", [1], True], ids=repr)
def test_a_seed_must_be_an_integer(seed):
    # None would seed from the operating system, so two equal calls could
    # return different reports; the others fail inside `random` or pass as 1
    with pytest.raises(CorrpolyError, match=r"seed must be an integer, got ") as exc:
        certify_local_max_mi(_cs(S22), _cs(S22).independent_product, seed=seed)
    assert not isinstance(exc.value, ConsistencyError)
    with pytest.raises(CorrpolyError, match=r"seed must be an integer, got ") as exc:
        check_subspace_independence_axiom(PriorSet.singleton(P), seed=seed)
    assert not isinstance(exc.value, ConsistencyError)


def test_a_negative_seed_is_a_seed():
    cs = _cs(S22)
    reports = {certify_local_max_mi(cs, cs.independent_product, seed=-5) for _ in range(3)}
    assert len(reports) == 1
    assert check_subspace_independence_axiom(PriorSet.singleton(P), trials=3, seed=-5)[0]


def test_vertex_guard_is_checked_on_cached_vertices():
    cs = _cs(S22)
    assert len(cs.vertices()) == 2
    with pytest.raises(GuardExceededError):
        cs.vertices(guard=2)
    assert len(cs.vertices(guard=4)) == 2


def test_out_of_range_indices_raise_corrpoly_error():
    with pytest.raises(CorrpolyError, match="flat index 9"):
        S22.unravel(9)
    with pytest.raises(CorrpolyError, match="flat index -1"):
        S22.unravel(-1)
    assert [S22.unravel(k) for k in range(4)] == list(S22.states())
    m = Marginal(0, HALF)
    with pytest.raises(CorrpolyError, match="not in a subspace of size 2"):
        m.prob_of([5])
    with pytest.raises(CorrpolyError):
        m.prob_of([-1])
    assert m.prob_of([0, 1, 1]) == 1


# A subspace index, coordinate or flat index that is not an int (or is a
# bool) fails `linalg.require_count`; each of these raised TypeError, or
# was accepted, before that check.
MALFORMED_INDICES = {
    "Marginal.prob_of [0.5]": lambda: Marginal(0, HALF).prob_of([0.5]),
    "Marginal.prob_of ['0']": lambda: Marginal(0, HALF).prob_of(["0"]),
    "ProductSpace.project ['a']": lambda: S22.project(["a"]),
    "ProductSpace.subspace ['a']": lambda: S22.subspace(["a"]),
    "marginalize [0.5]": lambda: marginalize(P, [0.5]),
    "embed_act [0.5]": lambda: embed_act(Act.constant(LINE2, 1), S22, [0.5]),
    "cylinder {'0': 0}": lambda: cylinder(S22, {"0": 0}),
    "Collection.of {'a'} {1}": lambda: Collection.of({"a"}, {1}),
    "Collection.of {0.5} {1}": lambda: Collection.of({0.5}, {1}),
    "ProductSpace.unravel 1.5": lambda: S22.unravel(1.5),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INDICES))
def test_malformed_indices_raise_corrpoly_error(case):
    with pytest.raises(CorrpolyError, match=r" must be an integer, got ") as exc:
        MALFORMED_INDICES[case]()
    assert type(exc.value) is CorrpolyError


@pytest.mark.parametrize(
    "index, weights",
    [("x", (1,)), (True, (1, 0)), (0.0, (1, 0)), (-1, (1, 0))],
    ids=repr,
)
def test_a_marginal_subspace_index_is_a_count(index, weights):
    # each of these constructed a marginal before the check; a subspace
    # preference compared its index to its marginal's by ==, so True and
    # 1.0 passed for 1
    with pytest.raises(CorrpolyError, match=r"subspace index must be an integer >= 0, got ") as exc:
        Marginal(index, weights)
    assert type(exc.value) is CorrpolyError
    with pytest.raises(CorrpolyError, match=r"subspace index must be an integer >= 0, got "):
        SubspacePreference(index, Marginal(1, weights))


# A bool coordinate is an int to isinstance, so `ravel((True, 0))` read
# flat index 2; every state argument goes through `ProductSpace.check_state`.
BOOL_STATES = {
    "ProductSpace.ravel": lambda: S22.ravel((True, 0)),
    "Event.from_states": lambda: Event.from_states(S22, [(0, False)]),
    "JointDistribution.prob": lambda: P.prob((True, 0)),
    "Act.value": lambda: Act.constant(S22, 1).value((1, True)),
}


@pytest.mark.parametrize("caller", sorted(BOOL_STATES))
def test_a_bool_coordinate_is_no_state(caller):
    with pytest.raises(CorrpolyError, match=r"not in a space of shape \(2, 2\)") as exc:
        BOOL_STATES[caller]()
    assert type(exc.value) is CorrpolyError


DEGENERATE = [
    ((1, 1), [(1,), (1,)], 0),
    ((1, 3), [(1,), (F(1, 2), F(1, 3), F(1, 6))], 0),
    ((2, 1, 2), [(F(1, 3), F(2, 3)), (1,), (F(1, 4), F(3, 4))], 1),
    ((2, 2), [(F(1, 3), F(2, 3)), (0, 1)], 0),
]


@pytest.mark.parametrize("sizes, weights, dim", DEGENERATE)
def test_degenerate_shapes(sizes, weights, dim):
    space = ProductSpace(sizes)
    cs = CorrelationSet(space, [Marginal(i, w) for i, w in enumerate(weights)])
    assert dimension(cs) == dim

    expected = oracle_vertices(sizes, weights)
    assert {v.weights for v in cs.vertices()} == expected

    cap = capacity_of(cs)
    for mask in range(2 ** space.total_size):
        lowest = min(sum((w for k, w in enumerate(v) if mask >> k & 1), F(0)) for v in expected)
        assert cap.value(event_from_mask(space, mask)) == lowest

    for p in (*cs.vertices(), cs.independent_product):
        report = certify_local_max_mi(cs, p, probes=8)
        assert report.is_local_max == (p.weights in expected)

    singletons = Collection.of(*({i} for i in range(space.n_subspaces)))
    assert restricted_dimension(cs, singletons) == 0
    components = partition_factorize(cs, singletons)
    assert len(components) == space.n_subspaces
    assert sum(dimension(comp) for comp in components) == 0

    assert check_exactness(cs)
