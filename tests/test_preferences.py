import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrpoly import (
    Act,
    Collection,
    ConsistencyError,
    CorrelationSet,
    CorrpolyError,
    Event,
    JointDistribution,
    Marginal,
    MarginalMismatchError,
    PriorSet,
    ProductSpace,
    RevealedCorrelation,
    RiskUtility,
    SubspacePreference,
    UtilityAlignment,
    absolute_revealed_correlation,
    ceu_value,
    check_collection_independence_axiom,
    check_subspace_consistency,
    check_subspace_independence_axiom,
    compare_revealed_correlation,
    embed_act,
    expectation,
    is_independent_of,
    is_independent_on,
    load,
    meu_minimizer,
    meu_value,
    more_correlation_averse,
    sample_member,
    seu_subspace_value,
)
from corrpoly import preferences
from conftest import (
    DEGENERATE_MARGINALS,
    SCENARIO_DIR,
    correlation_set_of,
    random_correlation_set,
    random_marginal,
)
from bruteforce import (
    check_collection_independence_axiom_reference,
    check_subspace_independence_axiom_reference,
    product_identity_witness_reference,
    subspace_independence_trials_reference,
)

F = Fraction
FINANCE = load(SCENARIO_DIR / "finance.scn")


def _paper_acts(space):
    f = Act.from_state_values(space, {(0, 0): 4, (1, 0): 3, (0, 1): 2, (1, 1): 1})
    g = Act.from_state_values(space, {(0, 0): 5, (1, 0): 3, (0, 1): 2, (1, 1): 0})
    return f, g


def test_meu_and_ceu_divergence(uniform_2x2):
    cs = uniform_2x2
    prior = PriorSet.from_correlation_set(cs)
    f, g = _paper_acts(cs.space)
    assert meu_value(prior, f) == F(5, 2)
    assert meu_value(prior, g) == F(5, 2)
    assert ceu_value(cs, f) == 2
    assert ceu_value(cs, g) == F(3, 2)


def test_meu_singleton_is_expectation(uniform_2x2):
    p = uniform_2x2.independent_product
    prior = PriorSet.singleton(p)
    f, _ = _paper_acts(uniform_2x2.space)
    assert meu_value(prior, f) == expectation(p, f)
    assert meu_value(prior, Act.constant(uniform_2x2.space, F(7, 5))) == F(7, 5)


def test_meu_minimizer_reports_vertex(uniform_2x2):
    prior = PriorSet.from_correlation_set(uniform_2x2)
    f, _ = _paper_acts(uniform_2x2.space)
    value, k = meu_minimizer(prior, f)
    assert value == expectation(prior.vertices[k], f)


def test_seu_subspace_value():
    sub = ProductSpace((2,))
    sp = SubspacePreference(0, Marginal(0, (F(1, 3), F(2, 3))))
    assert seu_subspace_value(sp, Act.constant(sub, F(5))) == 5
    indicator = Act(sub, (F(1), F(0)))
    assert seu_subspace_value(sp, indicator) == F(1, 3)
    aligned = SubspacePreference(
        0, Marginal(0, (F(1, 3), F(2, 3))), UtilityAlignment(F(2), F(1))
    )
    assert seu_subspace_value(aligned, indicator) == 2 * F(1, 3) + 1


def test_utility_alignment_positive_scale():
    with pytest.raises(Exception):
        UtilityAlignment(F(0))


def test_subspace_consistency(uniform_2x2):
    cs = uniform_2x2
    subs = [SubspacePreference(i, m) for i, m in enumerate(cs.marginals)]
    full = PriorSet.from_correlation_set(cs)
    assert check_subspace_consistency(full, subs).holds
    assert check_subspace_consistency(PriorSet.singleton(cs.independent_product), subs).holds
    point = JointDistribution(cs.space, (F(1), 0, 0, 0))
    report = check_subspace_consistency(PriorSet(cs.space, [point]), subs)
    assert not report.holds
    assert (0, 0) in report.violations


def test_subspace_independence_axiom_accepts_independent(uniform_2x2):
    prior = PriorSet.singleton(uniform_2x2.independent_product)
    holds, counterexample = check_subspace_independence_axiom(prior, trials=500, seed=1)
    assert holds and counterexample is None


def test_subspace_independence_axiom_rejects_full_set(uniform_2x2):
    prior = PriorSet.from_correlation_set(uniform_2x2)
    holds, ce = check_subspace_independence_axiom(prior, trials=0)
    assert not holds
    assert ce is not None
    assert is_independent_of(embed_act(ce.f_i, uniform_2x2.space, [ce.subspace_index]), [ce.subspace_index])
    base_f, base_g = ce.base_values
    cond_f, cond_g = ce.conditioned_values
    sign = lambda x: (x > 0) - (x < 0)
    assert sign(base_f - base_g) != sign(cond_f - cond_g)


def test_subspace_independence_axiom_rejects_correlated_singleton(uniform_2x2):
    diag = JointDistribution(uniform_2x2.space, (F(1, 2), 0, 0, F(1, 2)))
    holds, ce = check_subspace_independence_axiom(PriorSet.singleton(diag), trials=0)
    assert not holds and ce is not None


def test_subspace_independence_axiom_requires_shared_marginals(uniform_2x2):
    diag = JointDistribution(uniform_2x2.space, (F(1, 2), 0, 0, F(1, 2)))
    skew = JointDistribution(uniform_2x2.space, (F(1, 4), F(1, 4), F(1, 4), F(1, 4)))
    other = JointDistribution(uniform_2x2.space, (F(1, 3), F(1, 6), F(1, 6), F(1, 3)))
    PriorSet(uniform_2x2.space, [diag, skew, other]).shared_marginals()
    bad = JointDistribution(uniform_2x2.space, (F(1, 3), F(1, 3), F(1, 6), F(1, 6)))
    with pytest.raises(MarginalMismatchError):
        check_subspace_independence_axiom(PriorSet(uniform_2x2.space, [diag, bad]))


def test_collection_independence_axiom(uniform_cube):
    p_ind = uniform_cube.independent_product
    coll = Collection.of({0}, {1})
    holds, witness = check_collection_independence_axiom(p_ind, coll)
    assert holds and witness is None

    # corner weights with a + d = p1 p2 keep the first two subspaces independent
    from test_independence import cube_joint

    q = cube_joint(F(1, 2), F(1, 2), F(1, 2), a=F(1, 8), b=F(1, 8), c=F(1, 8), d=F(1, 8))
    assert check_collection_independence_axiom(q, coll)[0]

    space2 = ProductSpace((2, 2))
    diag = JointDistribution(space2, (F(1, 2), 0, 0, F(1, 2)))
    holds, witness = check_collection_independence_axiom(diag, Collection.of({0}, {1}))
    assert not holds
    assert witness is not None
    assert witness.lhs != witness.rhs


def test_more_correlation_averse(uniform_2x2):
    cs = uniform_2x2
    full = PriorSet.from_correlation_set(cs)
    singleton = PriorSet.singleton(cs.independent_product)
    assert more_correlation_averse(full, singleton)
    assert not more_correlation_averse(singleton, full)
    assert more_correlation_averse(full, full)
    assert more_correlation_averse(singleton, singleton)
    other_marginals = CorrelationSet(
        cs.space, [Marginal(0, (F(1, 3), F(2, 3))), Marginal(1, (F(1, 2), F(1, 2)))]
    )
    with pytest.raises(MarginalMismatchError):
        more_correlation_averse(full, PriorSet.singleton(other_marginals.independent_product))


def test_meu_monotone_under_prior_inclusion(uniform_2x2):
    cs = uniform_2x2
    full = PriorSet.from_correlation_set(cs)
    singleton = PriorSet.singleton(cs.independent_product)
    rng = random.Random(14)
    for _ in range(20):
        act = Act(cs.space, tuple(F(rng.randint(-8, 8), 4) for _ in range(4)))
        assert meu_value(full, act) <= meu_value(singleton, act)
    # acts measurable on one subspace are valued identically
    sub = cs.space.subspace([0])
    f0 = embed_act(Act(sub, (F(3), F(-2))), cs.space, [0])
    assert meu_value(full, f0) == meu_value(singleton, f0)


def test_revealed_correlation_orderings(uniform_2x2):
    cs = uniform_2x2
    space = cs.space
    diag = JointDistribution(space, (F(1, 2), 0, 0, F(1, 2)))
    p_ind = cs.independent_product
    coll = Collection.of({0}, {1})
    events = [
        Event.from_states(space.subspace([0]), [(0,)]),
        Event.from_states(space.subspace([1]), [(0,)]),
    ]
    assert (
        compare_revealed_correlation(diag, p_ind, coll, events)
        == RevealedCorrelation.MORE_POSITIVE
    )
    assert (
        compare_revealed_correlation(diag, diag, coll, events)
        == RevealedCorrelation.EQUAL
    )
    anti = JointDistribution(space, (0, F(1, 2), F(1, 2), 0))
    assert (
        compare_revealed_correlation(anti, p_ind, coll, events)
        == RevealedCorrelation.MORE_NEGATIVE
    )
    skewed = JointDistribution(space, (F(1, 3), F(1, 3), F(1, 6), F(1, 6)))
    with pytest.raises(MarginalMismatchError):
        compare_revealed_correlation(diag, skewed, coll, events)


def test_absolute_revealed_correlation_signs(uniform_2x2):
    cs = uniform_2x2
    space = cs.space
    coll = Collection.of({0}, {1})
    events = [
        Event.from_states(space.subspace([0]), [(0,)]),
        Event.from_states(space.subspace([1]), [(0,)]),
    ]
    assert absolute_revealed_correlation(cs.independent_product, coll, events) == 0
    diag = JointDistribution(space, (F(1, 2), 0, 0, F(1, 2)))
    assert absolute_revealed_correlation(diag, coll, events) == 1
    anti = JointDistribution(space, (0, F(1, 2), F(1, 2), 0))
    assert absolute_revealed_correlation(anti, coll, events) == -1


def test_absolute_revealed_correlation_high_pair_belief():
    # correlated inflation/uncertainty belief: positive exactly when a > 1/6
    space_pair = Collection.of({0}, {1})
    events = None
    for a, sign in ((F(1, 4), 1), (F(1, 6), 0), (F(1, 12), -1)):
        belief = FINANCE.prior_set(param_value=a).vertices[0]
        sub0 = belief.space.subspace([0])
        sub1 = belief.space.subspace([1])
        events = [
            Event.from_states(sub0, [(0,)]),
            Event.from_states(sub1, [(0,)]),
        ]
        assert absolute_revealed_correlation(belief, space_pair, events) == sign


def test_risk_utility():
    neutral = RiskUtility()
    assert neutral.apply(F(7, 2)) == 3.5
    crra = RiskUtility(rho=0.5, scale=6.0)
    assert crra.apply(6) == pytest.approx(0.0)
    log_u = RiskUtility(rho=1.0, scale=6.0)
    assert log_u.apply(12) == pytest.approx(0.6931471805599453)
    with pytest.raises(Exception):
        crra.apply(0)
    for rho, scale in ((math.nan, 1.0), (-math.inf, 1.0), (1.0, 0.0), (1.0, -2.0), (1.0, math.inf)):
        with pytest.raises(CorrpolyError, match="CRRA"):
            RiskUtility(rho=rho, scale=scale)


def test_risk_utility_of_wealth_beyond_the_float_range_is_an_error():
    for utility in (RiskUtility(), RiskUtility(rho=2.0, scale=6.0)):
        with pytest.raises(CorrpolyError, match="beyond the float range"):
            utility.apply(10**400)
    # the wealth is a float, but wealth / scale overflows to inf, and so
    # would the utility
    for rho in (0.5, 1.0):
        with pytest.raises(CorrpolyError, match="beyond the float range"):
            RiskUtility(rho=rho, scale=1e-300).apply(1e300)


# 1e-300 / 1e300 is 0.0 in floats, so these utilities take log x = log c - log scale


def test_log_utility_of_a_quotient_that_underflows():
    u = RiskUtility(rho=1.0, scale=1e300).apply(1e-300)
    assert u == math.log(1e-300) - math.log(1e300) == pytest.approx(-1381.551055796427)
    # wealth that is not positive is still refused, whatever the scale
    for wealth in (0, -1e-300):
        with pytest.raises(CorrpolyError, match="needs positive scaled wealth"):
            RiskUtility(rho=1.0, scale=1e300).apply(wealth)


def test_crra_utility_below_rho_one_of_a_quotient_that_underflows():
    # x^(1/2) is 0.0 in floats, so (x^(1/2) - 1) / (1/2) is -2
    assert RiskUtility(rho=0.5, scale=1e300).apply(1e-300) == -2.0


def test_crra_utility_above_rho_one_of_a_quotient_that_underflows_is_an_error():
    # 1 - 1/x, about -10^600, is beyond the float range
    with pytest.raises(CorrpolyError, match="beyond the float range"):
        RiskUtility(rho=2.0, scale=1e300).apply(1e-300)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=-8, max_value=8), min_size=8, max_size=8), st.integers(0, 10 ** 6))
def test_ceu_never_exceeds_meu_on_full_prior(values, seed):
    rng = random.Random(seed)
    cs = random_correlation_set((2, 2, 2), rng)
    prior = PriorSet.from_correlation_set(cs)
    act = Act(cs.space, tuple(F(v, 3) for v in values))
    assert ceu_value(cs, act) <= meu_value(prior, act)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=-8, max_value=8), min_size=6, max_size=6), st.integers(0, 10 ** 6))
def test_meu_equals_ceu_equals_seu_for_singletons(values, seed):
    rng = random.Random(seed)
    space = ProductSpace((2, 3))
    # a one-point correlation set: second marginal degenerate
    cs = CorrelationSet(
        space,
        [Marginal(0, (F(1, 2), F(1, 2))), Marginal(1, (F(1), F(0), F(0)))],
    )
    act = Act(space, tuple(F(v, 2) for v in values))
    p = cs.vertices()[0]
    prior = PriorSet.singleton(p)
    assert meu_value(prior, act) == expectation(p, act) == ceu_value(cs, act)
    del rng


# -- the cell-table checkers against their Event/Act references ------------

AXIOM_SHAPES = ((2, 2), (2, 3), (2, 2, 2), (1, 3))
COLLECTIONS = {
    2: [Collection.of({0}, {1})],
    3: [
        Collection.of({0}, {1}),
        Collection.of({0}, {2}),
        Collection.of({0, 1}, {2}),
        Collection.of({0}, {1, 2}),
        Collection.of({0}, {1}, {2}),
    ],
}


@st.composite
def axiom_sets(draw):
    """Correlation sets whose marginals may put zero weight on some states
    (down to point masses, which make every vertex a point mass there)."""
    shape = draw(st.sampled_from(AXIOM_SHAPES))
    marginals = []
    for i, size in enumerate(shape):
        parts = draw(st.lists(st.integers(0, 3), min_size=size, max_size=size).filter(any))
        marginals.append(Marginal(i, tuple(F(x, sum(parts)) for x in parts)))
    return CorrelationSet(ProductSpace(shape), marginals)


def _priors(cs, data):
    vertices = cs.vertices()
    picks = data.draw(st.lists(st.integers(0, len(vertices) - 1), min_size=1, max_size=3))
    return [
        PriorSet.from_correlation_set(cs),
        PriorSet.singleton(cs.independent_product),
        PriorSet.singleton(vertices[picks[0]]),
        PriorSet(cs.space, [vertices[k] for k in picks]),
    ]


@settings(max_examples=40, deadline=None)
@given(axiom_sets(), st.data())
def test_subspace_independence_equals_reference(cs, data):
    seed = data.draw(st.integers(0, 1000))
    for prior in _priors(cs, data):
        got = check_subspace_independence_axiom(prior, trials=20, seed=seed)
        want = check_subspace_independence_axiom_reference(prior, trials=20, seed=seed)
        # dataclass equality: every field, exact Fractions, the same first hit
        assert got == want


@st.composite
def lifted_priors(draw):
    """Multi-vertex priors under which subspace 0 is independent of the rest
    at every vertex: one marginal on subspace 0 times members of a set on
    the rest (vertices, the product, draws), so the rest marginals may or
    may not share one support; sometimes one coupled draw of the whole set
    is added."""
    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    size0 = draw(st.sampled_from([2, 3]))
    rest = random_correlation_set(draw(st.sampled_from([(2, 2), (2, 3), (3, 2)])), rng)
    members = [*rest.vertices(), rest.independent_product]
    members += [sample_member(rest, rng), sample_member(rest, rng)]
    picks = draw(st.lists(st.sampled_from(range(len(members))), min_size=2, max_size=3, unique=True))
    mu0 = random_marginal(0, size0, rng).weights
    space = ProductSpace((size0, *rest.space.subspace_sizes))
    vertices = [
        JointDistribution(space, [a * w for a in mu0 for w in members[k].weights]) for k in picks
    ]
    if draw(st.booleans()):
        whole = CorrelationSet(space, [Marginal(0, mu0), *(
            Marginal(i + 1, m.weights) for i, m in enumerate(rest.marginals)
        )])
        vertices.append(sample_member(whole, rng))
    return PriorSet(space, vertices)


@settings(max_examples=40, deadline=None)
@given(lifted_priors())
def test_subspace_independence_on_lifted_priors_equals_reference(prior):
    # the scan skips a block whose singleton defects are all zero under
    # rest marginals of one support; the first witness must not move
    assert check_subspace_independence_axiom(prior, trials=0) == (
        check_subspace_independence_axiom_reference(prior, trials=0)
    )


@settings(max_examples=40, deadline=None)
@given(axiom_sets(), st.data())
def test_behavioral_trials_equal_reference(cs, data):
    # on equal seeds every trial draws the same tuple and reaches the same
    # four worst-case values; the trials also run on non-product priors here
    seed = data.draw(st.integers(0, 1000))
    for prior in _priors(cs, data)[:3]:
        scale = 8 * preferences._prior_numerators(prior)[1]
        got = [
            (trial, tuple(F(v, scale) for v in values))
            for trial, values in preferences._behavioral_trials(prior, 30, seed)
        ]
        assert got == list(subspace_independence_trials_reference(prior, 30, seed))


@settings(max_examples=40, deadline=None)
@given(axiom_sets(), st.data())
def test_collection_independence_equals_reference(cs, data):
    coll = data.draw(st.sampled_from(COLLECTIONS[cs.space.n_subspaces]))
    points = [cs.independent_product, *cs.vertices()]
    points.append(sample_member(cs, random.Random(data.draw(st.integers(0, 1000)))))
    p = data.draw(st.sampled_from(points))
    # the reference still sweeps every quadruple on (2,2), (2,3), (1,3) and
    # on (2,2,2) with {0},{1}, {0},{2} or a 4-state member against a 2-state
    # rest (4 050 quadruples), and the factorization pairs elsewhere
    got = check_collection_independence_axiom(p, coll)
    assert got == check_collection_independence_axiom_reference(p, coll, quad_limit=5000)
    factorization = preferences._product_identity_witness(p, coll)
    assert factorization == product_identity_witness_reference(p, coll, True)


def test_collection_independence_equals_reference_at_the_default_budget():
    # every quadruple of a 4-state member against a 2-state rest, as on the
    # finance scenario's {1,2},{3}
    cs = random_correlation_set((2, 2, 2), random.Random(41))
    coll = Collection.of({0, 1}, {2})
    vertex = cs.vertices()[0]
    for p in (cs.independent_product, vertex):
        got = check_collection_independence_axiom(p, coll)
        assert got == check_collection_independence_axiom_reference(p, coll)
    witness = preferences._product_identity_witness(vertex, coll)
    assert witness is not None
    assert witness == product_identity_witness_reference(vertex, coll, True)


@pytest.mark.parametrize(
    "weights", list(DEGENERATE_MARGINALS.values()), ids=list(DEGENERATE_MARGINALS)
)
def test_collection_independence_equals_reference_on_degenerate_sets(weights):
    # the reference sweeps every event quadruple on independent points
    cs = correlation_set_of(weights)
    points = [cs.independent_product, *cs.vertices(), sample_member(cs, random.Random(3))]
    for coll in COLLECTIONS[cs.space.n_subspaces]:
        for p in points:
            got = check_collection_independence_axiom(p, coll)
            assert got == check_collection_independence_axiom_reference(p, coll)


CHAIN_SHAPES = [(2, 2, 2), (2, 3, 2), (2, 2, 2, 2)]


@st.composite
def factored_priors(draw):
    """A prior on one of `CHAIN_SHAPES`: the product of drawn integer tables,
    zero cells included, one per block of a drawn partition of the
    subspaces, so that it is independent on some collections and not on
    others."""
    sizes = draw(st.sampled_from(CHAIN_SHAPES))
    space = ProductSpace(sizes)
    block_of = draw(st.lists(st.integers(0, len(sizes) - 1), min_size=len(sizes), max_size=len(sizes)))
    blocks = [[i for i in range(len(sizes)) if block_of[i] == b] for b in sorted(set(block_of))]
    tables = [
        draw(st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any))
        for n in (math.prod(sizes[i] for i in block) for block in blocks)
    ]
    projections = [space.project(block) for block in blocks]
    nums = [math.prod(t[c] for t, c in zip(tables, cells)) for cells in zip(*projections)]
    return JointDistribution(space, tuple(F(x, sum(nums)) for x in nums))


@st.composite
def chain_collections(draw, n_subspaces):
    """Two to four members, interleaved ones such as {0,2},{1},{3} included:
    each subspace joins one of four members or none."""
    labels = draw(st.lists(st.integers(0, 4), min_size=n_subspaces, max_size=n_subspaces).filter(
        lambda ls: len(set(ls) - {4}) >= 2
    ))
    return Collection(tuple(
        frozenset(i for i, x in enumerate(labels) if x == m) for m in sorted(set(labels) - {4})
    ))


@settings(max_examples=80, deadline=None)
@given(factored_priors(), st.data())
def test_collection_scan_decides_by_the_chain_rule(p, data):
    # independent on the collection iff each member is independent of the
    # union of the others: the scan's verdict is the element-wise test's
    n = p.space.n_subspaces
    collections = [data.draw(chain_collections(n))]
    if n == 4:
        collections += [Collection.of({0, 2}, {1}, {3}), Collection.of({0}, {1}, {2}, {3})]
    for coll in collections:
        got = check_collection_independence_axiom(p, coll)
        assert got[0] == is_independent_on(p, coll).holds
        assert got == check_collection_independence_axiom_reference(p, coll, quad_limit=5000)


def _dependent_row(n_rows, n_cols, row):
    """Uniform marginals on (n_rows, n_cols), with the rows before ``row``
    independent of the columns: ``row`` moves 1/(n_rows n_cols) from its
    column 1 to its column 0, and the last row moves it back."""
    u = F(1, n_rows * n_cols)
    table = [[u] * n_cols for _ in range(n_rows)]
    table[row][0] += u
    table[row][1] -= u
    table[-1][0] -= u
    table[-1][1] += u
    return JointDistribution(ProductSpace((n_rows, n_cols)), tuple(w for r in table for w in r))


@pytest.mark.parametrize("n_cols", [4, 6])
def test_collection_witness_passes_an_independent_row(n_cols):
    # every cell of row 0 factorizes, so the witness is the first cell of row 1
    p = _dependent_row(3, n_cols, 1)
    coll = Collection.of({0}, {1})
    witness = preferences._product_identity_witness(p, coll)
    assert witness == product_identity_witness_reference(p, coll, True)
    assert sorted(witness.e.members) == [(1,)] and sorted(witness.f.members) == [(0,)]
    assert check_collection_independence_axiom(p, coll) == (False, witness)


def _peak_bytes(call):
    """The result of ``call()`` and the peak of memory it traced."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("shape, row, e, lhs, rhs", [
    ((2, 20), 0, (0,), F(1, 20), F(1, 40)),
    ((3, 20), 1, (1,), F(1, 30), F(1, 60)),
])
def test_collection_witness_builds_no_subset_list(shape, row, e, lhs, rhs):
    # the rest has 20 states, so a list of its event subsets would hold 2^20 - 1
    p = _dependent_row(*shape, row)
    witness, peak = _peak_bytes(
        lambda: preferences._product_identity_witness(p, Collection.of({0}, {1}))
    )
    assert peak < 10 * 2**20
    assert sorted(witness.e.members) == [e] and sorted(witness.f.members) == [(0,)]
    assert (witness.lhs, witness.rhs) == (lhs, rhs)


def test_subspace_scan_draws_its_subsets_one_at_a_time():
    subsets = preferences._nonempty_subsets(3)
    assert iter(subsets) is subsets
    assert list(subsets) == [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]
    prior = PriorSet.singleton(_dependent_row(2, 20, 0))
    (holds, counterexample), peak = _peak_bytes(
        lambda: check_subspace_independence_axiom(prior, trials=0)
    )
    assert peak < 10 * 2**20
    assert not holds and sorted(counterexample.conditioning_event.members) == [(0,)]


def _with_table(monkeypatch, change):
    original = preferences._cell_table

    def changed(nums, space, rows, cols):
        return change(original(nums, space, rows, cols))

    monkeypatch.setattr(preferences, "_cell_table", changed)


def _diagonal(table):
    # the same total mass, all of it on the first and the last cell
    total = sum(map(sum, table))
    out = [[0] * len(table[0]) for _ in table]
    out[0][0] = total // 2
    out[-1][-1] = total - total // 2
    return out


def test_corrupted_table_fails_a_behavioral_trial(uniform_2x2, monkeypatch):
    _with_table(monkeypatch, _diagonal)
    prior = PriorSet.singleton(uniform_2x2.independent_product)
    with pytest.raises(ConsistencyError, match="behavioral trial") as exc:
        check_subspace_independence_axiom(prior, trials=200, seed=5)
    context = exc.value.context
    assert context["shape"] == (2, 2) and context["vertices"] == [["1/4"] * 4]
    assert context["seed"] == 5 and 0 <= context["trial"] < 200


def test_scan_and_trial_errors_carry_reproducer(uniform_2x2, monkeypatch):
    full = PriorSet.from_correlation_set(uniform_2x2)
    vertices = [[str(w) for w in v.weights] for v in full.vertices]
    monkeypatch.setattr(preferences, "_violation", lambda values: False)
    with pytest.raises(ConsistencyError, match="failed to witness") as exc:
        check_subspace_independence_axiom(full, trials=0)
    assert exc.value.context == {"shape": (2, 2), "vertices": vertices, "subspace": 0}

    monkeypatch.setattr(preferences, "_violation", lambda values: True)
    product = PriorSet.singleton(uniform_2x2.independent_product)
    with pytest.raises(ConsistencyError, match="behavioral trial") as exc:
        check_subspace_independence_axiom(product, trials=5, seed=4)
    assert exc.value.context == {
        "shape": (2, 2), "vertices": [["1/4"] * 4], "seed": 4, "trial": 0
    }

    monkeypatch.setattr(preferences, "_independence_scan", lambda prior, marginals: None)
    with pytest.raises(ConsistencyError, match="no violating tuple") as exc:
        check_subspace_independence_axiom(full, trials=0)
    assert exc.value.context == {"shape": (2, 2), "vertices": vertices}


def test_subspace_independence_rejects_negative_trials(uniform_2x2):
    product = PriorSet.singleton(uniform_2x2.independent_product)
    full = PriorSet.from_correlation_set(uniform_2x2)
    for prior in (product, full):
        with pytest.raises(CorrpolyError, match="trials must be an integer >= 0"):
            check_subspace_independence_axiom(prior, trials=-5)
    assert check_subspace_independence_axiom(product, trials=0) == (True, None)
    # a single subspace has no complement to condition on
    line = PriorSet.singleton(JointDistribution(ProductSpace((2,)), (F(1, 3), F(2, 3))))
    assert check_subspace_independence_axiom(line, trials=0) == (True, None)
    with pytest.raises(CorrpolyError):
        check_subspace_independence_axiom(line, trials=1)
