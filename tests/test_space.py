import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrpoly import (
    Act,
    Collection,
    CorrpolyError,
    Event,
    JointDistribution,
    Marginal,
    ProductSpace,
    cylinder,
    embed_act,
    embed_cylinder,
    expectation,
    hamming_distance,
    independent_product,
    is_independent_of,
    marginalize,
    product_of_components,
)

F = Fraction


def test_product_space_basics():
    space = ProductSpace((2, 3))
    assert space.total_size == 6
    states = list(space.states())
    assert states[0] == (0, 0) and states[-1] == (1, 2)
    for k, s in enumerate(states):
        assert space.ravel(s) == k
        assert space.unravel(k) == s


def test_product_space_validation():
    with pytest.raises(CorrpolyError):
        ProductSpace(())
    with pytest.raises(CorrpolyError):
        ProductSpace((2, 0))
    with pytest.raises(CorrpolyError):
        ProductSpace((2,), (("a", "a"),))
    with pytest.raises(CorrpolyError):
        ProductSpace((2,), (("a",),))


def test_marginal_validation():
    Marginal(0, (F(1, 3), F(2, 3)))
    with pytest.raises(CorrpolyError):
        Marginal(0, (F(1, 3), F(1, 3)))
    with pytest.raises(CorrpolyError):
        Marginal(0, (F(-1, 3), F(4, 3)))
    assert not Marginal(0, (F(0), F(1))).full_support


def test_joint_validation():
    space = ProductSpace((2, 2))
    with pytest.raises(CorrpolyError):
        JointDistribution(space, (F(1, 2), F(1, 2)))
    with pytest.raises(CorrpolyError):
        JointDistribution(space, (F(1, 2), F(1, 2), F(1, 2), F(-1, 2)))


def test_bools_are_no_sizes_and_no_masks():
    for sizes in [(True, 2), (2, False), (True,)]:
        with pytest.raises(CorrpolyError, match="subspace sizes must be integers"):
            ProductSpace(sizes)
    space = ProductSpace((2, 2))
    for mask in [True, False]:
        with pytest.raises(CorrpolyError, match=f"mask {mask} is not an event of a space with 4 states"):
            Event(space, mask)
    assert ProductSpace((1, 2)).subspace_sizes == (1, 2)
    assert ProductSpace(iter((2, 3))).subspace_sizes == (2, 3)
    assert len(Event(space, 1)) == 1 and len(Event(space, 0)) == 0


EPS = F(1, 10**30)
NONNEGATIVE = "weights must be nonnegative"
SUM = "weights must sum to exactly 1"
NOT_RATIONAL = "not a finite rational"

# (weights of a 3-state marginal or a (3,)-space joint, the parent's message
# or None when the vector is valid); the negativity check comes first
PROBABILITY_VECTORS = {
    "negative offset by the others": ((F(-1, 3), F(2, 3), F(2, 3)), NONNEGATIVE),
    "negative and short of 1": ((F(-1, 2), F(1, 2), 0), NONNEGATIVE),
    "tiny negative offset": ((-EPS, F(1, 2) + EPS, F(1, 2)), NONNEGATIVE),
    "sum 1 + 1e-30": ((F(1, 2) + EPS, F(1, 4), F(1, 4)), SUM),
    "sum 1 - 1e-30": ((F(1, 2) - EPS, F(1, 4), F(1, 4)), SUM),
    "empty": ((), SUM),
    "zero weights": ((0, 0, 0), SUM),
    "point mass": ((0, 1, 0), None),
    "point mass as Fractions": ((F(0), F(0), F(1)), None),
    "zero-weight state": ((F(1, 3), 0, F(2, 3)), None),
    "int, str and Fraction": ((0, "1/3", F(2, 3)), None),
    "int, str and Fraction, negative": ((1, "-1/2", F(1, 2)), NONNEGATIVE),
    "int, str and Fraction, short": (("1/2", 0, F(1, 3)), SUM),
    "str over 1": (("2/3", "1/3", "1/3"), SUM),
    "not a number": (("x", "1/2", "1/2"), NOT_RATIONAL),
    "zero denominator": (("1/0", 0, 0), NOT_RATIONAL),
    "nan": ((float("nan"), 0, 0), NOT_RATIONAL),
    "inf": ((float("inf"), 0, 0), NOT_RATIONAL),
    "None": ((None, 1, 0), NOT_RATIONAL),
}


@pytest.mark.parametrize("weights, message", PROBABILITY_VECTORS.values(), ids=PROBABILITY_VECTORS)
@pytest.mark.parametrize("what", ["marginal", "joint"])
def test_probability_vectors_are_checked_in_integers(weights, message, what):
    if what == "marginal":
        make = lambda: Marginal(0, weights)
    else:
        make = lambda: JointDistribution(ProductSpace((max(len(weights), 1),)), weights)
    if message is None:
        made = make()
        assert made.weights == tuple(F(w) for w in weights)
        assert all(type(w) is Fraction for w in made.weights)
        return
    prefix = "" if message == NOT_RATIONAL else f"{what} "
    with pytest.raises(CorrpolyError, match=f"^{prefix}{message}"):
        make()


def _fraction_sum_verdict(weights):
    """The check as a Fraction sum: the oracle of the integer check."""
    if any(w < 0 for w in weights):
        return NONNEGATIVE
    if sum(weights) != 1:
        return SUM
    return None


@st.composite
def weight_vectors(draw):
    """Short rational vectors; half of them scaled to sum to 1 when they can be."""
    entry = st.builds(
        F, st.integers(min_value=-2, max_value=6), st.sampled_from([1, 2, 3, 6, 10**30])
    )
    weights = draw(st.lists(entry, min_size=1, max_size=5))
    total = sum(weights)
    if draw(st.booleans()) and total:
        weights = [w / total for w in weights]
    return weights


@settings(max_examples=200, deadline=None)
@given(weight_vectors())
def test_the_integer_check_agrees_with_a_fraction_sum(weights):
    expected = _fraction_sum_verdict(weights)
    for make, what in [
        (lambda: Marginal(0, weights), "marginal"),
        (lambda: JointDistribution(ProductSpace((len(weights),)), weights), "joint"),
    ]:
        if expected is None:
            assert make().weights == tuple(weights)
        else:
            with pytest.raises(CorrpolyError, match=f"^{what} {expected}$"):
                make()


def test_independent_product_uniform():
    ps = [Marginal(0, (F(1, 2), F(1, 2))), Marginal(1, (F(1, 2), F(1, 2)))]
    p = independent_product(ps)
    assert p.weights == (F(1, 4),) * 4


def test_independent_product_three_factor_weight():
    # high inflation 1/3, high uncertainty 1/2, new deposit 1/4
    ps = [
        Marginal(0, (F(1, 3), F(2, 3))),
        Marginal(1, (F(1, 2), F(1, 2))),
        Marginal(2, (F(1, 4), F(3, 4))),
    ]
    p = independent_product(ps)
    assert p.prob((0, 0, 0)) == F(1, 24)
    for i, m in enumerate(ps):
        assert marginalize(p, [i]).weights == m.weights


def test_independent_product_single_marginal_is_identity():
    m = Marginal(0, (F(1, 3), F(2, 3)))
    assert independent_product([m]).weights == m.weights


def test_independent_product_index_errors():
    m0 = Marginal(0, (F(1, 2), F(1, 2)))
    with pytest.raises(CorrpolyError):
        independent_product([m0, Marginal(0, (F(1, 2), F(1, 2)))])
    with pytest.raises(CorrpolyError):
        independent_product([Marginal(1, (F(1, 2), F(1, 2)))])


def test_marginalize_diagonal():
    space = ProductSpace((2, 2))
    p = JointDistribution(space, (F(1, 2), F(0), F(0), F(1, 2)))
    assert marginalize(p, [0]).weights == (F(1, 2), F(1, 2))
    assert marginalize(p, [1]).weights == (F(1, 2), F(1, 2))


def test_marginalize_cube_free_parameters():
    # cube parametrized by corner weights a, b, c, d; first marginal must
    # come out as (p1, 1-p1) for every feasible choice
    p1, p2, p3 = F(1, 2), F(1, 3), F(1, 4)
    a, b, c, d = F(1, 24), F(1, 16), F(1, 12), F(1, 24)
    space = ProductSpace((2, 2, 2))
    weights = {
        (0, 0, 0): a,
        (1, 0, 0): b,
        (0, 1, 0): c,
        (0, 0, 1): d,
        (1, 1, 0): p3 - a - b - c,
        (1, 0, 1): p2 - a - b - d,
        (0, 1, 1): p1 - a - c - d,
        (1, 1, 1): 1 - p1 - p2 - p3 + 2 * a + b + c + d,
    }
    p = JointDistribution(space, tuple(weights[s] for s in space.states()))
    assert marginalize(p, [0]).weights == (p1, 1 - p1)
    assert marginalize(p, [1]).weights == (p2, 1 - p2)
    assert marginalize(p, [2]).weights == (p3, 1 - p3)


def test_marginalize_empty_errors():
    space = ProductSpace((2, 2))
    p = JointDistribution(space, (F(1, 4),) * 4)
    with pytest.raises(CorrpolyError):
        marginalize(p, [])


def test_marginalize_full_set_is_identity():
    rng = random.Random(7)
    space = ProductSpace((2, 3))
    weights = [F(k, 12) for k in (1, 2, 3, 1, 4, 1)]
    p = JointDistribution(space, tuple(weights))
    assert marginalize(p, range(2)).weights == p.weights
    del rng


def test_embed_cylinder_full_and_singleton():
    space = ProductSpace((2, 2))
    sub = space.subspace([1])
    assert embed_cylinder(Event.full(sub), space, [1]) == Event.full(space)
    single = embed_cylinder(Event.from_states(sub, [(0,)]), space, [1])
    assert single.members == {(0, 0), (1, 0)}


def test_embed_cylinder_pair_in_cube():
    space = ProductSpace((2, 2, 2))
    sub = space.subspace([1, 2])
    ev = embed_cylinder(Event.from_states(sub, [(0, 0)]), space, [1, 2])
    assert ev.members == {(0, 0, 0), (1, 0, 0)}
    assert len(ev) == 1 * 2


def test_cylinder_intersection_is_product_cylinder():
    space = ProductSpace((2, 3, 2))
    sub0 = space.subspace([0])
    sub1 = space.subspace([1])
    e0 = Event.from_states(sub0, [(1,)])
    e1 = Event.from_states(sub1, [(0,), (2,)])
    joint = space.subspace([0, 1])
    product_event = Event.from_states(joint, [(1, 0), (1, 2)])
    assert (
        embed_cylinder(e0, space, [0]) & embed_cylinder(e1, space, [1])
    ) == embed_cylinder(product_event, space, [0, 1])


def test_event_operators():
    space = ProductSpace((2, 2))
    e = cylinder(space, {0: 0})
    f = cylinder(space, {1: 0})
    assert (~e).members == {(1, 0), (1, 1)}
    assert (e | f).members == {(0, 0), (0, 1), (1, 0)}
    assert (e - f).members == {(0, 1)}
    assert (e & f).issubset(e)
    assert e.bitmask() == 0b0011


_TWO = ProductSpace((2,))


@pytest.mark.parametrize("make", [
    lambda: Marginal(0, ("x", "1/2")),
    lambda: Marginal(0, ("1/0", 1)),
    lambda: Act(_TWO, ("abc", 1)),
    lambda: Act.constant(_TWO, "x"),
    lambda: Act.bet(_TWO, Event.full(_TWO), float("inf"), 0),
    lambda: Act.from_state_values(_TWO, {(0,): None, (1,): 1}),
    lambda: JointDistribution(_TWO, (float("nan"), 1)),
    lambda: JointDistribution(_TWO, (float("inf"), 0)),
    lambda: ProductSpace((2.5,)),
    lambda: ProductSpace(("a",)),
    lambda: ProductSpace((2, 2)).check_state((0.5, 1)),
    lambda: JointDistribution(_TWO, (1, 0)).prob((0.5,)),
])
def test_malformed_values_are_corrpoly_errors(make):
    with pytest.raises(CorrpolyError):
        make()


def test_event_difference_and_membership():
    space = ProductSpace((2, 3))
    e = cylinder(space, {0: 1})
    f = cylinder(space, {1: 2})
    assert (e - f).members == {(1, 0), (1, 1)}
    assert (e - e).mask == 0
    assert (1, 2) in e and (0, 2) not in e
    assert [1, 0] in e  # any sequence of coordinates
    for outside in ((1, 3), (2, 0), (1,), (1, 0, 0), (-1, 0)):
        assert outside not in e
    for junk in (5, ("a", "b"), (1.0, 0), (0.5, 1), None):
        assert junk not in e
    with pytest.raises(CorrpolyError):
        e - cylinder(ProductSpace((3, 2)), {0: 1})


def test_support_marginal_and_unlabeled_labels():
    space = ProductSpace((2, 3))
    p = JointDistribution(space, (F(1, 2), F(0), F(0), F(0), F(1, 4), F(1, 4)))
    assert p.support() == {(0, 0), (1, 1), (1, 2)}
    assert p.marginal(0) == Marginal(0, (F(1, 2), F(1, 2)))
    assert p.marginal(1) == Marginal(1, (F(1, 2), F(1, 4), F(1, 4)))
    assert space.label_of((1, 2)) == ("1", "2")
    with pytest.raises(CorrpolyError, match="no labels"):
        space.coordinate_of_label(0, "x")


def test_is_independent_of():
    space = ProductSpace((2, 2))
    constant = Act.constant(space, 5)
    assert is_independent_of(constant, [0])
    assert is_independent_of(constant, [1])
    # acts with values (y1, y1, y2, y2) are functions of the first subspace
    f = Act(space, (F(3), F(3), F(1), F(1)))
    assert is_independent_of(f, [0])
    assert not is_independent_of(f, [1])


def test_act_helpers():
    space = ProductSpace((2, 2))
    e = cylinder(space, {0: 0})
    bet = Act.bet(space, e, 1, 0)
    assert bet.values == (F(1), F(1), F(0), F(0))
    spliced = bet.splice(cylinder(space, {1: 0}), Act.constant(space, 9))
    assert spliced.values == (F(1), F(9), F(0), F(9))
    sub = space.subspace([1])
    emb = embed_act(Act(sub, (F(2), F(7))), space, [1])
    assert emb.values == (F(2), F(7), F(2), F(7))
    with pytest.raises(CorrpolyError):
        Act(space, (F(1),))


def test_hamming_distance():
    assert hamming_distance((0, 1, 2), (0, 1, 2)) == 0
    assert hamming_distance((0, 0, 0), (1, 1, 1)) == 3
    assert hamming_distance((0, 0, 0), (1, 1, 0)) == 2
    with pytest.raises(CorrpolyError):
        hamming_distance((0, 0), (0, 0, 0))


def test_collection_validation():
    Collection.of({0}, {1, 2})
    with pytest.raises(CorrpolyError):
        Collection.of({0})
    with pytest.raises(CorrpolyError):
        Collection.of({0}, set())
    with pytest.raises(CorrpolyError):
        Collection.of({0, 1}, {1, 2})


@st.composite
def marginal_lists(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    sizes = [draw(st.integers(min_value=1, max_value=3)) for _ in range(n)]
    marginals = []
    for i, size in enumerate(sizes):
        raw = [draw(st.integers(min_value=1, max_value=6)) for _ in range(size)]
        total = sum(raw)
        marginals.append(Marginal(i, tuple(F(r, total) for r in raw)))
    return marginals


@settings(max_examples=40, deadline=None)
@given(marginal_lists())
def test_product_factorizes_through_marginalization(marginals):
    p = independent_product(marginals)
    n = len(marginals)
    for r in range(1, n + 1):
        for idx in itertools.combinations(range(n), r):
            restricted = [
                Marginal(pos, marginals[i].weights) for pos, i in enumerate(idx)
            ]
            assert marginalize(p, idx).weights == independent_product(restricted).weights


@settings(max_examples=25, deadline=None)
@given(marginal_lists(), st.integers(min_value=0, max_value=2 ** 10 - 1))
def test_expectation_is_exact_rational(marginals, mask):
    p = independent_product(marginals)
    space = p.space
    values = tuple(F((mask >> k) & 3, 3) for k in range(space.total_size))
    f = Act(space, values)
    val = expectation(p, f)
    assert isinstance(val, F)
    assert val == sum(w * v for w, v in zip(p.weights, f.values))


# Reference definitions, state by state: a state is a tuple, an event the
# set of its member tuples, and the projection onto index set ``idx`` the
# tuple of the state's coordinates at ``idx``.

EVENT_SHAPES = [(1, 3), (2, 1, 2), (2, 3), (2, 2, 2)]


def _all_states(sizes):
    return list(itertools.product(*(range(s) for s in sizes)))


def _members(sizes, mask):
    return {s for k, s in enumerate(_all_states(sizes)) if mask >> k & 1}


def _key(state, idx):
    return tuple(state[i] for i in idx)


def _draw_weights(data, n):
    raw = data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    raw[data.draw(st.integers(0, n - 1))] += 1  # a nonzero total
    return tuple(F(r, sum(raw)) for r in raw)


def _draw_indices(data, n):
    return sorted(data.draw(st.sets(st.integers(0, n - 1))))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(EVENT_SHAPES), st.data())
def test_events_match_their_state_sets(sizes, data):
    space = ProductSpace(sizes)
    states = _all_states(sizes)
    n = len(states)
    masks = st.integers(0, 2 ** n - 1)
    e_mask, f_mask = data.draw(masks), data.draw(masks)
    e, f = Event(space, e_mask), Event(space, f_mask)
    e_ref, f_ref = _members(sizes, e_mask), _members(sizes, f_mask)
    assert e.members == e_ref
    assert (e | f).members == e_ref | f_ref
    assert (e & f).members == e_ref & f_ref
    assert (e - f).members == e_ref - f_ref
    assert (~e).members == set(states) - e_ref
    assert e.issubset(f) == (e_ref <= f_ref)
    assert len(e) == len(e_ref)
    for s in states:
        assert (s in e) == (s in e_ref)
    assert tuple(sizes) not in e and (0,) * (len(sizes) + 1) not in e
    round_trip = Event.from_states(space, e_ref)
    assert round_trip == e and round_trip.bitmask() == e_mask

    p = JointDistribution(space, _draw_weights(data, n))
    assert p.prob_event(e) == sum((p.prob(s) for s in e_ref), F(0))
    bet = Act.bet(space, e, 3, F(-1, 2))
    assert bet.values == tuple(F(3) if s in e_ref else F(-1, 2) for s in states)
    a = Act(space, tuple(F(k) for k in range(n)))
    b = Act(space, tuple(F(-k) for k in range(n)))
    spliced = a.splice(e, b)
    assert spliced.values == tuple(
        a.value(s) if s in e_ref else b.value(s) for s in states
    )


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(EVENT_SHAPES), st.data())
def test_projections_match_their_state_maps(sizes, data):
    space = ProductSpace(sizes)
    states = _all_states(sizes)
    n_sub = len(sizes)
    p = JointDistribution(space, _draw_weights(data, len(states)))

    idx = _draw_indices(data, n_sub)
    f = Act(space, tuple(F(data.draw(st.integers(0, 1))) for _ in states))
    assert is_independent_of(f, idx) == all(
        f.value(s) == f.value(t) for s in states for t in states if _key(s, idx) == _key(t, idx)
    )
    assignment = {i: data.draw(st.integers(0, sizes[i] - 1)) for i in idx}
    assert cylinder(space, assignment).members == {
        s for s in states if all(s[i] == c for i, c in assignment.items())
    }
    if not idx:
        return
    sub = space.subspace(idx)
    sub_states = _all_states(sub.subspace_sizes)
    marginal = marginalize(p, idx)
    for t in sub_states:
        assert marginal.prob(t) == sum((p.prob(s) for s in states if _key(s, idx) == t), F(0))
    sub_mask = data.draw(st.integers(0, 2 ** len(sub_states) - 1))
    sub_ref = _members(sub.subspace_sizes, sub_mask)
    assert embed_cylinder(Event(sub, sub_mask), space, idx).members == {
        s for s in states if _key(s, idx) in sub_ref
    }
    sub_act = Act(sub, tuple(F(data.draw(st.integers(-3, 3))) for _ in sub_states))
    embedded = embed_act(sub_act, space, idx)
    assert embedded.values == tuple(sub_act.value(_key(s, idx)) for s in states)
    assert is_independent_of(embedded, idx)

    rest = [i for i in range(n_sub) if i not in idx]
    if rest:
        coll = Collection.of(idx, rest)
        components = [
            JointDistribution(space.subspace(m), _draw_weights(data, space.subspace(m).total_size))
            for m in coll.members
        ]
        product = product_of_components(space, coll, components)
        for s in states:
            expected = F(1)
            for m, comp in zip(coll.members, components):
                expected *= comp.prob(_key(s, sorted(m)))
            assert product.prob(s) == expected
