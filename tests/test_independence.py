import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrpoly import (
    Collection,
    ConsistencyError,
    CorrelationSet,
    CorrpolyError,
    Event,
    JointDistribution,
    Marginal,
    NonlinearCollectionError,
    ProductSpace,
    check_event_level_independence,
    dimension,
    independent_product,
    inherited_collections,
    is_independent_on,
    is_maximally_zero,
    partition_factorize,
    product_of_components,
    restricted_dimension,
    sample_partition_member,
)
from corrpoly import independence
from bruteforce import is_independent_on_reference
from conftest import random_correlation_set, random_marginal

F = Fraction


def cube_joint(p1, p2, p3, a, b, c, d):
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
    return JointDistribution(space, tuple(weights[s] for s in space.states()))


def test_independent_product_is_independent_on_everything():
    marginals = [
        Marginal(0, (F(1, 3), F(2, 3))),
        Marginal(1, (F(1, 2), F(1, 2))),
        Marginal(2, (F(1, 4), F(3, 4))),
    ]
    p = independent_product(marginals)
    for coll in (
        Collection.of({0}, {1}),
        Collection.of({0}, {2}),
        Collection.of({0}, {1, 2}),
        Collection.of({0}, {1}, {2}),
    ):
        verdict = is_independent_on(p, coll)
        assert verdict.holds and verdict.witness is None and verdict.max_abs_defect == 0


def test_cube_pairwise_independence_is_the_corner_condition():
    p1 = p2 = p3 = F(1, 2)
    # a + d != p1 p2: dependence between the first two subspaces
    p = cube_joint(p1, p2, p3, a=F(1, 16), b=F(1, 8), c=F(1, 8), d=F(1, 8))
    verdict = is_independent_on(p, Collection.of({0}, {1}))
    assert not verdict.holds
    assert verdict.witness is not None
    assert verdict.max_abs_defect > 0
    # a + d == p1 p2 restores it
    q = cube_joint(p1, p2, p3, a=F(1, 8), b=F(1, 8), c=F(1, 8), d=F(1, 8))
    assert is_independent_on(q, Collection.of({0}, {1})).holds


def test_diagonal_coupling_is_dependent(uniform_2x2):
    diag = JointDistribution(uniform_2x2.space, (F(1, 2), 0, 0, F(1, 2)))
    verdict = is_independent_on(diag, Collection.of({0}, {1}))
    assert not verdict.holds
    assert verdict.witness == ((0,), (0,))
    assert verdict.max_abs_defect == F(1, 4)


def test_event_level_independence():
    marginals = [
        Marginal(0, (F(1, 3), F(2, 3))),
        Marginal(1, (F(1, 2), F(1, 2))),
        Marginal(2, (F(1, 4), F(3, 4))),
    ]
    p = independent_product(marginals)
    space = p.space
    coll = Collection.of({0}, {1, 2})
    full_events = [Event.full(space.subspace([0])), Event.full(space.subspace([1, 2]))]
    assert check_event_level_independence(p, coll, full_events)
    singletons = [
        Event.from_states(space.subspace([0]), [(0,)]),
        Event.from_states(space.subspace([1, 2]), [(0, 1)]),
    ]
    assert check_event_level_independence(p, coll, singletons)
    diag = JointDistribution(ProductSpace((2, 2)), (F(1, 2), 0, 0, F(1, 2)))
    coll2 = Collection.of({0}, {1})
    events2 = [
        Event.from_states(diag.space.subspace([0]), [(0,)]),
        Event.from_states(diag.space.subspace([1]), [(0,)]),
    ]
    assert not check_event_level_independence(diag, coll2, events2)


def test_event_level_follows_from_element_level():
    # all event families, exhaustively, on a dependent-free coupling
    rng = random.Random(31)
    marginals = [random_marginal(i, 2, rng) for i in range(3)]
    p = independent_product(marginals)
    coll = Collection.of({0}, {1, 2})
    sub_a = p.space.subspace([0])
    sub_b = p.space.subspace([1, 2])
    a_events = [
        Event.from_states(sub_a, combo)
        for r in range(1, 3)
        for combo in itertools.combinations(list(sub_a.states()), r)
    ]
    b_events = [
        Event.from_states(sub_b, combo)
        for r in range(1, 5)
        for combo in itertools.combinations(list(sub_b.states()), r)
    ]
    assert is_independent_on(p, coll).holds
    for ea in a_events:
        for eb in b_events:
            assert check_event_level_independence(p, coll, [ea, eb])


def test_inherited_collections_listing():
    coll = Collection.of({0}, {1, 2})
    subs = list(inherited_collections(coll))
    canon = {tuple(sorted(tuple(sorted(m)) for m in sc.members)) for sc in subs}
    assert canon == {((0,), (1,)), ((0,), (2,)), ((0,), (1, 2))}
    # a two-singleton collection only yields itself
    pair = Collection.of({0}, {1})
    assert [sc.members for sc in inherited_collections(pair)] == [pair.members]


def test_inheritance_lemma_on_partition_products():
    rng = random.Random(32)
    cs = random_correlation_set((2, 2, 2), rng)
    coll = Collection.of({0}, {1, 2})
    for _ in range(10):
        p = sample_partition_member(cs, coll, rng)
        assert is_independent_on(p, coll).holds
        for sub in inherited_collections(coll):
            assert is_independent_on(p, sub).holds


def test_partition_factorize_dimensions(uniform_cube):
    comps = partition_factorize(uniform_cube, Collection.of({0}, {1, 2}))
    assert [dimension(c) for c in comps] == [0, 1]
    singles = partition_factorize(uniform_cube, Collection.of({0}, {1}, {2}))
    assert [dimension(c) for c in singles] == [0, 0, 0]
    space = ProductSpace((3, 3))
    cs33 = CorrelationSet(
        space,
        [
            Marginal(0, (F(1, 3), F(1, 3), F(1, 3))),
            Marginal(1, (F(1, 6), F(1, 3), F(1, 2))),
        ],
    )
    comps33 = partition_factorize(cs33, Collection.of({0}, {1}))
    assert [dimension(c) for c in comps33] == [0, 0]


@pytest.mark.parametrize(
    "target, name, patched, message",
    [
        (independence, "restricted_dimension", lambda cs, coll: 99, "disagrees with linear-system rank"),
    ],
)
def test_partition_factorize_errors_carry_the_inputs(
    skew_2x2, monkeypatch, target, name, patched, message
):
    space = ProductSpace((2, 2, 3))
    cs = CorrelationSet(
        space,
        [*skew_2x2.marginals, Marginal(2, (F(1, 2), F(1, 3), F(1, 6)))],
    )
    monkeypatch.setattr(target, name, patched)
    with pytest.raises(ConsistencyError, match=message) as info:
        partition_factorize(cs, Collection.of({2}, {0, 1}))
    assert info.value.context == {
        "shape": (2, 2, 3),
        "marginals": [["1/3", "2/3"], ["1/4", "3/4"], ["1/2", "1/3", "1/6"]],
        "collection": [[0, 1], [2]],
    }


def test_partition_factorize_requires_partition(uniform_cube):
    with pytest.raises(CorrpolyError):
        partition_factorize(uniform_cube, Collection.of({0}, {1}))


def test_product_of_components_recombines(uniform_cube, skew_2x2):
    skew_223 = CorrelationSet(
        ProductSpace((2, 2, 3)),
        [*skew_2x2.marginals, Marginal(2, (F(1, 2), F(1, 3), F(1, 6)))],
    )
    for cs, coll in [
        (uniform_cube, Collection.of({0}, {1, 2})),
        (skew_223, Collection.of({2}, {0, 1})),
    ]:
        comps = partition_factorize(cs, coll)
        for comp in comps:
            assert all(is_maximally_zero(comp, v) for v in comp.vertices())
        for combo in itertools.product(*(comp.vertices() for comp in comps)):
            joint = product_of_components(cs.space, coll, combo)
            assert cs.contains(joint)
            assert is_independent_on(joint, coll).holds


def test_restricted_dimension_cube(uniform_cube):
    cs = uniform_cube
    c01 = Collection.of({0}, {1})
    c02 = Collection.of({0}, {2})
    c0_12 = Collection.of({0}, {1, 2})
    assert restricted_dimension(cs, c01) == 3
    assert restricted_dimension(cs, c0_12) == 1
    assert restricted_dimension(cs, [c01, c02]) == 2
    assert restricted_dimension(cs, Collection.of({0}, {1}, {2})) == 0


def test_restricted_dimension_rejects_nonlinear():
    space = ProductSpace((2, 2, 2, 2))
    cs = CorrelationSet(space, [Marginal(i, (F(1, 2), F(1, 2))) for i in range(4)])
    with pytest.raises(NonlinearCollectionError):
        restricted_dimension(cs, Collection.of({0, 1}, {2, 3}))


def test_pairwise_independence_does_not_compose():
    # independent on {0},{1} and on {0},{2}, yet not on {0},{1,2}
    p1 = p2 = p3 = F(1, 2)
    a = F(1, 8)
    p = cube_joint(p1, p2, p3, a=a, b=F(1, 16), c=p1 * p3 - a, d=p1 * p2 - a)
    assert is_independent_on(p, Collection.of({0}, {1})).holds
    assert is_independent_on(p, Collection.of({0}, {2})).holds
    verdict = is_independent_on(p, Collection.of({0}, {1, 2}))
    assert not verdict.holds


def test_sampled_partition_members_stay_inside(uniform_cube):
    rng = random.Random(33)
    coll = Collection.of({0}, {1, 2})
    for _ in range(10):
        p = sample_partition_member(uniform_cube, coll, rng)
        assert uniform_cube.contains(p)
        assert is_independent_on(p, coll).holds


_COLLECTIONS = {
    2: [Collection.of({0}, {1})],
    3: [
        Collection.of({0}, {1}),
        Collection.of({0, 2}, {1}),  # a non-contiguous member first
        Collection.of({0}, {1, 2}),
        Collection.of({0}, {1}, {2}),
    ],
}


def draw_marginals(shape, data):
    """One marginal per subspace, some of whose states may have zero weight."""
    marginals = []
    for i, size in enumerate(shape):
        parts = data.draw(st.lists(st.integers(0, 3), min_size=size, max_size=size).filter(any))
        marginals.append(Marginal(i, tuple(F(x, sum(parts)) for x in parts)))
    return marginals


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([(2, 2), (1, 3), (2, 3), (2, 1, 2), (3, 1, 2), (2, 2, 2), (2, 3, 2), (1, 3, 2)]),
    st.data(),
)
def test_is_independent_on_equals_reference(shape, data):
    # marginals may put zero weight on some states; vertices are mostly
    # dependent, the product and its mixtures independent on the partition
    cs = CorrelationSet(ProductSpace(shape), draw_marginals(shape, data))
    vertices = cs.vertices()
    picks = data.draw(st.lists(st.integers(0, len(vertices) - 1), min_size=1, max_size=3))
    points = [cs.independent_product, *(vertices[k] for k in picks)]
    points.append(JointDistribution(cs.space, tuple(
        (w + v) / 2 for w, v in zip(points[0].weights, points[1].weights)
    )))
    for coll in _COLLECTIONS[len(shape)]:
        for p in points:
            # dataclass equality: the verdict, the first witness, the defect
            assert is_independent_on(p, coll) == is_independent_on_reference(p, coll)


def test_witness_walks_members_in_collection_order():
    # member {0, 2} comes first: cell ((0, 0), (1,)) precedes ((0, 1), (0,)),
    # although state (0, 0, 1) precedes (0, 1, 0) in the space's own order
    space = ProductSpace((2, 3, 2))
    weights = [F(1, 10), F(3, 10), F(3, 20), 0, 0, F(1, 5), 0, 0, F(1, 4), 0, 0, 0]
    p = JointDistribution(space, tuple(map(F, weights)))
    coll = Collection.of({0, 2}, {1})
    verdict = is_independent_on(p, coll)
    assert verdict.witness == ((0, 0), (1,))
    assert verdict == is_independent_on_reference(p, coll)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(2, 3), (2, 2, 2), (3, 3)]), st.data())
def test_restricted_dimension_is_that_of_the_reduced_shape(shape, data):
    # zero-weight states carry no mass, so dropping them from the shape
    # (a full-support set) keeps every restricted dimension
    marginals = draw_marginals(shape, data)
    cs = CorrelationSet(ProductSpace(shape), marginals)
    kept = [[w for w in m.weights if w > 0] for m in marginals]
    reduced = CorrelationSet(
        ProductSpace(tuple(len(ws) for ws in kept)),
        [Marginal(i, ws) for i, ws in enumerate(kept)],
    )
    colls = _COLLECTIONS[len(shape)]
    for coll in colls:
        assert restricted_dimension(cs, coll) == restricted_dimension(reduced, coll)
    assert restricted_dimension(cs, colls) == restricted_dimension(reduced, colls)


def test_partitions_with_zero_weight_states():
    half = F(1, 2)
    cs = CorrelationSet(
        ProductSpace((2, 2, 2)), [Marginal(0, (half, half)), Marginal(1, (1, 0)), Marginal(2, (half, half))]
    )
    coll = Collection.of({0, 1}, {2})
    assert restricted_dimension(cs, Collection.of({0}, {2})) == 0
    with pytest.warns(UserWarning, match="reduced shape"):
        assert dimension(cs) == 1
        assert [dimension(comp) for comp in partition_factorize(cs, coll)] == [0, 0]
        p = sample_partition_member(cs, coll, random.Random(5))
    assert cs.contains(p)
    assert is_independent_on(p, coll).holds
