import random
import warnings
from fractions import Fraction

import pytest

from corrpoly import (
    CorrelationSet,
    ConsistencyError,
    CorrpolyError,
    GuardExceededError,
    JointDistribution,
    Marginal,
    NotInCorrelationSetError,
    ProductSpace,
    SpaceMismatchError,
    decompose,
    dimension,
    dimension_formula,
    enumerate_extreme_points,
    in_convex_hull,
    is_maximally_zero,
    kernel_basis_rectangles,
    linalg,
    mix,
    sample_member,
)
from conftest import random_correlation_set
from bruteforce import contains_reference, oracle_vertices, sample_member_reference

F = Fraction


def test_dimension_small_shapes(uniform_2x2, uniform_cube):
    assert dimension(uniform_2x2) == 1
    assert dimension(uniform_cube) == 4
    space = ProductSpace((3, 3))
    cs = CorrelationSet(
        space,
        [
            Marginal(0, (F(1, 3), F(1, 3), F(1, 3))),
            Marginal(1, (F(1, 6), F(2, 6), F(3, 6))),
        ],
    )
    assert dimension(cs) == 4  # 9 - 1 - 4


def test_dimension_single_subspace():
    cs = CorrelationSet(ProductSpace((5,)), [Marginal(0, (F(1, 5),) * 5)])
    assert dimension(cs) == 0
    assert [v.weights for v in cs.vertices()] == [(F(1, 5),) * 5]


def test_dimension_zero_weight_marginal_reduces_shape():
    space = ProductSpace((2, 3))
    cs = CorrelationSet(
        space,
        [
            Marginal(0, (F(1, 2), F(1, 2))),
            Marginal(1, (F(1, 2), F(0), F(1, 2))),
        ],
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert dimension(cs) == dimension_formula((2, 2)) == 1


def test_contains(uniform_2x2):
    cs = uniform_2x2
    assert cs.contains(cs.independent_product)
    assert cs.contains(JointDistribution(cs.space, (F(1, 2), 0, 0, F(1, 2))))
    assert not cs.contains(JointDistribution(cs.space, (F(1), 0, 0, 0)))


def test_kernel_basis_2x2():
    basis = kernel_basis_rectangles(ProductSpace((2, 2)))
    assert len(basis) == 1
    assert basis.basis_vectors[0] == (F(1), F(-1), F(-1), F(1))


@pytest.mark.parametrize(
    "sizes,expected_dim", [((2, 2), 1), ((2, 2, 2), 4), ((3, 2), 2), ((3, 4), 6)]
)
def test_kernel_basis_counts_and_membership(sizes, expected_dim):
    space = ProductSpace(sizes)
    basis = kernel_basis_rectangles(space)
    assert len(basis) == expected_dim == dimension_formula(sizes)
    # every vector solves the homogeneous marginal system
    states = list(space.states())
    for vec in basis.basis_vectors:
        for i in range(space.n_subspaces):
            for coord in range(sizes[i]):
                assert sum(vec[k] for k, s in enumerate(states) if s[i] == coord) == 0
    # and they are linearly independent
    assert linalg.rank(list(basis.basis_vectors)) == len(basis)


def test_kernel_basis_spans_member_differences():
    rng = random.Random(3)
    cs = random_correlation_set((2, 3), rng)
    basis_matrix = [list(v) for v in zip(*cs.kernel.basis_vectors)]  # columns = basis
    for _ in range(10):
        p = sample_member(cs, rng)
        q = sample_member(cs, rng)
        diff = [a - b for a, b in zip(p.weights, q.weights)]
        assert linalg.solve_affine(basis_matrix, diff) is not None


def test_enumerate_extreme_points_uniform(uniform_2x2):
    vertices = enumerate_extreme_points(uniform_2x2)
    assert [v.weights for v in vertices] == [
        (F(0), F(1, 2), F(1, 2), F(0)),
        (F(1, 2), F(0), F(0), F(1, 2)),
    ]


def test_enumerate_extreme_points_skew_matches_frechet(skew_2x2):
    vertices = enumerate_extreme_points(skew_2x2)
    assert [v.weights for v in vertices] == [
        (F(0), F(1, 3), F(1, 4), F(5, 12)),
        (F(1, 4), F(1, 12), F(0), F(2, 3)),
    ]


def test_enumerate_extreme_points_trivial_spaces():
    cs = CorrelationSet(ProductSpace((1, 1)), [Marginal(0, (F(1),)), Marginal(1, (F(1),))])
    assert [v.weights for v in cs.vertices()] == [(F(1),)]


def test_enumeration_guard():
    space = ProductSpace((2, 2))
    cs = CorrelationSet(space, [Marginal(0, (F(1, 2), F(1, 2))), Marginal(1, (F(1, 2), F(1, 2)))])
    with pytest.raises(GuardExceededError):
        enumerate_extreme_points(cs, guard=2)


def _assert_vertices_match_oracle(cs):
    sizes = cs.space.subspace_sizes
    expected = oracle_vertices(sizes, [m.weights for m in cs.marginals])
    got = {v.weights for v in enumerate_extreme_points(cs)}
    assert got == expected
    for v in cs.vertices():
        assert is_maximally_zero(cs, v)


@pytest.mark.parametrize("sizes", [(2, 2), (2, 3), (3, 3), (2, 2, 2)])
def test_vertices_match_bruteforce_oracle(sizes):
    rng = random.Random(hash(sizes) % 1000)
    for _ in range(3):
        _assert_vertices_match_oracle(random_correlation_set(sizes, rng))


def _uniform(*sizes):
    return [tuple(F(1, s) for _ in range(s)) for s in sizes]


# Degenerate inputs: their pivots and reduced columns are mostly zero, the
# entries the sparse elimination step skips.
@pytest.mark.parametrize(
    "weights",
    [
        [(F(1, 2), F(1, 2)), (F(1, 3), F(0), F(2, 3))],  # a zero-weight marginal state
        [(F(0), F(1, 4), F(3, 4)), (F(1, 2), F(0), F(1, 2))],  # one on each subspace
        [(F(1),), (F(1, 6), F(1, 3), F(1, 2))],  # a 1-state subspace
        [(F(1, 3), F(2, 3)), (F(1),), (F(1, 4), F(3, 4))],
        _uniform(3, 3),  # tied partial sums
        _uniform(2, 2, 2),
        [(F(1, 3), F(2, 3)), (F(2, 3), F(1, 3))],
    ],
    ids=["zero-weight-state", "zero-weight-both", "1x3", "2x1x2",
         "uniform-3x3", "uniform-2x2x2", "tied-2x2"],
)
def test_degenerate_vertices_match_bruteforce_oracle(weights):
    space = ProductSpace(tuple(len(w) for w in weights))
    cs = CorrelationSet(space, [Marginal(i, w) for i, w in enumerate(weights)])
    _assert_vertices_match_oracle(cs)


def test_is_maximally_zero(uniform_2x2):
    cs = uniform_2x2
    assert is_maximally_zero(cs, JointDistribution(cs.space, (F(1, 2), 0, 0, F(1, 2))))
    assert not is_maximally_zero(cs, cs.independent_product)
    with pytest.raises(NotInCorrelationSetError):
        is_maximally_zero(cs, JointDistribution(cs.space, (F(1), 0, 0, 0)))


def test_is_maximally_zero_point_mass():
    cs = CorrelationSet(ProductSpace((1,)), [Marginal(0, (F(1),))])
    assert is_maximally_zero(cs, JointDistribution(cs.space, (F(1),)))


def test_decompose(uniform_2x2):
    cs = uniform_2x2
    p_ind, shift = decompose(cs, cs.independent_product)
    assert all(x == 0 for x in shift)
    p_ind, shift = decompose(cs, JointDistribution(cs.space, (F(1, 2), 0, 0, F(1, 2))))
    assert shift == (F(1, 4), F(-1, 4), F(-1, 4), F(1, 4))
    with pytest.raises(NotInCorrelationSetError):
        decompose(cs, JointDistribution(cs.space, (F(1), 0, 0, 0)))


def test_decompose_vertex_shift_cancels_on_cylinders(uniform_cube):
    cs = uniform_cube
    states = list(cs.space.states())
    for v in cs.vertices():
        _, shift = decompose(cs, v)
        for i in range(3):
            for coord in range(2):
                assert sum(x for x, s in zip(shift, states) if s[i] == coord) == 0


def test_independent_product_is_interior_for_full_support():
    rng = random.Random(11)
    for sizes in ((2, 2), (2, 3), (2, 2, 2)):
        cs = random_correlation_set(sizes, rng)
        p_ind = cs.independent_product
        for vec in cs.kernel.basis_vectors:
            bounds = [w / -d for w, d in zip(p_ind.weights, vec) if d < 0]
            bounds += [w / d for w, d in zip(p_ind.weights, vec) if d > 0]
            eps = min(bounds) / 2
            assert eps > 0
            for sign in (1, -1):
                weights = tuple(w + sign * eps * d for w, d in zip(p_ind.weights, vec))
                assert cs.contains(JointDistribution(cs.space, weights))


def test_random_members_lie_in_vertex_hull():
    rng = random.Random(5)
    for sizes in ((2, 2), (2, 3), (3, 3), (2, 2, 2)):
        cs = random_correlation_set(sizes, rng)
        hull = [v.weights for v in cs.vertices()]
        for _ in range(200):
            member = sample_member(cs, rng)
            assert in_convex_hull(member.weights, hull)


def test_mix_validation(uniform_2x2):
    cs = uniform_2x2
    a, b = cs.vertices()
    mid = mix(a, b, F(1, 2))
    assert cs.contains(mid)
    with pytest.raises(Exception):
        mix(a, b, F(3, 2))


def test_dimension_consistency_is_checked(uniform_2x2, monkeypatch):
    # force a bogus closed form to prove the rank cross-check is live
    import corrpoly.polytope as poly

    monkeypatch.setattr(poly, "dimension_formula", lambda sizes: 99)
    with pytest.raises(ConsistencyError) as exc:
        poly.dimension(uniform_2x2)
    assert exc.value.context == {"shape": (2, 2), "marginals": [["1/2", "1/2"]] * 2}
    with pytest.raises(ConsistencyError, match="rectangle basis") as exc:
        CorrelationSet(uniform_2x2.space, uniform_2x2.marginals)
    assert exc.value.context == {"shape": (2, 2)}


def test_decompose_shift_check_carries_reproducer(skew_2x2, monkeypatch):
    monkeypatch.setattr(linalg, "mat_vec", lambda rows, x: (1,))
    with pytest.raises(ConsistencyError, match="homogeneous kernel") as exc:
        decompose(skew_2x2, skew_2x2.independent_product)
    assert exc.value.context == {
        "shape": (2, 2),
        "marginals": [["1/3", "2/3"], ["1/4", "3/4"]],
        "weights": ["1/12", "1/4", "1/6", "1/2"],
    }


@pytest.mark.parametrize("sizes", [(1, 3), (2, 2), (2, 3), (3, 3), (2, 2, 2), (2, 1, 2)])
def test_contains_matches_marginalizing(sizes):
    rng = random.Random(sum(sizes))
    for _ in range(3):
        cs = random_correlation_set(sizes, rng)
        members = list(cs.vertices()) + [sample_member(cs, rng) for _ in range(5)]
        for p in members:
            assert cs.contains(p) and contains_reference(cs, p)
            # moving mass between two states changes the marginals of every
            # coordinate where they differ
            for _ in range(4):
                i, j = rng.sample(range(cs.space.total_size), 2)
                eps = min(p.weights[i], F(1, 97))
                weights = list(p.weights)
                weights[i] -= eps
                weights[j] += eps
                q = JointDistribution(cs.space, weights)
                assert cs.contains(q) == contains_reference(cs, q)
                if eps:
                    assert not cs.contains(q)
        flat = JointDistribution(ProductSpace((cs.space.total_size,)), p.weights)
        with pytest.raises(SpaceMismatchError):
            cs.contains(flat)


@pytest.mark.parametrize("sizes", [(1, 3), (2, 2), (2, 3), (3, 3), (2, 2, 2), (2, 1, 2)])
def test_sample_member_matches_fraction_kernel_combination(sizes):
    rng = random.Random(100 + sum(sizes))
    cs = random_correlation_set(sizes, rng)
    for resolution in (1, 4, 16):
        for seed in range(20):
            a, b = random.Random(seed), random.Random(seed)
            assert sample_member(cs, a, resolution).weights == \
                sample_member_reference(cs, b, resolution).weights
            assert a.random() == b.random()  # the same draws were made


@pytest.mark.parametrize("resolution", [0, -3, 2.5])
def test_sample_member_rejects_bad_resolution(uniform_2x2, resolution):
    with pytest.raises(CorrpolyError, match=f"resolution must be an integer >= 1, got {resolution}"):
        sample_member(uniform_2x2, random.Random(1), resolution=resolution)
