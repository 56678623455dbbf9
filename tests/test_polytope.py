import copy
import dataclasses
import math
import pickle
import random
import warnings
from fractions import Fraction

import pytest

from corrpoly import (
    CorrelationSet,
    ConsistencyError,
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
from conftest import DEGENERATE_MARGINALS, correlation_set_of, random_correlation_set
from bruteforce import (
    contains_reference,
    face_basis_reference,
    oracle_vertices,
    sample_member_reference,
)
from corrpoly.polytope import _face_directions, face_basis

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


# Vertex counts of seeded sets beyond the oracle's reach, pinned so that a
# change of enumeration keeps them; (4,4) and (2,2,2,2) take about a second.
@pytest.mark.parametrize("sizes, count", [((3, 4), 37), ((4, 4), 116), ((2, 2, 2, 2), 72)],
                         ids=["3x4", "4x4", "2x2x2x2"])
def test_vertex_counts_are_pinned_beyond_the_oracle(sizes, count):
    cs = random_correlation_set(sizes, random.Random(1))
    vertices = cs.vertices()
    assert len(vertices) == count
    assert len(set(vertices)) == count


@pytest.mark.parametrize("sizes", [(3, 4), (2, 2, 3)], ids=["3x4", "2x2x3"])
def test_reversing_a_subspace_permutes_the_vertices(sizes):
    # relabelling subspace i's states c -> s_i - 1 - c maps couplings of the
    # old marginals onto couplings of the reversed ones, vertices to vertices
    cs = random_correlation_set(sizes, random.Random(5))
    space = cs.space
    weights = [m.weights for m in cs.marginals]
    old = {v.weights for v in cs.vertices()}
    for i, size in enumerate(sizes):
        flipped = correlation_set_of([ws[::-1] if j == i else ws for j, ws in enumerate(weights)])
        moved = set()
        for v in old:
            w = [F(0)] * space.total_size
            for k, state in enumerate(space.states()):
                image = state[:i] + (size - 1 - state[i],) + state[i + 1:]
                w[space.ravel(image)] = v[k]
            moved.add(tuple(w))
        assert {v.weights for v in flipped.vertices()} == moved, i


# Degenerate inputs: their pivots and reduced columns are mostly zero, the
# entries the sparse elimination step skips.
@pytest.mark.parametrize(
    "weights", list(DEGENERATE_MARGINALS.values()), ids=list(DEGENERATE_MARGINALS)
)
def test_degenerate_vertices_match_bruteforce_oracle(weights):
    _assert_vertices_match_oracle(correlation_set_of(weights))


# Sets of one shape built back to back share the shape's structure; each
# still answers for its own marginals and its own space.
SHARED_SHAPE_MARGINALS = {
    (2, 3): [
        [(F(1, 2), F(1, 2)), (F(1, 3), F(0), F(2, 3))],  # a zero-weight state
        [(F(1, 3), F(2, 3)), (F(1, 3), F(1, 3), F(1, 3))],  # tied partial sums
        [(F(0), F(1)), (F(1, 6), F(1, 3), F(1, 2))],  # a zero-weight row
        [(F(1, 4), F(3, 4)), (F(1, 2), F(1, 4), F(1, 4))],
    ],
    (2, 1, 2): [  # a 1-state subspace
        [(F(1, 3), F(2, 3)), (F(1),), (F(1, 4), F(3, 4))],
        [(F(1, 2), F(1, 2)), (F(1),), (F(1, 2), F(1, 2))],
    ],
}


def _reduced_dimension(weights):
    return dimension_formula(tuple(sum(1 for w in ws if w > 0) for ws in weights))


@pytest.mark.parametrize("labelled", [False, True], ids=["unlabelled", "labelled"])
def test_sets_of_one_shape_built_back_to_back(labelled):
    built = []
    for _ in range(2):  # the second pass reads every shape from the cache
        for sizes, cases in SHARED_SHAPE_MARGINALS.items():
            for weights in cases:
                labels = tuple(tuple(f"s{i}_{c}" for c in range(s)) for i, s in enumerate(sizes))
                names = tuple(f"x{i}" for i in range(len(sizes)))
                space = ProductSpace(sizes, labels, names) if labelled else ProductSpace(sizes)
                cs = CorrelationSet(space, [Marginal(i, w) for i, w in enumerate(weights)])
                built.append(cs)
                assert cs.space is space and cs.system.space is space
                assert cs.system.rhs == tuple(w for ws in weights for w in ws)
                assert {v.weights for v in cs.vertices()} == oracle_vertices(sizes, weights)
                assert dimension(cs) == _reduced_dimension(weights)
                assert len(cs.kernel) == dimension_formula(sizes)
                assert all(cs.contains(v) for v in cs.vertices())
    for sizes in SHARED_SHAPE_MARGINALS:
        same_shape = [cs for cs in built if cs.space.subspace_sizes == sizes]
        assert all(cs.system.matrix is same_shape[0].system.matrix for cs in same_shape)
        assert all(cs.kernel is same_shape[0].kernel for cs in same_shape)


def test_shapes_beyond_the_cache_are_rebuilt_alike():
    # more shapes than the cache keeps: the first ones are evicted, then rebuilt
    first = random_correlation_set((2, 3), random.Random(4))
    expected = oracle_vertices((2, 3), [m.weights for m in first.marginals])
    for k in range(1, 41):
        sizes = (k, 2)
        cs = correlation_set_of([(F(1, k),) * k, (F(1, 2), F(1, 2))])
        states = list(cs.space.states())
        assert cs.system.matrix == tuple(
            tuple(int(s[i] == c) for s in states) for i in range(2) for c in range(sizes[i])
        )
        assert len(cs.kernel) == dimension_formula(sizes)
    again = CorrelationSet(ProductSpace((2, 3)), first.marginals)
    assert again.system.matrix == first.system.matrix
    assert again.kernel == first.kernel
    assert {v.weights for v in again.vertices()} == expected


def _shared_weight_sets():
    rng = random.Random(26)
    yield from (random_correlation_set(sizes, rng) for sizes in ((2, 2), (2, 2, 3), (3, 4), (4, 4)))
    yield from (correlation_set_of(w) for w in DEGENERATE_MARGINALS.values())


def test_a_vertex_list_holds_one_fraction_per_distinct_weight():
    for cs in _shared_weight_sets():
        weights = [w for v in cs.vertices() for w in v.weights]
        assert all(type(w) is Fraction for w in weights)
        assert len({id(w) for w in weights}) == len(set(weights))


def test_a_vertex_survives_pickle_and_copy():
    cs = random_correlation_set((2, 2, 3), random.Random(7))
    for v in cs.vertices():
        for twin in (pickle.loads(pickle.dumps(v)), copy.copy(v), copy.deepcopy(v)):
            assert type(twin) is JointDistribution
            assert twin == v and hash(twin) == hash(v)
            assert twin.space == cs.space and twin.weights == v.weights
            assert cs.contains(twin) and is_maximally_zero(cs, twin)
    with pytest.raises(dataclasses.FrozenInstanceError):
        v.weights = ()
    assert not hasattr(v, "__dict__")


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
    for seed in range(60):
        a, b = random.Random(seed), random.Random(seed)
        assert sample_member(cs, a).weights == sample_member_reference(cs, b).weights
        assert a.random() == b.random()  # the same draws were made


def _face_scale(cs, p):
    """The scale of the integer face at ``p``, after checking it: the face
    basis is the reference face in Fractions, and the integer directions
    (from the weights or from their numerators) are that basis times the
    least common denominator of its entries, with gcd 1."""
    reference = face_basis_reference(cs, p)
    assert face_basis(cs, p) == reference
    directions, scale = _face_directions(cs, p.weights)
    assert _face_directions(cs, cs.require_member(p)[0]) == (directions, scale)
    assert scale == math.lcm(*(x.denominator for v in reference for x in v))
    assert directions == [[x * scale for x in v] for v in reference]
    assert all(type(x) is int for d in directions for x in d)
    assert math.gcd(*(x for d in directions for x in d)) == (1 if directions else 0)
    return scale


def _vertices_product_and_thirds(cs, rng, midpoints):
    vertices = cs.vertices()
    points = [*vertices, cs.independent_product]
    for _ in range(midpoints):
        a, b = rng.sample(range(len(vertices)), 2)
        points.append(mix(vertices[a], vertices[b], F(1, 3)))
    return points


@pytest.mark.parametrize("sizes, seed, faces_with_halves", [
    ((2, 2, 3), 1, 0),
    ((2, 2, 2, 2), 3, 5),  # five of the 40 midpoints have a face with L = 2
])
def test_integer_face_is_the_reference_face_times_its_denominator(sizes, seed, faces_with_halves):
    cs = random_correlation_set(sizes, random.Random(seed))
    points = _vertices_product_and_thirds(cs, random.Random(0), 40)
    scales = [_face_scale(cs, p) for p in points]
    assert sum(scale > 1 for scale in scales) == faces_with_halves
    assert all(_face_directions(cs, v.weights) == ([], 1) for v in cs.vertices())


@pytest.mark.parametrize("name", sorted(DEGENERATE_MARGINALS))
def test_integer_face_on_degenerate_sets(name):
    # zero-weight states, 1-state subspaces and tied marginals
    cs = correlation_set_of(DEGENERATE_MARGINALS[name])
    points = _vertices_product_and_thirds(cs, random.Random(0), 6 if len(cs.vertices()) > 1 else 0)
    for p in points:
        _face_scale(cs, p)
    directions, _ = _face_directions(cs, cs.independent_product.weights)
    assert len(directions) == dimension(cs)


# the sets of the benchmark's mi-certificate workload (perfbench/workloads.py,
# MiCertificate), drawn from one random.Random(seed) in the same order
MI_CERTIFICATE_SETS = {(2, 2): 8, (2, 3): 6, (3, 3): 4, (2, 2, 2): 4, (2, 4): 4, (3, 4): 6}


@pytest.mark.parametrize("seed", [1, 9001])
def test_every_mi_certificate_item_has_an_integral_face(seed):
    # each set's vertices, its product and one midpoint of two vertices
    rng = random.Random(seed)
    for sizes, n_sets in MI_CERTIFICATE_SETS.items():
        for _ in range(n_sets):
            cs = random_correlation_set(sizes, rng)
            vertices = cs.vertices()
            a, b = rng.sample(range(len(vertices)), 2)
            for p in [*vertices, cs.independent_product, mix(vertices[a], vertices[b], F(1, 2))]:
                assert _face_scale(cs, p) == 1
