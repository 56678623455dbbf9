import gc
import itertools
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrpoly import (
    Act,
    Capacity,
    ConsistencyError,
    CorrelationSet,
    CorrpolyError,
    Event,
    LinearProgram,
    Marginal,
    ProductSpace,
    capacity_of,
    capacity_value,
    check_exactness,
    choquet_integral,
    cylinder_additivity_check,
    dimension,
    event_from_mask,
    expectation,
    feasible_start,
    find_convexity_violation,
)
from corrpoly import lp
from bruteforce import (
    capacity_table_reference,
    check_exactness_reference,
    find_convexity_violation_reference,
    frechet_rectangle_value,
    oracle_vertices,
    solve_lp_min_reference,
    strassen_capacity_value,
)
from conftest import (
    DEGENERATE_MARGINALS,
    correlation_set_of,
    random_correlation_set,
    random_marginal,
    replaced_start,
)

F = Fraction


def _event(space, *states):
    return Event.from_states(space, states)


def test_capacity_paper_values(uniform_2x2):
    cs = uniform_2x2
    space = cs.space
    row = _event(space, (0, 0), (0, 1))  # the first-subspace cylinder
    corner = _event(space, (0, 0))
    assert capacity_value(cs, row) == F(1, 2)
    assert capacity_value(cs, corner) == F(0)
    assert capacity_value(cs, Event.full(space)) == 1
    assert capacity_value(cs, Event.empty(space)) == 0


def test_capacity_memo_is_stable(uniform_2x2):
    cap = capacity_of(uniform_2x2)
    e = _event(uniform_2x2.space, (0, 0), (1, 1))
    assert cap.value(e) == cap.value(e)


def test_exactness_uniform_2x2(uniform_2x2):
    assert check_exactness(uniform_2x2)


def test_exactness_2x3():
    space = ProductSpace((2, 3))
    cs = CorrelationSet(
        space,
        [
            Marginal(0, (F(1, 3), F(2, 3))),
            Marginal(1, (F(1, 6), F(2, 6), F(3, 6))),
        ],
    )
    assert check_exactness(cs)


def test_exactness_singleton_set():
    space = ProductSpace((3,))
    cs = CorrelationSet(space, [Marginal(0, (F(1, 6), F(1, 3), F(1, 2)))])
    assert check_exactness(cs)


def test_exactness_checks_vertex_dominance(uniform_2x2):
    # each required value is checked against the vertex minimum as it is
    # computed, so a vertex that puts less mass on an event than the LP
    # minimum (here a point mass on (0, 0), which misses the cylinder
    # X_0 = 1) makes the check raise
    cap = capacity_of(uniform_2x2)
    cap.value(_event(uniform_2x2.space, (0, 0)))  # builds the vertex table
    denom, columns = cap._vertex_columns
    point_mass = (denom, 0, 0, 0)
    cap._vertex_columns = (denom, [col + (w,) for col, w in zip(columns, point_mass)])
    with pytest.raises(ConsistencyError, match="vertex minimum"):
        check_exactness(uniform_2x2)


def test_exactness_raises_when_a_required_value_is_off(uniform_2x2, monkeypatch):
    # every coupling puts mass 1 on the full event, so a capacity that
    # does not is a library bug, reported with the set and the event
    original = Capacity._mask_value

    def broken(self, mask):
        return F(1, 2) if mask == 0b1111 else original(self, mask)

    monkeypatch.setattr(Capacity, "_mask_value", broken)
    with pytest.raises(ConsistencyError, match="full event") as exc:
        check_exactness(uniform_2x2)
    assert exc.value.context == {**uniform_2x2.reproducer(), "mask": 0b1111}


def test_capacity_monotone_under_inclusion(uniform_cube):
    cap = capacity_of(uniform_cube)
    rng = random.Random(4)
    n = uniform_cube.space.total_size
    for _ in range(40):
        small_mask = rng.getrandbits(n)
        extra = rng.getrandbits(n)
        big_mask = small_mask | extra
        small = event_from_mask(uniform_cube.space, small_mask)
        big = event_from_mask(uniform_cube.space, big_mask)
        assert cap.value(small) <= cap.value(big)


def test_cylinder_additivity(uniform_2x2):
    cs = uniform_2x2
    space = cs.space
    column = _event(space, (0, 0), (1, 0))  # the second-subspace cylinder at 0
    assert cylinder_additivity_check(cs, column, 1, [0])
    with_extra = _event(space, (0, 0), (1, 0), (0, 1))
    assert cylinder_additivity_check(cs, with_extra, 1, [0])
    assert cylinder_additivity_check(cs, Event.full(space), 1, [0, 1])
    with pytest.raises(CorrpolyError):
        cylinder_additivity_check(cs, _event(space, (0, 0)), 1, [0])


def test_cylinder_additivity_exhaustive_cube(uniform_cube):
    cs = uniform_cube
    space = cs.space
    n = space.total_size
    for i in range(3):
        for r in (1, 2):
            for coords in itertools.combinations(range(2), r):
                sub = space.subspace([i])
                from corrpoly import embed_cylinder

                cyl = embed_cylinder(
                    Event.from_states(sub, [(c,) for c in coords]), space, [i]
                )
                cyl_mask = cyl.bitmask()
                for extra in range(0, 2 ** n, 7):  # sampled supersets
                    event = event_from_mask(space, cyl_mask | extra)
                    assert cylinder_additivity_check(cs, event, i, coords)


def test_convexity_violation_uniform(uniform_2x2):
    cs = uniform_2x2
    space = cs.space
    witness = find_convexity_violation(cs)
    # the canonical pair: two crossing cylinders, gap exactly 1/2
    e = _event(space, (0, 0), (0, 1))
    f = _event(space, (0, 0), (1, 0))
    assert witness == (e, f)
    cap = capacity_of(cs)
    assert cap.value(e | f) + cap.value(e & f) == F(1, 2)
    assert cap.value(e) + cap.value(f) == 1


def test_convexity_violation_absent_for_singleton():
    space = ProductSpace((2, 2))
    cs = CorrelationSet(space, [Marginal(0, (F(1), F(0))), Marginal(1, (F(1, 2), F(1, 2)))])
    # only one coupling exists: the capacity is additive
    assert len(cs.vertices()) == 1
    assert find_convexity_violation(cs) is None


def test_convexity_violation_cube(uniform_cube):
    assert find_convexity_violation(uniform_cube) is not None


def test_convexity_violation_raises_when_the_cylinders_do_not_cross(uniform_2x2, monkeypatch):
    # crossing cylinders of positive weights below 1 always violate
    # convexity, so a capacity that says otherwise is a library bug
    original = Capacity._mask_value

    def broken(self, mask):
        return F(1) if mask == 0b0001 else original(self, mask)

    monkeypatch.setattr(Capacity, "_mask_value", broken)
    with pytest.raises(ConsistencyError, match="crossing cylinders") as exc:
        find_convexity_violation(uniform_2x2)
    assert exc.value.context == {**uniform_2x2.reproducer(), "masks": [0b0011, 0b0101]}


def _random_weights(sizes, seed):
    rng = random.Random(seed)
    return [random_marginal(i, size, rng).weights for i, size in enumerate(sizes)]


# Degenerate sets, a dimension-0 set of 12 states and seeded random sets.
VERDICT_SETS = {
    **DEGENERATE_MARGINALS,
    "uniform-12": [tuple(F(1, 12) for _ in range(12))],
    "point-mass-2x2": [(F(1), F(0)), (F(1, 2), F(1, 2))],
    **{
        f"random-{'x'.join(map(str, sizes))}-{seed}": _random_weights(sizes, seed)
        for sizes, seeds in (
            ((2, 2), (1, 2, 3)),
            ((2, 3), (1, 2, 3)),
            ((3, 2), (1,)),
            ((2, 4), (1, 2)),
            ((3, 3), (1, 2, 3)),
            ((3, 4), (1,)),
            ((4, 4), (1,)),
            ((1, 3), (1, 2)),
            ((2, 1, 2), (1, 2)),
        )
        for seed in seeds
    },
}


@pytest.mark.parametrize("name", sorted(VERDICT_SETS))
def test_convexity_and_exactness_verdicts_follow_their_theorems(name):
    # the witness exists iff the set has positive dimension; on small sets
    # it violates convexity by oracle-vertex capacities and matches the
    # verdict of the sweep over every pair of events, and exactness holds
    # on every set and agrees with the sweep over every event
    cs = correlation_set_of(VERDICT_SETS[name])
    n = cs.space.total_size
    witness = find_convexity_violation(cs)
    assert (witness is None) == (dimension(cs) == 0)
    if witness is not None and n <= 12:
        v = capacity_table_reference(cs)
        e, f = (event.mask for event in witness)
        assert v[e | f] + v[e & f] < v[e] + v[f]
    if n <= 9:
        assert (find_convexity_violation_reference(cs) is None) == (witness is None)
    assert check_exactness(cs) is True
    if n <= 12:
        assert check_exactness_reference(cs) is True


def test_superadditive_on_disjoint_events(uniform_2x2):
    cap = capacity_of(uniform_2x2)
    n = uniform_2x2.space.total_size
    for emask in range(2 ** n):
        rest = ((2 ** n) - 1) ^ emask
        fmask = rest
        while True:
            e = event_from_mask(uniform_2x2.space, emask)
            f = event_from_mask(uniform_2x2.space, fmask)
            assert cap.value(e | f) >= cap.value(e) + cap.value(f)
            if fmask == 0:
                break
            fmask = (fmask - 1) & rest


def test_choquet_integral_paper_acts(uniform_2x2):
    cs = uniform_2x2
    space = cs.space
    cap = capacity_of(cs)
    f = Act.from_state_values(space, {(0, 0): 4, (1, 0): 3, (0, 1): 2, (1, 1): 1})
    g = Act.from_state_values(space, {(0, 0): 5, (1, 0): 3, (0, 1): 2, (1, 1): 0})
    assert choquet_integral(cap, f) == 2
    assert choquet_integral(cap, g) == F(3, 2)


def test_capacity_rejects_events_and_acts_of_another_space(uniform_2x2):
    cap = capacity_of(uniform_2x2)
    other = ProductSpace((2, 3))
    with pytest.raises(CorrpolyError, match="event lives on a different space"):
        cap.value(Event.full(other))
    with pytest.raises(CorrpolyError, match="act lives on a different space"):
        choquet_integral(cap, Act.constant(other, 1))


def test_choquet_constant_act(uniform_cube):
    cap = capacity_of(uniform_cube)
    c = Act.constant(uniform_cube.space, F(7, 3))
    assert choquet_integral(cap, c) == F(7, 3)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=-6, max_value=6), min_size=4, max_size=4))
def test_choquet_against_additive_capacity_is_expectation(values):
    space = ProductSpace((2, 2))
    cs = CorrelationSet(space, [Marginal(0, (F(1), F(0))), Marginal(1, (F(1, 4), F(3, 4)))])
    cap = capacity_of(cs)
    act = Act(space, tuple(F(v) for v in values))
    p = cs.vertices()[0]
    assert choquet_integral(cap, act) == expectation(p, act)


def test_choquet_comonotonic_additivity(uniform_cube):
    cap = capacity_of(uniform_cube)
    space = uniform_cube.space
    rng = random.Random(12)
    flats = list(range(space.total_size))
    for _ in range(15):
        order = flats[:]
        rng.shuffle(order)
        ranks = {flat: pos for pos, flat in enumerate(order)}
        f = Act(space, tuple(F(3 * ranks[k], 2) for k in flats))
        g = Act(space, tuple(F(ranks[k] ** 2, 3) for k in flats))
        assert choquet_integral(cap, f + g) == choquet_integral(cap, f) + choquet_integral(cap, g)


def test_lp_vertex_agreement_full_sweep():
    rng = random.Random(9)
    for sizes in ((2, 2), (2, 3)):
        cs = random_correlation_set(sizes, rng)
        cap = capacity_of(cs)
        n = cs.space.total_size
        for mask in range(2 ** n):
            cap.value(event_from_mask(cs.space, mask))  # raises on disagreement


@pytest.mark.parametrize(
    "sizes, weights",
    [
        ((1, 3), [(1,), (F(1, 6), F(1, 3), F(1, 2))]),
        ((2, 3), [(F(1, 4), F(3, 4)), (F(1, 2), F(0), F(1, 2))]),
        ((2, 2, 2), [(F(1), F(0)), (F(1, 3), F(2, 3)), (F(1, 2), F(1, 2))]),
        ((2, 2, 2), [(F(0), F(1)), (F(1), F(0)), (F(0), F(1))]),
        *(
            pytest.param(tuple(map(len, weights)), weights, id=name)
            for name, weights in DEGENERATE_MARGINALS.items()
        ),
    ],
)
def test_capacity_matches_oracle_on_degenerate_sets(sizes, weights):
    # 1-state subspaces, zero-weight states, point-mass marginals, a set
    # whose one vertex is a point mass and tied marginals; the sweep of the
    # mask path includes the empty and the full event, and each value is
    # also the optimum of the Fraction reference simplex.  A second sweep
    # with the memo cleared solves every event again through the cache of
    # bases, which the first sweep completed.
    space = ProductSpace(sizes)
    cs = CorrelationSet(space, [Marginal(i, w) for i, w in enumerate(weights)])
    vertices = oracle_vertices(sizes, weights)
    cap = capacity_of(cs)
    expected = {}
    for mask in range(2 ** space.total_size):
        expected[mask] = min(
            sum((w for k, w in enumerate(v) if mask >> k & 1), F(0)) for v in vertices
        )
        indicator = tuple(mask >> k & 1 for k in range(space.total_size))
        program = LinearProgram(indicator, cs.system.matrix, cs.system.rhs)
        assert solve_lp_min_reference(program).optimum == expected[mask]
        assert cap.value(event_from_mask(space, mask)) == expected[mask]
    bases = dict(cap._start._bases)
    cap._memo.clear()
    for mask, value in expected.items():
        assert cap.value(event_from_mask(space, mask)) == value
    assert cap._start._bases == bases


@pytest.mark.parametrize(
    "sizes", [(2, 2), (3, 3), (2, 2, 2), (3, 4), (2, 2, 3), (4, 4), (2, 2, 2, 2)]
)
def test_capacity_of_a_rectangle_is_frechets_bound(sizes):
    # 60 seeded rectangles on one set per shape; each state joins its side
    # with probability 3/4, so that most bounds lie strictly between 0 and 1
    # even on four subspaces, and some sides are empty
    rng = random.Random(14)
    cs = random_correlation_set(sizes, rng)
    weights = [m.weights for m in cs.marginals]
    for _ in range(60):
        sides = [[s for s in range(size) if rng.getrandbits(2)] for size in sizes]
        event = Event.from_states(cs.space, itertools.product(*sides))
        assert capacity_value(cs, event) == frechet_rectangle_value(weights, sides)


@pytest.mark.parametrize("sizes", [(3, 4), (2, 6), (3, 5), (4, 4)])
def test_capacity_of_two_subspaces_is_strassens_bound(sizes):
    # 24 seeded events per set, past the vertex oracle's 12 states on
    # (3,5) and (4,4): each state joins the event with probability 3/4 or
    # 1/2 in turn, so that most values lie strictly between 0 and 1
    rng = random.Random(30)
    cs = random_correlation_set(sizes, rng)
    weights = [m.weights for m in cs.marginals]
    values = set()
    for n in range(24):
        states = [s for s in cs.space.states() if rng.getrandbits(2 - n % 2)]
        value = capacity_value(cs, Event.from_states(cs.space, states))
        assert value == strassen_capacity_value(weights, states)
        values.add(value)
    assert len(values - {0, 1}) >= 4


def test_event_from_mask_is_the_inverse_of_bitmask():
    space = ProductSpace((2, 3))
    for mask in range(2 ** 6):
        event = event_from_mask(space, mask)
        states = [space.unravel(k) for k in range(6) if mask >> k & 1]
        assert event == Event.from_states(space, states)
        assert event.bitmask() == mask
        assert Event.from_states(space, states).bitmask() == mask


@pytest.mark.parametrize("mask", [-1, -16, 2 ** 4, 2 ** 4 + 1])
def test_event_from_mask_rejects_masks_outside_the_space(mask):
    with pytest.raises(CorrpolyError, match="not an event"):
        event_from_mask(ProductSpace((2, 2)), mask)


def test_an_unreferenced_set_is_freed_without_the_cycle_collector():
    rng = random.Random(3)
    queries = [
        lambda cs: capacity_value(cs, event_from_mask(cs.space, 0b010110)),  # one miss
        lambda cs: capacity_value(cs, Event.empty(cs.space)),  # no miss
        capacity_of,  # no query
        # every event: the start's cache of bases fills, and goes with it
        lambda cs: [capacity_value(cs, event_from_mask(cs.space, m)) for m in range(2 ** 6)],
    ]
    gc.disable()
    try:
        for query in queries:
            cs = random_correlation_set((2, 3), rng)
            query(cs)
            refs = weakref.ref(cs), weakref.ref(capacity_of(cs)), weakref.ref(capacity_of(cs)._start)
            del cs
            assert all(ref() is None for ref in refs)
    finally:
        gc.enable()


def test_a_capacity_outlives_its_set():
    # the capacity keeps no reference to its set, which is freed at once
    sizes = (2, 3)
    marginals = random_correlation_set(sizes, random.Random(5)).marginals
    cap = capacity_of(CorrelationSet(ProductSpace(sizes), marginals))
    vertices = oracle_vertices(sizes, [m.weights for m in marginals])
    for mask in range(2 ** 6):
        expected = min(sum((w for k, w in enumerate(v) if mask >> k & 1), F(0)) for v in vertices)
        assert cap.value(event_from_mask(cap.space, mask)) == expected


def test_capacity_reuses_an_unchanged_start(uniform_cube, monkeypatch):
    checks = []

    def counted(*args):
        checks.append(args)
        return is_feasible_basis(*args)

    is_feasible_basis = lp._is_feasible_basis
    monkeypatch.setattr(lp, "_is_feasible_basis", counted)
    cap = capacity_of(uniform_cube)
    space = uniform_cube.space
    cap.value(event_from_mask(space, 0b10010110))
    start = cap._start
    fresh = feasible_start(
        LinearProgram((F(0),) * 8, uniform_cube.system.matrix, uniform_cube.system.rhs)
    )
    assert start == fresh
    for mask in (0b1, 0b11000011, 0b01111110):
        cap.value(event_from_mask(space, mask))
    assert cap._start is start and start == fresh
    assert len(checks) == 1  # the start checked itself on the first miss only


def test_capacity_with_a_corrupted_start_raises(uniform_cube):
    cap = capacity_of(uniform_cube)
    space = uniform_cube.space
    cap.value(event_from_mask(space, 0b1))
    start = cap._start
    for corrupt in (
        replaced_start(start, rhs=tuple(b + F(1, 5) for b in start.rhs)),
        replaced_start(start, basis=(start.basis[1], start.basis[0]) + start.basis[2:]),
        replaced_start(start, rhs=(-1,) + start.rhs[1:]),
    ):
        cap._start = corrupt
        with pytest.raises(ConsistencyError, match="not a feasible integer basis") as info:
            cap.value(event_from_mask(space, 0b110))
        assert info.value.context == {
            "shape": (2, 2, 2),
            "marginals": [["1/2", "1/2"]] * 3,
            "mask": 0b110,
        }
        assert 0b110 not in cap._memo


def test_capacity_certificate_fails_on_an_integer_corrupted_start(uniform_cube):
    # an integer change keeps the start a feasible basis, so only the
    # certificate of the next miss can tell
    cap = capacity_of(uniform_cube)
    space = uniform_cube.space
    cap.value(event_from_mask(space, 0b1))
    start = cap._start = replaced_start(cap._start, rhs=(cap._start.rhs[0] + 1,) + cap._start.rhs[1:])
    for _ in range(2):  # the failing basis never enters the cache
        with pytest.raises(ConsistencyError, match="certificate failed: A x != b") as info:
            cap.value(event_from_mask(space, 0b10010110))
        assert info.value.context == {
            "shape": (2, 2, 2),
            "marginals": [["1/2", "1/2"]] * 3,
            "mask": 0b10010110,
            "basis": start.basis,
        }
        assert 0b10010110 not in cap._memo
        assert not start._bases


def test_capacity_dual_certificate_failure_names_the_optimal_basis(uniform_cube):
    # a bumped artificial-column entry leaves every basic solution intact,
    # so each basis passes the primal check and enters the cache, and the
    # dual check of the solve names the optimal basis
    cap = capacity_of(uniform_cube)
    space = uniform_cube.space
    cap.value(event_from_mask(space, 0b1))
    rows = [list(row) for row in cap._start.rows]
    rows[0][8] += 1
    start = cap._start = replaced_start(cap._start, rows=tuple(map(tuple, rows)))
    with pytest.raises(ConsistencyError, match=r"certificate failed: (A\^T y <= c fails|b\.y != c\.x)") as info:
        for mask in range(1, 2 ** 8):
            cap.value(event_from_mask(space, mask))
    context = info.value.context
    assert context["mask"] == mask and context["shape"] == (2, 2, 2)
    assert context["basis"] in start._bases
    assert mask not in cap._memo


def test_capacity_vertex_disagreement_names_the_event(uniform_2x2):
    uniform_2x2._vertices = uniform_2x2.vertices()[:1]
    cap = capacity_of(uniform_2x2)
    with pytest.raises(ConsistencyError, match="vertex minimum") as info:
        for mask in range(16):
            cap.value(event_from_mask(uniform_2x2.space, mask))
    assert info.value.context == {
        "shape": (2, 2),
        "marginals": [["1/2", "1/2"]] * 2,
        "mask": mask,  # the query that failed
    }
