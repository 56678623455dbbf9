"""Independent brute-force oracles for the test suite.

Deliberately separate from the package implementation: its own row
reduction, no pruning beyond what the mathematics forces (a support must
cover every positive marginal row, and a uniquely solvable support cannot
exceed the system rank).  Used to freeze expected values and to cross-check
the production enumeration path.  The capacity references sweep every
event, and every pair of events, on capacities taken from the vertex
oracle: they are the exhaustive versions of the package's exactness check
and non-convexity witness, which read the few values their proofs need.
Fréchet's bound gives the capacity of a rectangle in closed form, with no
vertex, on any shape, and Strassen's theorem the capacity of any event of
two subspaces, by an integer max flow.  Klee and Witzgall's forest test
checks the support of each vertex of two subspaces on any shape, with no
vertex oracle.  `face_basis_reference` is the face at a point from `_rref`.
The mutual-information references at the
end keep the package's earlier Fraction-based divergence and entropy
loops, membership test, sampler, eager probe construction and per-step
certificate, which the integer and on-demand versions must match exactly.  The
axiom-checker references keep the package's earlier Event/Act versions of
the subspace-independence scan and trials, and of the element-wise
independence test, which the cell-table versions must match field for
field; the product-identity search sweeps the same event quadruples in the
same order on its own table of integer event-pair sums.  The LP
references keep the package's earlier two-phase simplex on Fractions,
whose phase-1 tableau and solutions the integer simplex must match.
`parse_expr_reference` keeps the package's earlier scenario expression
reader, one `Fraction` per term, whose values and error messages the
integer reader must match.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction


def _rref(matrix):
    m = [[Fraction(x) for x in row] for row in matrix]
    if not m:
        return m, []
    rows, cols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(cols):
        pr = None
        for i in range(r, rows):
            if m[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def _solve_restricted(rows, rhs, support):
    """Unique nonnegative solution of the system restricted to ``support``
    columns, or None (inconsistent, underdetermined, or not positive)."""
    aug = [[rows[r][k] for k in support] + [rhs[r]] for r in range(len(rows))]
    red, pivots = _rref(aug)
    ncols = len(support)
    if ncols in pivots:
        return None  # inconsistent
    if len(pivots) < ncols:
        return None  # underdetermined
    sol = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        sol[pc] = red[r][ncols]
    if any(x <= 0 for x in sol):
        return None
    return sol


def oracle_vertices(sizes, marginal_weights):
    """All maximally-zero couplings by full sweep over support subsets.

    Returns the set of weight tuples.  Also verifies, definitionally, that
    no found member's zero set contains another's.
    """
    sizes = tuple(sizes)
    states = list(itertools.product(*(range(s) for s in sizes)))
    n = len(states)
    rows = []
    rhs = []
    for i in range(len(sizes)):
        for coord in range(sizes[i]):
            rows.append([1 if s[i] == coord else 0 for s in states])
            rhs.append(Fraction(marginal_weights[i][coord]))
    positive_rows = [r for r in range(len(rows)) if rhs[r] > 0]
    rank = len(_rref(rows)[1])

    found = {}
    for mask in range(1, 2 ** n):
        support = [k for k in range(n) if mask >> k & 1]
        if len(support) > rank:
            continue
        if any(all(not rows[r][k] for k in support) for r in positive_rows):
            continue
        sol = _solve_restricted(rows, rhs, support)
        if sol is None:
            continue
        weights = [Fraction(0)] * n
        for k, x in zip(support, sol):
            weights[k] = x
        found[tuple(weights)] = frozenset(support)

    supports = list(found.values())
    for a in supports:
        for b in supports:
            if a < b:
                raise AssertionError(
                    "oracle found a member whose zero set strictly contains another's"
                )
    return set(found)


# -- capacity references ---------------------------------------------------
#
# The event sweeps that `check_exactness` and `find_convexity_violation`
# made before they were decided by their theorems, exhaustive only, with
# each capacity the minimum over `oracle_vertices`.


def capacity_table_reference(cs):
    """The capacity of every event of ``cs``, indexed by its mask: the
    minimum over `oracle_vertices` of the weight on the event's states."""
    masses = []
    for v in oracle_vertices(cs.space.subspace_sizes, [m.weights for m in cs.marginals]):
        mass = [Fraction(0)]  # v's mass on each event of the states read so far
        for w in v:
            mass += [x + w for x in mass]
        masses.append(mass)
    return [min(values) for values in zip(*masses)]


def check_exactness_reference(cs):
    """True when the package's capacity of every event equals its
    `capacity_table_reference` value, the full event's is 1 and each
    single-coordinate cylinder's is its marginal weight."""
    from corrpoly import capacity_of

    table = capacity_table_reference(cs)
    value = capacity_of(cs)._mask_value
    if any(value(mask) != v for mask, v in enumerate(table)):
        return False
    states = list(itertools.product(*(range(s) for s in cs.space.subspace_sizes)))
    cylinders = [
        (sum(1 << k for k, s in enumerate(states) if s[i] == c), weight)
        for i, m in enumerate(cs.marginals)
        for c, weight in enumerate(m.weights)
    ]
    return table[-1] == 1 and all(table[mask] == weight for mask, weight in cylinders)


def find_convexity_violation_reference(cs):
    """The first pair of event masks (e, f), e < f, with v(e | f) + v(e & f)
    < v(e) + v(f) by `capacity_table_reference`, or None.  Nested pairs
    satisfy the inequality with equality and are skipped."""
    v = capacity_table_reference(cs)
    for e in range(1, len(v)):
        for f in range(e + 1, len(v)):
            both = e & f
            if both != e and both != f and v[e | f] + v[both] < v[e] + v[f]:
                return e, f
    return None


def frechet_rectangle_value(marginal_weights, sides):
    """The capacity of the rectangle A_1 x ... x A_k, given as one collection
    of state indices per subspace: Fréchet's lower bound
    max(0, sum_i P_i(A_i) - (k - 1)), which some coupling of the marginals
    attains.  Needs no vertex, so it reaches every shape."""
    total = sum(
        Fraction(weights[s]) for weights, side in zip(marginal_weights, sides) for s in side
    )
    return max(Fraction(0), total - (len(marginal_weights) - 1))


def strassen_capacity_value(marginal_weights, states):
    """The capacity of an event E of two subspaces, given as its states
    (i, j), by Strassen's theorem: v(E) = 1 - max p(E^c), where max p(F)
    over the couplings of mu and nu is the maximum flow from a source
    through row i (capacity mu_i) along each (i, j) in F to column j
    (capacity nu_j) to a sink.  The marginals are scaled to integers over
    their common denominator, and the flow is found by shortest augmenting
    paths (Edmonds & Karp 1972) in integers.  Needs no vertex and no LP."""
    mu, nu = (tuple(Fraction(w) for w in weights) for weights in marginal_weights)
    denom = math.lcm(*(w.denominator for w in mu + nu))
    rows = [w.numerator * (denom // w.denominator) for w in mu]
    cols = [w.numerator * (denom // w.denominator) for w in nu]
    in_event = set(map(tuple, states))
    complement = [
        (i, j) for i in range(len(rows)) for j in range(len(cols)) if (i, j) not in in_event
    ]
    return Fraction(denom - _max_flow(rows, cols, complement), denom)


def support_is_forest(sizes, weights):
    """Whether the support of a coupling of two subspaces is a forest: the
    bipartite graph with one node per state of each subspace, and one edge
    (i, j) per state of positive weight (``weights`` row-major over
    ``sizes`` = (m, n)), has no cycle.  Every vertex of a two-subspace
    correlation set, a transportation polytope, has such a support (Klee &
    Witzgall 1968): along a cycle, alternately adding and subtracting a
    small amount keeps the marginals, so the point would lie between two
    couplings.  Reads only which weights are zero; union-find on state
    indices, no arithmetic on the weights."""
    m, n = sizes
    parent = list(range(m + n))

    def root(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for k, w in enumerate(weights):
        if w:
            a, b = root(k // n), root(m + k % n)
            if a == b:
                return False
            parent[a] = b
    return True


def _max_flow(row_caps, col_caps, edges):
    """The value of a maximum flow from a source through row nodes (with
    capacities ``row_caps``) along ``edges`` (row, column) to column nodes
    (with capacities ``col_caps``) to a sink; the edges between rows and
    columns carry up to the total row capacity."""
    n_rows = len(row_caps)
    source, sink = 0, n_rows + len(col_caps) + 1
    cap = [[0] * (sink + 1) for _ in range(sink + 1)]
    for i, c in enumerate(row_caps):
        cap[source][1 + i] = c
    for j, c in enumerate(col_caps):
        cap[1 + n_rows + j][sink] = c
    for i, j in edges:
        cap[1 + i][1 + n_rows + j] = sum(row_caps)
    flow = 0
    while True:
        parent = {source: source}
        queue = [source]
        for u in queue:
            for v in range(sink + 1):
                if v not in parent and cap[u][v] > 0:
                    parent[v] = u
                    queue.append(v)
        if sink not in parent:
            return flow
        path = [sink]
        while path[-1] != source:
            path.append(parent[path[-1]])
        push = min(cap[u][v] for v, u in zip(path, path[1:]))
        for v, u in zip(path, path[1:]):
            cap[u][v] -= push
            cap[v][u] += push
        flow += push


def face_basis_reference(cs, p):
    """The kernel of the marginal system restricted to supp(p), from
    `_rref` in Fractions, one vector per free column, spread to all states."""
    support = [k for k, w in enumerate(p.weights) if w > 0]
    red, pivots = _rref([[row[k] for k in support] for row in cs.system.matrix])
    basis = []
    for fc in (c for c in range(len(support)) if c not in pivots):
        v = [Fraction(0)] * len(support)
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        spread = [Fraction(0)] * len(p.weights)
        for k, x in zip(support, v):
            spread[k] = x
        basis.append(tuple(spread))
    return basis


# -- mutual-information certificate references ----------------------------
#
# The certificate as it was before its ladder moved to integer weights:
# membership re-checked by marginalizing at every rung, each rung a fresh
# `mix`, mutual information summed over exact rationals, every probe point
# built up front.  The package's `certify_local_max_mi` must report exactly
# what this reports.

DECOMPOSITION_TOL = 1e-9
STRICTNESS_SLACK = 1e-12


def contains_reference(cs, p):
    """Membership by marginalizing onto every subspace."""
    from corrpoly.space import marginalize

    return all(
        marginalize(p, [i]).weights == m.weights for i, m in enumerate(cs.marginals)
    )


def kl_divergence_reference(p, q):
    """D(p || q) in bits, each term taken from the exact rationals by
    ``Fraction.__float__`` and summed left to right."""
    import math

    total = 0.0
    for wp, wq in zip(p.weights, q.weights):
        if wp == 0:
            continue
        if wq == 0:
            return math.inf
        total += float(wp) * math.log2(float(wp / wq))
    return total


def entropy_reference(p):
    """Shannon entropy in bits, summed left to right over the Fractions."""
    import math

    total = 0.0
    for w in p.weights:
        if w > 0:
            total += float(w) * math.log2(float(w))
    return -total


def mutual_information_reference(cs, p):
    """D(p || independent product), cross-checked by the entropy decomposition."""
    from corrpoly import NotInCorrelationSetError

    if not contains_reference(cs, p):
        raise NotInCorrelationSetError("distribution does not have the prescribed marginals")
    value = kl_divergence_reference(p, cs.independent_product)
    decomposition = sum(entropy_reference(m) for m in cs.marginals) - entropy_reference(p)
    if abs(value - decomposition) > DECOMPOSITION_TOL:
        raise AssertionError(f"decomposition {decomposition} != divergence {value}")
    return value


def sample_member_reference(cs, rng):
    """`sample_member` with every kernel combination taken in Fractions."""
    resolution = 16
    from corrpoly import JointDistribution

    p_ind = cs.independent_product
    if len(cs.kernel) == 0:
        return p_ind
    coeffs = [Fraction(rng.randint(-resolution, resolution), resolution)
              for _ in range(len(cs.kernel))]
    direction = [Fraction(0)] * cs.space.total_size
    for c, vec in zip(coeffs, cs.kernel.basis_vectors):
        if c != 0:
            for k, x in enumerate(vec):
                direction[k] += c * x
    if all(x == 0 for x in direction):
        return p_ind
    t_max = None
    for w, d in zip(p_ind.weights, direction):
        if d < 0:
            bound = w / -d
            t_max = bound if t_max is None else min(t_max, bound)
    if t_max is None or t_max == 0:
        return p_ind
    t = t_max * Fraction(rng.randint(0, resolution), resolution)
    weights = tuple(w + t * d for w, d in zip(p_ind.weights, direction))
    return JointDistribution(cs.space, weights)


def _max_step_reference(p, direction):
    """Largest t >= 0 with p + t * direction still nonnegative."""
    bound = None
    for w, d in zip(p.weights, direction):
        if d < 0:
            b = w / -d
            bound = b if bound is None else min(bound, b)
    return Fraction(1) if bound is None else bound


def probe_points_reference(cs, p, probes, rng, face):
    """Every probe point of the certificate, built up front in Fractions:
    each sampled member, its reflection through ``p`` whenever one is
    feasible (worked out at vertices too, where none is), and both senses
    of the first face direction.  Members are drawn by
    `sample_member_reference`."""
    from corrpoly import JointDistribution

    points = []

    def push(q):
        if q.weights != p.weights:
            points.append(q)

    for _ in range(probes):
        q = sample_member_reference(cs, rng)
        push(q)
        back = tuple(a - b for a, b in zip(p.weights, q.weights))
        t = _max_step_reference(p, back)
        if t > 0:
            weights = tuple(w + t * d for w, d in zip(p.weights, back))
            push(JointDistribution(p.space, weights))

    for direction in face[:1]:
        for sign in (1, -1):
            d = [sign * x for x in direction]
            t = _max_step_reference(p, d)
            if t > 0:
                weights = tuple(w + t * x for w, x in zip(p.weights, d))
                push(JointDistribution(p.space, weights))
    return points


def certify_local_max_mi_reference(
    cs, p, probes=64, step=Fraction(1, 8), seed=0, max_halvings=20
):
    """The certificate evaluating `mix(p, q, lam)` afresh at every rung,
    toward the eagerly built `probe_points_reference`."""
    import random

    from corrpoly import MutualInformationReport, mix
    from corrpoly.polytope import face_basis

    base = mutual_information_reference(cs, p)
    rng = random.Random(seed)
    step = Fraction(step)
    is_local_max = True
    max_increase = 0.0
    evaluated = 0
    for q in probe_points_reference(cs, p, probes, rng, face_basis(cs, p)):
        evaluated += 1
        decreases_somewhere = False
        lam = step
        run = 0
        for _ in range(max_halvings + 3):
            delta = mutual_information_reference(cs, mix(p, q, lam)) - base
            if delta > max_increase:
                max_increase = delta
            run = run + 1 if delta < -STRICTNESS_SLACK else 0
            if run == 3:
                decreases_somewhere = True
                break
            lam /= 2
        if not decreases_somewhere:
            is_local_max = False
            break
    return MutualInformationReport(
        value=base,
        is_local_max=is_local_max,
        probe_count=evaluated,
        max_observed_increase=max_increase,
    )


# -- independence-axiom references ------------------------------------------
#
# The axiom checkers as they were before they read integer cell tables:
# one Event, cylinder and Act per probe and Fraction expectations for every
# worst-case value.  The package's checkers must report exactly what these
# report.


def conditioned_pair_reference(prior, subspace_index, f_i, g_i, e_minus, outside):
    """Worst-case values of f and g, then of each spliced with ``outside``
    off the cylinder of ``e_minus``."""
    from corrpoly import Act, embed_act, embed_cylinder, meu_value

    space = prior.space
    others = [j for j in range(space.n_subspaces) if j != subspace_index]
    cyl = embed_cylinder(e_minus, space, others)
    filler = Act.constant(space, outside)
    f_full = embed_act(f_i, space, [subspace_index])
    g_full = embed_act(g_i, space, [subspace_index])
    return (
        meu_value(prior, f_full),
        meu_value(prior, g_full),
        meu_value(prior, f_full.splice(cyl, filler)),
        meu_value(prior, g_full.splice(cyl, filler)),
    )


def _flips(values):
    base_f, base_g, cond_f, cond_g = values
    sign = lambda x: (x > 0) - (x < 0)
    return sign(base_f - base_g) != sign(cond_f - cond_g)


def independence_scan_reference(prior, marginals):
    """The first violating tuple of the deterministic scan, or None."""
    from corrpoly import Act, AxiomCounterexample, Event, embed_cylinder, meu_value

    space = prior.space
    n = space.n_subspaces
    for i in range(n):
        size = space.subspace_sizes[i]
        others = [j for j in range(n) if j != i]
        comp_space = space.subspace(others)
        sub_space = space.subspace([i])
        comp_states = list(comp_space.states())
        for r in range(1, size):
            for coords in itertools.combinations(range(size), r):
                e_i = Event.from_states(sub_space, [(c,) for c in coords])
                pi = marginals[i].prob_of(coords)
                cyl_i = embed_cylinder(e_i, space, [i])
                for rr in range(1, len(comp_states) + 1):
                    for chosen in itertools.combinations(comp_states, rr):
                        e_minus = Event.from_states(comp_space, chosen)
                        cyl_minus = embed_cylinder(e_minus, space, others)
                        if prior.is_null(cyl_minus):
                            continue
                        beta = meu_value(prior, Act.bet(space, cyl_minus, 1, 0))
                        alpha = meu_value(prior, Act.bet(space, cyl_i & cyl_minus, 1, 0))
                        if beta == 0:
                            z = (pi + 1) / 2 if pi < 1 else pi / 2
                        elif alpha != pi * beta:
                            z = (alpha / beta + pi) / 2
                        else:
                            continue
                        f_i = Act.bet(sub_space, e_i, 1, 0)
                        g_i = Act.constant(sub_space, z)
                        values = conditioned_pair_reference(
                            prior, i, f_i, g_i, e_minus, Fraction(0)
                        )
                        if not _flips(values):
                            raise AssertionError("constructed tuple does not flip the ranking")
                        return AxiomCounterexample(
                            subspace_index=i,
                            f_i=f_i,
                            g_i=g_i,
                            conditioning_event=e_minus,
                            outside_value=Fraction(0),
                            base_values=(values[0], values[1]),
                            conditioned_values=(values[2], values[3]),
                        )
    return None


def subspace_independence_trials_reference(prior, trials, seed):
    """Yield (trial index, the four worst-case values) for every seeded
    random act tuple whose conditioning cylinder is not null."""
    import random

    from corrpoly import Act, Event, embed_cylinder

    space = prior.space
    n = space.n_subspaces
    rng = random.Random(seed)
    for trial in range(trials):
        i = rng.randrange(n)
        sub_space = space.subspace([i])
        others = [j for j in range(n) if j != i]
        comp_space = space.subspace(others)
        f_i = Act(sub_space, [Fraction(rng.randint(0, 8), 8) for _ in range(sub_space.total_size)])
        g_i = Act(sub_space, [Fraction(rng.randint(0, 8), 8) for _ in range(sub_space.total_size)])
        comp_states = list(comp_space.states())
        chosen = [s for s in comp_states if rng.random() < 0.5]
        if not chosen:
            chosen = [comp_states[rng.randrange(len(comp_states))]]
        e_minus = Event.from_states(comp_space, chosen)
        if prior.is_null(embed_cylinder(e_minus, space, others)):
            continue
        x = Fraction(rng.randint(0, 8), 8)
        yield trial, conditioned_pair_reference(prior, i, f_i, g_i, e_minus, x)


def check_subspace_independence_axiom_reference(prior, trials=10000, seed=0):
    from corrpoly import independent_product

    marginals = prior.shared_marginals()
    p_ind = independent_product(marginals, prior.space)
    if not (len(prior.vertices) == 1 and prior.vertices[0].weights == p_ind.weights):
        counterexample = independence_scan_reference(prior, marginals)
        if counterexample is None:
            raise AssertionError("dependent prior set without a violating tuple")
        return False, counterexample
    for _, values in subspace_independence_trials_reference(prior, trials, seed):
        if _flips(values):
            raise AssertionError("a trial flipped the ranking under the independent product")
    return True, None


def _row_major(state, indices, sizes):
    """The row-major index of ``state`` restricted to ``indices``."""
    k = 0
    for i in indices:
        k = k * sizes[i] + state[i]
    return k


def _subset_masks(n):
    """The nonempty subsets of range(n) as bitmasks, in the order of
    `itertools.combinations`, smallest subsets first."""
    return [
        sum(1 << k for k in combo)
        for r in range(1, n + 1)
        for combo in itertools.combinations(range(n), r)
    ]


def _subset_sums(values):
    """``sums[mask]``: the sum of ``values[k]`` over the bits k of ``mask``."""
    sums = [0] * (1 << len(values))
    for mask in range(1, len(sums)):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + values[low.bit_length() - 1]
    return sums


def product_identity_witness_reference(p, coll, factorization_only):
    """The first event quadruple breaking p(ExF) p(E'xF') = p(ExF') p(E'xF).

    For each member, p is read once as a table of integer numerators over
    one denominator D, a cell per state a of the member's subspaces and b of
    the rest of the union.  An event is a bitmask of such states, and D p(ExF)
    is the table summed over ExF, one row of sums over every F per E, built
    when a quadruple first reads it.  Events are the nonempty state subsets
    in `itertools.combinations` order, smallest first, and the quadruples
    (E, E', F, F') run with F' fastest; with ``factorization_only`` E' and
    F' are the full events.  corrpoly builds only the returned witness."""
    sizes = p.space.subspace_sizes
    denom = math.lcm(*(w.denominator for w in p.weights))
    nums = [w.numerator * (denom // w.denominator) for w in p.weights]
    states = list(itertools.product(*(range(s) for s in sizes)))
    for member in coll.members:
        idx = sorted(member)
        j0 = sorted(coll.union() - member)
        n_a = math.prod(sizes[i] for i in idx)
        n_b = math.prod(sizes[j] for j in j0)
        cells = [[0] * n_b for _ in range(n_a)]
        for state, x in zip(states, nums):
            cells[_row_major(state, idx, sizes)][_row_major(state, j0, sizes)] += x
        column_sums = [_subset_sums(column) for column in zip(*cells)]
        rows = {}

        def row(ea):
            if ea not in rows:
                rows[ea] = _subset_sums([sums[ea] for sums in column_sums])
            return rows[ea]

        a_events, b_events = _subset_masks(n_a), _subset_masks(n_b)
        if factorization_only:
            a2_events, b2_events = [(1 << n_a) - 1], [(1 << n_b) - 1]
        else:
            a2_events, b2_events = a_events, b_events
        for ea in a_events:
            r = row(ea)
            for ea2 in a2_events:
                r2 = row(ea2)
                for eb in b_events:
                    for eb2 in b2_events:
                        lhs = r[eb] * r2[eb2]
                        rhs = r[eb2] * r2[eb]
                        if lhs != rhs:
                            return _product_identity_witness(
                                p, member, idx, j0, (ea, ea2, eb, eb2), lhs, rhs, denom
                            )
    return None


def _product_identity_witness(p, member, idx, j0, masks, lhs, rhs, denom):
    """The `ProductIdentityWitness` of the event bitmasks ``masks`` (E, E',
    F, F') and the products ``lhs`` and ``rhs`` over ``denom ** 2``."""
    from corrpoly import Event, ProductIdentityWitness

    sub_a = p.space.subspace(idx)
    sub_b = p.space.subspace(j0)
    ea, ea2, eb, eb2 = masks
    square = denom * denom
    return ProductIdentityWitness(
        member, Event(sub_a, ea), Event(sub_a, ea2), Event(sub_b, eb), Event(sub_b, eb2),
        Fraction(lhs, square), Fraction(rhs, square),
    )


def check_collection_independence_axiom_reference(p, coll, quad_limit=200000):
    from corrpoly import is_independent_on

    if not is_independent_on(p, coll).holds:
        witness = product_identity_witness_reference(p, coll, factorization_only=True)
        if witness is None:
            witness = product_identity_witness_reference(p, coll, factorization_only=False)
        if witness is None:
            raise AssertionError("dependent distribution without a product-identity witness")
        return False, witness
    total = 0
    for member in coll.members:
        a = 2 ** p.space.subspace([*member]).total_size - 1
        b = 2 ** p.space.subspace(sorted(coll.union() - member)).total_size - 1
        total += a * a * b * b
    if product_identity_witness_reference(p, coll, total > quad_limit) is not None:
        raise AssertionError("independent distribution broke the product identity")
    return True, None


def is_independent_on_reference(p, coll):
    """The package's earlier element-wise test: each cell rebuilt as a
    state of the union, coordinate by coordinate, and read with `prob`."""
    from corrpoly import IndependenceVerdict, marginalize

    union = sorted(coll.union())
    joint_on_union = marginalize(p, union)
    member_marginals = [marginalize(p, sorted(m)) for m in coll.members]
    subs = [sorted(m) for m in coll.members]
    pos_in_union = {i: k for k, i in enumerate(union)}
    ranges = [
        itertools.product(*(range(p.space.subspace_sizes[i]) for i in idx)) for idx in subs
    ]
    witness = None
    max_defect = Fraction(0)
    for combo in itertools.product(*ranges):
        key = [0] * len(union)
        for idx, coords in zip(subs, combo):
            for i, c in zip(idx, coords):
                key[pos_in_union[i]] = c
        lhs = joint_on_union.prob(tuple(key))
        rhs = Fraction(1)
        for mdist, coords in zip(member_marginals, combo):
            rhs *= mdist.prob(coords)
        defect = abs(lhs - rhs)
        if defect > max_defect:
            max_defect = defect
        if defect != 0 and witness is None:
            witness = combo
    return IndependenceVerdict(coll, witness is None, witness, max_defect)


# --- the package's earlier Fraction simplex, kept as the LP reference -------


class _FractionTableau:
    def __init__(self, rows, rhs, basis, width):
        self.rows = [list(row) for row in rows]
        self.rhs = list(rhs)
        self.basis = list(basis)
        self.m = len(self.rows)
        self.n = width

    def pivot(self, row, col):
        inv = 1 / self.rows[row][col]
        self.rows[row] = [a * inv for a in self.rows[row]]
        self.rhs[row] *= inv
        for r in range(self.m):
            if r != row and self.rows[r][col] != 0:
                f = self.rows[r][col]
                prow = self.rows[row]
                self.rows[r] = [a - f * b for a, b in zip(self.rows[r], prow)]
                self.rhs[r] -= f * self.rhs[row]
        self.basis[row] = col

    def reduced_costs(self, cost):
        red = list(cost)
        for r, bv in enumerate(self.basis):
            if cost[bv] != 0:
                for j in range(self.n):
                    red[j] -= cost[bv] * self.rows[r][j]
        return red

    def run_simplex(self, cost, allowed):
        from corrpoly import UnboundedError

        while True:
            red = self.reduced_costs(cost)
            entering = next((j for j in range(self.n) if allowed[j] and red[j] < 0), None)
            if entering is None:
                return
            leaving = best = None
            for r in range(self.m):
                a = self.rows[r][entering]
                if a > 0:
                    ratio = self.rhs[r] / a
                    if best is None or ratio < best or (
                        ratio == best and self.basis[r] < self.basis[leaving]
                    ):
                        best, leaving = ratio, r
            if leaving is None:
                raise UnboundedError("objective is unbounded below")
            self.pivot(leaving, entering)


def feasible_start_reference(program):
    """Phase 1 on Fractions: (rows B^-1 [A' | I], rhs B^-1 b', basis,
    width, flipped), as the package's `FeasibleStart` holds them once each
    integer row is divided by its basic entry."""
    from corrpoly import InfeasibleError

    n, m = len(program.objective), len(program.eq_rhs)
    flipped = tuple(b < 0 for b in program.eq_rhs)
    rows = [
        [-a if flip else a for a in row] + [Fraction(int(i == r)) for i in range(m)]
        for r, (row, flip) in enumerate(zip(program.eq_matrix, flipped))
    ]
    rhs = [-b if flip else b for b, flip in zip(program.eq_rhs, flipped)]
    tab = _FractionTableau(rows, rhs, range(n, n + m), n + m)
    phase1_cost = [Fraction(0)] * n + [Fraction(1)] * m
    tab.run_simplex(phase1_cost, [True] * tab.n)
    if sum(phase1_cost[bv] * tab.rhs[r] for r, bv in enumerate(tab.basis)) != 0:
        raise InfeasibleError("equality constraints admit no nonnegative solution")
    for r in range(tab.m - 1, -1, -1):
        if tab.basis[r] >= n:
            col = next((j for j in range(n) if tab.rows[r][j] != 0), None)
            if col is None:
                del tab.rows[r], tab.rhs[r], tab.basis[r]
                tab.m -= 1
            else:
                tab.pivot(r, col)
    return (
        tuple(map(tuple, tab.rows)), tuple(tab.rhs), tuple(tab.basis), tab.n, flipped
    )


def solve_lp_min_reference(program):
    """Phase 2 on Fractions from `feasible_start_reference`, the dual read
    from the artificial columns, and the certificate checked over
    Fractions; returns the package's `LPSolution`."""
    from corrpoly import LPSolution

    rows, rhs, basis, width, flipped = feasible_start_reference(program)
    n, m = len(program.objective), len(program.eq_rhs)
    tab = _FractionTableau(rows, rhs, basis, width)
    cost = list(program.objective) + [Fraction(0)] * m
    tab.run_simplex(cost, [j < n for j in range(tab.n)])
    x = [Fraction(0)] * n
    y = [Fraction(0)] * m
    for r, bv in enumerate(tab.basis):
        x[bv] = tab.rhs[r]
        for i in range(m):
            y[i] += cost[bv] * tab.rows[r][n + i]
    y = [-v if flip else v for v, flip in zip(y, flipped)]
    optimum = sum((c * v for c, v in zip(program.objective, x)), Fraction(0))
    matrix = program.eq_matrix
    assert all(v >= 0 for v in x)
    assert all(sum(a * v for a, v in zip(row, x)) == b for row, b in zip(matrix, program.eq_rhs))
    assert all(
        sum((row[j] * yi for row, yi in zip(matrix, y)), Fraction(0)) <= c
        for j, c in enumerate(program.objective)
    )
    assert sum((b * yi for b, yi in zip(program.eq_rhs, y)), Fraction(0)) == optimum
    return LPSolution(optimum, tuple(x), tuple(y))


# --- the package's earlier expression reader, kept as the scenario reference -

# `parse_expr` as it was before it summed its terms in integers: one
# `Fraction` per term and per sign, and `parse_rational` on every rational.
# The package's reader must return an equal `LinExpr`, or raise a
# `ScenarioError` with the same message and line, on every token.

_RATIONAL_RE_REFERENCE = re.compile(r"-?[0-9]+(/[0-9]+)?")
_NAME_RE_REFERENCE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def parse_rational_reference(token, line=None):
    from corrpoly import ScenarioError

    if not _RATIONAL_RE_REFERENCE.fullmatch(token):
        raise ScenarioError(f"not an exact rational: {token!r}", line)
    num, _, den = token.partition("/")
    try:
        num, den = int(num), int(den or 1)
    except ValueError:  # longer than int()'s digit limit
        raise ScenarioError(f"too many digits in rational {token[:20]}...", line) from None
    if den == 0:
        raise ScenarioError(f"zero denominator in {token!r}", line)
    return Fraction(num, den)


def parse_expr_reference(text, line=None):
    """Parse a rational-linear expression like ``1/6+a``, ``1/2-a`` or ``2*a``."""
    from corrpoly import ScenarioError
    from corrpoly.scenario import LinExpr

    s = text.strip()
    if not s:
        raise ScenarioError("empty expression", line)
    terms = re.findall(r"[+-]?[^+-]+", s)
    if "".join(terms) != s:
        raise ScenarioError(f"stray sign in expression {s!r}", line)
    const = Fraction(0)
    coeff = Fraction(0)
    param = None
    for term in terms:
        term = term.strip()
        sign = Fraction(1)
        if term.startswith("+"):
            term = term[1:].strip()
        elif term.startswith("-"):
            sign = Fraction(-1)
            term = term[1:].strip()
        if "*" in term:
            mag, name = (t.strip() for t in term.split("*", 1))
            if not _NAME_RE_REFERENCE.fullmatch(name):
                raise ScenarioError(f"bad parameter name {name!r}", line)
        elif _NAME_RE_REFERENCE.fullmatch(term):
            mag, name = "1", term
        else:
            const += sign * parse_rational_reference(term, line)
            continue
        if param is not None and param != name:
            raise ScenarioError("at most one parameter per expression", line)
        param = name
        coeff += sign * parse_rational_reference(mag, line)
    if coeff == 0:
        param = None
    return LinExpr(const, coeff, param)
