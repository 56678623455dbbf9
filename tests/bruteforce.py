"""Independent brute-force oracles for the test suite.

Deliberately separate from the package implementation: its own row
reduction, no pruning beyond what the mathematics forces (a support must
cover every positive marginal row, and a uniquely solvable support cannot
exceed the system rank).  Used to freeze expected values and to cross-check
the production enumeration path.  The mutual-information references at the
end keep the package's earlier Fraction-based membership test, sampler and
per-step certificate, which the integer versions must match exactly.
"""

from __future__ import annotations

import itertools
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


# -- mutual-information certificate references ----------------------------
#
# The certificate as it was before its ladder moved to integer weights:
# membership re-checked by marginalizing at every rung, each rung a fresh
# `mix`, mutual information summed over exact rationals.  The package's
# `certify_local_max_mi` must report exactly what this reports.

DECOMPOSITION_TOL = 1e-9
STRICTNESS_SLACK = 1e-12


def contains_reference(cs, p):
    """Membership by marginalizing onto every subspace."""
    from corrpoly.space import marginalize

    return all(
        marginalize(p, [i]).weights == m.weights for i, m in enumerate(cs.marginals)
    )


def mutual_information_reference(cs, p):
    """D(p || independent product), cross-checked by the entropy decomposition."""
    from corrpoly import NotInCorrelationSetError, entropy, kl_divergence
    from corrpoly.info import marginal_entropy

    if not contains_reference(cs, p):
        raise NotInCorrelationSetError("distribution does not have the prescribed marginals")
    value = kl_divergence(p, cs.independent_product)
    decomposition = sum(marginal_entropy(m) for m in cs.marginals) - entropy(p)
    if abs(value - decomposition) > DECOMPOSITION_TOL:
        raise AssertionError(f"decomposition {decomposition} != divergence {value}")
    return value


def sample_member_reference(cs, rng, resolution=16):
    """`sample_member` with every kernel combination taken in Fractions."""
    from corrpoly import JointDistribution

    p_ind = cs.independent_product
    if cs.kernel.dim == 0:
        return p_ind
    coeffs = [Fraction(rng.randint(-resolution, resolution), resolution)
              for _ in range(cs.kernel.dim)]
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


def certify_local_max_mi_reference(
    cs, p, probes=64, step=Fraction(1, 8), seed=0, max_halvings=20
):
    """The certificate evaluating `mix(p, q, lam)` afresh at every rung."""
    import random

    from corrpoly import MutualInformationReport, mix
    from corrpoly.info import _probe_points

    base = mutual_information_reference(cs, p)
    rng = random.Random(seed)
    step = Fraction(step)
    is_local_max = True
    max_increase = 0.0
    evaluated = 0
    for q in _probe_points(cs, p, probes, rng):
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
