"""The correlation set: all couplings of given marginals on a product space.

The set is cut out by one linear marginal constraint per subspace element
plus nonnegativity, so it is a convex polytope containing the independent
product.  This module builds the constraint system, a rectangle-shift basis
of its homogeneous kernel, the polytope dimension (closed form cross-checked
against an exact rank computation), and the extreme points via support
pattern search.  It alone decides "is p a vertex": `restricted_rows` is the
one restriction of the marginal system to a set of states, and
`face_basis(cs, p)`, the kernel of those rows on supp(p), is empty exactly
when p is a vertex.  `is_maximally_zero` and the MI verdict in `info` read it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import linalg
from .errors import CorrpolyError, GuardExceededError, ConsistencyError, NotInCorrelationSetError
from .space import (
    JointDistribution,
    Marginal,
    ProductSpace,
    independent_product,
    hamming_distance,
    require_same_space,
    sorted_marginals,
)


@dataclass(frozen=True)
class MarginalSystem:
    """The 0/1 equation system ``M p = rhs`` whose solutions in the simplex
    are exactly the couplings with the prescribed marginals.

    Row ``(i, w_i)`` has ones at the states of the cylinder fixing
    coordinate ``i`` to ``w_i``; its right-hand side is the marginal weight.
    """

    space: ProductSpace
    marginals: tuple[Marginal, ...]
    matrix: tuple[tuple[int, ...], ...]
    rhs: tuple[Fraction, ...]


def build_marginal_system(space: ProductSpace, marginals: Sequence[Marginal]) -> MarginalSystem:
    ms = sorted_marginals(space, marginals)
    rows = []
    rhs = []
    for i in range(space.n_subspaces):
        proj = space.project([i])
        for coord in range(space.subspace_sizes[i]):
            rows.append(tuple(1 if c == coord else 0 for c in proj))
            rhs.append(ms[i].weights[coord])
    return MarginalSystem(space, ms, tuple(rows), tuple(rhs))


@dataclass(frozen=True)
class KernelBasis:
    """A basis of the homogeneous system's solution space: mass shifts that
    leave every marginal unchanged.  Entries are the integers 0, 1 and -1;
    ``len`` is the number of vectors."""

    basis_vectors: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.basis_vectors)


def dimension_formula(subspace_sizes: Sequence[int]) -> int:
    total = 1
    for s in subspace_sizes:
        total *= s
    return total - 1 - sum(s - 1 for s in subspace_sizes)


def kernel_basis_rectangles(space: ProductSpace) -> KernelBasis:
    """Rectangle-shift kernel basis anchored at the zero state.

    For every state at Hamming distance >= 2 from the anchor, pick its two
    smallest coordinates disagreeing with the anchor and shift one unit of
    mass around the axis-aligned rectangle they span: +1 on the state and on
    the opposite corner, -1 on the two adjacent corners.  Each shift cancels
    in every marginal, the vectors are triangular with respect to Hamming
    distance (hence independent), and their count equals the polytope
    dimension, so they form a basis.
    """
    anchor = (0,) * space.n_subspaces
    n = space.total_size
    vectors = []
    for state in space.states():
        if hamming_distance(state, anchor) < 2:
            continue
        i, j = [k for k in range(space.n_subspaces) if state[k] != anchor[k]][:2]
        corner_i = list(state)
        corner_i[i] = anchor[i]
        corner_j = list(state)
        corner_j[j] = anchor[j]
        corner_ij = list(state)
        corner_ij[i] = anchor[i]
        corner_ij[j] = anchor[j]
        v = [0] * n
        v[space.ravel(state)] += 1
        v[space.ravel(tuple(corner_ij))] += 1
        v[space.ravel(tuple(corner_i))] -= 1
        v[space.ravel(tuple(corner_j))] -= 1
        vectors.append(tuple(v))
    expected = dimension_formula(space.subspace_sizes)
    if len(vectors) != expected:
        raise ConsistencyError(
            f"rectangle basis has {len(vectors)} vectors, expected {expected}",
            shape=space.subspace_sizes,
        )
    return KernelBasis(tuple(vectors))


class CorrelationSet:
    """All couplings of the given marginals, with lazy vertex enumeration."""

    def __init__(self, space: ProductSpace, marginals: Sequence[Marginal]):
        self.space = space
        self.system = build_marginal_system(space, marginals)
        self.marginals = self.system.marginals
        self.kernel = kernel_basis_rectangles(space)
        self._independent_product: Optional[JointDistribution] = None
        self._independent_numerators: Optional[tuple[tuple[int, ...], int]] = None
        self._vertices: Optional[tuple[JointDistribution, ...]] = None
        self._rows: Optional[tuple[tuple[list[int], int, int], ...]] = None
        self._capacity = None  # attached by corrpoly.capacity

    @property
    def independent_product(self) -> JointDistribution:
        if self._independent_product is None:
            self._independent_product = independent_product(self.marginals, self.space)
        return self._independent_product

    @property
    def independent_numerators(self) -> tuple[tuple[int, ...], int]:
        """The independent product's integer weights over their common
        denominator (`linalg.integer_numerators`), computed once."""
        if self._independent_numerators is None:
            nums, denom = linalg.integer_numerators(self.independent_product.weights)
            self._independent_numerators = (tuple(nums), denom)
        return self._independent_numerators

    def contains(self, p: JointDistribution) -> bool:
        """Whether ``p`` has the prescribed marginals (`require_member`)."""
        try:
            self.require_member(p)
        except NotInCorrelationSetError:
            return False
        return True

    def require_member(self, p: JointDistribution, what: str = "distribution"):
        """The one membership check: NotInCorrelationSetError naming ``what``
        unless each row of the marginal system, summed over the integer
        weights of ``p`` on their common denominator, equals its right-hand
        side.  Returns those weights and the denominator."""
        require_same_space(p.space, self.space, "distribution")
        if self._rows is None:
            self._rows = tuple(
                ([k for k, x in enumerate(row) if x], b.numerator, b.denominator)
                for row, b in zip(self.system.matrix, self.system.rhs)
            )
        nums, denom = linalg.integer_numerators(p.weights)
        if not all(
            sum(nums[k] for k in states) * b_den == b_num * denom
            for states, b_num, b_den in self._rows
        ):
            raise NotInCorrelationSetError(f"{what} does not have the prescribed marginals")
        return nums, denom

    def vertices(self, guard: int = 4096) -> tuple[JointDistribution, ...]:
        """The extreme points, enumerated once and cached.  ``guard`` is
        checked on every call: over it, the enumeration raises before it runs."""
        linalg.require_count(guard, "guard", 0)
        if self._vertices is None or self.space.total_size > guard:
            self._vertices = tuple(enumerate_extreme_points(self, guard=guard))
        return self._vertices

    def reproducer(self) -> dict:
        """The inputs that rebuild this set, as `ConsistencyError` context."""
        return {
            "shape": self.space.subspace_sizes,
            "marginals": [[str(w) for w in m.weights] for m in self.marginals],
        }


def build_correlation_set(space: ProductSpace, marginals: Sequence[Marginal]) -> CorrelationSet:
    return CorrelationSet(space, marginals)


def contains(cs: CorrelationSet, p: JointDistribution) -> bool:
    return cs.contains(p)


def reduced_sizes(cs: CorrelationSet) -> tuple[int, ...]:
    """Subspace sizes after discarding zero-weight marginal states."""
    return tuple(sum(1 for w in m.weights if w > 0) for m in cs.marginals)


def restricted_rows(cs: CorrelationSet, columns: Sequence[int]) -> list[list[int]]:
    """The marginal system's rows on the given flat state indices, in order."""
    return [[row[k] for k in columns] for row in cs.system.matrix]


def dimension(cs: CorrelationSet) -> int:
    """Dimension of the correlation set: closed form, cross-checked by rank.

    The closed form is total states minus one minus the marginal degrees of
    freedom, independent of the marginal values.  Zero-weight marginal states
    force zero mass on their cylinders, so the dimension is that of the
    reduced shape.  Disagreement between formula and exact rank is a hard
    internal failure.
    """
    closed = dimension_formula(reduced_sizes(cs))
    positive_cols = positive_state_columns(cs)
    rank_based = len(positive_cols) - linalg.rank(restricted_rows(cs, positive_cols))
    if closed != rank_based:
        raise ConsistencyError(
            f"dimension formula {closed} != rank computation {rank_based}", **cs.reproducer()
        )
    return closed


def positive_state_columns(cs: CorrelationSet) -> list[int]:
    """Flat indices of the states whose every coordinate has positive
    marginal weight: the only states a member of ``cs`` can charge."""
    cols = []
    for k, state in enumerate(cs.space.states()):
        if all(cs.marginals[i].weights[c] > 0 for i, c in enumerate(state)):
            cols.append(k)
    return cols


def enumerate_extreme_points(
    cs: CorrelationSet, guard: int = 4096
) -> list[JointDistribution]:
    """All extreme points, by pruned search over support patterns.

    A support can only carry a vertex if it covers every positive marginal
    row and its columns are linearly independent (otherwise the restricted
    system cannot have a unique solution).  The search walks candidate states
    in flat order, eliminating each accepted column incrementally with
    `linalg`'s elimination step (each pivot kept as its nonzero rows) and
    cutting off any branch that goes linearly dependent; at every fully covering
    node it solves the restricted system and keeps strictly positive
    solutions.  Independent columns make a solution unique, so a positive
    one has exactly its support and no vertex is found twice.  Output is
    sorted lexicographically by the exact weight vectors.
    """
    linalg.require_count(guard, "guard", 0)
    n = cs.space.total_size
    if n > guard:
        raise GuardExceededError(f"support enumeration guarded at {guard} states, space has {n}")
    matrix = cs.system.matrix
    rhs = cs.system.rhs
    n_rows = len(matrix)
    candidates = positive_state_columns(cs)
    required_mask = 0
    for r in range(n_rows):
        if rhs[r] > 0:
            required_mask |= 1 << r
    col_mask = {}
    col_vec = {}
    for k in candidates:
        mask = 0
        for r in range(n_rows):
            if matrix[r][k]:
                mask |= 1 << r
        col_mask[k] = mask
        col_vec[k] = [matrix[r][k] for r in range(n_rows)]

    found: list[tuple[Fraction, ...]] = []

    def solve_support(support: tuple[int, ...]) -> None:
        res = linalg.solve_affine(restricted_rows(cs, support), rhs)
        if res is None or any(x <= 0 for x in res[0]):
            return
        weights = [Fraction(0)] * n
        for k, x in zip(support, res[0]):
            weights[k] = x
        found.append(tuple(weights))

    def reduce_column(vec: list[Fraction | int], pivots: list[tuple[int, linalg.Pivot]]):
        v = list(vec)
        for pr, pivot in pivots:
            linalg._eliminate(v, pr, pivot)
        return v

    suffix_mask = [0] * (len(candidates) + 1)
    for pos in range(len(candidates) - 1, -1, -1):
        suffix_mask[pos] = suffix_mask[pos + 1] | col_mask[candidates[pos]]

    def recurse(start: int, support: tuple[int, ...], mask: int,
                pivots: list[tuple[int, linalg.Pivot]]) -> None:
        if mask == required_mask and support:
            solve_support(support)
        for pos in range(start, len(candidates)):
            if (mask | suffix_mask[pos]) != required_mask:
                return  # remaining candidates cannot cover the missing rows
            k = candidates[pos]
            v = reduce_column(col_vec[k], pivots)
            pr = next((r for r in range(n_rows) if v[r]), None)
            if pr is None:
                continue  # dependent column: no superset can be uniquely solvable
            pivot = linalg._pivot_entries(v, pr)
            recurse(pos + 1, support + (k,), mask | col_mask[k], pivots + [(pr, pivot)])

    recurse(0, (), 0, [])
    del recurse  # it refers to itself: a cycle that would keep cs alive until a collection
    return [JointDistribution(cs.space, key) for key in sorted(found)]


def face_basis(cs: CorrelationSet, p: JointDistribution) -> list[tuple[Fraction, ...]]:
    """The directions along which the member ``p`` moves inside its face: a
    kernel basis of `restricted_rows` on supp(p), as vectors on all states.
    Empty exactly when ``p`` is a vertex.  The caller checks membership."""
    support = [k for k, w in enumerate(p.weights) if w > 0]
    basis = []
    for v in linalg.nullspace(restricted_rows(cs, support)):
        on_support = iter(v)
        basis.append(tuple(next(on_support) if w > 0 else Fraction(0) for w in p.weights))
    return basis


def is_maximally_zero(cs: CorrelationSet, p: JointDistribution) -> bool:
    """True iff no other coupling vanishes on every state where ``p`` does,
    i.e. the marginal system restricted to the support of ``p`` has a unique
    solution (which is then ``p`` itself): ``p`` is a vertex."""
    cs.require_member(p)
    return not face_basis(cs, p)


def decompose(cs: CorrelationSet, p: JointDistribution):
    """Split ``p`` into the independent product plus a marginal-free mass shift."""
    cs.require_member(p)
    p_ind = cs.independent_product
    shift = tuple(a - b for a, b in zip(p.weights, p_ind.weights))
    if any(x != 0 for x in linalg.mat_vec(cs.system.matrix, shift)):
        raise ConsistencyError(
            "decomposition shift is not in the homogeneous kernel",
            **cs.reproducer(),
            weights=[str(w) for w in p.weights],
        )
    return p_ind, shift


# the grid of `sample_member`'s kernel coefficients and step fractions
_RESOLUTION = 16


def sample_member(cs: CorrelationSet, rng: random.Random) -> JointDistribution:
    """A random coupling: a kernel perturbation of the independent product,
    scaled back to feasibility.  Exact rationals; deterministic given ``rng``.

    The direction is an integer combination of the rectangle kernel (the
    draws divided by ``_RESOLUTION``); the step is a random multiple
    ``u / _RESOLUTION`` of the largest feasible one, found by comparing
    the integer weights of the product over their common denominator."""
    p_ind = cs.independent_product
    if len(cs.kernel) == 0:
        return p_ind
    coeffs = [rng.randint(-_RESOLUTION, _RESOLUTION) for _ in range(len(cs.kernel))]
    direction = [0] * cs.space.total_size
    for c, vec in zip(coeffs, cs.kernel.basis_vectors):
        if c:
            for k, x in enumerate(vec):
                if x:
                    direction[k] += c * x
    if not any(direction):
        return p_ind
    ind, denom = cs.independent_numerators
    # the largest feasible step is _RESOLUTION * (num / den) / denom
    num = den = None
    for w, d in zip(ind, direction):
        if d < 0 and (num is None or w * den < num * -d):
            num, den = w, -d
    if num is None or num == 0:
        return p_ind
    u = rng.randint(0, _RESOLUTION)
    scale = den * _RESOLUTION
    return JointDistribution(cs.space, tuple(
        Fraction(w * scale + num * u * d, scale * denom) for w, d in zip(ind, direction)
    ))


def mix(p: JointDistribution, q: JointDistribution, lam: Fraction) -> JointDistribution:
    """The convex combination (1-lam) p + lam q, exactly."""
    require_same_space(q.space, p.space, "distribution")
    (lam,) = linalg.fraction_tuple((lam,))
    if not 0 <= lam <= 1:
        raise CorrpolyError("mixing weight must lie in [0, 1]")
    weights = tuple((1 - lam) * a + lam * b for a, b in zip(p.weights, q.weights))
    return JointDistribution(p.space, weights)
