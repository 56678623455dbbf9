"""The correlation set: all couplings of given marginals on a product space.

The set is cut out by one linear marginal constraint per subspace element
plus nonnegativity, so it is a convex polytope containing the independent
product.  This module builds the constraint system, a rectangle-shift basis
of its homogeneous kernel, the polytope dimension (closed form cross-checked
against an exact rank computation), and the extreme points via support
pattern search.  It alone decides "is p a vertex": `restricted_rows` is the
one restriction of the marginal system to a set of states, and the kernel
of those rows on supp(p) is empty exactly when p is a vertex.
`is_maximally_zero` and the MI verdict in `info` read that kernel in
integers (`_face_directions`); `face_basis(cs, p)` is its Fraction view.

The exact eliminations (the vertex search's column reductions and
per-support solves, the ranks behind `dimension` and
`independence.restricted_dimension`, the face kernel) read only a basis of
the marginal rows, `_basis_rows`: every row of the first subspace and all
but the last row of each later one, Σnᵢ - k + 1 of the Σnᵢ rows.  Each
subspace's rows sum to the all-ones row and its weights to 1, so each row
left out, right-hand side included, is implied by the kept ones: ranks,
kernels, solutions and rrefs are those of all rows.  The membership check
(`require_numerators`) and the capacity LP (which drops redundant rows in
its own phase 1) still read every row.

A set and its vertex list cost what they hold.  Structure that depends only
on the shape (the 0/1 marginal matrix, the indices of its basis rows, the
rectangle kernel basis, its vectors' four corners and each row's state
list) is built once per shape, under a small fixed-size
`functools.lru_cache` keyed on the subspace sizes, and shared by every set
of that shape; the cache holds integer tuples (and the `KernelBasis` that
wraps some), no set and no space.
The vertices of one enumeration share their weight objects: one `Fraction`
per distinct value, and one zero for all.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction
from typing import Optional, Sequence

from . import linalg
from ._value import FrozenValue, record
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


# the weight of every zero state of an enumerated vertex
_ZERO = Fraction(0)


@record
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


# shapes whose shape-only structure is kept; a fixed size, not a setting
_SHAPE_CACHE_SIZE = 32


@functools.lru_cache(maxsize=_SHAPE_CACHE_SIZE)
def _marginal_rows(sizes: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The 0/1 marginal matrix of a shape, row ``(i, w_i)`` in subspace and
    coordinate order: built once per shape and shared by its sets."""
    space = ProductSpace(sizes)
    rows = []
    for i in range(space.n_subspaces):
        proj = space.project([i])
        for coord in range(sizes[i]):
            rows.append(tuple(1 if c == coord else 0 for c in proj))
    return tuple(rows)


@functools.lru_cache(maxsize=_SHAPE_CACHE_SIZE)
def _basis_rows(sizes: tuple[int, ...]) -> tuple[int, ...]:
    """The indices of a basis of the rows of `_marginal_rows`: every row of
    the first subspace and all but the last row of each later one.  The
    rows of any subspace sum to the all-ones row, so a later subspace's
    last row is the first subspace's rows summed minus its own other rows;
    its marginal weights sum to 1 as the first's do, so the right-hand
    sides obey the same identity.  The kept rows are independent (each
    later subspace adds its first n - 1 cylinders) and span every row."""
    kept: list[int] = []
    start = 0
    for i, size in enumerate(sizes):
        kept.extend(range(start, start + size - (i > 0)))
        start += size
    return tuple(kept)


@functools.lru_cache(maxsize=_SHAPE_CACHE_SIZE)
def _row_states(sizes: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Each row of `_marginal_rows` as the flat indices of its ones."""
    return tuple(tuple(k for k, x in enumerate(row) if x) for row in _marginal_rows(sizes))


def build_marginal_system(space: ProductSpace, marginals: Sequence[Marginal]) -> MarginalSystem:
    ms = sorted_marginals(space, marginals)
    rhs = tuple(w for m in ms for w in m.weights)
    return MarginalSystem(space, ms, _marginal_rows(space.subspace_sizes), rhs)


class KernelBasis(FrozenValue):
    """A basis of the homogeneous system's solution space: mass shifts that
    leave every marginal unchanged.  Entries are the integers 0, 1 and -1;
    ``len`` is the number of vectors."""

    basis_vectors: tuple[tuple[int, ...], ...]

    def __init__(self, basis_vectors: tuple[tuple[int, ...], ...]):
        self._set(basis_vectors)

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
    dimension, so they form a basis.  The basis is built once per shape
    (`_rectangle_basis`); its count is checked against `dimension_formula`
    on every call.
    """
    basis = _rectangle_basis(space.subspace_sizes)
    expected = dimension_formula(space.subspace_sizes)
    if len(basis) != expected:
        raise ConsistencyError(
            f"rectangle basis has {len(basis)} vectors, expected {expected}",
            shape=space.subspace_sizes,
        )
    return basis


@functools.lru_cache(maxsize=_SHAPE_CACHE_SIZE)
def _rectangle_basis(sizes: tuple[int, ...]) -> KernelBasis:
    space = ProductSpace(sizes)
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
    return KernelBasis(tuple(vectors))


@functools.lru_cache(maxsize=_SHAPE_CACHE_SIZE)
def _rectangle_corners(sizes: tuple[int, ...]) -> tuple[tuple[int, int, int, int], ...]:
    """Each vector of `_rectangle_basis` in sparse form: the flat indices of
    its two +1 states, then of its two -1 states.  Built once per shape."""
    return tuple(
        tuple([k for k, x in enumerate(v) if x > 0] + [k for k, x in enumerate(v) if x < 0])
        for v in _rectangle_basis(sizes).basis_vectors
    )


class CorrelationSet:
    """All couplings of the given marginals, with lazy vertex enumeration.

    A set holds only what depends on its marginals: the right-hand side of
    its `MarginalSystem` (and, once `require_member` has run, as integer
    pairs), its vertices and the caches of its product.  The 0/1 matrix,
    the rectangle `KernelBasis` and the rows' state lists that
    `require_member` sums are built once per shape and shared by every set
    of that shape."""

    def __init__(self, space: ProductSpace, marginals: Sequence[Marginal]):
        self.space = space
        self.system = build_marginal_system(space, marginals)
        self.marginals = self.system.marginals
        self.kernel = kernel_basis_rectangles(space)
        self._vertices: Optional[tuple[JointDistribution, ...]] = None
        self._capacity = None  # attached by corrpoly.capacity

    @functools.cached_property
    def independent_product(self) -> JointDistribution:
        return independent_product(self.marginals, self.space)

    @functools.cached_property
    def independent_numerators(self) -> tuple[tuple[int, ...], int]:
        """The independent product's integer weights over their common
        denominator (`linalg.integer_numerators`), computed once."""
        nums, denom = linalg.integer_numerators(self.independent_product.weights)
        return tuple(nums), denom

    @functools.cached_property
    def _rows(self) -> tuple[tuple[tuple[int, ...], int, int], ...]:
        """The shape's state lists, one per row of the marginal system, with
        this set's right-hand side as integer pairs."""
        return tuple(
            (states, b.numerator, b.denominator)
            for states, b in zip(_row_states(self.space.subspace_sizes), self.system.rhs)
        )

    def contains(self, p: JointDistribution) -> bool:
        """Whether ``p`` has the prescribed marginals (`require_member`)."""
        try:
            self.require_member(p)
        except NotInCorrelationSetError:
            return False
        return True

    def require_member(self, p: JointDistribution, what: str = "distribution"):
        """The membership check of a distribution: ``p``'s weights scaled
        once to integers over their common denominator, then
        `require_numerators`.  Returns those weights and the denominator."""
        require_same_space(p.space, self.space, "distribution")
        return self.require_numerators(*linalg.integer_numerators(p.weights), what)

    def require_numerators(self, nums, denom: int, what: str = "distribution"):
        """The one membership check, in integers: NotInCorrelationSetError
        naming ``what`` unless the weights ``nums / denom`` (``denom`` > 0,
        one weight per state) are nonnegative and each row of the marginal
        system, summed over them, equals its right-hand side.  The rows of
        a subspace cover every state once, so the weights then sum to 1.
        Returns ``nums`` and ``denom``."""
        if min(nums, default=0) < 0:
            raise NotInCorrelationSetError(f"{what} has a negative weight")
        get = nums.__getitem__
        if not all(
            sum(map(get, states)) * b_den == b_num * denom
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
    """The marginal system's basis rows (`_basis_rows`) on the given flat
    state indices, in order.  The rows left out are sums and differences of
    the kept ones, so the restriction has the row space, hence the rank,
    kernel and rref, of all rows on those states, with k - 1 fewer rows
    for k subspaces.  Membership (`require_numerators`) and the capacity
    LP still read every row."""
    matrix = cs.system.matrix
    rows = [matrix[r] for r in _basis_rows(cs.space.subspace_sizes)]
    return [[row[k] for k in columns] for row in rows]


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
    cutting off any branch that goes linearly dependent; at every fully
    covering node it reduces the restricted system's augmented rows once
    (`linalg._reduce`), reads the solution off the reduced rhs column and
    keeps strictly positive solutions.  Column vectors and augmented rows
    hold only the basis rows (`_basis_rows`), which decide independence,
    consistency and the solution as all rows would; coverage and its
    pruning read every row, so the search visits the same nodes in the
    same order.  Independent columns make a solution
    unique, so a positive one has exactly its support and no vertex is
    found twice.  Output is sorted lexicographically by the exact weight
    vectors.  The vertices share their weight objects: one `Fraction` per
    distinct value in the list, and `_ZERO` for every zero.
    """
    linalg.require_count(guard, "guard", 0)
    n = cs.space.total_size
    if n > guard:
        raise GuardExceededError(f"support enumeration guarded at {guard} states, space has {n}")
    matrix = cs.system.matrix
    rhs = cs.system.rhs
    n_rows = len(matrix)
    basis = _basis_rows(cs.space.subspace_sizes)
    basis_rhs = [rhs[r] for r in basis]
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
        col_vec[k] = [matrix[r][k] for r in basis]

    found: list[tuple[Fraction, ...]] = []
    shared: dict[Fraction, Fraction] = {}  # one object per distinct weight

    def solve_support(support: tuple[int, ...]) -> None:
        # the support's columns are independent, so the pivots are columns
        # 0..|S|-1 and row r's last entry is the weight of support[r]; the
        # rhs column is a pivot too exactly when the system is inconsistent
        aug = restricted_rows(cs, support)
        for row, b in zip(aug, basis_rhs):
            row.append(b)
        if linalg._reduce(aug)[-1] == len(support):
            return
        solution = [row[-1] for row in aug[: len(support)]]
        if any(x <= 0 for x in solution):
            return
        weights = [_ZERO] * n
        for k, x in zip(support, solution):
            weights[k] = shared.setdefault(x, x)
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
            pr = next((r for r, x in enumerate(v) if x), None)
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
    Empty exactly when ``p`` is a vertex.  The Fraction view of
    `_face_directions`.  The caller checks membership."""
    directions, scale = _face_directions(cs, p.weights)
    return [tuple([Fraction(x, scale) for x in d]) for d in directions]


def _face_directions(cs: CorrelationSet, weights) -> tuple[list[list[int]], int]:
    """The face basis behind `face_basis` at the point whose support is
    where ``weights`` (rationals or integer numerators) are positive, in
    integers: the integer kernel of `restricted_rows` on that support
    (`linalg._integer_kernel`), spread to all states, and its scale ``L``.
    So the face basis is these vectors over ``L``; their entries have gcd 1."""
    support = [k for k, w in enumerate(weights) if w > 0]
    kernel, scale = linalg._integer_kernel(restricted_rows(cs, support))
    directions = []
    for v in kernel:
        d = [0] * len(weights)
        for k, x in zip(support, v):
            d[k] = x
        directions.append(d)
    return directions, scale


def is_maximally_zero(cs: CorrelationSet, p: JointDistribution) -> bool:
    """True iff no other coupling vanishes on every state where ``p`` does,
    i.e. the marginal system restricted to the support of ``p`` has a unique
    solution (which is then ``p`` itself): ``p`` is a vertex.  Read off the
    integer face (`_face_directions`) of the checked weights."""
    return not _face_directions(cs, cs.require_member(p)[0])[0]


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
    The `JointDistribution` view of `_draw_member`'s integer draw."""
    nums, denom = _draw_member(cs, rng)
    return JointDistribution(cs.space, tuple(Fraction(n, denom) for n in nums))


def _draw_member(cs: CorrelationSet, rng: random.Random) -> tuple[tuple[int, ...], int]:
    """The draw behind `sample_member`, as integer numerators over one
    positive denominator (not reduced).

    The direction is an integer combination of the rectangle kernel (the
    draws divided by ``_RESOLUTION``), summed on each vector's four corners
    (`_rectangle_corners`) rather than over all states; the step is a
    random multiple ``u / _RESOLUTION`` of the largest feasible one, found
    by comparing the integer weights of the product over their common
    denominator.  Where there is no direction, the draw is the product's
    numerators.  ``rng.randrange(a, b + 1)`` is the draw that
    ``rng.randint(a, b)`` makes, so the draws equal those of `randint`."""
    ind, denom = cs.independent_numerators
    corners = _rectangle_corners(cs.space.subspace_sizes)
    if not corners:
        return ind, denom
    draw = rng.randrange
    direction = [0] * cs.space.total_size
    for plus, plus2, minus, minus2 in corners:
        c = draw(-_RESOLUTION, _RESOLUTION + 1)
        if c:
            direction[plus] += c
            direction[plus2] += c
            direction[minus] -= c
            direction[minus2] -= c
    if not any(direction):
        return ind, denom
    # the largest feasible step is _RESOLUTION * (num / den) / denom
    num, den = _largest_step(ind, direction)
    if num == 0:
        return ind, denom
    u = rng.randrange(_RESOLUTION + 1)
    scale = den * _RESOLUTION
    step = num * u
    return tuple([w * scale + step * d for w, d in zip(ind, direction)]), scale * denom


def _largest_step(nums, direction) -> tuple[int, int]:
    """The largest t = num / den with ``nums + t * direction >= 0``, for
    integer ``nums >= 0`` and a nonzero integer ``direction`` that sums to
    0, and so has a negative entry: the least ratio ``w / -d`` over the
    negative entries, found by cross-multiplication.  ``num`` is 0 when
    ``direction`` leaves at once through a state where ``nums`` is 0.  The
    sampler and the MI certificate's reflections and face points share it."""
    num = den = None
    for w, d in zip(nums, direction):
        if d < 0 and (num is None or w * den < num * -d):
            num, den = w, -d
    return num, den


def mix(p: JointDistribution, q: JointDistribution, lam: Fraction) -> JointDistribution:
    """The convex combination (1-lam) p + lam q, exactly."""
    require_same_space(q.space, p.space, "distribution")
    (lam,) = linalg.fraction_tuple((lam,))
    if not 0 <= lam <= 1:
        raise CorrpolyError("mixing weight must lie in [0, 1]")
    weights = tuple((1 - lam) * a + lam * b for a, b in zip(p.weights, q.weights))
    return JointDistribution(p.space, weights)
