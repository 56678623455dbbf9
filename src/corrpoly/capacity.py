"""The lower envelope of the correlation set and Choquet integration.

For an event E the capacity is the worst-case probability min p(E) over all
couplings.  It is normalized, monotone and exact (its core recovers the
correlation set) but in general not convex, which is what drives a wedge
between Choquet and maxmin evaluation of acts.

Queries are answered on the event's bitmask (`Event.mask`: bit k set when
the state with flat index k is in E), so the level sets of
`choquet_integral` build no `Event` per query.

Every value is an exact LP minimum over the set's marginal system.  Simplex
phase 1 does not depend on the event, so a `Capacity` runs it once, when it
is built, and keeps the start (see `lp.FeasibleStart`).  Each miss then goes
through `lp.phase2`, the one door into phase 2 that `lp.solve_lp_min` uses
too, with the event's 0/1 indicator as its integer cost: no
`LinearProgram` and no Fraction minimizer or dual.  Phase 2 prices the
indicator on the start's pricing table, which the start builds once, and
walks the start's cache of bases, so the events of one set share the
pivots they have in common; table and cache are the start's, and go with
the capacity and its set.  Each basis passed the primal half of the LP
certificate when it entered the cache, and each solve checks the dual
half against the set's own marginal rows (see `lp`).  The
value is also cross-checked against the minimum over the enumerated
extreme points, an integer sum of vertex weights over the event's states,
and the two must agree.  A failed check raises ConsistencyError with the
set's shape and marginals, the event's mask and, when the LP certificate
failed, the basis where it did.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Optional

from . import lp
from .errors import ConsistencyError, CorrpolyError
from .linalg import integer_numerators
from .polytope import CorrelationSet
from .space import Act, Event, cylinder, embed_cylinder, require_same_space


_ZERO = Fraction(0)
# the bits of each byte value, lowest first: an event's 0/1 indicator is
# read from its mask a byte at a time
_BITS = [tuple(b >> k & 1 for k in range(8)) for b in range(256)]


class Capacity:
    """Memoized lower-envelope capacity of a correlation set.

    Values are keyed by the event bitmask (a Python int, so any desk-scale
    state count fits).  Queries are pure: identical events return identical
    exact rationals.  Construction builds what every miss reads: the
    phase-1 start of the marginal system, the vertex weights over their
    common denominator and the set's reproducer context.  The capacity
    keeps no reference to the set, so a set and the capacity it holds form
    no reference cycle and are freed as soon as nothing else refers to them.
    """

    def __init__(self, cs: CorrelationSet):
        self.space = cs.space
        n = self.space.total_size
        self._memo: dict[int, Fraction] = {}
        self._start = lp.feasible_start(
            lp.LinearProgram((_ZERO,) * n, cs.system.matrix, cs.system.rhs)
        )
        # vertex weights over their common denominator, one tuple per state
        flat, denom = integer_numerators([w for p in cs.vertices() for w in p.weights])
        self._vertex_columns = (denom, [tuple(flat[k::n]) for k in range(n)])
        self._context = cs.reproducer()

    def value(self, event: Event) -> Fraction:
        require_same_space(event.space, self.space, "event")
        return self._mask_value(event.mask)

    def _mask_value(self, mask: int) -> Fraction:
        """The capacity of the event with bitmask ``mask``, memoized."""
        val = self._memo.get(mask)
        if val is None:
            val = self._solve(mask) if mask else _ZERO
            self._memo[mask] = val
        return val

    def _solve(self, mask: int) -> Fraction:
        """min p(E) by phase 2 from the cached start, certified, and checked
        against the vertex minimum."""
        n = self.space.total_size
        indicator = map(_BITS.__getitem__, mask.to_bytes(-(-n // 8), "little"))
        cost = [*itertools.chain.from_iterable(indicator)]
        del cost[n:]
        try:
            cx, _, x_scale, _, _ = lp.phase2(self._start, cost)
        except ConsistencyError as exc:
            raise ConsistencyError(
                f"capacity {exc.reason}", **self._reproducer(mask), **exc.context
            ) from exc
        denom, columns = self._vertex_columns
        vertex_min = min(map(sum, zip(*itertools.compress(columns, cost))))
        if cx * denom != vertex_min * x_scale:
            raise ConsistencyError(
                f"LP capacity {Fraction(cx, x_scale)} disagrees with vertex minimum "
                f"{Fraction(vertex_min, denom)}",
                **self._reproducer(mask),
            )
        return Fraction(cx, x_scale)

    def _reproducer(self, mask: int) -> dict:
        return {**self._context, "mask": mask}


def capacity_of(cs: CorrelationSet) -> Capacity:
    if cs._capacity is None:
        cs._capacity = Capacity(cs)
    return cs._capacity


def capacity_value(cs: CorrelationSet, event: Event) -> Fraction:
    return capacity_of(cs).value(event)


def check_exactness(cs: CorrelationSet) -> bool:
    """Whether the core of the lower envelope recovers the correlation set:
    True, or ConsistencyError, since every coupling set passes.

    The proof needs 1 + sum of the subspace sizes capacity values, and these
    are the ones checked.  Each coupling p has p(E) >= b.y = v(E) for every
    event E, where y is the dual certificate that each capacity value
    carries and is checked against (see `lp`), so every coupling lies in the
    core.  Conversely a core member q has q(E) >= v(E) = P_i(c) on each
    single-coordinate cylinder E = {X_i = c}, and q(full) = 1 = v(full);
    the cylinders of one subspace partition the space and their weights sum
    to 1, so every inequality is an equality and q has the marginals.  The
    check is that the full event's capacity is 1 and each such cylinder's its
    marginal weight; a value off raises ConsistencyError with the set and the
    event's mask.
    """
    space = cs.space
    cap = capacity_of(cs)
    required = [((1 << space.total_size) - 1, 1)] + [
        (cylinder(space, {i: c}).mask, weight)
        for i, m in enumerate(cs.marginals)
        for c, weight in enumerate(m.weights)
    ]
    for mask, weight in required:
        value = cap._mask_value(mask)
        if value != weight:
            raise ConsistencyError(
                f"capacity {value} of the full event or a single-coordinate "
                f"cylinder differs from its weight {weight}",
                **cap._reproducer(mask),
            )
    return True


def cylinder_additivity_check(
    cs: CorrelationSet, event: Event, subspace_index: int, coords: Iterable[int]
) -> bool:
    """Exact check of the peel-off identity: when a full cylinder over
    subspace coordinates sits inside an event, the capacity splits into the
    marginal weight of the cylinder plus the capacity of the remainder."""
    space = cs.space
    coords = sorted(set(coords))
    sub = space.subspace([subspace_index])
    cyl = embed_cylinder(
        Event.from_states(sub, [(c,) for c in coords]), space, [subspace_index]
    )
    if not cyl.issubset(event):
        raise CorrpolyError("the cylinder must be contained in the event")
    cap = capacity_of(cs)
    marginal_part = cs.marginals[subspace_index].prob_of(coords)
    rest = event.mask & ~cyl.mask
    return cap.value(event) == marginal_part + cap._mask_value(rest)


def find_convexity_violation(cs: CorrelationSet) -> Optional[tuple[Event, Event]]:
    """A pair of events with v(E u F) + v(E n F) < v(E) + v(F), or None when
    there is none, which holds iff the set has dimension 0.

    The pair is the first pair of crossing cylinders E = {X_i = a} and
    F = {X_j = c}: i and j are the first two subspaces with at least two
    positive-weight states, and a and c the first positive state of each.
    By Frechet's bounds v(E u F) + v(E n F) = max(P(a), P(c)) +
    max(0, P(a) + P(c) - 1), which is below P(a) + P(c) = v(E) + v(F)
    whenever both weights lie strictly between 0 and 1.  With fewer than two
    such subspaces the set holds one coupling and the capacity is additive.
    The strict inequality is checked on the four capacity values; a failure
    raises ConsistencyError with the set and both masks.
    """
    space = cs.space
    positive = ([c for c, w in enumerate(m.weights) if w > 0] for m in cs.marginals)
    crossing = [
        cylinder(space, {i: states[0]}) for i, states in enumerate(positive) if len(states) > 1
    ][:2]
    if len(crossing) < 2:
        return None
    e, f = crossing
    value = capacity_of(cs)._mask_value
    if not value(e.mask | f.mask) + value(e.mask & f.mask) < value(e.mask) + value(f.mask):
        raise ConsistencyError(
            "crossing cylinders satisfy the convexity inequality",
            **cs.reproducer(),
            masks=[e.mask, f.mask],
        )
    return e, f


def choquet_integral(cap: Capacity, f: Act) -> Fraction:
    """Choquet integral of an act against the capacity, via descending
    upper level sets: sum of v_j (cap(f >= v_j) - cap(f >= v_{j-1}))."""
    require_same_space(f.space, cap.space, "act")
    level_masks: dict[Fraction, int] = {}
    for k, v in enumerate(f.values):
        level_masks[v] = level_masks.get(v, 0) | 1 << k
    total = prev = _ZERO
    mask = 0
    for v in sorted(level_masks, reverse=True):
        mask |= level_masks[v]
        cur = cap._mask_value(mask)
        total += v * (cur - prev)
        prev = cur
    return total
