"""The lower envelope of the correlation set and Choquet integration.

For an event E the capacity is the worst-case probability min p(E) over all
couplings.  It is normalized, monotone and exact (its core recovers the
correlation set) but in general not convex, which is what drives a wedge
between Choquet and maxmin evaluation of acts.

Queries are answered on the event's bitmask (`Event.mask`: bit k set when
the state with flat index k is in E), and the sweeps below
(`check_exactness`, `find_convexity_violation`, the level sets of
`choquet_integral`) build no `Event` per query.

Every value is an exact LP minimum over the set's marginal system.  Simplex
phase 1 does not depend on the event, so a `Capacity` runs it once, when it
is built, and keeps the start (see `lp.FeasibleStart`).  Each miss then goes
through `lp.phase2`, the one door into phase 2 that `lp.solve_lp_min` uses
too, with the event's 0/1 indicator as its integer cost: no
`LinearProgram` and no Fraction minimizer or dual.  Phase 2 walks the
start's cache of bases, so the events of one set share the pivots they
have in common; the cache is the start's, and goes with the capacity and
its set.  Each basis passed the primal half of the LP certificate when it
entered the cache, and each solve checks the dual half (see `lp`).  The
value is also cross-checked against the minimum over the enumerated
extreme points, an integer sum of vertex weights over the event's states,
and the two must agree.  A failed check raises ConsistencyError with the
set's shape and marginals, the event's mask and, when the LP certificate
failed, the basis where it did.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
from fractions import Fraction
from typing import Iterable, Optional

from . import lp
from .errors import ConsistencyError, CorrpolyError
from .linalg import integer_numerators, require_count
from .polytope import CorrelationSet
from .space import Act, Event, cylinder, embed_cylinder, require_same_space


_ZERO = Fraction(0)


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
        cost = [mask >> k & 1 for k in range(self.space.total_size)]
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


def check_exactness(cs: CorrelationSet, exhaustive_limit: int = 65536) -> bool:
    """Whether the core of the lower envelope recovers the correlation set:
    True, or ConsistencyError, since every coupling set passes.

    The capacity of the full event must be 1 and that of each
    single-coordinate cylinder its marginal weight (which forces any core
    member back onto the prescribed marginals), and every vertex must
    dominate the capacity event-wise: each swept value is checked against
    the minimum over the vertices as it is computed.  A failure names the
    set and the event's mask.  The sweep is exhaustive when 2^N is at most
    ``exhaustive_limit`` and otherwise covers all cylinder events plus
    10 000 random events drawn from seed 0.
    """
    require_count(exhaustive_limit, "exhaustive_limit", 0)
    space = cs.space
    n = space.total_size
    cap = capacity_of(cs)
    value = cap._mask_value

    coordinate_masks = [
        [cylinder(space, {i: c}).mask for c in range(size)]
        for i, size in enumerate(space.subspace_sizes)
    ]
    required = [((1 << n) - 1, 1)] + [
        (mask, weight)
        for m, masks_i in zip(cs.marginals, coordinate_masks)
        for mask, weight in zip(masks_i, m.weights)
    ]
    for mask, weight in required:
        if value(mask) != weight:
            raise ConsistencyError(
                f"capacity {value(mask)} of the full event or a single-coordinate "
                f"cylinder differs from its weight {weight}",
                **cap._reproducer(mask),
            )

    if 2 ** n <= exhaustive_limit:
        masks: Iterable[int] = range(2 ** n)
    else:
        rng = random.Random(0)
        cylinder_masks = [
            functools.reduce(operator.or_, coords)
            for masks_i in coordinate_masks
            for r in range(1, len(masks_i) + 1)
            for coords in itertools.combinations(masks_i, r)
        ]
        masks = itertools.chain(
            cylinder_masks, (rng.getrandbits(n) for _ in range(10000))
        )
    for mask in masks:
        value(mask)
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


def find_convexity_violation(
    cs: CorrelationSet, pair_budget: int = 200000
) -> Optional[tuple[Event, Event]]:
    """A pair of events with v(E u F) + v(E n F) < v(E) + v(F), if one can be
    found.  Exhaustive over unordered pairs when affordable, else
    ``pair_budget`` random pairs drawn from seed 0; nested pairs are skipped
    (they satisfy the inequality with equality)."""
    require_count(pair_budget, "pair_budget", 0)
    space = cs.space
    n = space.total_size
    value = capacity_of(cs)._mask_value
    n_events = 2 ** n

    def violates(emask: int, fmask: int) -> bool:
        both = emask & fmask
        if both == emask or both == fmask:
            return False  # nested
        return value(emask | fmask) + value(both) < value(emask) + value(fmask)

    if n_events * (n_events - 1) // 2 <= pair_budget:
        for emask in range(1, n_events):
            for fmask in range(emask + 1, n_events):
                if violates(emask, fmask):
                    return Event(space, emask), Event(space, fmask)
        return None
    rng = random.Random(0)
    for _ in range(pair_budget):
        emask = rng.getrandbits(n)
        fmask = rng.getrandbits(n)
        if emask and fmask and violates(emask, fmask):
            return Event(space, emask), Event(space, fmask)
    return None


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
