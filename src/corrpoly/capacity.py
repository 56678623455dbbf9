"""The lower envelope of the correlation set and Choquet integration.

For an event E the capacity is the worst-case probability min p(E) over all
couplings.  It is normalized, monotone and exact (its core recovers the
correlation set) but in general not convex, which is what drives a wedge
between Choquet and maxmin evaluation of acts.

Every value is an exact LP minimum over the set's marginal system.  Simplex
phase 1 does not depend on the event, so a `Capacity` runs it once, on its
first miss, and starts every solve's phase 2 from that feasible basis; the
constraint rows are converted to Fractions on that miss too and shared by
every later program.  Each solve checks its exact dual certificate (see
`lp`).  The value is also cross-checked against the minimum over the
enumerated extreme points, a sum of vertex weights over the event's states,
and the two must agree.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Iterable, Optional

from . import lp
from .errors import ConsistencyError, CorrpolyError
from .linalg import integer_numerators
from .polytope import CorrelationSet
from .space import Act, Event, ProductSpace, cylinder, embed_cylinder


_ZERO, _ONE = Fraction(0), Fraction(1)


def event_from_mask(space: ProductSpace, mask: int) -> Event:
    members = [space.unravel(k) for k in range(space.total_size) if mask >> k & 1]
    return Event.from_states(space, members)


class Capacity:
    """Memoized lower-envelope capacity of a correlation set.

    Values are keyed by the event bitmask (a Python int, so any desk-scale
    state count fits).  Queries are pure: identical events return identical
    exact rationals.  The set's constraint rows, as Fractions, and the
    phase-1 start of its marginal system are built on the first miss and
    shared by the `lp.LinearProgram` of every later one.
    """

    def __init__(self, cs: CorrelationSet):
        self.cs = cs
        self.space = cs.space
        self._memo: dict[int, Fraction] = {}
        self._start: Optional[lp.FeasibleStart] = None
        self._constraints: Optional[tuple] = None
        self._scaled_vertices: Optional[tuple[int, list[list[int]]]] = None

    def value(self, event: Event) -> Fraction:
        if event.space.subspace_sizes != self.space.subspace_sizes:
            raise CorrpolyError("event lives on a different space")
        mask = event.bitmask()
        cached = self._memo.get(mask)
        if cached is not None:
            return cached
        if not event.members:
            val = Fraction(0)
        else:
            n = self.space.total_size
            objective = tuple(_ONE if mask >> k & 1 else _ZERO for k in range(n))
            if self._constraints is None:
                matrix = self.cs.system.matrix  # 0/1 entries
                self._constraints = (
                    tuple(tuple(_ONE if a else _ZERO for a in row) for row in matrix),
                    self.cs.system.rhs,
                )
            program = lp.LinearProgram(objective, *self._constraints)
            if self._start is None:
                self._start = lp.feasible_start(program)
            try:
                lp_val = lp.solve_lp_min(program, self._start).optimum
            except ConsistencyError as exc:
                raise ConsistencyError(f"capacity {exc}", **self._reproducer(mask)) from exc
            vertex_val = self._vertex_minimum([k for k in range(n) if mask >> k & 1])
            if lp_val != vertex_val:
                raise ConsistencyError(
                    f"LP capacity {lp_val} disagrees with vertex minimum {vertex_val}",
                    **self._reproducer(mask),
                )
            val = lp_val
        self._memo[mask] = val
        return val

    def _vertex_minimum(self, members: list[int]) -> Fraction:
        """min p(E) over the vertices: integer sums of the vertex weights
        scaled to their common denominator, over the members of E."""
        if self._scaled_vertices is None:
            n = self.space.total_size
            flat, denom = integer_numerators([w for p in self.cs.vertices() for w in p.weights])
            self._scaled_vertices = (denom, [flat[k : k + n] for k in range(0, len(flat), n)])
        denom, scaled = self._scaled_vertices
        return Fraction(min(sum(map(row.__getitem__, members)) for row in scaled), denom)

    def _reproducer(self, mask: int) -> dict:
        return {**self.cs.reproducer(), "mask": mask}


def capacity_of(cs: CorrelationSet) -> Capacity:
    if cs._capacity is None:
        cs._capacity = Capacity(cs)
    return cs._capacity


def capacity_value(cs: CorrelationSet, event: Event) -> Fraction:
    return capacity_of(cs).value(event)


def _cylinder_events(space: ProductSpace) -> Iterable[tuple[int, tuple[int, ...], Event]]:
    for i in range(space.n_subspaces):
        size = space.subspace_sizes[i]
        for r in range(1, size + 1):
            for coords in itertools.combinations(range(size), r):
                sub = space.subspace([i])
                sub_event = Event.from_states(sub, [(c,) for c in coords])
                yield i, coords, embed_cylinder(sub_event, space, [i])


def check_exactness(
    cs: CorrelationSet,
    exhaustive_limit: int = 65536,
    samples: int = 10000,
    seed: int = 0,
) -> bool:
    """Whether the core of the lower envelope recovers the correlation set.

    Every vertex must dominate the capacity event-wise, and the capacity of
    each single-coordinate cylinder must equal the marginal weight (which
    forces any core member back onto the prescribed marginals).  The event
    sweep is exhaustive when 2^N is small and otherwise covers all cylinder
    events plus a seeded random sample.
    """
    space = cs.space
    n = space.total_size
    cap = capacity_of(cs)

    if cap.value(Event.empty(space)) != 0:
        return False
    if cap.value(Event.full(space)) != 1:
        return False
    for i, m in enumerate(cs.marginals):
        for coord in range(m.size):
            if cap.value(cylinder(space, {i: coord})) != m.weights[coord]:
                return False

    if 2 ** n <= exhaustive_limit:
        masks: Iterable[int] = range(2 ** n)
    else:
        rng = random.Random(seed)
        cyl_masks = [ev.bitmask() for _, _, ev in _cylinder_events(space)]
        masks = itertools.chain(
            cyl_masks, (rng.getrandbits(n) for _ in range(samples))
        )
    for mask in masks:
        v = cap.value(event_from_mask(space, mask))
        if cap._vertex_minimum([k for k in range(n) if mask >> k & 1]) < v:
            return False
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
    return cap.value(event) == marginal_part + cap.value(event - cyl)


def find_convexity_violation(
    cs: CorrelationSet, pair_budget: int = 200000, seed: int = 0
) -> Optional[tuple[Event, Event]]:
    """A pair of events with v(E u F) + v(E n F) < v(E) + v(F), if one can be
    found.  Exhaustive over unordered pairs when affordable, else a seeded
    random sample of pairs; nested pairs are skipped (they satisfy the
    inequality with equality)."""
    space = cs.space
    n = space.total_size
    cap = capacity_of(cs)
    n_events = 2 ** n

    def violates(emask: int, fmask: int) -> bool:
        if emask & fmask == emask or emask & fmask == fmask:
            return False  # nested
        e = event_from_mask(space, emask)
        f = event_from_mask(space, fmask)
        lhs = cap.value(e | f) + cap.value(e & f)
        rhs = cap.value(e) + cap.value(f)
        return lhs < rhs

    if n_events * (n_events - 1) // 2 <= pair_budget:
        for emask in range(1, n_events):
            for fmask in range(emask + 1, n_events):
                if violates(emask, fmask):
                    return event_from_mask(space, emask), event_from_mask(space, fmask)
        return None
    rng = random.Random(seed)
    for _ in range(pair_budget):
        emask = rng.getrandbits(n)
        fmask = rng.getrandbits(n)
        if emask and fmask and violates(emask, fmask):
            return event_from_mask(space, emask), event_from_mask(space, fmask)
    return None


def choquet_integral(cap: Capacity, f: Act) -> Fraction:
    """Choquet integral of an act against the capacity, via descending
    upper level sets: sum of v_j (cap(f >= v_j) - cap(f >= v_{j-1}))."""
    if f.space.subspace_sizes != cap.space.subspace_sizes:
        raise CorrpolyError("act lives on a different space")
    levels = sorted(set(f.values), reverse=True)
    total = Fraction(0)
    prev = Fraction(0)
    members: set = set()
    states = [cap.space.unravel(k) for k in range(cap.space.total_size)]
    for v in levels:
        members |= {s for s in states if f.value(s) == v}
        cur = cap.value(Event.from_states(cap.space, members))
        total += v * (cur - prev)
        prev = cur
    return total
