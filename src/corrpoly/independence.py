"""Independence of couplings on collections of subspaces.

A coupling is independent on a collection of pairwise disjoint index sets
when the probability of every cylinder tuple over the collection factors
into the product of its member marginals; testing single elements suffices.
Independence is inherited by sub-collections (each member shrunk inside a
distinct member of the original), partitions factor the restricted set into
a product of smaller correlation sets, and when at most one member is
non-singleton the independence constraints are linear, so the restricted
set has a computable affine dimension (zero-weight marginal states
included: it is computed on the states of positive weight).
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Union

from . import linalg
from .errors import CorrpolyError, NonlinearCollectionError
from .polytope import CorrelationSet, positive_state_columns, restricted_rows
from .polytope import sample_member
from .space import (
    Collection,
    Event,
    JointDistribution,
    Marginal,
    ProductSpace,
    embed_cylinder,
    marginalize,
    require_same_space,
)


class IndependenceVerdict(NamedTuple):
    """Outcome of an element-wise independence test.

    ``witness`` is the first cylinder tuple (one coordinate tuple per
    collection member, in collection order) violating the product identity;
    ``max_abs_defect`` is the largest absolute violation over all tuples.
    """

    collection: Collection
    holds: bool
    witness: Optional[tuple[tuple[int, ...], ...]]
    max_abs_defect: Fraction


def is_independent_on(p: JointDistribution, coll: Collection) -> IndependenceVerdict:
    """Element-wise independence test: every cylinder tuple over the
    collection must carry exactly the product of its member marginals.

    Cells (one sub-product state per member) are walked with the members in
    collection order, each member's states row-major over its sorted
    indices, so the witness is the first violating cell in that order."""
    coll.check_space(p.space)
    projections = [p.space.project(m) for m in coll.members]
    joint: dict[tuple[int, ...], Fraction] = {}
    for cell, w in zip(zip(*projections), p.weights):
        joint[cell] = joint.get(cell, 0) + w
    member_weights = [marginalize(p, m).weights for m in coll.members]
    states = [p.space.subspace(m).state_table for m in coll.members]

    witness = None
    max_defect = Fraction(0)
    for cell in itertools.product(*(range(len(ws)) for ws in member_weights)):
        rhs = Fraction(1)
        for ws, j in zip(member_weights, cell):
            rhs *= ws[j]
        defect = abs(joint[cell] - rhs)
        if defect > max_defect:
            max_defect = defect
        if defect != 0 and witness is None:
            witness = tuple(table[j] for table, j in zip(states, cell))
    return IndependenceVerdict(coll, witness is None, witness, max_defect)


def event_family(
    p: JointDistribution, coll: Collection, events: Sequence[Event]
) -> tuple[Event, Fraction]:
    """The intersection cylinder of a family of events (one non-empty event
    per collection member, on that member's sub-product) and the product of
    the members' marginal probabilities of their events under ``p``."""
    coll.check_space(p.space)
    if len(events) != len(coll.members):
        raise CorrpolyError("need exactly one event per collection member")
    target = Event.full(p.space)
    product = Fraction(1)
    for member, ev in zip(coll.members, events):
        cyl = embed_cylinder(ev, p.space, sorted(member))
        if not ev.mask:
            raise CorrpolyError("member events must be non-empty")
        target = target & cyl
        product *= p.prob_event(cyl)
    return target, product


def check_event_level_independence(
    p: JointDistribution, coll: Collection, events: Sequence[Event]
) -> bool:
    """Exact product identity for one family of events (one per member)."""
    target, product = event_family(p, coll, events)
    return p.prob_event(target) == product


def inherited_collections(coll: Collection) -> Iterator[Collection]:
    """All sub-collections: at least two members, each a non-empty subset of
    a distinct member of the original collection.  Independence on the
    original is inherited by every one of these (property-test hook)."""
    seen: set[tuple[frozenset[int], ...]] = set()
    for r in range(2, len(coll.members) + 1):
        for subset in itertools.combinations(coll.members, r):
            per_member = []
            for member in subset:
                elems = sorted(member)
                shrunk = [
                    frozenset(c)
                    for size in range(1, len(elems) + 1)
                    for c in itertools.combinations(elems, size)
                ]
                per_member.append(shrunk)
            for pick in itertools.product(*per_member):
                sub_coll = Collection(pick)
                if sub_coll.members not in seen:
                    seen.add(sub_coll.members)
                    yield sub_coll


def product_of_components(
    space: ProductSpace, coll: Collection, components: Sequence[JointDistribution]
) -> JointDistribution:
    """Recombine one distribution per partition member into the coupling on
    the full space that makes the members independent."""
    if not coll.is_partition_of(space):
        raise CorrpolyError("collection is not a partition of the subspaces")
    if len(components) != len(coll.members):
        raise CorrpolyError("need exactly one component distribution per member")
    weights = [Fraction(1)] * space.total_size
    for member, comp in zip(coll.members, components):
        require_same_space(comp.space, space.subspace(member), "component")
        for k, j in enumerate(space.project(member)):
            weights[k] *= comp.weights[j]
    return JointDistribution(space, tuple(weights))


def partition_factorize(cs: CorrelationSet, coll: Collection) -> list[CorrelationSet]:
    """Split the independence-restricted set along a partition into one
    correlation set per member; the restricted set is exactly the product of
    the components and its dimension is the sum of theirs."""
    if not coll.is_partition_of(cs.space):
        raise CorrpolyError("collection is not a partition of the subspaces")
    components = []
    for member in coll.members:
        idx = sorted(member)
        sub_space = cs.space.subspace(idx)
        sub_marginals = [
            Marginal(pos, cs.marginals[i].weights) for pos, i in enumerate(idx)
        ]
        components.append(CorrelationSet(sub_space, sub_marginals))
    return components


def sample_partition_member(
    cs: CorrelationSet, coll: Collection, rng: random.Random
) -> JointDistribution:
    """A random coupling independent on the partition: sample each component
    correlation set and take the product."""
    components = partition_factorize(cs, coll)
    draws = [sample_member(comp, rng) for comp in components]
    return product_of_components(cs.space, coll, draws)


def restricted_dimension(
    cs: CorrelationSet, collections: Union[Collection, Iterable[Collection]]
) -> int:
    """Dimension of the affine hull of the couplings independent on each of
    the given collections (intersection when several are passed).

    Only collections with at most one non-singleton member are supported:
    singleton marginals are fixed constants, so the product constraints are
    linear and can be appended to the marginal system, whose kernel rank is
    then the dimension.  Anything else is nonlinear and refused.

    Every row is restricted to the states of positive marginal weight (the
    others carry no mass).  The independent product satisfies every row and
    is positive on exactly those states, so it lies in the relative interior
    and the kernel rank there is the dimension, zero-weight states or not.
    """
    if isinstance(collections, Collection):
        collections = [collections]
    colls = list(collections)
    if not colls:
        raise CorrpolyError("need at least one collection")

    space = cs.space
    cols = positive_state_columns(cs)
    rows: list[list[int | Fraction]] = restricted_rows(cs, cols)
    for coll in colls:
        coll.check_space(space)
        big = [m for m in coll.members if len(m) >= 2]
        if len(big) > 1:
            raise NonlinearCollectionError(
                "independence constraints are nonlinear for collections with "
                "two or more non-singleton members; only membership testing applies"
            )
        # one row per cell (one sub-product state per member, in collection
        # order): p(cell) - prod of its singleton marginals * p(big part)
        projections = [space.project(m) for m in coll.members]
        keys = list(zip(*projections))
        cells = itertools.product(*(range(space.subspace(m).total_size) for m in coll.members))
        for cell in cells:
            row = [Fraction(1) if keys[k] == cell else Fraction(0) for k in cols]
            singleton_const = Fraction(1)
            big_part = None
            for member, proj, j in zip(coll.members, projections, cell):
                if len(member) >= 2:
                    big_part = (proj, j)
                else:
                    (i,) = member
                    singleton_const *= cs.marginals[i].weights[j]
            if big_part is not None:
                proj, j = big_part
                for pos, k in enumerate(cols):
                    if proj[k] == j:
                        row[pos] -= singleton_const
            rows.append(row)
    return len(cols) - linalg.rank(rows)
