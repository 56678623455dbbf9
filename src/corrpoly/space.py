"""Finite product state spaces and the objects living on them.

A state space is a Cartesian product of finite subspaces.  States are
multi-indices (tuples of coordinates, one per subspace), serialized in
row-major order with subspace 0 slowest.  An event is an integer bitmask
over these flat indices (bit k for the state with flat index k), and every
map from states to a sub-product goes through `ProductSpace.project`.
Probabilities and act payoffs are exact rationals throughout; nothing in
this module rounds.
"""

from __future__ import annotations

import itertools
import operator
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

from .errors import CorrpolyError, MarginalMismatchError, SpaceMismatchError
from ._value import FrozenValue
from .linalg import fraction_tuple, integer_numerators

MultiIndex = tuple[int, ...]


class ProductSpace(FrozenValue):
    """Shape of the product space: one size (and optional label list) per subspace."""

    subspace_sizes: tuple[int, ...]
    state_labels: Optional[tuple[tuple[str, ...], ...]]
    subspace_names: Optional[tuple[str, ...]]

    def __init__(self, subspace_sizes, state_labels=None, subspace_names=None):
        try:
            sizes = tuple(subspace_sizes)
            if any(isinstance(s, bool) for s in sizes):
                raise TypeError("a bool is not a size")
            sizes = tuple(map(operator.index, sizes))
        except TypeError:
            raise CorrpolyError(
                f"subspace sizes must be integers, got {subspace_sizes!r}"
            ) from None
        if len(sizes) < 1:
            raise CorrpolyError("a product space needs at least one subspace")
        if any(s < 1 for s in sizes):
            raise CorrpolyError("subspace sizes must be positive")
        if state_labels is not None:
            state_labels = tuple(tuple(ls) for ls in state_labels)
            if len(state_labels) != len(sizes):
                raise CorrpolyError("one label list per subspace required")
            for i, ls in enumerate(state_labels):
                if len(ls) != sizes[i]:
                    raise CorrpolyError(f"label count mismatch on subspace {i}")
                if len(set(ls)) != len(ls):
                    raise CorrpolyError(f"duplicate labels on subspace {i}")
        if subspace_names is not None:
            subspace_names = tuple(subspace_names)
            if len(subspace_names) != len(sizes) or len(set(subspace_names)) != len(subspace_names):
                raise CorrpolyError("subspace names must be unique, one per subspace")
        object.__setattr__(self, "subspace_sizes", sizes)
        object.__setattr__(self, "state_labels", state_labels)
        object.__setattr__(self, "subspace_names", subspace_names)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.subspace_sizes, self.state_labels, self.subspace_names) == (
                other.subspace_sizes,
                other.state_labels,
                other.subspace_names,
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.subspace_sizes, self.state_labels, self.subspace_names))

    @property
    def n_subspaces(self) -> int:
        return len(self.subspace_sizes)

    @property
    def total_size(self) -> int:
        size = 1
        for s in self.subspace_sizes:
            size *= s
        return size

    def states(self) -> Iterator[MultiIndex]:
        """All states in row-major order (subspace 0 slowest)."""
        return itertools.product(*(range(s) for s in self.subspace_sizes))

    @cached_property
    def state_table(self) -> tuple[MultiIndex, ...]:
        """All states in row-major order, built once per space: entry k is
        ``unravel(k)``."""
        return tuple(self.states())

    def ravel(self, state: MultiIndex) -> int:
        self.check_state(state)
        flat = 0
        for size, coord in zip(self.subspace_sizes, state):
            flat = flat * size + coord
        return flat

    def unravel(self, flat: int) -> MultiIndex:
        if not 0 <= flat < self.total_size:
            raise CorrpolyError(f"flat index {flat} not in a space of {self.total_size} states")
        coords = []
        for size in reversed(self.subspace_sizes):
            coords.append(flat % size)
            flat //= size
        return tuple(reversed(coords))

    def check_state(self, state: MultiIndex) -> None:
        if len(state) != self.n_subspaces or any(
            not isinstance(c, int) or not 0 <= c < s for c, s in zip(state, self.subspace_sizes)
        ):
            raise CorrpolyError(f"state {state} not in a space of shape {self.subspace_sizes}")

    def project(self, indices: Iterable[int]) -> tuple[int, ...]:
        """The map from states to the sub-product over ``indices``: entry k
        is the flat index, in ``subspace(indices)``, of the state with flat
        index k.  All zeros when ``indices`` is empty."""
        idx = set(indices)
        if any(not 0 <= i < self.n_subspaces for i in idx):
            raise CorrpolyError(f"invalid subspace indices {sorted(idx)}")
        flat = [0]
        for i, size in enumerate(self.subspace_sizes):
            if i in idx:
                flat = [f * size + c for f in flat for c in range(size)]
            else:
                flat = [f for f in flat for _ in range(size)]
        return tuple(flat)

    def subspace(self, indices: Iterable[int]) -> "ProductSpace":
        """The sub-product over the given subspace indices (ascending order)."""
        idx = sorted(set(indices))
        if not idx or any(not 0 <= i < self.n_subspaces for i in idx):
            raise CorrpolyError(f"invalid subspace indices {sorted(indices)}")
        labels = None
        if self.state_labels is not None:
            labels = tuple(self.state_labels[i] for i in idx)
        names = None
        if self.subspace_names is not None:
            names = tuple(self.subspace_names[i] for i in idx)
        return ProductSpace(tuple(self.subspace_sizes[i] for i in idx), labels, names)

    def label_of(self, state: MultiIndex) -> tuple[str, ...]:
        if self.state_labels is None:
            return tuple(str(c) for c in state)
        return tuple(self.state_labels[i][c] for i, c in enumerate(state))

    def coordinate_of_label(self, subspace_index: int, label: str) -> int:
        if self.state_labels is None:
            raise CorrpolyError("space has no labels")
        try:
            return self.state_labels[subspace_index].index(label)
        except ValueError:
            raise CorrpolyError(
                f"unknown label {label!r} on subspace {subspace_index}"
            ) from None


def require_same_space(space: ProductSpace, expected: ProductSpace, what: str) -> None:
    """The one check that an object lives on the expected product space:
    SpaceMismatchError naming ``what`` unless the shapes agree."""
    if space.subspace_sizes != expected.subspace_sizes:
        raise SpaceMismatchError(
            f"{what} lives on a different space: shape {space.subspace_sizes}, "
            f"expected {expected.subspace_sizes}"
        )


def probability_vector(weights: Iterable, what: str) -> tuple[Fraction, ...]:
    """``weights`` as Fractions, checked to be nonnegative and to sum to
    exactly 1: the one probability-vector check of `Marginal` and
    `JointDistribution`.  Both checks run in integers, on the numerators
    over the common denominator (`integer_numerators`): they are
    nonnegative, and they sum to that denominator."""
    weights = fraction_tuple(weights)
    nums, denom = integer_numerators(weights)
    if min(nums, default=0) < 0:
        raise CorrpolyError(f"{what} weights must be nonnegative")
    if sum(nums) != denom:
        raise CorrpolyError(f"{what} weights must sum to exactly 1")
    return weights


class Marginal(FrozenValue):
    """A probability distribution on one subspace.

    Zero weights are allowed (the type does not force full support); callers
    whose mathematics requires full support must check :attr:`full_support`.
    """

    subspace_index: int
    weights: tuple[Fraction, ...]

    def __init__(self, subspace_index: int, weights):
        weights = probability_vector(weights, "marginal")
        object.__setattr__(self, "subspace_index", subspace_index)
        object.__setattr__(self, "weights", weights)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.subspace_index, self.weights) == (other.subspace_index, other.weights)
        return NotImplemented

    def __hash__(self):
        return hash((self.subspace_index, self.weights))

    @property
    def size(self) -> int:
        return len(self.weights)

    @property
    def full_support(self) -> bool:
        return all(w > 0 for w in self.weights)

    def prob_of(self, coords: Iterable[int]) -> Fraction:
        coords = set(coords)
        if any(not 0 <= c < self.size for c in coords):
            raise CorrpolyError(f"coordinates {sorted(coords)} not in a subspace of size {self.size}")
        return sum((self.weights[c] for c in coords), Fraction(0))


class JointDistribution(FrozenValue):
    """A probability distribution on the whole product space, row-major.
    Slotted: a vertex list holds many of them, so none has a ``__dict__``."""

    __slots__ = ("space", "weights")
    space: ProductSpace
    weights: tuple[Fraction, ...]

    def __init__(self, space: ProductSpace, weights):
        weights = probability_vector(weights, "joint")
        if len(weights) != space.total_size:
            raise CorrpolyError(f"need {space.total_size} weights, got {len(weights)}")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "weights", weights)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.space, self.weights) == (other.space, other.weights)
        return NotImplemented

    def __hash__(self):
        return hash((self.space, self.weights))

    def prob(self, state: MultiIndex) -> Fraction:
        return self.weights[self.space.ravel(state)]

    def prob_event(self, event: "Event") -> Fraction:
        require_same_space(event.space, self.space, "event")
        mask = event.mask
        return sum((w for k, w in enumerate(self.weights) if mask >> k & 1), Fraction(0))

    def support(self) -> frozenset[MultiIndex]:
        return frozenset(s for s in self.space.states() if self.prob(s) > 0)

    def marginal(self, subspace_index: int) -> Marginal:
        sub = marginalize(self, [subspace_index])
        return Marginal(subspace_index, sub.weights)


class Event(FrozenValue):
    """A set of states, held as a bitmask: bit k of ``mask`` is set iff the
    state with flat index k is a member."""

    space: ProductSpace
    mask: int

    def __init__(self, space: ProductSpace, mask: int):
        if (
            not isinstance(mask, int)
            or isinstance(mask, bool)
            or not 0 <= mask < 1 << space.total_size
        ):
            raise CorrpolyError(
                f"mask {mask!r} is not an event of a space with {space.total_size} states"
            )
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "mask", mask)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.space, self.mask) == (other.space, other.mask)
        return NotImplemented

    def __hash__(self):
        return hash((self.space, self.mask))

    @classmethod
    def from_states(cls, space: ProductSpace, states: Iterable[MultiIndex]) -> "Event":
        mask = 0
        for s in states:
            mask |= 1 << space.ravel(tuple(s))
        return cls(space, mask)

    @classmethod
    def empty(cls, space: ProductSpace) -> "Event":
        return cls(space, 0)

    @classmethod
    def full(cls, space: ProductSpace) -> "Event":
        return cls(space, (1 << space.total_size) - 1)

    @property
    def members(self) -> frozenset[MultiIndex]:
        """The member states, read from the space's `state_table`."""
        table = self.space.state_table
        return frozenset([table[k] for k in range(len(table)) if self.mask >> k & 1])

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, state: MultiIndex) -> bool:
        try:
            return bool(self.mask >> self.space.ravel(tuple(state)) & 1)
        except (CorrpolyError, TypeError):  # not a state of this space
            return False

    def __or__(self, other: "Event") -> "Event":
        require_same_space(other.space, self.space, "event")
        return Event(self.space, self.mask | other.mask)

    def __and__(self, other: "Event") -> "Event":
        require_same_space(other.space, self.space, "event")
        return Event(self.space, self.mask & other.mask)

    def __sub__(self, other: "Event") -> "Event":
        require_same_space(other.space, self.space, "event")
        return Event(self.space, self.mask & ~other.mask)

    def __invert__(self) -> "Event":
        return Event(self.space, self.mask ^ ((1 << self.space.total_size) - 1))

    def issubset(self, other: "Event") -> bool:
        require_same_space(other.space, self.space, "event")
        return self.mask & ~other.mask == 0

    def bitmask(self) -> int:
        """Canonical integer key: bit k set iff the state with flat index k is a member."""
        return self.mask


def event_from_mask(space: ProductSpace, mask: int) -> Event:
    """The event whose members are the states with a set bit in ``mask``
    (the inverse of `Event.bitmask`).  Raises CorrpolyError unless ``mask``
    is an integer with 0 <= mask < 2^N."""
    return Event(space, mask)


class Collection(FrozenValue):
    """A family of at least two non-empty, pairwise disjoint subspace index sets."""

    members: tuple[frozenset[int], ...]

    def __init__(self, members):
        members = tuple(sorted(map(frozenset, members), key=sorted))
        object.__setattr__(self, "members", members)
        if len(members) < 2:
            raise CorrpolyError("a collection needs at least two members")
        if any(not m for m in members):
            raise CorrpolyError("collection members must be non-empty")
        seen: set[int] = set()
        for m in members:
            if seen & m:
                raise CorrpolyError("collection members must be pairwise disjoint")
            seen |= m
        if any(i < 0 for i in seen):
            raise CorrpolyError("subspace indices must be nonnegative")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.members,) == (other.members,)
        return NotImplemented

    def __hash__(self):
        return hash((self.members,))

    @classmethod
    def of(cls, *index_sets: Iterable[int]) -> "Collection":
        return cls(tuple(frozenset(s) for s in index_sets))

    def union(self) -> frozenset[int]:
        out: frozenset[int] = frozenset()
        for m in self.members:
            out |= m
        return out

    def check_space(self, space: ProductSpace) -> None:
        if any(i >= space.n_subspaces for i in self.union()):
            raise CorrpolyError("collection refers to subspaces outside the space")

    def is_partition_of(self, space: ProductSpace) -> bool:
        return self.union() == frozenset(range(space.n_subspaces))


class Act(FrozenValue):
    """A map from states to utility values (outcomes already passed through u)."""

    space: ProductSpace
    values: tuple[Fraction, ...]

    def __init__(self, space: ProductSpace, values):
        values = fraction_tuple(values)
        if len(values) != space.total_size:
            raise CorrpolyError(f"need {space.total_size} values, got {len(values)}")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "values", values)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.space, self.values) == (other.space, other.values)
        return NotImplemented

    def __hash__(self):
        return hash((self.space, self.values))

    @classmethod
    def constant(cls, space: ProductSpace, value) -> "Act":
        return cls(space, fraction_tuple((value,)) * space.total_size)

    @classmethod
    def from_state_values(cls, space: ProductSpace, mapping: dict) -> "Act":
        values = [Fraction(0)] * space.total_size
        if len(mapping) != space.total_size:
            raise CorrpolyError("state/value mapping must cover every state")
        for state, v in mapping.items():
            values[space.ravel(tuple(state))] = v
        return cls(space, tuple(values))

    @classmethod
    def bet(cls, space: ProductSpace, event: Event, win, lose) -> "Act":
        """The binary act paying ``win`` on the event and ``lose`` off it."""
        require_same_space(event.space, space, "event")
        w, l = fraction_tuple((win, lose))
        mask = event.mask
        return cls(space, tuple(w if mask >> k & 1 else l for k in range(space.total_size)))

    def value(self, state: MultiIndex) -> Fraction:
        return self.values[self.space.ravel(state)]

    def splice(self, event: Event, other: "Act") -> "Act":
        """The act equal to ``self`` on the event and to ``other`` off it."""
        require_same_space(event.space, self.space, "event")
        require_same_space(other.space, self.space, "act")
        mask = event.mask
        values = [
            mine if mask >> k & 1 else theirs
            for k, (mine, theirs) in enumerate(zip(self.values, other.values))
        ]
        return Act(self.space, tuple(values))

    def __add__(self, other: "Act") -> "Act":
        require_same_space(other.space, self.space, "act")
        return Act(self.space, tuple(a + b for a, b in zip(self.values, other.values)))


def expectation(p: JointDistribution, f: Act) -> Fraction:
    require_same_space(f.space, p.space, "act")
    return sum((w * v for w, v in zip(p.weights, f.values)), Fraction(0))


def sorted_marginals(space: ProductSpace, marginals: Sequence[Marginal]) -> tuple[Marginal, ...]:
    """The marginals in subspace order, checked to fit ``space``: the one
    check that there is one marginal per subspace (CorrpolyError otherwise)
    and that each has its subspace's size (SpaceMismatchError otherwise)."""
    indices = sorted(m.subspace_index for m in marginals)
    if indices != list(range(space.n_subspaces)):
        raise CorrpolyError(
            f"need one marginal per subspace 0..{space.n_subspaces - 1}, got indices {indices}"
        )
    by_index = tuple(sorted(marginals, key=lambda m: m.subspace_index))
    for i, m in enumerate(by_index):
        if m.size != space.subspace_sizes[i]:
            raise SpaceMismatchError(
                f"marginal on subspace {i} has {m.size} weights for "
                f"{space.subspace_sizes[i]} states"
            )
    return by_index


def shared_marginals(
    distributions: Sequence[JointDistribution], what: str
) -> tuple[Marginal, ...]:
    """The one-subspace marginals common to all ``distributions``: the one
    check that beliefs share their marginals.  Each distribution must live
    on the first one's space (SpaceMismatchError otherwise), and
    MarginalMismatchError names the group ``what`` when a marginal differs."""
    first = distributions[0]
    reference = [marginalize(first, [i]).weights for i in range(first.space.n_subspaces)]
    for q in distributions[1:]:
        require_same_space(q.space, first.space, f"one of the {what}")
        if any(marginalize(q, [i]).weights != ref for i, ref in enumerate(reference)):
            raise MarginalMismatchError(f"{what} do not share marginals")
    return tuple(Marginal(i, w) for i, w in enumerate(reference))


def independent_product(
    marginals: Sequence[Marginal], space: Optional[ProductSpace] = None
) -> JointDistribution:
    """The coupling that assigns each state the product of its marginal
    weights; the space defaults to the one the marginals' sizes span."""
    if space is None:
        by_index = sorted(marginals, key=lambda m: m.subspace_index)
        space = ProductSpace(tuple(m.size for m in by_index))
    by_index = sorted_marginals(space, marginals)
    weights = [Fraction(1)] * space.total_size
    for i, m in enumerate(by_index):
        for k, c in enumerate(space.project([i])):
            weights[k] *= m.weights[c]
    return JointDistribution(space, tuple(weights))


def marginalize(p: JointDistribution, indices: Iterable[int]) -> JointDistribution:
    """Marginal distribution of ``p`` on the sub-product over ``indices``."""
    idx = sorted(set(indices))
    if not idx:
        raise CorrpolyError("cannot marginalize onto an empty index set")
    sub = p.space.subspace(idx)
    weights = [Fraction(0)] * sub.total_size
    for j, w in zip(p.space.project(idx), p.weights):
        weights[j] += w
    return JointDistribution(sub, tuple(weights))


def embed_cylinder(
    sub_event: Event, space: ProductSpace, indices: Iterable[int]
) -> Event:
    """Embed an event on the sub-product over ``indices`` as a cylinder in ``space``."""
    idx = sorted(set(indices))
    sub = space.subspace(idx)
    require_same_space(sub_event.space, sub, "event")
    sub_mask = sub_event.mask
    return Event(space, sum(1 << k for k, j in enumerate(space.project(idx)) if sub_mask >> j & 1))


def cylinder(space: ProductSpace, assignment: dict[int, int]) -> Event:
    """The cylinder of states agreeing with ``assignment`` (subspace -> coordinate)."""
    for i, c in assignment.items():
        if not 0 <= i < space.n_subspaces or not 0 <= c < space.subspace_sizes[i]:
            raise CorrpolyError(f"invalid cylinder assignment {assignment}")
    proj = space.project(assignment)
    # the sub-product index of the assignment, read off one state that has it
    target = proj[space.ravel(tuple(assignment.get(i, 0) for i in range(space.n_subspaces)))]
    return Event(space, sum(1 << k for k, j in enumerate(proj) if j == target))


def embed_act(sub_act: Act, space: ProductSpace, indices: Iterable[int]) -> Act:
    """Embed an act on a sub-product as the act on ``space`` that ignores the rest."""
    idx = sorted(set(indices))
    sub = space.subspace(idx)
    require_same_space(sub_act.space, sub, "act")
    return Act(space, tuple(sub_act.values[j] for j in space.project(idx)))


def is_independent_of(f: Act, indices: Iterable[int]) -> bool:
    """True iff ``f`` is a function of the subspaces in ``indices`` alone,
    i.e. f(w) == f(w') whenever the two states agree on those coordinates."""
    seen: dict[int, Fraction] = {}
    for j, v in zip(f.space.project(indices), f.values):
        if seen.setdefault(j, v) != v:
            return False
    return True


def hamming_distance(a: MultiIndex, b: MultiIndex) -> int:
    if len(a) != len(b):
        raise SpaceMismatchError("states live on different spaces")
    return sum(1 for x, y in zip(a, b) if x != y)
