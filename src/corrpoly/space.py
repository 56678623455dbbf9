"""Finite product state spaces and the objects living on them.

A state space is a Cartesian product of finite subspaces.  States are
multi-indices (tuples of coordinates, one per subspace), serialized in
row-major order with subspace 0 slowest.  Probabilities and act payoffs
are exact rationals throughout; nothing in this module rounds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

from .errors import CorrpolyError, SpaceMismatchError

MultiIndex = tuple[int, ...]


def _fractions(values: Iterable) -> tuple[Fraction, ...]:
    return tuple(Fraction(v) for v in values)


@dataclass(frozen=True)
class ProductSpace:
    """Shape of the product space: one size (and optional label list) per subspace."""

    subspace_sizes: tuple[int, ...]
    state_labels: Optional[tuple[tuple[str, ...], ...]] = None
    subspace_names: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        object.__setattr__(self, "subspace_sizes", tuple(int(s) for s in self.subspace_sizes))
        if len(self.subspace_sizes) < 1:
            raise CorrpolyError("a product space needs at least one subspace")
        if any(s < 1 for s in self.subspace_sizes):
            raise CorrpolyError("subspace sizes must be positive")
        if self.state_labels is not None:
            labels = tuple(tuple(ls) for ls in self.state_labels)
            object.__setattr__(self, "state_labels", labels)
            if len(labels) != self.n_subspaces:
                raise CorrpolyError("one label list per subspace required")
            for i, ls in enumerate(labels):
                if len(ls) != self.subspace_sizes[i]:
                    raise CorrpolyError(f"label count mismatch on subspace {i}")
                if len(set(ls)) != len(ls):
                    raise CorrpolyError(f"duplicate labels on subspace {i}")
        if self.subspace_names is not None:
            names = tuple(self.subspace_names)
            object.__setattr__(self, "subspace_names", names)
            if len(names) != self.n_subspaces or len(set(names)) != len(names):
                raise CorrpolyError("subspace names must be unique, one per subspace")

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
        coords = []
        for size in reversed(self.subspace_sizes):
            coords.append(flat % size)
            flat //= size
        return tuple(reversed(coords))

    def check_state(self, state: MultiIndex) -> None:
        if len(state) != self.n_subspaces or any(
            not 0 <= c < s for c, s in zip(state, self.subspace_sizes)
        ):
            raise CorrpolyError(f"state {state} not in a space of shape {self.subspace_sizes}")

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


def _require_same_space(a: ProductSpace, b: ProductSpace) -> None:
    if a.subspace_sizes != b.subspace_sizes:
        raise SpaceMismatchError(f"shapes differ: {a.subspace_sizes} vs {b.subspace_sizes}")


@dataclass(frozen=True)
class Marginal:
    """A probability distribution on one subspace.

    Zero weights are allowed (the type does not force full support); callers
    whose mathematics requires full support must check :attr:`full_support`.
    """

    subspace_index: int
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "weights", _fractions(self.weights))
        if any(w < 0 for w in self.weights):
            raise CorrpolyError("marginal weights must be nonnegative")
        if sum(self.weights) != 1:
            raise CorrpolyError("marginal weights must sum to exactly 1")

    @property
    def size(self) -> int:
        return len(self.weights)

    @property
    def full_support(self) -> bool:
        return all(w > 0 for w in self.weights)

    def prob_of(self, coords: Iterable[int]) -> Fraction:
        return sum((self.weights[c] for c in set(coords)), Fraction(0))


@dataclass(frozen=True)
class JointDistribution:
    """A probability distribution on the whole product space, row-major."""

    space: ProductSpace
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "weights", _fractions(self.weights))
        if len(self.weights) != self.space.total_size:
            raise CorrpolyError(
                f"need {self.space.total_size} weights, got {len(self.weights)}"
            )
        if any(w < 0 for w in self.weights):
            raise CorrpolyError("joint weights must be nonnegative")
        if sum(self.weights) != 1:
            raise CorrpolyError("joint weights must sum to exactly 1")

    def prob(self, state: MultiIndex) -> Fraction:
        return self.weights[self.space.ravel(state)]

    def prob_event(self, event: "Event") -> Fraction:
        _require_same_space(self.space, event.space)
        return sum((self.prob(s) for s in event.members), Fraction(0))

    def support(self) -> frozenset[MultiIndex]:
        return frozenset(s for s in self.space.states() if self.prob(s) > 0)

    def marginal(self, subspace_index: int) -> Marginal:
        sub = marginalize(self, [subspace_index])
        return Marginal(subspace_index, sub.weights)


@dataclass(frozen=True)
class Event:
    """A set of states.

    `bitmask` computes the event's integer key once and keeps it; an event
    made by `event_from_mask` keeps the mask it was made from.
    """

    space: ProductSpace
    members: frozenset[MultiIndex]

    def __post_init__(self):
        members = frozenset(tuple(m) for m in self.members)
        object.__setattr__(self, "members", members)
        for m in members:
            self.space.check_state(m)

    @classmethod
    def from_states(cls, space: ProductSpace, states: Iterable[MultiIndex]) -> "Event":
        return cls(space, frozenset(tuple(s) for s in states))

    @classmethod
    def empty(cls, space: ProductSpace) -> "Event":
        return cls(space, frozenset())

    @classmethod
    def full(cls, space: ProductSpace) -> "Event":
        return cls(space, frozenset(space.states()))

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, state: MultiIndex) -> bool:
        return tuple(state) in self.members

    def __or__(self, other: "Event") -> "Event":
        _require_same_space(self.space, other.space)
        return Event(self.space, self.members | other.members)

    def __and__(self, other: "Event") -> "Event":
        _require_same_space(self.space, other.space)
        return Event(self.space, self.members & other.members)

    def __sub__(self, other: "Event") -> "Event":
        _require_same_space(self.space, other.space)
        return Event(self.space, self.members - other.members)

    def __invert__(self) -> "Event":
        return Event(self.space, frozenset(self.space.states()) - self.members)

    def issubset(self, other: "Event") -> bool:
        _require_same_space(self.space, other.space)
        return self.members <= other.members

    def bitmask(self) -> int:
        """Canonical integer key: bit k set iff the state with flat index k is a member."""
        mask = self.__dict__.get("_mask")
        if mask is None:
            mask = 0
            for s in self.members:
                mask |= 1 << self.space.ravel(s)
            object.__setattr__(self, "_mask", mask)
        return mask


def event_from_mask(space: ProductSpace, mask: int) -> Event:
    """The event whose members are the states with a set bit in ``mask``
    (the inverse of `Event.bitmask`).  The states come from the space's
    `state_table`, so they need no check, and the event keeps ``mask``.
    Raises CorrpolyError unless 0 <= mask < 2^N."""
    table = space.state_table
    if not 0 <= mask < 1 << len(table):
        raise CorrpolyError(
            f"mask {mask} is not an event of a space with {len(table)} states"
        )
    event = object.__new__(Event)
    object.__setattr__(event, "space", space)
    object.__setattr__(
        event, "members", frozenset([table[k] for k in range(len(table)) if mask >> k & 1])
    )
    object.__setattr__(event, "_mask", mask)
    return event


@dataclass(frozen=True)
class Collection:
    """A family of at least two non-empty, pairwise disjoint subspace index sets."""

    members: tuple[frozenset[int], ...]

    def __post_init__(self):
        members = tuple(frozenset(m) for m in self.members)
        members = tuple(sorted(members, key=lambda s: sorted(s)))
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


@dataclass(frozen=True)
class Act:
    """A map from states to utility values (outcomes already passed through u)."""

    space: ProductSpace
    values: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", _fractions(self.values))
        if len(self.values) != self.space.total_size:
            raise CorrpolyError(
                f"need {self.space.total_size} values, got {len(self.values)}"
            )

    @classmethod
    def constant(cls, space: ProductSpace, value) -> "Act":
        return cls(space, tuple([Fraction(value)] * space.total_size))

    @classmethod
    def from_state_values(cls, space: ProductSpace, mapping: dict) -> "Act":
        values = [Fraction(0)] * space.total_size
        if len(mapping) != space.total_size:
            raise CorrpolyError("state/value mapping must cover every state")
        for state, v in mapping.items():
            values[space.ravel(tuple(state))] = Fraction(v)
        return cls(space, tuple(values))

    @classmethod
    def bet(cls, space: ProductSpace, event: Event, win, lose) -> "Act":
        """The binary act paying ``win`` on the event and ``lose`` off it."""
        _require_same_space(space, event.space)
        w, l = Fraction(win), Fraction(lose)
        values = [
            w if space.unravel(k) in event.members else l
            for k in range(space.total_size)
        ]
        return cls(space, tuple(values))

    def value(self, state: MultiIndex) -> Fraction:
        return self.values[self.space.ravel(state)]

    def splice(self, event: Event, other: "Act") -> "Act":
        """The act equal to ``self`` on the event and to ``other`` off it."""
        _require_same_space(self.space, event.space)
        _require_same_space(self.space, other.space)
        values = [
            self.values[k] if self.space.unravel(k) in event.members else other.values[k]
            for k in range(self.space.total_size)
        ]
        return Act(self.space, tuple(values))

    def __add__(self, other: "Act") -> "Act":
        _require_same_space(self.space, other.space)
        return Act(self.space, tuple(a + b for a, b in zip(self.values, other.values)))


def expectation(p: JointDistribution, f: Act) -> Fraction:
    _require_same_space(p.space, f.space)
    return sum((w * v for w, v in zip(p.weights, f.values)), Fraction(0))


def independent_product(
    marginals: Sequence[Marginal], space: Optional[ProductSpace] = None
) -> JointDistribution:
    """The coupling that assigns each state the product of its marginal weights."""
    indices = sorted(m.subspace_index for m in marginals)
    if indices != list(range(len(marginals))):
        raise CorrpolyError(
            f"need one marginal per subspace 0..{len(marginals) - 1}, got indices {indices}"
        )
    by_index = sorted(marginals, key=lambda m: m.subspace_index)
    if space is None:
        space = ProductSpace(tuple(m.size for m in by_index))
    else:
        if tuple(m.size for m in by_index) != space.subspace_sizes:
            raise SpaceMismatchError("marginal sizes do not match the space shape")
    weights = []
    for state in space.states():
        w = Fraction(1)
        for i, c in enumerate(state):
            w *= by_index[i].weights[c]
        weights.append(w)
    return JointDistribution(space, tuple(weights))


def marginalize(p: JointDistribution, indices: Iterable[int]) -> JointDistribution:
    """Marginal distribution of ``p`` on the sub-product over ``indices``."""
    idx = sorted(set(indices))
    if not idx:
        raise CorrpolyError("cannot marginalize onto an empty index set")
    sub = p.space.subspace(idx)
    weights = [Fraction(0)] * sub.total_size
    for state in p.space.states():
        key = tuple(state[i] for i in idx)
        weights[sub.ravel(key)] += p.prob(state)
    return JointDistribution(sub, tuple(weights))


def embed_cylinder(
    sub_event: Event, space: ProductSpace, indices: Iterable[int]
) -> Event:
    """Embed an event on the sub-product over ``indices`` as a cylinder in ``space``."""
    idx = sorted(set(indices))
    sub = space.subspace(idx)
    _require_same_space(sub_event.space, sub)
    members = [
        state
        for state in space.states()
        if tuple(state[i] for i in idx) in sub_event.members
    ]
    return Event.from_states(space, members)


def cylinder(space: ProductSpace, assignment: dict[int, int]) -> Event:
    """The cylinder of states agreeing with ``assignment`` (subspace -> coordinate)."""
    for i, c in assignment.items():
        if not 0 <= i < space.n_subspaces or not 0 <= c < space.subspace_sizes[i]:
            raise CorrpolyError(f"invalid cylinder assignment {assignment}")
    members = [
        state
        for state in space.states()
        if all(state[i] == c for i, c in assignment.items())
    ]
    return Event.from_states(space, members)


def embed_act(sub_act: Act, space: ProductSpace, indices: Iterable[int]) -> Act:
    """Embed an act on a sub-product as the act on ``space`` that ignores the rest."""
    idx = sorted(set(indices))
    sub = space.subspace(idx)
    _require_same_space(sub_act.space, sub)
    values = [
        sub_act.values[sub.ravel(tuple(state[i] for i in idx))]
        for state in space.states()
    ]
    return Act(space, tuple(values))


def is_independent_of(f: Act, indices: Iterable[int]) -> bool:
    """True iff ``f`` is a function of the subspaces in ``indices`` alone,
    i.e. f(w) == f(w') whenever the two states agree on those coordinates."""
    idx = sorted(set(indices))
    seen: dict[tuple[int, ...], Fraction] = {}
    for state in f.space.states():
        key = tuple(state[i] for i in idx)
        v = f.value(state)
        if key in seen:
            if seen[key] != v:
                return False
        else:
            seen[key] = v
    return True


def hamming_distance(a: MultiIndex, b: MultiIndex) -> int:
    if len(a) != len(b):
        raise SpaceMismatchError("states live on different spaces")
    return sum(1 for x, y in zip(a, b) if x != y)
