"""Act evaluation and behavioral characterizations.

Subspace preferences are expected utilities under fixed marginals; the
global preference is maxmin expected utility over a finite prior set given
by its vertices (a linear objective attains its minimum there).  The axiom
checkers decide by finite criteria equivalent to the axioms' act
quantifiers and corroborate with seeded behavioral searches: consistency
means every prior has the subspace marginals, full subspace independence
pins the prior set to the independent product, and collection independence
is exactly independence of the single prior on the collection.

The independence checkers read integer cell tables: a distribution's
weights as numerators over a common denominator D (one D for all vertices
of a prior set), summed into one row per state of one group of subspaces
and one column per state of another, the rest summed out.  The probability
of a product event E x F is then a cell sum over D, and the worst-case
value of an act on one subspace, spliced with a constant off a cylinder,
is a minimum of integer dot products.  Nothing is sampled or skipped: the
scan still tests every (event, cylinder) pair, drawn one at a time, up to
its first violated identity, and every behavioral trial is evaluated.
Collection independence is decided by the member-versus-rest scan alone,
by the chain rule: the prior is independent on the collection iff each
member is independent of the union of the others, and the scan stops at
the first dependent cell, the witness.  Events, acts and exact `Fraction`
values are built only for the witness or counterexample that is returned.
"""

from __future__ import annotations

import enum
import itertools
import math
import numbers
import random
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from . import lp
from ._value import FrozenValue, record
from .capacity import capacity_of, choquet_integral
from .errors import ConsistencyError, CorrpolyError
from .independence import event_family
from .linalg import fraction_tuple, integer_numerators, require_count
from .polytope import CorrelationSet
from .space import (
    Act,
    Collection,
    Event,
    JointDistribution,
    Marginal,
    ProductSpace,
    expectation,
    independent_product,
    marginalize,
    require_same_space,
    shared_marginals,
)


class UtilityAlignment(FrozenValue):
    """Positive affine map aligning one cardinal utility with another."""

    scale: Fraction
    shift: Fraction

    def __init__(self, scale=Fraction(1), shift=Fraction(0)):
        scale, shift = fraction_tuple((scale, shift))
        if scale <= 0:
            raise CorrpolyError("utility alignment scale must be positive")
        self._set(scale, shift)

    def apply(self, value: Fraction) -> Fraction:
        return self.scale * fraction_tuple((value,))[0] + self.shift


class SubspacePreference(FrozenValue):
    """Expected-utility preference on one subspace: a marginal belief plus
    the affine alignment of its Bernoulli index with the global one."""

    subspace_index: int
    marginal: Marginal
    utility: UtilityAlignment

    def __init__(
        self,
        subspace_index: int,
        marginal: Marginal,
        utility: UtilityAlignment = UtilityAlignment(),
    ):
        if marginal.subspace_index != subspace_index:
            raise CorrpolyError("marginal belongs to a different subspace")
        self._set(subspace_index, marginal, utility)


def _finite_real(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x)


class RiskUtility(FrozenValue):
    """Bernoulli utility over monetary outcomes: identity (risk neutral) or
    constant relative risk aversion with a positive scale normalizer.

    The CRRA branch uses the increasing normalization ((c/s)^(1-rho)-1)/(1-rho)
    (log for rho = 1) and is only defined for positive wealth; where c/s
    underflows to 0.0 it is computed from log c - log s.  Bad fields and a
    utility beyond the float range raise `CorrpolyError`.
    """

    rho: Optional[float]
    scale: float

    def __init__(self, rho: Optional[float] = None, scale: float = 1.0):
        if rho is not None and not _finite_real(rho):
            raise CorrpolyError(f"CRRA rho must be finite, got {rho!r}")
        if not (_finite_real(scale) and scale > 0):
            raise CorrpolyError(f"CRRA scale must be finite and positive, got {scale!r}")
        self._set(rho, scale)

    def apply(self, wealth) -> float:
        try:
            c = float(wealth)
        except OverflowError:
            raise CorrpolyError("wealth is beyond the float range") from None
        if self.rho is None:
            u = c
        elif c <= 0:
            raise CorrpolyError("CRRA utility needs positive scaled wealth")
        elif (x := c / self.scale) == 0.0:  # the quotient underflows: log x = log c - log scale
            log_x = math.log(c) - math.log(self.scale)
            if abs(self.rho - 1.0) < 1e-12:
                u = log_x
            else:
                try:
                    u = (math.exp((1.0 - self.rho) * log_x) - 1.0) / (1.0 - self.rho)
                except OverflowError:
                    u = math.inf
        elif abs(self.rho - 1.0) < 1e-12:  # x is inf when the quotient overflows
            u = math.log(x)
        else:
            try:
                u = (x ** (1.0 - self.rho) - 1.0) / (1.0 - self.rho)
            except OverflowError:
                raise CorrpolyError(f"CRRA utility of {x} overflows at rho={self.rho}") from None
        if not math.isfinite(u):
            raise CorrpolyError(f"the utility of wealth {c} is beyond the float range")
        return u


class PriorSet:
    """A convex, compact prior set given by the vertex list of its hull."""

    def __init__(self, space: ProductSpace, vertices: Sequence[JointDistribution]):
        if not vertices:
            raise CorrpolyError("prior set needs at least one vertex")
        for v in vertices:
            require_same_space(v.space, space, "prior vertex")
        unique: dict[tuple, JointDistribution] = {}
        for v in vertices:
            unique.setdefault(v.weights, v)
        self.space = space
        self.vertices: tuple[JointDistribution, ...] = tuple(
            unique[w] for w in sorted(unique)
        )

    @classmethod
    def singleton(cls, p: JointDistribution) -> "PriorSet":
        return cls(p.space, [p])

    @classmethod
    def from_correlation_set(cls, cs: CorrelationSet) -> "PriorSet":
        return cls(cs.space, list(cs.vertices()))

    def shared_marginals(self) -> tuple[Marginal, ...]:
        """The common marginals of all vertices; raises when they disagree."""
        return shared_marginals(self.vertices, "prior vertices")

    def is_null(self, event: Event) -> bool:
        """Null events carry zero probability under every prior."""
        return all(v.prob_event(event) == 0 for v in self.vertices)


def meu_minimizer(prior: PriorSet, f: Act) -> tuple[Fraction, int]:
    """Worst-case expected utility and the index of a minimizing vertex."""
    best = None
    best_idx = -1
    for k, v in enumerate(prior.vertices):
        val = expectation(v, f)
        if best is None or val < best:
            best = val
            best_idx = k
    return best, best_idx


def meu_value(prior: PriorSet, f: Act) -> Fraction:
    return meu_minimizer(prior, f)[0]


def seu_subspace_value(sp: SubspacePreference, f_i: Act) -> Fraction:
    """Expected utility of a subspace act under the subspace belief, after
    aligning its utility scale."""
    require_same_space(f_i.space, ProductSpace((sp.marginal.size,)), "act")
    return sum(
        (w * sp.utility.apply(v) for w, v in zip(sp.marginal.weights, f_i.values)),
        Fraction(0),
    )


@record
class ConsistencyReport:
    holds: bool
    violations: tuple[tuple[int, int], ...]  # (vertex index, subspace index)


def check_subspace_consistency(
    prior: PriorSet, subs: Sequence[SubspacePreference]
) -> ConsistencyReport:
    """Whether every prior vertex has each subspace preference's marginal.

    Utility alignment is carried by the preferences themselves and is not
    re-derived here; the report lists each (vertex, subspace) violation.
    """
    indices = sorted(sp.subspace_index for sp in subs)
    if indices != list(range(prior.space.n_subspaces)):
        raise CorrpolyError("need exactly one subspace preference per subspace")
    by_index = sorted(subs, key=lambda sp: sp.subspace_index)
    violations = []
    for k, v in enumerate(prior.vertices):
        for sp in by_index:
            if marginalize(v, [sp.subspace_index]).weights != sp.marginal.weights:
                violations.append((k, sp.subspace_index))
    return ConsistencyReport(not violations, tuple(violations))


@record
class AxiomCounterexample:
    """A tuple witnessing a subspace-independence violation: two subspace
    acts whose ranking flips once conditioned on a cylinder event."""

    subspace_index: int
    f_i: Act
    g_i: Act
    conditioning_event: Event  # on the complementary sub-product
    outside_value: Fraction
    base_values: tuple[Fraction, Fraction]
    conditioned_values: tuple[Fraction, Fraction]


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _cell_table(
    nums: Sequence[int], space: ProductSpace, rows: Sequence[int], cols: Sequence[int]
) -> list[list[int]]:
    """Integer weights of a distribution on ``space`` summed into cells: one
    row per state of the sub-product over ``rows``, one column per state of
    the sub-product over ``cols`` (both row-major), every other subspace
    summed out.  Cell sums over E x F are then the numerators of p([E x F])."""
    sizes = space.subspace_sizes
    n_cols = math.prod(sizes[j] for j in cols)
    table = [[0] * n_cols for _ in range(math.prod(sizes[i] for i in rows))]
    for r, c, n in zip(space.project(rows), space.project(cols), nums):
        if n:
            table[r][c] += n
    return table


def _prior_numerators(prior: PriorSet) -> tuple[list[list[int]], int]:
    """Every vertex's weights as integer numerators over one common denominator."""
    size = prior.space.total_size
    flat, denom = integer_numerators([w for v in prior.vertices for w in v.weights])
    return [flat[k : k + size] for k in range(0, len(flat), size)], denom


def _subspace_tables(prior: PriorSet, vertex_nums: Sequence[Sequence[int]], i: int):
    """Per vertex, the table of subspace ``i`` against the rest of the space."""
    others = [j for j in range(prior.space.n_subspaces) if j != i]
    return [_cell_table(nums, prior.space, [i], others) for nums in vertex_nums]


def _meu_values(tables, denom: int, f, g, chosen, outside) -> tuple[int, int, int, int]:
    """Worst-case expected utilities over the vertices whose subspace tables
    are ``tables``: of the subspace acts ``f`` and ``g``, then of each spliced
    with the constant ``outside`` off the cylinder of the ``chosen`` columns.
    Utilities are integers over a common scale s; the values are integers
    over s * denom."""
    best = None
    for table in tables:
        marg = [sum(row) for row in table]
        col = [sum(row[b] for b in chosen) for row in table]
        off = outside * (denom - sum(col))
        values = (
            sum(m * u for m, u in zip(marg, f)),
            sum(m * u for m, u in zip(marg, g)),
            sum(m * u for m, u in zip(col, f)) + off,
            sum(m * u for m, u in zip(col, g)) + off,
        )
        best = values if best is None else tuple(map(min, best, values))
    return best


def _violation(values) -> bool:
    base_f, base_g, cond_f, cond_g = values
    return _sign(base_f - base_g) != _sign(cond_f - cond_g)


def _prior_context(prior: PriorSet) -> dict:
    """The inputs that rebuild a prior set, as `ConsistencyError` context."""
    return {
        "shape": prior.space.subspace_sizes,
        "vertices": [[str(w) for w in v.weights] for v in prior.vertices],
    }


def _nonempty_subsets(size: int) -> Iterator[tuple[int, ...]]:
    """Non-empty subsets of range(size), by size, then lexicographically,
    drawn one at a time."""
    for r in range(1, size + 1):
        yield from itertools.combinations(range(size), r)


def _independence_scan(
    prior: PriorSet, marginals: Sequence[Marginal]
) -> Optional[AxiomCounterexample]:
    """Deterministic search for an axiom violation, following the structure
    of the equivalence proof: the axiom forces the worst-case probability of
    every product event to split as marginal weight times the worst case of
    its complementary part, so any prior set other than the independent
    product breaks one of these identities, which converts into an explicit
    pair of acts via a bet and its certainty equivalent.

    The worst cases alpha and beta are minima of cell sums of each vertex's
    table (subspace i against the rest); the acts, the conditioning event
    and the exact values are built only for the first violated identity.

    A block (i, A) is skipped, before its exponentially many sets S of rest
    states, when no identity in it can fail.  Each vertex's defect
    alpha_v(A, S) - pi * beta_v(S) is additive in S.  If it is zero on
    every single rest state, then alpha_v = pi * beta_v for every S, so
    min alpha_v = pi * min beta_v.  If moreover every vertex's rest
    marginal has the same support, then min beta_v(S) = 0 only where every
    beta_v(S) is 0, a null cylinder.  So the skip leaves the first
    violation, in the scan's own order, unchanged."""
    space = prior.space
    n = space.n_subspaces
    vertex_nums, denom = _prior_numerators(prior)
    for i in range(n):
        size = space.subspace_sizes[i]
        tables = _subspace_tables(prior, vertex_nums, i)
        rest_marginals = [[sum(col) for col in zip(*t)] for t in tables]
        same_support = len({tuple(w > 0 for w in m) for m in rest_marginals}) == 1
        for coords in _nonempty_subsets(size):
            if len(coords) == size:
                break  # the bets stop short of the whole subspace
            pi = marginals[i].prob_of(coords)
            if same_support and all(
                sum(t[a][b] for a in coords) * pi.denominator == pi.numerator * w
                for t, m in zip(tables, rest_marginals)
                for b, w in enumerate(m)
            ):
                continue  # every singleton defect is zero: no identity fails
            for chosen in _nonempty_subsets(len(tables[0][0])):
                cols = [[sum(row[b] for b in chosen) for row in t] for t in tables]
                betas = [sum(col) for col in cols]
                if not any(betas):
                    continue  # the cylinder is null
                beta = min(betas)
                alpha = min(sum(col[a] for a in coords) for col in cols)
                if beta == 0:
                    z = (pi + 1) / 2 if pi < 1 else pi / 2
                elif alpha * pi.denominator != pi.numerator * beta:
                    z = (Fraction(alpha, beta) + pi) / 2
                else:
                    continue
                return _scan_counterexample(prior, tables, denom, i, coords, chosen, z)
    return None


def _scan_counterexample(prior, tables, denom, i, coords, chosen, z) -> AxiomCounterexample:
    """The bet on ``coords`` against the constant ``z``, conditioned on the
    cylinder of the ``chosen`` complementary states with 0 outside, checked
    to flip the ranking."""
    space = prior.space
    sub_space = space.subspace([i])
    comp_space = space.subspace([j for j in range(space.n_subspaces) if j != i])
    f_i = Act.bet(sub_space, Event(sub_space, sum(1 << c for c in coords)), 1, 0)
    g_i = Act.constant(sub_space, z)
    nums, scale = integer_numerators([*f_i.values, *g_i.values])
    size = len(f_i.values)
    scaled = _meu_values(tables, denom, nums[:size], nums[size:], chosen, 0)
    if not _violation(scaled):
        raise ConsistencyError(
            "constructed tuple failed to witness the violation",
            **_prior_context(prior),
            subspace=i,
        )
    values = [Fraction(v, scale * denom) for v in scaled]
    return AxiomCounterexample(
        subspace_index=i,
        f_i=f_i,
        g_i=g_i,
        conditioning_event=Event(comp_space, sum(1 << b for b in chosen)),
        outside_value=Fraction(0),
        base_values=(values[0], values[1]),
        conditioned_values=(values[2], values[3]),
    )


def _behavioral_trials(prior: PriorSet, trials: int, seed: int):
    """Seeded random act tuples for the subspace-independence axiom.

    Each trial draws a subspace, two subspace acts and an outside value on
    the grid k/8 and a complementary event; trials whose cylinder is null
    are skipped.  Yields the trial index and the four worst-case values
    (base f, base g, conditioned f, conditioned g) as integers over
    8 * D, D the prior's common denominator."""
    space = prior.space
    n = space.n_subspaces
    if trials > 0 and n < 2:
        raise CorrpolyError("behavioral trials need at least two subspaces")
    vertex_nums, denom = _prior_numerators(prior)
    tables = [_subspace_tables(prior, vertex_nums, i) for i in range(n)]
    rng = random.Random(seed)
    for trial in range(trials):
        i = rng.randrange(n)
        size = space.subspace_sizes[i]
        f = [rng.randint(0, 8) for _ in range(size)]
        g = [rng.randint(0, 8) for _ in range(size)]
        n_comp = len(tables[i][0][0])
        chosen = [b for b in range(n_comp) if rng.random() < 0.5]
        if not chosen:
            chosen = [rng.randrange(n_comp)]
        if not any(row[b] for t in tables[i] for row in t for b in chosen):
            continue  # the cylinder is null
        x = rng.randint(0, 8)
        yield trial, _meu_values(tables[i], denom, f, g, chosen, x)


def check_subspace_independence_axiom(
    prior: PriorSet, trials: int = 10000, seed: int = 0
) -> tuple[bool, Optional[AxiomCounterexample]]:
    """Decide the subspace-independence axiom for a consistent prior set.

    The criterion is exact: the axiom holds iff the prior set is the
    singleton independent product of the shared marginals.  When it fails, a
    deterministic scan returns an explicit counterexample tuple; when it
    holds, ``trials`` seeded random act tuples corroborate that no violation
    exists (any hit would be an internal error, not a verdict change).
    A ``trials`` that is no integer >= 0, or a ``seed`` that is no integer,
    raises `CorrpolyError`.
    """
    require_count(trials, "trials", 0)
    require_count(seed, "seed", None)
    marginals = prior.shared_marginals()
    p_ind = independent_product(marginals, prior.space)
    verdict = len(prior.vertices) == 1 and prior.vertices[0].weights == p_ind.weights
    if not verdict:
        counterexample = _independence_scan(prior, marginals)
        if counterexample is None:
            raise ConsistencyError(
                "prior set differs from the independent product but no "
                "violating tuple was found",
                **_prior_context(prior),
            )
        return False, counterexample
    for trial, values in _behavioral_trials(prior, trials, seed):
        if _violation(values):
            raise ConsistencyError(
                "behavioral trial violated the axiom although the prior set "
                "is the independent product",
                **_prior_context(prior),
                seed=seed,
                trial=trial,
            )
    return True, None


@record
class ProductIdentityWitness:
    """Events violating the conditioning-invariance product identity
    p([E x F]) p([E' x F']) = p([E x F']) p([E' x F])."""

    anchor_member: frozenset[int]
    e: Event
    e_prime: Event
    f: Event
    f_prime: Event
    lhs: Fraction
    rhs: Fraction


def _product_identity_witness(
    p: JointDistribution, coll: Collection
) -> Optional[ProductIdentityWitness]:
    """The first member-versus-rest factorization pair, member by member,
    that breaks the product identity: E' and F' are the full events, so the
    identity reads p([E x F]) = p(E) p(F).  Its defect is bilinear in
    (E, F), the sum of the cell defects of the member-versus-rest table over
    E x F, so some pair breaks it exactly when some cell does.  The witness
    is the first dependent cell (a, b), rows slowest, as the singleton
    events E = {a} and F = {b}: the first pair when E and F each run over
    the non-empty subsets by size, then lexicographically.  Each cell costs
    two integer products."""
    space = p.space
    nums, denom = integer_numerators(p.weights)
    for member in coll.members:
        idx = sorted(member)
        j0 = sorted(coll.union() - member)
        table = _cell_table(nums, space, idx, j0)
        col_mass = [sum(col) for col in zip(*table)]
        for a, row in enumerate(table):
            row_mass = sum(row)
            for b, (cell, mass) in enumerate(zip(row, col_mass)):
                if cell * denom != row_mass * mass:
                    sub_a = space.subspace(idx)
                    sub_b = space.subspace(j0)
                    return ProductIdentityWitness(
                        member,
                        Event(sub_a, 1 << a),
                        Event.full(sub_a),
                        Event(sub_b, 1 << b),
                        Event.full(sub_b),
                        Fraction(cell, denom),
                        Fraction(row_mass * mass, denom * denom),
                    )
    return None


def check_collection_independence_axiom(
    p: JointDistribution, coll: Collection
) -> tuple[bool, Optional[ProductIdentityWitness]]:
    """Decide collection independence for a single (expected-utility) prior.

    The axiom holds iff the prior is independent on the collection, and by
    the chain rule that holds iff every member is independent of the union
    of the others: exactly what the member-versus-rest scan
    (`_product_identity_witness`) tests.  So the scan decides, and when the
    axiom fails it returns the first dependent cell, as singleton events.
    """
    coll.check_space(p.space)
    witness = _product_identity_witness(p, coll)
    return witness is None, witness


def more_correlation_averse(prior: PriorSet, other: PriorSet) -> bool:
    """Whether the first preference is more correlation averse: same
    marginals and the second prior set contained in the hull of the first
    (exact LP feasibility per vertex).  Only the prior sets are compared;
    the two utilities are taken to agree up to a positive affine map."""
    shared_marginals(prior.vertices + other.vertices, "prior sets")
    hull = [v.weights for v in prior.vertices]
    return all(lp.in_convex_hull(v.weights, hull) for v in other.vertices)


class RevealedCorrelation(enum.Enum):
    MORE_POSITIVE = "more-positive"
    MORE_NEGATIVE = "more-negative"
    EQUAL = "equal"


def compare_revealed_correlation(
    p: JointDistribution,
    other: JointDistribution,
    coll: Collection,
    events: Sequence[Event],
) -> RevealedCorrelation:
    """Order two same-marginal beliefs by the probability they assign to the
    intersection cylinder of the event family."""
    coll.check_space(p.space)
    shared_marginals([p, other], "beliefs")
    target, _ = event_family(p, coll, events)
    a = p.prob_event(target)
    b = other.prob_event(target)
    if a > b:
        return RevealedCorrelation.MORE_POSITIVE
    if a < b:
        return RevealedCorrelation.MORE_NEGATIVE
    return RevealedCorrelation.EQUAL


def absolute_revealed_correlation(
    p: JointDistribution, coll: Collection, events: Sequence[Event]
) -> int:
    """Sign of the belief's correlation on the event family relative to the
    independent benchmark built from its own marginals: +1, 0 or -1."""
    target, product = event_family(p, coll, events)
    return _sign(p.prob_event(target) - product)


def ceu_value(cs: CorrelationSet, f: Act) -> Fraction:
    """Choquet expected utility of an act against the lower envelope of the
    correlation set."""
    return choquet_integral(capacity_of(cs), f)
