"""Entropy, Kullback-Leibler divergence and mutual information (base 2).

Mutual information of a coupling is its divergence from the independent
product of its marginals: zero exactly at independence, strictly convex on
the correlation set, and locally maximal exactly at the extreme points.
These are the only floating-point quantities in the package; strictness
checks carry a 1e-12 slack, and the local-maximum verdict is exact
(`certify_local_max_mi`).

Every float here comes from one loop, `_divergence`, the only place that
takes a logarithm.  It reads exact rationals as integer weights over a
common denominator (`linalg.integer_numerators`): ``float(w)`` is taken as
``n / D`` and ``float(w / q)`` as ``(n * D_q) / (D * m)``.  Integer true
division is correctly rounded, as ``Fraction.__float__`` is, so each value
equals, float for float, the sum over the exact rationals, whatever common
denominator they are written over.  `kl_divergence` is that loop on two
distributions, `mutual_information` on a member and the independent
product, and `entropy` is minus it on a distribution and the counting
measure.  The identity MI = sum_i H(p_i) - H(p) is a test, not a check made
on each evaluation.  Membership is checked once per point
(`mutual_information`: its argument; `certify_local_max_mi`: ``p`` and each
probe point), and the check returns the integer weights that are evaluated.
The ladder points between them are convex combinations of two members,
hence members, and are evaluated directly from their integer weights.

Probe points are integer numerators over one denominator, end to end: no
probe builds a `JointDistribution`, and the probe path builds no `Fraction`,
since the face is read in integers (`polytope._face_directions`: the face
basis times the least common denominator of its entries).  Drawn couplings
stay integers from the draw (`polytope._draw_member`, which sums the
rectangle kernel on each vector's four corners) through the test for
equality with ``p`` (by cross-multiplication) to the membership check
(`CorrelationSet.require_numerators`: nonnegativity and every marginal
row).  Along a probe, the ladder's mixed numerators pass from one rung to
the next by one exact integer update (halving the mixing weight s/t adds
t times ``p``'s scaled numerators), so each rung is the same integers over
the same denominator as mixing it afresh, and `_divergence` the same float.
The reflections through ``p`` and the face points, which only a point that
is not a vertex gets, are integer directions followed to the boundary of
the simplex by the sampler's own line search
(`polytope._largest_step`), so there is one least-ratio routine for both.
Their denominators are not reduced; `_divergence` gives the same floats
over any common denominator.  Probe points are built on demand, as the ladder
reaches them: at a point that is not a vertex the ladder usually stops at
its first direction, and the points after it are never built.  A vertex
gets no reflected probes: no reflection through a vertex is feasible, since
a feasible one would put the vertex strictly inside a segment of the set.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import NamedTuple

from .errors import ConsistencyError, CorrpolyError
from .linalg import fraction_tuple, integer_numerators, require_count
from .polytope import CorrelationSet, _draw_member, _face_directions, _largest_step
from .polytope import mix  # noqa: F401  (still importable from corrpoly.info)
from .space import JointDistribution, Marginal, require_same_space

STRICTNESS_SLACK = 1e-12
MAX_HALVINGS = 20  # a certificate's step ladder has MAX_HALVINGS + 3 rungs


class MutualInformationReport(NamedTuple):
    """The mutual information ``value`` (bits) of a member, whether it is a
    local maximum, the number of probe points the seeded ladder evaluated
    and the largest increase of MI it saw, 0.0 if none (see
    `certify_local_max_mi`)."""

    value: float
    is_local_max: bool
    probe_count: int
    max_observed_increase: float


def _divergence(nums, denom: int, ref, ref_denom: int) -> float:
    """D(p || q) in bits for the integer weights ``nums`` of p over ``denom``
    and ``ref`` of q over ``ref_denom``; +inf at the first state that p
    charges and q does not.  The terms are summed left to right: the builtin
    ``sum`` compensates rounding from Python 3.12 on, so it would print
    different last digits on different supported versions.  A ratio whose
    quotient overflows a float, or underflows to 0.0, has its log taken as
    the difference of the logs of its integer numerator and denominator."""
    log2 = math.log2
    total = 0.0
    for n, m in zip(nums, ref):
        if n == 0:
            continue
        if m == 0:
            return math.inf
        try:
            total += n / denom * log2(n * ref_denom / (denom * m))
        except (OverflowError, ValueError):  # the quotient is outside the float range
            total += n / denom * (log2(n * ref_denom) - log2(denom * m))
    return total


def entropy(p: JointDistribution | Marginal) -> float:
    """Shannon entropy in bits, with the 0 log 0 = 0 convention: minus the
    divergence from the counting measure.  A point mass has ``0.0``."""
    nums, denom = integer_numerators(p.weights)
    return 0.0 - _divergence(nums, denom, [1] * len(nums), 1)


def kl_divergence(p: JointDistribution, q: JointDistribution) -> float:
    """Relative entropy D(p || q) in bits; +inf when supp(p) is not inside supp(q)."""
    require_same_space(q.space, p.space, "distribution")
    return _divergence(*integer_numerators(p.weights), *integer_numerators(q.weights))


def mutual_information(cs: CorrelationSet, p: JointDistribution) -> float:
    """Divergence of the coupling from the independent product of the
    prescribed marginals."""
    return _divergence(*cs.require_member(p), *cs.independent_numerators)


def _boundary_point(a, a_denom, direction):
    """The point a / a_denom + t * direction at the largest t that keeps it
    nonnegative (`polytope._largest_step`), as (nums, denom); None when
    that t is 0.  A positive scale of ``direction`` gives the same point."""
    num, den = _largest_step(a, direction)
    if num == 0:
        return None
    return [x * den + num * d for x, d in zip(a, direction)], a_denom * den


def _probe_points(cs, a, a_denom, probes, rng, face):
    """Seeded probe points spanning the feasible directions at the member
    whose integer weights are ``a`` over ``a_denom``, as integer numerators
    over one denominator (not reduced) and built on demand: the ladder
    stops at the first direction that does not decrease, and no point past
    it is built.

    Random couplings explore directions that leave the support of the
    member; they are drawn in integers (`polytope._draw_member`) and
    compared with it by cross-multiplication.  Each draw b / b_denom is
    paired with its reflection through the member whenever that is
    feasible: the direction a * b_denom - b * a_denom, over
    a_denom * b_denom, followed to the boundary.  The first direction
    inside the face (the first integer vector of ``face``,
    `polytope._face_directions`) is probed last, in both senses.  MI is
    strictly convex along it, so its one-sided slopes in the two senses
    are g and -g, and in one sense no point of the segment lowers MI: the
    ladder stops there at the latest, and no further face direction could
    change a report.  The boundary point of every direction comes from the
    sampler's line search (`polytope._largest_step`), so reflections and
    face points never leave the integers.  At an extreme point (``face``
    empty) there is no face direction and no reflection is feasible: were
    p + t (p - q) >= 0 for some t > 0, p would lie strictly inside the
    segment from q to that point.  So a vertex gets no reflection and only
    outward directions remain, and its probes are the integer draws alone.
    The points and the rng draws are those of building every point up
    front, in the same order.
    """
    for _ in range(probes):
        b, b_denom = _draw_member(cs, rng)
        if all(x * b_denom == y * a_denom for x, y in zip(a, b)):
            continue  # q is p, and so is its reflection
        yield b, b_denom
        if face:
            back = [x * b_denom - y * a_denom for x, y in zip(a, b)]
            point = _boundary_point(a, a_denom, back)
            if point is not None:
                yield point
    for direction in face[:1]:
        for sign in (1, -1):
            point = _boundary_point(a, a_denom, [sign * x for x in direction])
            if point is not None:
                yield point


def certify_local_max_mi(
    cs: CorrelationSet,
    p: JointDistribution,
    probes: int = 64,
    step: Fraction = Fraction(1, 8),
    seed: int = 0,
) -> MutualInformationReport:
    """Local-maximality certificate for mutual information at the member ``p``.

    The verdict is exact: ``p`` is a local maximum iff it is a vertex, iff
    its face (`polytope.face_basis`, read in integers) is trivial.  On the
    set MI is sum_k p_k log p_k plus a linear term (the product of the
    marginals is fixed).  At a vertex
    every feasible direction charges a state where p is 0, where the
    one-sided slope of t log t is -inf.  Elsewhere a face direction d is
    feasible in both senses and MI has second derivative
    sum_k d_k^2 / p_k > 0 along it, so one sense does not decrease MI.

    The seeded ladder fills ``probe_count`` and ``max_observed_increase``:
    toward each probe point (see ``_probe_points``) it tries the mixing
    weights ``step``, ``step / 2``, ...; a direction decreases when three
    consecutive rungs lower MI by more than ``STRICTNESS_SLACK``, and the
    ladder stops at the first that does not, which at a vertex is the float
    limit of skewed marginals.  Probe points are integer numerators over one
    denominator from the draw to the ladder: reflections and face points
    are found by the sampler's line search in integers.  Each is checked
    for membership in integers (nonnegativity and every marginal row,
    `CorrelationSet.require_numerators`) as it enters the loop; they are
    built as the ladder reaches them, so none past that stop is built; a
    vertex gets no reflected probes, because no reflection through a vertex
    is feasible.  Decreasing along every probe at a non-vertex contradicts
    the argument above: `ConsistencyError`, whose context holds the set,
    ``p``'s weights and the ``seed``, ``probes`` and ``step`` that drew the
    probes.  A ``probes`` that is no integer >= 0, a ``seed`` that is no
    integer (``None`` would seed from the operating system, so equal calls
    could differ), or a ``step`` that is no finite rational, raises
    `CorrpolyError`.
    """
    (step,) = fraction_tuple((step,))
    require_count(probes, "probes", 0)
    require_count(seed, "seed", None)
    if not 0 < step <= 1:
        raise CorrpolyError(
            f"the first mixing weight (step) must be positive and at most 1, got {step}"
        )
    a, a_denom = cs.require_member(p)
    face, _ = _face_directions(cs, a)
    ind, ind_denom = cs.independent_numerators
    base = _divergence(a, a_denom, ind, ind_denom)
    rng = random.Random(seed)
    max_increase = 0.0
    evaluated = 0
    for b, b_denom in _probe_points(cs, a, a_denom, probes, rng, face):
        evaluated += 1
        cs.require_numerators(b, b_denom, "probe point")
        # (1 - s/t) p + (s/t) q has the numerators (t - s) a b_denom + s b a_denom
        # over t a_denom b_denom; halving s/t (t to 2t) adds t a b_denom to them
        a_scaled = [x * b_denom for x in a]
        ab_denom = a_denom * b_denom
        s, t = step.numerator, step.denominator
        mixed = [(t - s) * x + s * y * a_denom for x, y in zip(a_scaled, b)]
        decreases_somewhere = False
        run = 0
        for rung in range(MAX_HALVINGS + 3):
            if rung:
                mixed = [m + t * x for m, x in zip(mixed, a_scaled)]
                t *= 2
            delta = _divergence(mixed, t * ab_denom, ind, ind_denom) - base
            if delta > max_increase:
                max_increase = delta
            run = run + 1 if delta < -STRICTNESS_SLACK else 0
            if run == 3:
                decreases_somewhere = True
                break
        if not decreases_somewhere:
            break
    else:  # every probe direction decreases
        if face:
            raise ConsistencyError(
                "MI decreased along every probe at a point that is not a vertex",
                **cs.reproducer(),
                weights=[str(w) for w in p.weights],
                seed=seed,
                probes=probes,
                step=str(step),
            )
    return MutualInformationReport(
        value=base,
        is_local_max=not face,
        probe_count=evaluated,
        max_observed_increase=max_increase,
    )
