import decimal
import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corrpoly import (
    ConsistencyError,
    CorrelationSet,
    CorrpolyError,
    JointDistribution,
    Marginal,
    NotInCorrelationSetError,
    ProductSpace,
    certify_local_max_mi,
    entropy,
    is_maximally_zero,
    kl_divergence,
    linalg,
    load,
    mix,
    mutual_information,
    sample_member,
)
from corrpoly.polytope import face_basis
from conftest import (
    DEGENERATE_MARGINALS,
    SCENARIO_DIR,
    correlation_set_of,
    random_correlation_set,
)
from bruteforce import (
    certify_local_max_mi_reference,
    entropy_reference,
    kl_divergence_reference,
    mutual_information_reference,
    oracle_vertices,
    probe_points_reference,
)

F = Fraction


def _joint(space, *weights):
    return JointDistribution(space, tuple(F(w) for w in weights))


def test_entropy_basics():
    space = ProductSpace((4,))
    # a point mass has entropy 0.0, not -0.0
    assert entropy(_joint(space, 1, 0, 0, 0)).hex() == "0x0.0p+0"
    assert entropy(_joint(ProductSpace((1,)), 1)).hex() == "0x0.0p+0"
    assert entropy(_joint(space, F(1, 4), F(1, 4), F(1, 4), F(1, 4))) == pytest.approx(2.0)
    assert entropy(_joint(space, F(1, 2), F(1, 2), 0, 0)) == pytest.approx(1.0)


def test_entropy_sums_left_to_right():
    # on the finance belief at a = 1/12 a compensated sum (the builtin
    # ``sum`` from Python 3.12 on) rounds to 2.63628933528331
    p = load(SCENARIO_DIR / "finance.scn").prior_set(param_value=F(1, 12)).vertices[0]
    expected = 0.0
    for w in p.weights:
        expected += float(w) * math.log2(float(w))
    assert entropy(p) == -expected
    assert repr(entropy(p)) == "2.6362893352833097"


def test_kl_divergence_basics():
    space = ProductSpace((2,))
    p = _joint(space, 1, 0)
    q = _joint(space, F(1, 2), F(1, 2))
    assert kl_divergence(p, p) == 0.0
    assert kl_divergence(p, q) == pytest.approx(1.0)
    assert kl_divergence(q, p) == math.inf


def test_mutual_information_values(uniform_2x2):
    cs = uniform_2x2
    assert mutual_information(cs, cs.independent_product) == 0.0
    diag = _joint(cs.space, F(1, 2), 0, 0, F(1, 2))
    assert mutual_information(cs, diag) == pytest.approx(1.0, abs=1e-12)
    tilted = _joint(cs.space, F(3, 8), F(1, 8), F(1, 8), F(3, 8))
    expected = 0.75 * math.log2(1.5) - 0.25  # direct evaluation of the divergence
    assert mutual_information(cs, tilted) == pytest.approx(expected, abs=1e-12)


def test_mutual_information_requires_membership(uniform_2x2):
    outsider = _joint(uniform_2x2.space, 1, 0, 0, 0)
    with pytest.raises(NotInCorrelationSetError):
        mutual_information(uniform_2x2, outsider)


def test_mutual_information_nonnegative_on_random_members():
    rng = random.Random(21)
    for sizes in ((2, 2), (2, 3), (2, 2, 2)):
        cs = random_correlation_set(sizes, rng)
        for _ in range(20):
            p = sample_member(cs, rng)
            value = mutual_information(cs, p)  # also cross-checks the decomposition
            assert value >= -1e-12
            if p.weights == cs.independent_product.weights:
                assert value == 0.0


def test_strict_convexity_along_segments():
    rng = random.Random(22)
    cs = random_correlation_set((2, 3), rng)
    for _ in range(20):
        p = sample_member(cs, rng)
        q = sample_member(cs, rng)
        if p.weights == q.weights:
            continue
        lhs = mutual_information(cs, mix(p, q, F(1, 2)))
        rhs = (mutual_information(cs, p) + mutual_information(cs, q)) / 2
        assert lhs < rhs - 1e-12 or (lhs < rhs and rhs - lhs > 0)


def test_certificates_on_uniform_square(uniform_2x2):
    cs = uniform_2x2
    for v in cs.vertices():
        report = certify_local_max_mi(cs, v)
        assert report.is_local_max
        assert report.probe_count > 0
    assert not certify_local_max_mi(cs, cs.independent_product).is_local_max


def test_certificates_reject_midpoints(skew_2x2):
    cs = skew_2x2
    a, b = cs.vertices()
    midpoint = mix(a, b, F(1, 2))
    assert not certify_local_max_mi(cs, midpoint).is_local_max
    assert not certify_local_max_mi(cs, cs.independent_product).is_local_max
    for v in (a, b):
        assert certify_local_max_mi(cs, v).is_local_max


def test_certificate_handles_skewed_marginals():
    # coarse fixed steps would overshoot the local neighborhood of the
    # low-information vertex here; the shrinking ladder must not
    space = ProductSpace((2, 2))
    cs = CorrelationSet(
        space,
        [
            Marginal(0, (F(1, 100), F(99, 100))),
            Marginal(1, (F(1, 100), F(99, 100))),
        ],
    )
    for v in cs.vertices():
        assert certify_local_max_mi(cs, v).is_local_max


def _tiny_marginals(eps):
    """The (2,2) set with both marginals (eps, 1 - eps): two vertices, and
    the product lies at mixing weight about eps from vertex 0."""
    return CorrelationSet(
        ProductSpace((2, 2)), [Marginal(i, (eps, 1 - eps)) for i in range(2)]
    )


@pytest.mark.parametrize("eps", [F(1, 100000), F(1, 200000), F(1, 1000000)])
def test_certificate_is_exact_on_tiny_marginals(eps):
    cs = _tiny_marginals(eps)
    assert len(cs.vertices()) == 2
    for v in cs.vertices():
        assert certify_local_max_mi(cs, v).is_local_max
    assert not certify_local_max_mi(cs, cs.independent_product).is_local_max


@pytest.mark.parametrize("eps", [F(1, 200000), F(1, 1000000)])
def test_float_reference_parts_from_the_exact_verdict_on_tiny_marginals(eps):
    # along an edge from vertex 0 the last rungs lower mutual information by
    # only 1e-13 to 1e-11 bits, around the 1e-12 strictness slack, so the
    # float ladder of the reference rejects a true vertex; the library
    # reports the same probes and increase with the exact verdict
    cs = _tiny_marginals(eps)
    vertex = cs.vertices()[0]
    want = certify_local_max_mi_reference(cs, vertex)
    assert not want.is_local_max
    assert certify_local_max_mi(cs, vertex) == want._replace(is_local_max=True)


def _divergence_in_decimal(p, q):
    """D(p || q) in bits, in 60-digit decimal arithmetic: an exponent range
    far beyond a float's."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        ln2 = decimal.Decimal(2).ln()
        total = decimal.Decimal(0)
        for a, b in zip(p, q):
            if a:
                ratio = decimal.Decimal(a.numerator * b.denominator) / (a.denominator * b.numerator)
                total += decimal.Decimal(a.numerator) / a.denominator * ratio.ln() / ln2
        return float(total)


def test_divergences_of_ratios_beyond_the_float_range():
    # on uniform marginals the weight 10^-400 has a ratio to its product
    # weight that underflows a float to 0.0
    eps = F(1, 10**400)
    cs = CorrelationSet(ProductSpace((2, 2)), [Marginal(i, (F(1, 2), F(1, 2))) for i in range(2)])
    p = JointDistribution(cs.space, (F(1, 2) - eps, eps, eps, F(1, 2) - eps))
    mi = mutual_information(cs, p)
    assert mi == kl_divergence(p, cs.independent_product) == pytest.approx(1.0, rel=1e-15)
    assert mi == pytest.approx(_divergence_in_decimal(p.weights, cs.independent_product.weights))
    assert entropy(p) == pytest.approx(1.0, rel=1e-15)
    report = certify_local_max_mi(cs, p)
    assert report.value == mi and not report.is_local_max
    assert math.isfinite(report.max_observed_increase)
    # on marginals (10^-200, 1 - 10^-200) the vertex that charges (0,0,0)
    # has 10^-200 there against the product's 10^-600: the ratio overflows
    t = F(1, 10**200)
    cs = CorrelationSet(ProductSpace((2, 2, 2)), [Marginal(i, (t, 1 - t)) for i in range(3)])
    (vertex,) = [v for v in cs.vertices() if v.weights[0] > 0]
    mi = mutual_information(cs, vertex)
    assert mi == pytest.approx(_divergence_in_decimal(vertex.weights, cs.independent_product.weights), rel=1e-12)
    assert 0 < mi < 1e-190
    assert certify_local_max_mi(cs, vertex).is_local_max


def test_certificate_trivial_singleton():
    cs = CorrelationSet(ProductSpace((3,)), [Marginal(0, (F(1, 2), F(1, 3), F(1, 6)))])
    report = certify_local_max_mi(cs, cs.vertices()[0])
    assert report.is_local_max
    assert report.probe_count == 0
    assert report.max_observed_increase == 0.0


def test_certificate_rejects_boundary_face_points():
    # a mix of two vertices whose supports do not cover the space sits on a
    # proper face; the in-face probe directions must reject it
    rng = random.Random(77)
    found = 0
    for _ in range(12):
        cs = random_correlation_set((2, 3), rng)
        vertices = cs.vertices()
        for i in range(len(vertices)):
            for j in range(i + 1, len(vertices)):
                a, b = vertices[i], vertices[j]
                union = {
                    k
                    for k, w in enumerate(a.weights)
                    if w > 0 or b.weights[k] > 0
                }
                if len(union) < cs.space.total_size:
                    m = mix(a, b, F(1, 3))
                    assert not certify_local_max_mi(cs, m, probes=8).is_local_max
                    found += 1
                    break
            else:
                continue
            break
    assert found >= 3  # the construction is common enough to appear


def test_triangle_on_random_instances():
    # extreme points, maximal zero sets and certified local maxima coincide
    rng = random.Random(23)
    from corrpoly import is_maximally_zero

    for sizes in ((2, 2), (2, 3), (2, 2, 2)):
        cs = random_correlation_set(sizes, rng)
        vertices = cs.vertices()
        for v in vertices:
            assert is_maximally_zero(cs, v)
            assert certify_local_max_mi(cs, v, probes=32).is_local_max
        for _ in range(10):
            p = sample_member(cs, rng)
            if any(p.weights == v.weights for v in vertices):
                continue
            assert not is_maximally_zero(cs, p)
            assert not certify_local_max_mi(cs, p, probes=32).is_local_max


def _certificate_points(cs, rng):
    """Vertices, the independent product, vertex midpoints and sampled members."""
    vertices = list(cs.vertices())
    points = vertices + [cs.independent_product]
    for _ in range(min(3, len(vertices) - 1)):
        a, b = rng.sample(vertices, 2)
        points.append(mix(a, b, F(1, 2)))
    points += [sample_member(cs, rng) for _ in range(3)]
    return points


def _degenerate_sets():
    """Zero-weight marginal states and 1-state subspaces."""
    half, third = F(1, 2), F(1, 3)
    yield CorrelationSet(
        ProductSpace((2, 3)), [Marginal(0, (half, half)), Marginal(1, (half, 0, half))]
    )
    yield CorrelationSet(
        ProductSpace((3, 3)),
        [Marginal(0, (0, third, 2 * third)), Marginal(1, (F(1, 4), F(3, 4), 0))],
    )
    yield CorrelationSet(
        ProductSpace((2, 1, 3)),
        [Marginal(0, (F(1, 4), F(3, 4))), Marginal(1, (F(1),)),
         Marginal(2, (F(1, 6), F(1, 2), third))],
    )
    yield CorrelationSet(ProductSpace((1, 1)), [Marginal(0, (F(1),)), Marginal(1, (F(1),))])


def _random_sets():
    rng = random.Random(31)
    for sizes in ((1, 3), (2, 2), (2, 3), (3, 3), (2, 2, 2)):
        yield random_correlation_set(sizes, rng)


@pytest.mark.parametrize("cs", [*_random_sets(), *_degenerate_sets()],
                         ids=lambda cs: "x".join(map(str, cs.space.subspace_sizes)))
def test_certificate_equals_per_step_reference(cs):
    # the integer ladder reports exactly, float for float, what evaluating
    # mutual_information(cs, mix(p, q, lam)) over Fractions at every rung does
    rng = random.Random(32)
    for p in _certificate_points(cs, rng):
        assert mutual_information(cs, p) == mutual_information_reference(cs, p)
        for probes, step, seed in ((8, F(1, 8), 7), (rng.randint(0, 12), F(rng.randint(1, 7), 7), 3)):
            got = certify_local_max_mi(cs, p, probes=probes, step=step, seed=seed)
            want = certify_local_max_mi_reference(cs, p, probes=probes, step=step, seed=seed)
            assert got == want


def _information_sets():
    """Random, degenerate and conftest's degenerate sets, and a (2,3) set
    whose denominators reach 10**30."""
    yield from _random_sets()
    yield from _degenerate_sets()
    for weights in DEGENERATE_MARGINALS.values():
        yield correlation_set_of(weights)
    tiny = F(1, 10 ** 30)
    yield correlation_set_of([(tiny, 1 - tiny), (F(1, 3), F(1, 3) - tiny, F(1, 3) + tiny)])


@pytest.mark.parametrize("cs", list(_information_sets()),
                         ids=lambda cs: "x".join(map(str, cs.space.subspace_sizes)))
def test_divergence_and_entropy_equal_the_fraction_loops(cs):
    # the integer loop returns, bit for bit, what summing the Fraction terms
    # does; pairs of members with different supports cover inf
    # (+ 0.0: the Fraction loop gives a point mass -0.0, the package 0.0)
    points = _certificate_points(cs, random.Random(33))
    for p in points:
        assert entropy(p).hex() == (entropy_reference(p) + 0.0).hex()
        for q in points:
            assert kl_divergence(p, q).hex() == kl_divergence_reference(p, q).hex()
        assert mutual_information(cs, p).hex() == kl_divergence_reference(
            p, cs.independent_product).hex()
    for m in cs.marginals:
        assert entropy(m).hex() == (entropy_reference(m) + 0.0).hex()
    if cs.vertices()[0].weights != cs.independent_product.weights:
        assert kl_divergence(cs.independent_product, cs.vertices()[0]) == math.inf


@pytest.mark.parametrize("cs", list(_information_sets()),
                         ids=lambda cs: "x".join(map(str, cs.space.subspace_sizes)))
def test_mutual_information_is_the_entropy_decomposition(cs):
    # MI = sum_i H(p_i) - H(p) on vertices, the product, midpoints and samples
    marginal_sum = sum(entropy(m) for m in cs.marginals)
    for p in _certificate_points(cs, random.Random(34)):
        assert mutual_information(cs, p) == pytest.approx(
            marginal_sum - entropy(p), rel=0, abs=1e-9)


def test_certificate_rejects_steps_outside_the_unit_interval(skew_2x2):
    cs = skew_2x2
    p = cs.independent_product
    for step in (F(9, 8), F(-1, 8)):
        for certify in (certify_local_max_mi, certify_local_max_mi_reference):
            with pytest.raises(CorrpolyError, match="mixing weight"):
                certify(cs, p, probes=2, step=step)
    # the step is checked even where no probe point uses it
    singleton = CorrelationSet(ProductSpace((3,)), [Marginal(0, (F(1, 2), F(1, 3), F(1, 6)))])
    with pytest.raises(CorrpolyError, match="mixing weight .* must be positive"):
        certify_local_max_mi(singleton, singleton.vertices()[0], step=F(2))


def test_certificate_rejects_negative_probes_and_nonpositive_steps(skew_2x2):
    p = skew_2x2.independent_product
    with pytest.raises(CorrpolyError, match="probes must be an integer >= 0"):
        certify_local_max_mi(skew_2x2, p, probes=-3)
    for step in (F(0), F(-1, 8)):
        with pytest.raises(CorrpolyError, match="must be positive"):
            certify_local_max_mi(skew_2x2, p, step=step)
    # no random probes is valid: the face directions are still probed
    assert certify_local_max_mi(skew_2x2, p, probes=0).value == 0.0


@pytest.mark.parametrize("kwargs", [
    {"step": "abc"}, {"step": "1/0"}, {"step": float("nan")}, {"step": float("inf")},
    {"probes": 2.5}, {"probes": "3"}, {"probes": None},
], ids=repr)
def test_certificate_rejects_malformed_step_and_probes(skew_2x2, kwargs):
    # malformed input ends in CorrpolyError, never ValueError,
    # ZeroDivisionError or TypeError
    with pytest.raises(CorrpolyError):
        certify_local_max_mi(skew_2x2, skew_2x2.independent_product, **kwargs)


_weights = st.one_of(st.just(0), st.integers(1, 10**24))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(_weights, _weights), min_size=1, max_size=9),
    st.integers(1, 10**24),
    st.integers(1, 10**24),
    st.integers(1, 10**12),
)
@example([(1, 0), (0, 1)], 1, 1, 3)  # +inf: p charges a state that q does not
@example([(0, 0), (0, 5)], 7, 5, 2)  # no term at all: 0.0
def test_divergence_does_not_depend_on_the_common_denominator(pairs, denom, ref_denom, k):
    # probe points come over unreduced denominators; scaling the numerators
    # and their denominator alike must not move a single bit
    from corrpoly.info import _divergence

    nums, ref = [n for n, _ in pairs], [m for _, m in pairs]
    want = _divergence(nums, denom, ref, ref_denom)
    scaled = [k * n for n in nums]
    assert _divergence(scaled, k * denom, ref, ref_denom).hex() == want.hex()
    scaled_ref = [k * m for m in ref]
    assert _divergence(nums, denom, scaled_ref, k * ref_denom).hex() == want.hex()
    if any(n and not m for n, m in pairs):
        assert want == math.inf


def _probe_sets():
    """Random sets (a (1,3) among them), degenerate sets and tied marginals."""
    yield from _random_sets()
    yield from _degenerate_sets()
    for n in (2, 3):
        tied = (F(1, n),) * n
        yield CorrelationSet(ProductSpace((n, n)), [Marginal(0, tied), Marginal(1, tied)])


@pytest.mark.parametrize("cs", list(_probe_sets()),
                         ids=lambda cs: "x".join(map(str, cs.space.subspace_sizes)))
def test_probe_points_match_the_eager_reference(cs):
    # built on demand as integers from the integer face, without reflections
    # at vertices, the probe points are, as exact rationals, those of
    # building every point up front in Fractions from the Fraction face, from
    # the same rng draws
    from corrpoly.info import _probe_points
    from corrpoly.polytope import _face_directions

    vertices = list(cs.vertices())
    points = vertices + [cs.independent_product]
    points += [mix(a, b, F(1, 2)) for a, b in zip(vertices, vertices[1:])]
    for p in points:
        a, a_denom = cs.require_member(p)
        face = _face_directions(cs, a)[0]
        for probes, seed in ((8, 7), (3, 11)):
            got_rng, want_rng = random.Random(seed), random.Random(seed)
            got = [
                tuple(F(n, denom) for n in nums)
                for nums, denom in _probe_points(cs, a, a_denom, probes, got_rng, face)
            ]
            want = [
                q.weights
                for q in probe_points_reference(cs, p, probes, want_rng, face_basis(cs, p))
            ]
            assert got == want
            assert got_rng.getstate() == want_rng.getstate()


def test_probe_points_of_the_integer_face_match_the_eager_reference():
    # the certificate's face is integer; where its denominator L is 2 (the
    # 1/3-midpoints of this set whose face has halves), its first direction
    # must still point where the Fraction reference's does
    from corrpoly.info import _probe_points
    from corrpoly.polytope import _face_directions

    cs = random_correlation_set((2, 2, 2, 2), random.Random(3))
    vertices, rng = cs.vertices(), random.Random(0)
    faces_with_halves = 0
    for _ in range(40):
        i, j = rng.sample(range(len(vertices)), 2)
        p = mix(vertices[i], vertices[j], F(1, 3))
        a, a_denom = cs.require_member(p)
        face, scale = _face_directions(cs, a)
        if scale == 1:
            continue
        faces_with_halves += 1
        got_rng, want_rng = random.Random(5), random.Random(5)
        got = [
            tuple(F(n, denom) for n in nums)
            for nums, denom in _probe_points(cs, a, a_denom, 2, got_rng, face)
        ]
        want = [q.weights for q in probe_points_reference(cs, p, 2, want_rng, face_basis(cs, p))]
        assert got == want
        assert got_rng.getstate() == want_rng.getstate()
    assert faces_with_halves == 5


def test_no_certificate_reads_past_the_first_face_direction(monkeypatch):
    # MI is strictly convex along a face direction, so in one of its two
    # senses no rung lowers MI: at a point that is not a vertex the ladder
    # stops by the first face direction at the latest, whatever the draws
    import corrpoly.info as info

    probe_points = info._probe_points

    def bounded(cs, a, a_denom, probes, rng, face):
        yield from probe_points(cs, a, a_denom, probes, rng, face)
        raise AssertionError("the ladder read past the first face direction")

    monkeypatch.setattr(info, "_probe_points", bounded)
    rng = random.Random(31)
    certified = 0
    counts = {(2, 2): 3, (2, 3): 3, (3, 3): 3, (2, 2, 2): 3, (2, 4): 3, (2, 2, 2, 2): 1}
    for sizes, count in counts.items():
        for _ in range(count):
            cs = random_correlation_set(sizes, rng)
            vertices = cs.vertices()
            i, j = rng.sample(range(len(vertices)), 2)
            points = [cs.independent_product, sample_member(cs, rng)]
            points.append(mix(vertices[i], vertices[j], F(1, 3)))
            for p in points:
                at_vertex = not face_basis(cs, p)
                for probes, seed in ((0, 0), (4, 1), (16, 7)):
                    report = certify_local_max_mi(cs, p, probes=probes, seed=seed)
                    assert report.is_local_max == at_vertex
                    certified += not at_vertex
    assert certified >= 120


def test_certificate_draws_only_the_probes_its_ladder_reads(skew_2x2, monkeypatch):
    # at a non-vertex the ladder stops at the first direction that does not
    # decrease; no sample past it is drawn
    import corrpoly.info as info

    draws = []
    draw = info._draw_member

    def counted(cs, rng):
        draws.append(cs)
        return draw(cs, rng)

    monkeypatch.setattr(info, "_draw_member", counted)
    a, b = skew_2x2.vertices()
    report = certify_local_max_mi(skew_2x2, mix(a, b, F(1, 3)), probes=64)
    assert not report.is_local_max
    assert len(draws) <= report.probe_count


def test_certificate_checks_each_probe_point(skew_2x2, monkeypatch):
    # ladder points are not re-checked, so a probe point off the set must be
    # caught when it enters the loop
    import corrpoly.info as info

    outsider = ((1, 0, 0, 0), 1)
    monkeypatch.setattr(info, "_draw_member", lambda cs, rng: outsider)
    with pytest.raises(NotInCorrelationSetError):
        certify_local_max_mi(skew_2x2, skew_2x2.independent_product, probes=1)


def test_certificate_rejects_a_probe_point_with_a_negative_weight(skew_2x2, monkeypatch):
    # probe points are no JointDistribution, so nonnegativity is the
    # membership check's: skew_2x2's product (1, 3, 2, 6) / 12 shifted along
    # its rectangle past a zero keeps every marginal sum
    import corrpoly.info as info

    drawn = ((-1, 5, 4, 4), 12)
    monkeypatch.setattr(info, "_draw_member", lambda cs, rng: drawn)
    with pytest.raises(NotInCorrelationSetError, match="negative"):
        certify_local_max_mi(skew_2x2, skew_2x2.independent_product, probes=1)
    with pytest.raises(NotInCorrelationSetError, match="negative"):
        skew_2x2.require_numerators(*drawn)
    assert skew_2x2.require_numerators((1, 3, 2, 6), 12) == ((1, 3, 2, 6), 12)


def test_certificate_computes_the_face_once(skew_2x2, monkeypatch):
    calls = []
    integer_kernel = linalg._integer_kernel

    def counted(rows):
        calls.append(rows)
        return integer_kernel(rows)

    monkeypatch.setattr(linalg, "_integer_kernel", counted)
    a, b = skew_2x2.vertices()
    for p in (a, skew_2x2.independent_product, mix(a, b, F(1, 3))):
        calls.clear()
        certify_local_max_mi(skew_2x2, p, probes=4)
        assert len(calls) == 1


def test_ladder_certifying_a_non_vertex_is_a_consistency_error(skew_2x2, monkeypatch):
    # a ladder that sees mutual information fall along every probe would
    # contradict strict convexity along the two-sided face directions
    import corrpoly.info as info

    values = itertools.count(0, -1)
    monkeypatch.setattr(info, "_divergence", lambda *weights: float(next(values)))
    with pytest.raises(ConsistencyError, match="not a vertex") as exc:
        certify_local_max_mi(skew_2x2, skew_2x2.independent_product, probes=2)
    assert exc.value.context == {
        "shape": (2, 2),
        "marginals": [["1/3", "2/3"], ["1/4", "3/4"]],
        "weights": ["1/12", "1/4", "1/6", "1/2"],
        "seed": 0,
        "probes": 2,
        "step": "1/8",
    }


@st.composite
def _degenerate_marginals(draw):
    """Shapes with a 1-state subspace, tied marginals, a zero weight or a
    point mass, with positive weights skewed up to 1:1000."""
    counts = st.integers(1, 1000)

    def weights(size):
        return [draw(counts) for _ in range(size)]

    kind = draw(st.sampled_from(["1x3", "2x2 tied", "2x3 zero", "2x2x2 point mass"]))
    if kind == "1x3":
        sizes, raw = (1, 3), [[1], weights(3)]
    elif kind == "2x2 tied":
        tied = weights(2)
        sizes, raw = (2, 2), [tied, list(tied)]
    elif kind == "2x3 zero":
        zeroed = weights(3)
        zeroed[draw(st.integers(0, 2))] = 0
        sizes, raw = (2, 3), [weights(2), zeroed]
    else:
        sizes, raw = (2, 2, 2), [weights(2), weights(2), weights(2)]
        raw[draw(st.integers(0, 2))] = draw(st.sampled_from([[1, 0], [0, 1]]))
    return sizes, [tuple(F(c, sum(ws)) for c in ws) for ws in raw]


@settings(max_examples=40, deadline=None)
@given(_degenerate_marginals())
def test_face_is_trivial_exactly_at_oracle_vertices(case):
    sizes, marginals = case
    cs = CorrelationSet(ProductSpace(sizes), [Marginal(i, w) for i, w in enumerate(marginals)])
    expected = oracle_vertices(sizes, marginals)
    vertices = cs.vertices()
    assert [v.weights for v in vertices] == sorted(expected)  # each vertex once, in order
    points = [*vertices, cs.independent_product]
    points += [mix(a, b, F(1, 2)) for a, b in zip(vertices, vertices[1:])]
    for p in points:
        face = face_basis(cs, p)
        for d in face:  # directions inside the face of p
            assert not any(linalg.mat_vec(cs.system.matrix, d))
            assert all(x == 0 for x, w in zip(d, p.weights) if w == 0)
        at_vertex = p.weights in expected
        assert (not face) == at_vertex
        assert is_maximally_zero(cs, p) == at_vertex
        assert certify_local_max_mi(cs, p, probes=8).is_local_max == at_vertex


MI_REPORTS_FIXTURE = Path(__file__).resolve().parent / "fixtures" / "mi_reports_seeded.txt"


def _pinned_report_lines():
    """The reports of `certify_local_max_mi(cs, p, probes=8, seed=7)` at each
    vertex, the independent product and the midpoint of the first and last
    vertices of a seeded (2,2,2) set and a seeded (3,4) set, floats as
    `float.hex`; then the first three `sample_member` draws of each set."""
    rng = random.Random(5)
    lines = []
    for sizes in ((2, 2, 2), (3, 4)):
        cs = random_correlation_set(sizes, rng)
        shape = "x".join(map(str, sizes))
        vertices = list(cs.vertices())
        points = [(f"vertex{i}", v) for i, v in enumerate(vertices)]
        points.append(("product", cs.independent_product))
        points.append(("midpoint", mix(vertices[0], vertices[-1], F(1, 2))))
        for name, p in points:
            report = certify_local_max_mi(cs, p, probes=8, seed=7)
            lines.append(
                f"{shape} {name} {report.value.hex()} {report.max_observed_increase.hex()}"
                f" {report.probe_count} {report.is_local_max}"
            )
        draws = random.Random(7)
        for k in range(3):
            q = sample_member(cs, draws)
            lines.append(f"{shape} draw{k} " + " ".join(map(str, q.weights)))
    return lines


def test_certificate_reports_and_draws_are_pinned_bit_for_bit():
    # the fixture holds the reports and draws of a dense kernel sum and a fresh
    # mix per rung; the corner sum and the incremental rungs compute the same
    # integers, so every float and every draw must read as recorded
    assert _pinned_report_lines() == MI_REPORTS_FIXTURE.read_text().splitlines()
