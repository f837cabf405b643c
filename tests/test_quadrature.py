import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from ovalkit import (
    Interval,
    pencil_certificate,
    verify_certificate,
    angle_to_parameter,
    free_inlet_area,
    free_inlet_function,
    numeric_segment_area,
    orientation,
    origin_chord_segment_area,
    parse_polynomial,
    quadrature,
    total_area,
    validate_centered,
    vertical_segment_area,
)
from ovalkit.algebra import univariate_from_polynomial
from ovalkit.cli import parse_curve_text
from ovalkit.curves import Point
from ovalkit.errors import DegenerateCurveError, ExactIntegrationError
from ovalkit.quadrature import (
    AreaResult,
    chord_area_function,
    slope_function,
    vertical_area_parts,
)

from conftest import square_boundary
from oracles import (
    clip_polygon_halfplane,
    fraction_areas,
    fraction_swept,
    fsum_shoelace,
    full_pass,
    full_pass_area,
    sample_boundary,
    seeded_loops,
    shoelace_area,
)


def test_orientation_examples(cubic_curve, quartic_curve):
    assert orientation(cubic_curve) == "clockwise"
    assert orientation(quartic_curve) == "counterclockwise"
    assert orientation(cubic_curve.reversed()) == "counterclockwise"


def test_total_area_cubic(cubic_curve):
    result = total_area(cubic_curve)
    assert result.value == Fraction(3, 20)
    assert result.exact


def test_total_area_quartic(quartic_curve):
    assert total_area(quartic_curve).value == Fraction(64, 105)


def test_total_area_requires_closed():
    open_curve = parse_curve_text("x=t; y=t^2; t in [0,1]")
    with pytest.raises(ValueError):
        total_area(open_curve)


def test_total_area_reversal_invariance(cubic_curve, quartic_curve):
    for curve in (cubic_curve, quartic_curve):
        assert total_area(curve).value == total_area(curve.reversed()).value


def test_exact_total_matches_oracle(cubic_curve, quartic_curve):
    for curve in (cubic_curve, quartic_curve):
        exact = float(total_area(curve).value)
        approx = numeric_segment_area(curve, (0.0, 0.0, -1.0), 100_000)
        assert abs(approx - exact) <= 1e-6 * exact


def test_rational_components_route_to_numeric_oracle():
    # Same closed oval shape, but with a harmless denominator attached:
    # the exact path refuses it and the oracle takes over with a warning.
    curve = parse_curve_text("x=3*(1-t)^2*t/(2+t^2); y=3*(1-t)*t^2/(2+t^2); t in [0,1]")
    with pytest.warns(UserWarning):
        result = total_area(curve)
    assert not result.exact
    assert isinstance(result.value, float) and result.value > 0
    with pytest.raises(ExactIntegrationError):
        orientation(curve)


def test_chord_area_polynomial_identity(cubic_centered):
    # S1(t) = -3t^3 + 45/4 t^4 - 63/5 t^5 + 9/2 t^6 + (1/2) m(t) g(t)^2
    s1 = chord_area_function(cubic_centered)
    m = slope_function(cubic_centered)
    g = cubic_centered.curve.g
    mg2 = (m * g * g).as_univariate()
    tail = parse_polynomial("-3*t^3 + 45/4*t^4 - 63/5*t^5 + 9/2*t^6", ["t"])
    assert s1 - mg2 * Fraction(1, 2) == univariate_from_polynomial(tail, "t")


def test_chord_scaling_identity(cubic_centered):
    # m(t) * g(t)^2 = 9 t^3 (1-t)^3 exactly
    m = slope_function(cubic_centered)
    g = cubic_centered.curve.g
    expected = parse_polynomial("9*t^3*(1-t)^3", ["t"])
    assert (m * g * g).as_univariate() == univariate_from_polynomial(expected, "t")


def test_chord_endpoint_limit(cubic_centered, cubic_curve):
    t0 = Fraction(1, 1000)
    tiny = origin_chord_segment_area(cubic_centered, t0)
    assert 0 < tiny.value < Fraction(1, 10**6)
    near_full = origin_chord_segment_area(cubic_centered, 1 - t0)
    assert abs(near_full.value - total_area(cubic_curve).value) < Fraction(1, 10**6)


def test_chord_rejects_endpoint(cubic_centered):
    with pytest.raises(ValueError):
        origin_chord_segment_area(cubic_centered, 0)


def test_chord_additivity_via_reversal(quartic_curve, quartic_centered):
    # Complement segment computed through the reversed parametrization.
    reversed_cp = validate_centered(quartic_curve.reversed(), Point(0, 0))
    total = total_area(quartic_curve).value
    lo, hi = quartic_curve.interval.lo, quartic_curve.interval.hi
    for t0 in (Fraction(-1, 2), Fraction(1, 3), Fraction(4, 5)):
        seg = origin_chord_segment_area(quartic_centered, t0).value
        comp = origin_chord_segment_area(reversed_cp, lo + hi - t0).value
        assert seg + comp == total


def test_vertical_segment_quartic_exact_and_oracle(quartic_centered, quartic_curve):
    v = vertical_segment_area(quartic_centered, Fraction(-1, 2), Fraction(1, 2))
    assert v.value == Fraction(617, 1680)
    c = float(quartic_curve.g.evaluate(Fraction(1, 2)))
    approx = numeric_segment_area(quartic_curve, (1.0, 0.0, -c), 1_000_000)
    assert abs(approx - float(v.value)) <= 1e-8 * float(v.value)


def test_area_parts_build_the_antiderivative_once(monkeypatch, cubic_centered, quartic_centered):
    build = quadrature._swept
    calls = []

    def counting(curve):
        calls.append(curve)
        return build(curve)

    monkeypatch.setattr(quadrature, "_swept", counting)
    for cp in (cubic_centered, quartic_centered):
        for parts in (vertical_area_parts, chord_area_function, free_inlet_function):
            calls.clear()
            parts(cp)
            assert len(calls) == 1


def test_exact_segment_areas_build_the_swept_integral_once(monkeypatch, cubic_centered, cubic_valid_range):
    # The orientation label is read from the total the area was signed by.
    build = quadrature._swept
    calls = []

    def counting(curve):
        calls.append(curve)
        return build(curve)

    monkeypatch.setattr(quadrature, "_swept", counting)
    t = Fraction(3, 4)
    for area in (
        lambda: origin_chord_segment_area(cubic_centered, t),
        lambda: vertical_segment_area(cubic_centered, t, t),
        lambda: free_inlet_area(cubic_centered, t, cubic_valid_range),
    ):
        calls.clear()
        result = area()
        assert len(calls) == 1
        assert result.orientation == "clockwise" and result.exact


def test_exact_segment_areas_refuse_a_zero_total():
    cp = validate_centered(parse_curve_text("bezier (0,0) (1,2) (2,-1) (1,2) (0,0)"), Point(0, 0))
    t = Fraction(1, 2)
    for area in (
        lambda: origin_chord_segment_area(cp, t),
        lambda: vertical_segment_area(cp, t, t),
        lambda: free_inlet_area(cp, t, cp.curve.interval),
    ):
        with pytest.raises(DegenerateCurveError, match="zero signed area"):
            area()


def test_oracle_total_of_zero_is_labelled_clockwise(monkeypatch):
    # The exact total and the oracle's share one rule: a total of 0 is
    # clockwise (test_retraced_arc_keeps_the_sign_rule pins the exact 0).
    class ZeroTotal:
        signed_total = 0.0

    monkeypatch.setattr(quadrature, "_clipped_areas", lambda boundary, samples: ZeroTotal())
    curve = parse_curve_text("x=3*(1-t)^2*t/(2+t^2); y=3*(1-t)*t^2/(2+t^2); t in [0,1]")
    with pytest.warns(UserWarning, match="numeric oracle"):
        result = total_area(curve)
    assert (result.signed_value, result.orientation, result.exact) == (0.0, "clockwise", False)


def test_swept_integral_identities(cubic_centered, quartic_centered):
    # Every exact area reads the one swept integral; these identities tie
    # the total, the vertical parts, the chord and the free section together.
    loops = [cubic_centered, quartic_centered] + seeded_loops(61, 3, 2) + seeded_loops(67, 4, 1)
    for cp in loops + [validate_centered(cp.curve.reversed(), Point(0, 0)) for cp in loops]:
        curve = cp.curve
        lo, hi = curve.interval.lo, curve.interval.hi
        total = total_area(curve).value
        P, R = vertical_area_parts(cp)
        chord = chord_area_function(cp)
        for k in range(5):
            t = lo + (hi - lo) * Fraction(2 * k + 1, 11)
            assert P.evaluate(t) + R.evaluate(t) == total
            for result in (
                origin_chord_segment_area(cp, t),
                vertical_segment_area(cp, t, t),
                free_inlet_area(cp, t, curve.interval),
            ):
                assert result.value == abs(result.signed_value)
        assert chord.evaluate(hi) == total
        assert free_inlet_function(cp) == chord * 2 - total


def test_swept_integral_matches_the_fraction_reference():
    # The swept integral on integers, and every area function read off
    # it, equal their Fraction references: fractional coefficients,
    # interval ends of either sign and not integers, constant and linear
    # components, open and closed curves, each traversed both ways.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    from ovalkit import RationalFunction, UnivariatePolynomial
    from ovalkit.curves import CenteredParametrization, ParametricCurve

    fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5))

    @st.composite
    def polys(draw, low, high):
        coeffs = draw(st.lists(fractions, min_size=low, max_size=high))
        return UnivariatePolynomial("t", coeffs + [draw(fractions.filter(bool))])

    def check(curve) -> Fraction:
        nums, den, top = quadrature._swept(curve)
        B, total = fraction_swept(curve)
        assert den > 0
        assert (UnivariatePolynomial("t", [Fraction(c, den) for c in nums]), Fraction(top, den)) == (B, total)
        cp = CenteredParametrization(curve, Point(0, 0))
        P, R, chord, free = fraction_areas(cp)
        assert vertical_area_parts(cp) == (P, R)
        assert chord_area_function(cp) == chord
        assert free_inlet_function(cp) == free
        if curve.is_closed():
            assert total_area(curve) == AreaResult(total, "counterclockwise" if total < 0 else "clockwise", True)
        return total

    line = UnivariatePolynomial("t", [Fraction(1, 3), Fraction(-5, 2)])
    unit = UnivariatePolynomial("t", [Fraction(7, 4)])
    widths = st.builds(Fraction, st.integers(1, 9), st.integers(1, 4))

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(polys(0, 4), polys(0, 3), fractions, widths, st.booleans())
    @hypothesis.example(line, unit, Fraction(-3, 2), Fraction(5, 3), False)
    @hypothesis.example(unit, line, Fraction(-3, 2), Fraction(5, 3), False)
    @hypothesis.example(line, unit, Fraction(-3, 2), Fraction(5, 3), True)
    def run(g, f, lo, width, closed):
        hi = lo + width
        if closed:
            # Both components vanish at both ends: a closed curve.
            ends = UnivariatePolynomial("t", [lo * hi, -(lo + hi), 1])
            g, f = g * ends, f * ends
        curve = ParametricCurve(RationalFunction(g), RationalFunction(f), Interval(lo, hi))
        assert check(curve) == -check(curve.reversed())

    run()


def test_retraced_arc_keeps_the_sign_rule():
    # A palindromic control polygon retraces its own arc: the signed total
    # is exactly 0. The total is labelled clockwise, while the segment
    # functions take the negative sign, as for a counterclockwise curve.
    cp = validate_centered(parse_curve_text("bezier (0,0) (1,2) (2,-1) (1,2) (0,0)"), Point(0, 0))
    curve = cp.curve
    g, f = curve.g.as_univariate(), curve.f.as_univariate()
    A = (f * g.derivative()).antiderivative()
    swept = A.evaluate(curve.interval.lo) - A
    result = total_area(curve)
    assert (result.signed_value, result.orientation, result.exact) == (0, "clockwise", True)
    with pytest.raises(DegenerateCurveError):
        orientation(curve)
    assert vertical_area_parts(cp) == (-swept, swept)
    assert chord_area_function(cp) == -(swept + g * f * Fraction(1, 2))


def test_vertical_segment_mismatched_abscissa(quartic_centered):
    with pytest.raises(ValueError):
        vertical_segment_area(quartic_centered, Fraction(-1, 2), Fraction(1, 3))


def test_vertical_segment_extremes(quartic_centered, quartic_curve):
    lo, hi = quartic_curve.interval.lo, quartic_curve.interval.hi
    total = total_area(quartic_curve).value
    # Equal parameters: the bounding arc is the whole boundary.
    assert vertical_segment_area(quartic_centered, Fraction(1, 4), Fraction(1, 4)).value == total
    # Whole interval: the bounding arc is empty.
    assert vertical_segment_area(quartic_centered, lo, hi).value == 0


def test_vertical_additivity(quartic_centered, quartic_curve):
    # Complement built in the test from its own boundary integral over the
    # middle arc [t1, t2].
    total = total_area(quartic_curve).value
    g = quartic_curve.g.as_univariate()
    f = quartic_curve.f.as_univariate()
    A = (f * g.derivative()).antiderivative()
    for t2 in (Fraction(1, 4), Fraction(1, 2), Fraction(7, 10)):
        seg = vertical_segment_area(quartic_centered, -t2, t2).value
        comp = abs(A.evaluate(t2) - A.evaluate(-t2))
        assert seg + comp == total


def test_free_inlet_values(cubic_centered, cubic_valid_range):
    assert free_inlet_area(cubic_centered, 1, cubic_valid_range).value == Fraction(3, 20)
    assert free_inlet_area(cubic_centered, Fraction(1, 2), cubic_valid_range).signed_value == 0
    with pytest.raises(ValueError):
        free_inlet_area(cubic_centered, Fraction(1, 4), cubic_valid_range)


def test_free_inlet_refuses_a_range_off_the_curve(cubic_centered):
    # At t = 3 the free-section polynomial reads 615/4, a value off the
    # oval whose whole area is 3/20.
    # tP lies in each valid range, and even on the curve in the last two.
    for tP, lo, hi in ((3, Fraction(1, 2), 3), (Fraction(1, 4), Fraction(-1, 2), Fraction(1, 2)), (0, -2, 2)):
        with pytest.raises(ValueError, match="parameter interval"):
            free_inlet_area(cubic_centered, tP, Interval(lo, hi))
    assert free_inlet_area(cubic_centered, 1, cubic_centered.curve.interval).value == Fraction(3, 20)


def test_free_inlet_polynomial(cubic_centered):
    # S2(t) = -6t^3 + 45/2 t^4 - 126/5 t^5 + 9 t^6 + m(t) g(t)^2 - 3/20
    s2 = free_inlet_function(cubic_centered)
    m = slope_function(cubic_centered)
    g = cubic_centered.curve.g
    mg2 = (m * g * g).as_univariate()
    tail = parse_polynomial("-6*t^3 + 45/2*t^4 - 126/5*t^5 + 9*t^6 - 3/20", ["t"])
    assert s2 - mg2 == univariate_from_polynomial(tail, "t")


def test_free_inlet_identity_random(cubic_centered, cubic_curve, cubic_valid_range):
    rng = random.Random(61)
    total = total_area(cubic_curve).value
    for _ in range(20):
        tP = Fraction(1, 2) + Fraction(rng.randint(0, 1000), 2000)
        s1 = origin_chord_segment_area(cubic_centered, tP).signed_value
        s2 = free_inlet_area(cubic_centered, tP, cubic_valid_range).signed_value
        assert s2 == 2 * s1 - total


def test_slope_examples(cubic_centered, quartic_centered):
    m = slope_function(cubic_centered)
    t = m.num.var
    from ovalkit.parsing import parse_rational_function

    assert m == parse_rational_function("t/(1-t)", t)
    assert slope_function(quartic_centered).evaluate(Fraction(1, 2)) == Fraction(-2, 3)
    assert m.evaluate(Fraction(1, 3)) == Fraction(1, 2)
    # f vanishing gives slope zero
    assert slope_function(quartic_centered).evaluate(Fraction(0)) == 0


def test_angle_to_parameter(cubic_centered):
    assert abs(angle_to_parameter(cubic_centered, math.pi / 4) - 0.5) < 1e-9
    assert abs(angle_to_parameter(cubic_centered, math.atan(2)) - 2 / 3) < 1e-9
    assert angle_to_parameter(cubic_centered, math.pi / 2) > 0.999
    with pytest.raises(ValueError):
        angle_to_parameter(cubic_centered, 2.0)


def test_angle_rejects_non_monotone():
    from ovalkit.curves import CenteredParametrization, ParametricCurve, Point
    from ovalkit.parsing import parse_rational_function

    # slope (t^2 - t)/2 dips and rises on [0, 1]
    g = parse_rational_function("2", "t")
    f = parse_rational_function("t^2 - t", "t")
    curve = ParametricCurve(g, f, Interval(Fraction(0), Fraction(1)))
    cp = CenteredParametrization(curve, Point(0, 0))
    with pytest.raises(ValueError):
        angle_to_parameter(cp, math.pi / 4, t_range=(0.05, 0.95))


def assert_within_one_ulp_of_root(cp, alpha, t):
    """The exact root of q*num - p*den, tan(alpha) = p/q, lies within one
    ulp of t: the polynomial changes sign (or vanishes) on [t - u, t + u],
    clipped to the parameter interval, the slope being monotone there."""
    slope = slope_function(cp)
    tan_alpha = Fraction(math.tan(alpha))
    target = slope.num * tan_alpha.denominator - slope.den * tan_alpha.numerator
    u, interval = Fraction(math.ulp(t)), cp.curve.interval
    lo, hi = max(Fraction(t) - u, interval.lo), min(Fraction(t) + u, interval.hi)
    assert interval.contains(Fraction(t))
    assert target.evaluate(lo) * target.evaluate(hi) <= 0, (alpha, t)


ANGLES = [0.0, 1e-3, 0.1, math.pi / 4, math.atan(2), 1.5, math.pi / 2 - 1e-6, math.pi / 2]


@pytest.mark.parametrize("name", ["cubic_centered", "quartic_centered"])
def test_angle_to_parameter_within_one_ulp(request, name):
    cp = request.getfixturevalue(name)
    for alpha in ANGLES:
        assert_within_one_ulp_of_root(cp, alpha, angle_to_parameter(cp, alpha))


def test_angle_at_zero_and_near_vertical(cubic_centered, quartic_centered):
    # A horizontal chord: the cubic's root is the start of its range, the
    # quartic's the bisection point 0; both are returned as they are.
    assert angle_to_parameter(cubic_centered, 0.0) == 0.0
    assert math.copysign(1.0, angle_to_parameter(quartic_centered, 0.0)) == 1.0
    alpha = math.pi / 2 - 1e-6
    t = angle_to_parameter(cubic_centered, alpha)
    assert abs(t - 1 / (1 + 1 / math.tan(alpha))) < 1e-15
    assert_within_one_ulp_of_root(cubic_centered, alpha, t)
    t = angle_to_parameter(quartic_centered, alpha)
    assert -1 < t < -0.999999
    assert_within_one_ulp_of_root(quartic_centered, alpha, t)


def test_angle_reached_twice_raises():
    from ovalkit.curves import CenteredParametrization, ParametricCurve, Point
    from ovalkit.parsing import parse_rational_function

    # slope t - t^2 rises from 0 to 1/4 and falls back to 0 on [0, 1]
    curve = ParametricCurve(
        parse_rational_function("1", "t"), parse_rational_function("t - t^2", "t"), Interval(0, 1)
    )
    cp = CenteredParametrization(curve, Point(0, 0))
    for alpha in (0.0, math.atan(0.2)):
        with pytest.raises(ValueError, match="exactly once"):
            angle_to_parameter(cp, alpha)
    # a horizontal chord along the whole of a flat curve
    flat = ParametricCurve(parse_rational_function("t", "t"), parse_rational_function("0", "t"), Interval(0, 1))
    with pytest.raises(ValueError, match="all along the curve"):
        angle_to_parameter(CenteredParametrization(flat, Point(0, 0)), 0.0)
    # each half of the range reaches it once
    assert abs(angle_to_parameter(cp, math.atan(0.2), t_range=(0.0, 0.5)) - (5 - math.sqrt(5)) / 10) < 1e-15
    assert abs(angle_to_parameter(cp, math.atan(0.2), t_range=(0.5, 1.0)) - (5 + math.sqrt(5)) / 10) < 1e-15


def test_angle_range_must_lie_on_the_curve(cubic_centered):
    for t_range in ((0.5, 3.0), (-0.5, 0.5), (0.75, 0.5), (0.5, 0.5)):
        with pytest.raises(ValueError, match="parameter interval"):
            angle_to_parameter(cubic_centered, math.pi / 4, t_range=t_range)
    assert angle_to_parameter(cubic_centered, math.pi / 4, t_range=(0.25, 0.75)) == angle_to_parameter(cubic_centered, math.pi / 4)


@pytest.mark.parametrize("name", ["cubic_centered", "quartic_centered"])
def test_angle_round_trip_within_one_ulp(request, name):
    hypothesis = pytest.importorskip("hypothesis")
    cp = request.getfixturevalue(name)

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(hypothesis.strategies.floats(0.0, math.pi / 2))
    def check(alpha):
        assert_within_one_ulp_of_root(cp, alpha, angle_to_parameter(cp, alpha))

    check()


def test_numeric_square_diagonal():
    boundary = square_boundary(100_000)
    area = numeric_segment_area(boundary, (-1.0, 1.0, 0.0), 100_000)  # y <= x
    assert abs(area - 0.5) < 1e-9


def test_numeric_cubic_total():
    curve = parse_curve_text("x=3*(1-t)^2*t; y=3*(1-t)*t^2; t in [0,1]")
    approx = numeric_segment_area(curve, (0.0, 0.0, -1.0), 100_000)
    assert abs(approx - 0.15) <= 1e-6


def test_numeric_chord_matches_exact(cubic_centered, cubic_curve):
    t0 = Fraction(3, 4)
    exact = origin_chord_segment_area(cubic_centered, t0)
    gx = float(cubic_curve.g.evaluate(t0))
    fy = float(cubic_curve.f.evaluate(t0))
    # chord through the origin; pick the side holding the early arc
    probe = cubic_curve.point_at(Fraction(3, 8))
    a, b, c = fy, -gx, 0.0
    if a * float(probe.x) + b * float(probe.y) > 0:
        a, b, c = -a, -b, -c
    approx = numeric_segment_area(cubic_curve, (a, b, c), 100_000)
    assert abs(approx - float(exact.value)) <= 1e-6 * max(1.0, float(exact.value))


def test_numeric_requires_enough_samples(cubic_curve):
    with pytest.raises(ValueError):
        numeric_segment_area(cubic_curve, (0.0, 0.0, -1.0), 10)


def test_total_area_degenerate_point_curve():
    point = parse_curve_text("x=1; y=2; t in [0,1]")
    result = total_area(point)
    assert result.value == 0 and result.exact


def _reference_clip(points, a, b, c):
    """Edge-by-edge clip kept as the reference: it interpolates every edge
    and scatters the kept vertices and crossing points by offsets."""
    x, y = points[:, 0], points[:, 1]
    d = a * x + b * y + c
    inside = d <= 0.0
    nxt = np.roll(np.arange(len(points)), -1)
    cross = inside != inside[nxt]
    denom = d - d[nxt]
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(denom != 0.0, d / denom, 0.0)
    inter = points + s[:, None] * (points[nxt] - points)
    counts = inside.astype(np.int64) + cross.astype(np.int64)
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
    out = np.empty((int(counts.sum()), 2), dtype=float)
    out[offsets[inside]] = points[inside]
    out[offsets[cross] + inside[cross]] = inter[cross]
    return out


def _assert_same_clip(polygon, line):
    got = clip_polygon_halfplane(polygon, *line)
    want = _reference_clip(polygon, *line)
    assert got.shape == want.shape and got.dtype == want.dtype, line
    assert np.array_equal(got, want), line


def _oracle_lines(polygon, seed, count):
    """Random lines through the bounding box, axis-parallel lines through
    sampled vertices (d == 0 there exactly), and lines missing the polygon
    on either side."""
    rng = np.random.default_rng(seed)
    lo, hi = polygon.min(axis=0), polygon.max(axis=0)
    lines = []
    for theta, (px, py) in zip(rng.uniform(0.0, 2 * np.pi, count), rng.uniform(lo, hi, (count, 2))):
        a, b = float(np.cos(theta)), float(np.sin(theta))
        lines.append((a, b, -(a * px + b * py)))
    for i in rng.integers(0, len(polygon), 8):
        x, y = (float(v) for v in polygon[i])
        lines += [(1.0, 0.0, -x), (-1.0, 0.0, x), (0.0, 1.0, -y), (0.0, -1.0, y)]
    lines += [(1.0, 0.0, -hi[0] - 1.0), (1.0, 0.0, -lo[0] + 1.0)]
    lines += [(0.0, 1.0, -hi[1] - 1.0), (0.0, 1.0, -lo[1] + 1.0)]
    return lines


@pytest.mark.parametrize("samples", [1_000, 100_000])
def test_clip_matches_reference_bitwise(samples, cubic_curve, quartic_curve, apple_curve):
    for seed, curve in enumerate((cubic_curve, quartic_curve, apple_curve)):
        polygon = sample_boundary(curve, samples)
        for line in _oracle_lines(polygon, seed, 100):
            _assert_same_clip(polygon, line)


def test_clip_unit_square_exact():
    square = UNIT_SQUARE
    cases = [
        # y <= x, through the corners (0, 0) and (1, 1)
        ((-1.0, 1.0, 0.0), [[0, 0], [1, 0], [1, 1], [1, 1], [0, 0]]),
        # x + y <= 1, through the corners (1, 0) and (0, 1)
        ((1.0, 1.0, -1.0), [[0, 0], [1, 0], [1, 0], [0, 1], [0, 1]]),
        # x <= 1/2
        ((1.0, 0.0, -0.5), [[0, 0], [0.5, 0], [0.5, 1], [0, 1]]),
    ]
    for line, expected in cases:
        clipped = clip_polygon_halfplane(square, *line)
        assert np.array_equal(clipped, np.array(expected, dtype=float)), line
        _assert_same_clip(square, line)
    assert shoelace_area(clip_polygon_halfplane(square, -1.0, 1.0, 0.0)) == 0.5
    inside = clip_polygon_halfplane(square, 0.0, 0.0, -1.0)
    assert np.array_equal(inside, square)
    outside = clip_polygon_halfplane(square, 0.0, 0.0, 1.0)
    assert outside.shape == (0, 2)
    from_ints = clip_polygon_halfplane(square.astype(np.int64), 1.0, 0.0, -0.5)
    assert from_ints.dtype == np.float64 and np.array_equal(from_ints, [[0, 0], [0.5, 0], [0.5, 1], [0, 1]])


# Four teeth of width 1 from y = 1 (y = 0 at the outer edges) up to y = 3;
# the line y = 3/2 crosses every tooth twice.
COMB = np.array(
    [[0, 0], [7, 0], [7, 3], [6, 3], [6, 1], [5, 1], [5, 3], [4, 3],
     [4, 1], [3, 1], [3, 3], [2, 3], [2, 1], [1, 1], [1, 3], [0, 3]],
    dtype=float,
)
UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def test_clip_comb_crossed_eight_times():
    comb = COMB
    clipped = clip_polygon_halfplane(comb, 0.0, -1.0, 1.5)  # y >= 3/2
    expected = [
        [7, 1.5], [7, 3], [6, 3], [6, 1.5], [5, 1.5], [5, 3], [4, 3], [4, 1.5],
        [3, 1.5], [3, 3], [2, 3], [2, 1.5], [1, 1.5], [1, 3], [0, 3], [0, 1.5],
    ]
    assert np.array_equal(clipped, np.array(expected, dtype=float))
    assert shoelace_area(clipped) == 6.0
    for shift in range(len(comb)):
        _assert_same_clip(np.roll(comb, shift, axis=0), (0.0, -1.0, 1.5))
        _assert_same_clip(np.roll(comb, shift, axis=0), (0.0, 1.0, -1.5))


def test_shoelace_small_and_signed():
    assert shoelace_area(np.zeros((0, 2))) == 0.0
    assert shoelace_area(np.array([[0.0, 0.0], [1.0, 1.0]])) == 0.0
    triangle = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
    assert shoelace_area(triangle) == shoelace_area(triangle[::-1]) == 1.0


# -- the prefix-sum area routine against the reference clip -------------


def _reference_area(polygon, line):
    return fsum_shoelace(clip_polygon_halfplane(polygon, *line))


def _assert_areas_match(polygon, lines):
    """Every area equal to the full-pass reference and within 1e-12 of the
    total of the fsum shoelace of the reference clip, and the total within
    1e-12 of its own."""
    areas = quadrature._clipped_areas(polygon, len(polygon))
    total = fsum_shoelace(polygon)
    assert abs(abs(areas.signed_total) - total) <= 1e-12 * total
    for line in lines:
        area = areas.area(*line)
        assert area == full_pass(areas, line)[0], line
        assert abs(area - _reference_area(polygon, line)) <= 1e-12 * total, line


def _assert_full_pass_areas(areas, lines):
    """Each line alone: its area at every resolution equal to the full
    pass over that resolution's polygon."""
    for line in lines:
        assert areas.areas([line])[:, 0].tolist() == [row[0] for row in _full_pass_areas(areas, [line])], line


def _both_signs(a, b, c):
    return [(a, b, c), (-a, -b, -c)]


def _chord(x, y, u, v):
    """The line through vertices u and v, exact zero of d at v."""
    a, b = y.item(u) - y.item(v), x.item(v) - x.item(u)
    return a, b, -(a * x.item(v) + b * y.item(v))


def _block_lines(areas):
    """For each block of the area routine: vertical and horizontal lines
    through its extreme vertices in x and in y, both signs, so d == 0 at a
    vertex that sets a bound of its box. Then chords from vertex 0 and
    from vertex n - 1 (both the origin on a centered curve) to vertices
    around the polygon, both signs."""
    x, y, n, size = areas.x, areas.y, len(areas.x), areas._block
    lines = []
    for start in range(0, n, size):
        block = np.arange(start, min(start + size, n) + 1) % n
        for k in (block[np.argmin(x[block])], block[np.argmax(x[block])]):
            lines += _both_signs(1.0, 0.0, -x.item(k))
        for k in (block[np.argmin(y[block])], block[np.argmax(y[block])]):
            lines += _both_signs(0.0, 1.0, -y.item(k))
    for v in (0, n - 1):
        for u in range(1, n - 1, max(1, n // 16)):
            lines += _both_signs(*_chord(x, y, u, v))
    return lines


def _resolutions(areas):
    """The vertices and prefix sums of each resolution of the area
    routine: the fine and the coarse polygon of a sampled curve, or the
    one polygon given."""
    return areas._polygons


@pytest.mark.parametrize("samples", [1_000, 100_000])
def test_prefix_areas_match_reference_clip(samples, cubic_curve, quartic_curve, apple_curve):
    for seed, curve in enumerate((cubic_curve, quartic_curve, apple_curve)):
        # An even count is sampled as count + 1; the coarse polygon is
        # every other vertex of the fine one, both endpoints among them.
        fine_polygon = sample_boundary(curve, samples + 1)
        areas = quadrature._clipped_areas(curve, samples)
        # The routine samples the same vertices, with no (n, 2) stack; the
        # coarse polygon is a view of every other fine vertex.
        assert areas.x.flags.c_contiguous and areas.y.flags.c_contiguous
        for level, ((x, y, _), polygon) in enumerate(zip(_resolutions(areas), (fine_polygon, fine_polygon[::2]))):
            assert np.array_equal(x, polygon[:, 0]) and np.array_equal(y, polygon[:, 1])
            assert np.shares_memory(x, areas.x) and np.shares_memory(y, areas.y)
            lines = _oracle_lines(polygon, seed, 100)
            _assert_areas_match(polygon, lines)
            # The merged routine's areas at this resolution are the polygon's.
            plain = quadrature._clipped_areas(polygon, len(polygon))
            assert areas.areas(lines)[level].tolist() == plain.areas(lines)[0].tolist()


@pytest.mark.parametrize("samples", [3, 4, 1009, 1024, 1025, 100_000])
def test_block_areas_equal_full_pass_through_block_extremes(samples, cubic_curve, quartic_curve, apple_curve):
    # 1009 is prime and 1025 a square plus one: both end in a short block.
    # The curve is sampled at exactly `samples` vertices, as a polygon, to
    # keep those block shapes; its oracle samples samples | 1.
    for seed, curve in enumerate((cubic_curve, quartic_curve, apple_curve)):
        polygon = sample_boundary(curve, samples)
        areas = quadrature._clipped_areas(polygon, samples)
        _assert_full_pass_areas(areas, _block_lines(areas) + _oracle_lines(polygon, seed, 20))


def test_default_resolutions_equal_full_pass_through_block_extremes(cubic_curve, quartic_curve, apple_curve, folium_curve):
    # The default oracle's 4,001 vertices fall in 63 blocks of 64 edges,
    # the last one short; each block holds 32 edges of the coarse polygon
    # through its 2,001 even-indexed vertices, the last one 17.
    for seed, curve in enumerate((cubic_curve, quartic_curve, apple_curve, folium_curve)):
        areas = quadrature._clipped_areas(curve, quadrature.ORACLE_SAMPLES)
        assert areas._block == 64 and len(areas._x_rows) == 63
        lines = _block_lines(areas)
        for x, y, _ in _resolutions(areas):
            lines += _oracle_lines(np.column_stack([x, y]), seed, 20)
        _assert_full_pass_areas(areas, lines)


def test_prefix_areas_comb_all_rotations():
    for shift in range(len(COMB)):
        for comb in (np.roll(COMB, shift, axis=0), np.roll(COMB[::-1], shift, axis=0)):
            areas = quadrature._clipped_areas(comb, len(comb))
            assert areas.area(0.0, -1.0, 1.5) == 6.0  # y >= 3/2
            assert areas.area(0.0, 1.0, -1.5) == 9.0  # y <= 3/2
            assert abs(areas.signed_total) == 15.0
            _assert_areas_match(comb, [(0.0, -1.0, 1.5), (0.0, 1.0, -1.5)])


def test_prefix_areas_unit_square_corners():
    for square in (UNIT_SQUARE, UNIT_SQUARE.astype(np.int64), UNIT_SQUARE[::-1]):
        areas = quadrature._clipped_areas(square, 4)
        for line in ((-1.0, 1.0, 0.0), (1.0, 1.0, -1.0), (1.0, 0.0, -0.5), (0.0, -1.0, 0.5)):
            assert areas.area(*line) == 0.5, line
        assert areas.area(0.0, 0.0, -1.0) == 1.0  # every vertex inside
        assert areas.area(0.0, 0.0, 1.0) == 0.0  # every vertex outside
        assert areas.area(1.0, 0.0, -1.0) == 1.0  # d == 0 on the edge x = 1
        assert areas.area(1.0, 0.0, 0.0) == 0.0  # d == 0 on the edge x = 0
        _assert_areas_match(square, [(-1.0, 1.0, 0.0), (1.0, 1.0, -1.0), (1.0, 0.0, -1.0), (1.0, 0.0, 0.0)])
    assert quadrature._clipped_areas(UNIT_SQUARE, 4).signed_total == 1.0
    assert quadrature._clipped_areas(UNIT_SQUARE[::-1], 4).signed_total == -1.0


def test_prefix_areas_fewer_than_three_vertices():
    for polygon in (np.zeros((0, 2)), [(1.0, 2.0)], [(0.0, 0.0), (1.0, 1.0)]):
        areas = quadrature._clipped_areas(polygon, 1000)
        assert areas.signed_total == 0.0
        for line in ((1.0, 0.0, -0.5), (0.0, 0.0, -1.0), (0.0, 0.0, 1.0)):
            assert areas.area(*line) == 0.0


def test_prefix_areas_random_star_polygons():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.1, 10.0)), min_size=3, max_size=40),
        st.floats(0.0, 2 * math.pi),
        st.floats(-12.0, 12.0),
    )
    def check(vertices, theta, offset):
        # Vertices by angle around the origin: a star-shaped polygon.
        vertices = sorted(vertices)
        polygon = np.array([(r * math.cos(2 * math.pi * t), r * math.sin(2 * math.pi * t)) for t, r in vertices])
        hypothesis.assume(fsum_shoelace(polygon) > 1e-6)
        line = (math.cos(theta), math.sin(theta), offset)
        _assert_areas_match(polygon, [line, tuple(-v for v in line)])

    check()


def test_block_areas_equal_full_pass_on_star_polygons():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        st.integers(3, 5000),
        st.integers(0, 2**32 - 1),
        st.floats(0.0, 2 * math.pi),
        st.floats(-12.0, 12.0),
        st.integers(0, 5000),
    )
    def check(n, seed, theta, offset, vertex):
        # n vertices by angle around the origin: a star-shaped polygon.
        rng = np.random.default_rng(seed)
        t, r = np.sort(rng.uniform(0.0, 2 * math.pi, n)), rng.uniform(0.1, 10.0, n)
        areas = quadrature._clipped_areas(np.column_stack([r * np.cos(t), r * np.sin(t)]), n)
        x, y, u = areas.x, areas.y, vertex % n
        lines = _both_signs(math.cos(theta), math.sin(theta), offset)
        lines += _both_signs(1.0, 0.0, -x.item(u)) + _both_signs(0.0, 1.0, -y.item(u))
        for v in (0, n - 1):
            if v != u:
                lines += _both_signs(*_chord(x, y, u, v))
        _assert_full_pass_areas(areas, lines)

    check()


def _bits(v: np.ndarray) -> bytes:
    """The float64 bits of v, so that -0.0 and NaN compare exactly."""
    return np.ascontiguousarray(v, dtype=np.float64).tobytes()


@pytest.mark.parametrize("samples", [3, 1000, 1009, 100_000])
def test_sampling_equals_polyval_bitwise(samples, cubic_curve, quartic_curve, apple_curve):
    # In-place Horner steps are np.polyval's arithmetic, rational
    # components included; sample_boundary keeps np.polyval.
    curves = [cubic_curve, quartic_curve, apple_curve]
    curves += [
        parse_curve_text(text)
        for text in (
            "x=3*(1-t)^2*t/(2+t^2); y=3*(1-t)*t^2/(2+t^2); t in [0,1]",
            "x=(1-t^2)/(1+t^2); y=2*t/(1+t^2); t in [-3,5/2]",
            "x=0; y=(t^2-t)/(t-7); t in [-1,1]",
        )
    ]
    for curve in curves:
        polygon = sample_boundary(curve, samples)
        x, y, _ = quadrature._sample_components(curve, samples)
        assert _bits(x[:samples]) == _bits(polygon[:, 0]) and _bits(y[:samples]) == _bits(polygon[:, 1])
        # The oracle's resolutions: samples | 1 vertices, and every other one.
        fine = sample_boundary(curve, samples | 1)
        for (x, y, _), polygon in zip(_resolutions(quadrature._clipped_areas(curve, samples)), (fine, fine[::2])):
            assert _bits(x) == _bits(polygon[:, 0]) and _bits(y) == _bits(polygon[:, 1])


def _full_pass_areas(areas, lines):
    """The full-pass areas of lines, one list per resolution."""
    return [[full_pass_area(x, y, prefix, *line) for line in lines] for x, y, prefix in _resolutions(areas)]


def _batch_lines(x, y, seed, count):
    """Random lines through the polygon's box, lines that miss it on either
    side, axis-parallel lines through vertices and chords from vertex 0, in
    a shuffled order."""
    polygon = np.column_stack([x, y])
    lines = _oracle_lines(polygon, seed, count)
    lines += [_chord(x, y, u, 0) for u in range(1, len(x), max(1, len(x) // count))]
    lines += [tuple(-v for v in line) for line in lines[::3]]
    random.Random(seed).shuffle(lines)
    return lines


def test_batched_areas_equal_full_pass_on_mixed_batches(cubic_curve, quartic_curve, apple_curve):
    for seed, curve in enumerate((cubic_curve, quartic_curve, apple_curve)):
        for samples in (1000, 1009, 100_000):
            areas = quadrature._clipped_areas(curve, samples)
            lines = [line for x, y, _ in _resolutions(areas) for line in _batch_lines(x, y, seed, 40)]
            assert areas.areas(lines).tolist() == _full_pass_areas(areas, lines)
    # Lines that cross many blocks: the comb, in every rotation.
    for shift in range(len(COMB)):
        for comb in (np.roll(COMB, shift, axis=0), np.roll(COMB[::-1], shift, axis=0)):
            areas = quadrature._clipped_areas(comb, len(comb))
            lines = [(0.0, -1.0, 1.5), (0.0, 1.0, -1.5), (1.0, 0.0, -3.5), (0.0, 0.0, -1.0), (0.0, 0.0, 1.0)]
            lines += _batch_lines(areas.x, areas.y, shift, 10)
            assert areas.areas(lines).tolist() == _full_pass_areas(areas, lines)


def test_batched_areas_equal_full_pass_on_star_polygons():
    # Star polygons: lines through the center cross many blocks.
    rng = np.random.default_rng(5)
    for n in (3, 17, 1000, 5000):
        t, r = np.sort(rng.uniform(0.0, 2 * math.pi, n)), rng.uniform(0.1, 10.0, n)
        areas = quadrature._clipped_areas(np.column_stack([r * np.cos(t), r * np.sin(t)]), n)
        lines = _batch_lines(areas.x, areas.y, n, 30)
        lines += [(math.cos(a), math.sin(a), 0.0) for a in rng.uniform(0.0, 2 * math.pi, 20)]
        assert areas.areas(lines).tolist() == _full_pass_areas(areas, lines)


def test_batched_areas_of_empty_batches_and_small_polygons(cubic_curve):
    areas = quadrature._clipped_areas(cubic_curve, 1000)
    for empty in ([], np.zeros((0, 3))):
        for result in areas.measure(empty):
            assert result.shape == (0,) and result.dtype == np.float64
        assert areas.areas(empty).shape == (2, 0) and areas.areas(empty).dtype == np.float64
    for polygon in (np.zeros((0, 2)), [(1.0, 2.0)], [(0.0, 0.0), (1.0, 1.0)]):
        small = quadrature._clipped_areas(polygon, 1000)
        assert small.areas([(1.0, 0.0, -0.5), (0.0, 0.0, -1.0), (0.0, 0.0, 1.0)]).tolist() == [[0.0] * 3]
        assert small.areas([]).shape == (1, 0)
    # A curve sampled at 3 parameters: its coarse polygon of 2 vertices
    # encloses nothing.
    tiny = quadrature._clipped_areas(cubic_curve, 3)
    lines = [(1.0, 0.0, -0.2), (0.0, 1.0, -0.2), (0.0, 0.0, -1.0)]
    assert tiny.areas(lines)[1].tolist() == [0.0] * 3
    assert tiny.areas(lines)[0].tolist() == _full_pass_areas(tiny, lines)[0]


def _straddled_blocks(areas, line):
    """Blocks with vertices on both sides of the line or on it, by brute
    force: a lower bound on the blocks the area routine gathers."""
    a, b, c = line
    d = areas._x_rows * a + areas._y_rows * b + c
    return int(((d.min(axis=1) <= 0) & (d.max(axis=1) >= 0)).sum())


@pytest.mark.parametrize("samples", [1000, 100_000])
def test_batched_areas_equal_full_pass_across_chunks(samples, cubic_curve):
    # Enough lines that both the bounds and the gathered rows take several
    # chunks under the documented rule; both resolutions ride in each.
    areas = quadrature._clipped_areas(cubic_curve, samples)
    per_chunk = quadrature._CHUNK // len(areas._x_rows)
    lines = []
    for x, y, _ in _resolutions(areas):
        n = len(x)
        lines += _batch_lines(x, y, 9, per_chunk) + [_chord(x, y, u, n - 1) for u in range(1, n - 1, n // 150)]
    rows = sum(_straddled_blocks(areas, line) for line in lines)
    assert len(lines) > 2 * per_chunk
    assert rows > 2 * (quadrature._CHUNK // (areas._block + 1))
    assert areas.areas(lines).tolist() == _full_pass_areas(areas, lines)
    # Every line of the batch alone gives the same areas.
    assert [areas.area(*line) for line in lines[::7]] == [full_pass(areas, line)[0] for line in lines[::7]]


@pytest.mark.parametrize("samples, count", [(4001, 2000), (100_001, 300)])
def test_verify_sized_batches_equal_full_pass_across_chunks(samples, count, cubic_curve, quartic_curve):
    # Batches of verify's shape, chords through the origin and vertical
    # lines, long enough to take several chunks at both resolutions.
    for seed, curve in enumerate((cubic_curve, quartic_curve)):
        areas = quadrature._clipped_areas(curve, samples)
        x, y, n = areas.x, areas.y, len(areas.x)
        assert count > 2 * (quadrature._CHUNK // len(areas._x_rows))
        rng = random.Random(seed)
        lines = []
        for u in (rng.randrange(1, n - 1) for _ in range(count)):
            lines.append(_chord(x, y, u, 0) if u % 2 else (1.0, 0.0, -rng.uniform(x.min(), x.max())))
        assert areas.areas(lines).tolist() == _full_pass_areas(areas, lines)
        measured, errors = areas.measure(lines)
        assert list(zip(measured.tolist(), errors.tolist())) == [full_pass(areas, line) for line in lines]


def test_verify_memory_peak(cubic_centered, cubic_curve):
    cert = pencil_certificate(cubic_centered)
    tracemalloc.start()
    try:
        report = verify_certificate(cert, cubic_curve, n_samples=50, oracle_samples=100_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed and len(report.samples) == 50
    assert peak < 5.0e6, peak


# -- the extrapolated oracle ----------------------------------------------


def test_oracle_resolutions_and_extrapolated_areas(cubic_curve, folium_curve, apple_curve):
    for curve in (cubic_curve, folium_curve, apple_curve):
        for samples, fine_count in ((1000, 1001), (1001, 1001), (quadrature.ORACLE_SAMPLES, 4001)):
            areas = quadrature._clipped_areas(curve, samples)
            (fx, fy, fine), (cx, cy, coarse) = _resolutions(areas)
            # The coarse polygon is every other vertex, both endpoints kept.
            assert len(fx) == fine_count and len(cx) == fine_count // 2 + 1
            assert _bits(cx) == _bits(fx[::2]) and _bits(cy) == _bits(fy[::2])
            assert cx[-1] == fx[-1] and cy[-1] == fy[-1]
            assert np.shares_memory(areas.x, fx) and _bits(areas.x) == _bits(fx) and _bits(areas.y) == _bits(fy)
            assert areas.signed_total == (4.0 * (0.5 * fine[-1]) - 0.5 * coarse[-1]) / 3.0
            lines = _batch_lines(fx, fy, samples, 20)
            got, errors = areas.measure(lines)
            for line, area, error in zip(lines, got.tolist(), errors.tolist()):
                f = full_pass_area(fx, fy, fine, *line)
                c = full_pass_area(cx, cy, coarse, *line)
                assert area == (4.0 * f - c) / 3.0 == areas.area(*line) == numeric_segment_area(curve, line, samples)
                assert error == abs(f - c) / 3.0
    # A polygon is measured as it is, with no error estimate.
    square = quadrature._clipped_areas(UNIT_SQUARE, 4)
    got, errors = square.measure([(1.0, 0.0, -0.5), (0.0, 0.0, -1.0)])
    assert got.tolist() == [0.5, 1.0] and errors.tolist() == [0.0, 0.0]


# 7919 is prime: no t0 = lo + (hi - lo)*k/7919, 0 < k < 7919, is a sample
# parameter of the oracle's 4,001 or 2,001 vertices or of 100,000 plain
# ones. Crossings on sample parameters would hide the O(1/n^3) term.
OFF_GRID = 7919


def _on_a_grid(curve, t) -> bool:
    lo, hi = curve.interval.lo, curve.interval.hi
    return any(((t - lo) / (hi - lo) * (n - 1)).denominator == 1 for n in (4001, 2001, 100_000))


def _chord_lines(cp, count=17):
    """Chords from the center to off-grid points t0, each oriented so that
    the arc from the start to t0 is inside, and their exact areas."""
    curve = cp.curve
    lo, hi = curve.interval.lo, curve.interval.hi
    lines, exact = [], []
    for k in range(OFF_GRID // (2 * count), OFF_GRID, OFF_GRID // count):
        t0 = lo + (hi - lo) * Fraction(k, OFF_GRID)
        gx, fy = float(curve.g.evaluate(t0)), float(curve.f.evaluate(t0))
        mid = curve.point_at((lo + t0) / 2)
        line = (fy, -gx, 0.0) if fy * mid.x - gx * mid.y <= 0 else (-fy, gx, -0.0)
        assert not _on_a_grid(curve, t0)
        lines.append(line)
        exact.append(float(origin_chord_segment_area(cp, t0).value))
    return lines, exact


def _vertical_pairs(cp, count=12):
    """Rational off-grid pairs t1 < t2 with g(t1) = g(t2), for a cubic g.

    The divided difference D(t1, t2) = (g(t1) - g(t2))/(t1 - t2) of a
    cubic is a conic through (lo, hi), since the curve is closed; the line
    t1 = lo + u, t2 = hi + s*u of rational slope s meets it again at a
    rational u."""
    curve = cp.curve
    lo, hi = curve.interval.lo, curve.interval.hi
    coeffs = curve.g.as_univariate().coeffs
    assert len(coeffs) == 4

    def D(a, b):
        return sum(gj * sum(a**i * b ** (j - 1 - i) for i in range(j)) for j, gj in enumerate(coeffs))

    pairs = []
    for k in range(1, 200):
        s = Fraction(-k, 37)
        # D(lo + u, hi + s*u) = u*(A + C*u)
        plus, minus = D(lo + 1, hi + s), D(lo - 1, hi - s)
        A, C = (plus - minus) / 2, (plus + minus) / 2
        if C:
            u = -A / C
            t1, t2 = lo + u, hi + s * u
            if lo < t1 < t2 < hi and not (_on_a_grid(curve, t1) or _on_a_grid(curve, t2)):
                pairs.append((t1, t2))
    return pairs[:: max(1, len(pairs) // count)][:count]


def _vertical_lines(cp, pairs):
    """Vertical lines x = g(t1), oriented so that the start of the curve is
    inside, and the exact areas of the segments cut between t1 and t2."""
    curve = cp.curve
    start = float(curve.g.evaluate(curve.interval.lo))
    lines, exact = [], []
    for t1, t2 in pairs:
        assert curve.g.evaluate(t1) == curve.g.evaluate(t2)
        assert not (_on_a_grid(curve, t1) or _on_a_grid(curve, t2))
        cx = float(curve.g.evaluate(t1))
        lines.append((1.0, 0.0, -cx) if start <= cx else (-1.0, 0.0, cx))
        exact.append(float(vertical_segment_area(cp, t1, t2).value))
    return lines, exact


def _worst_errors(curve, lines, exact):
    """The worst error of the default oracle and of 100,000 plain samples."""
    exact = np.array(exact)
    default = np.array([numeric_segment_area(curve, line) for line in lines])
    plain = quadrature._clipped_areas(sample_boundary(curve, 100_000), 100_000).areas(lines)
    return np.abs(default - exact).max(), np.abs(plain - exact).max()


def test_default_oracle_is_no_less_accurate_than_100k_plain_samples(
    cubic_centered, quartic_centered, apple_curve, folium_curve
):
    loops = seeded_loops(11, 3, 4)
    assert len({(str(cp.curve.g), str(cp.curve.f)) for cp in loops}) == 4
    quartic_pairs = [(-Fraction(k, OFF_GRID), Fraction(k, OFF_GRID)) for k in range(300, OFF_GRID, 630)]
    for cp in [cubic_centered, quartic_centered] + loops:
        pairs = quartic_pairs if cp is quartic_centered else _vertical_pairs(cp)
        assert len(pairs) >= 6
        for lines, exact in (_chord_lines(cp), _vertical_lines(cp, pairs)):
            default, plain = _worst_errors(cp.curve, lines, exact)
            assert default <= plain, (cp.curve, default, plain)
            assert default < 1e-10
    for curve, exact in ((apple_curve, total_area(apple_curve).value), (folium_curve, Fraction(3, 2))):
        default, plain = _worst_errors(curve, [(0.0, 0.0, -1.0)], [float(exact)])
        assert default <= plain and default < 1e-11, (curve, default, plain)
    with pytest.warns(UserWarning, match="numeric oracle"):
        folium = total_area(folium_curve)
    assert abs(folium.value - 1.5) < 1e-11 and not folium.exact


def test_blocks_within_the_rounding_margin_are_evaluated(cubic_curve):
    # For each block of the default oracle (4,001 vertices, B = 64), lines
    # through one of its extreme vertices shifted by one rounding step, so
    # that d there is the smallest nonzero value of its sign and the
    # block's box bound equals it. Such a block lies within the margin of
    # the line, so it must be evaluated, not settled, and every area, fine
    # and coarse, must still equal the full pass.
    areas = quadrature._clipped_areas(cubic_curve, quadrature.ORACLE_SAMPLES)
    assert len(areas.x) == 4001 and areas._block == 64
    lines, blocks = [], []
    for k in range(len(areas._x_rows)):
        for (a, b), low, high in (
            ((1.0, 0.0), areas._xmin[k], areas._xmax[k]),
            ((0.0, 1.0), areas._ymin[k], areas._ymax[k]),
        ):
            # d = low - nextafter(low, -inf) > 0 at the lowest vertex and
            # d = high - nextafter(high, inf) < 0 at the highest one.
            for c in (-np.nextafter(low, -np.inf), -np.nextafter(high, np.inf)):
                lines += _both_signs(a, b, float(c))
                blocks += [k, k]
    table = np.array(lines)
    line, block = areas._unsettled(table[:, 0, None], table[:, 1, None], table[:, 2, None])
    unsettled = set(zip(line.tolist(), block.tolist()))
    assert all((i, k) in unsettled for i, k in enumerate(blocks))
    assert areas.areas(lines).tolist() == _full_pass_areas(areas, lines)
