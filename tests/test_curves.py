import random
from fractions import Fraction

import pytest

from ovalkit import (
    BezierControlPolygon,
    ParametricCurve,
    bezier_to_parametric,
    implicitize,
    is_singular_at,
    on_curve_residual,
    parse_polynomial,
    rational_singular_points,
    tangent_vector,
    validate_centered,
)
from ovalkit.cli import parse_curve_text
from ovalkit.curves import Point, convexity_probe
from ovalkit.errors import CenteredParametrizationError, DegenerateEliminantError

from conftest import FOLIUM_PARAM


def test_validate_centered_quartic(quartic_curve):
    cp = validate_centered(quartic_curve, Point(0, 0))
    assert cp.center == Point(0, 0)


def test_validate_centered_cubic(cubic_curve):
    assert validate_centered(cubic_curve, Point(0, 0)).curve is cubic_curve


def test_validate_centered_wrong_center(quartic_curve):
    with pytest.raises(CenteredParametrizationError):
        validate_centered(quartic_curve, Point(1, 0))


def test_validate_centered_interior_crossing(apple_curve):
    # The symmetric control polygon sends the x-component back to 0 at the
    # top of the oval, so the Bernstein parametrization is not centered.
    with pytest.raises(CenteredParametrizationError):
        validate_centered(apple_curve, Point(0, 0))


def test_denominator_root_rejected():
    from ovalkit.algebra import Interval
    from ovalkit.parsing import parse_rational_function

    g = parse_rational_function("1/(t-1)", "t")
    f = parse_rational_function("t", "t")
    with pytest.raises(ValueError):
        ParametricCurve(g, f, Interval(Fraction(0), Fraction(2)))


def test_implicitize_quartic(quartic_curve, quartic_poly):
    assert implicitize(quartic_curve) == quartic_poly


def test_implicitize_cubic(cubic_curve, cubic_poly):
    assert implicitize(cubic_curve) == cubic_poly


def test_implicitize_line():
    line = parse_curve_text("x=t; y=2*t; t in [0,1]")
    F = implicitize(line)
    assert F == parse_polynomial("y - 2*x", ["x", "y"])


def test_implicitize_rejects_constant_component():
    const = parse_curve_text("x=1; y=t; t in [0,1]")
    with pytest.raises(ValueError):
        implicitize(const)


def test_implicitize_refuses_a_parameter_named_x():
    # Eliminating x would take the x-coordinate with it: the nodal cubic
    # came out as y^2.
    curve = parse_curve_text("x=x^2; y=x^3-x; x in [-1,1]")
    with pytest.raises(ValueError, match="^parameter variable 'x' collides with an implicit coordinate$"):
        implicitize(curve)


def test_implicitize_refuses_a_parameter_named_y():
    curve = parse_curve_text("x=y^2; y=y^3-y; y in [-1,1]")
    with pytest.raises(ValueError, match="^parameter variable 'y' collides with an implicit coordinate$"):
        implicitize(curve)


def test_implicitize_zero_test_all_examples(quartic_curve, cubic_curve, apple_curve):
    for curve in (quartic_curve, cubic_curve, apple_curve):
        assert on_curve_residual(implicitize(curve), curve).num.is_zero


@pytest.mark.parametrize(
    "param, expected",
    [
        (FOLIUM_PARAM, "y^3 + x^3 - 3*x*y"),
        ("x=(1-t^2)/(1+t^2); y=2*t/(1+t^2); t in [0,1]", "y^2 + x^2 - 1"),
        # t and -t give the same point, so the resultant is the square of
        # y*(x + 1) - 1.
        ("x=t^2; y=1/(1+t^2); t in [0,1]", "x^2*y^2 + 2*x*y^2 + y^2 - 2*x*y - 2*y + 1"),
    ],
)
def test_implicitize_rational_curves(param, expected):
    # Components with denominators. On the circle the inputs' leading
    # coefficients in t are x + 1 and y, which vanish at small integers
    # but not at the Kronecker point.
    curve = parse_curve_text(param)
    F = implicitize(curve)
    assert F == parse_polynomial(expected, ["x", "y"])
    assert F.vars == ("x", "y") and repr(F) == f"Polynomial('{expected}')"
    assert on_curve_residual(F, curve).num.is_zero


def test_bezier_linear():
    curve = bezier_to_parametric(BezierControlPolygon((Point(0, 0), Point(1, 0))))
    assert curve.g.num.coeffs == [Fraction(0), Fraction(1)]
    assert curve.f.num.is_zero


def test_bezier_apple_components(apple_curve):
    # Antisymmetric x-control points drop the top coefficient by one.
    assert apple_curve.g.num.degree() == 5
    assert apple_curve.f.num.degree() == 6
    assert apple_curve.is_closed()


def test_bezier_degenerate_rejected():
    with pytest.raises(ValueError):
        BezierControlPolygon((Point(0, 0), Point(0, 0)))


def test_apple_implicit_degree_and_singularity(apple_curve):
    F = implicitize(apple_curve)
    assert F.total_degree() == 6
    assert is_singular_at(F, Point(0, 0))


def test_tangent_vector_quartic(quartic_curve):
    assert tangent_vector(quartic_curve, 0) == (Fraction(0), Fraction(-1))
    assert tangent_vector(quartic_curve, 1) == (Fraction(0), Fraction(2))
    with pytest.raises(ValueError):
        tangent_vector(quartic_curve, 2)


def test_tangent_vector_constant_curve():
    curve = parse_curve_text("x=1; y=2; t in [0,1]")
    assert tangent_vector(curve, Fraction(1, 2)) == (Fraction(0), Fraction(0))


def test_tangent_matches_finite_differences(quartic_curve):
    rng = random.Random(51)
    h = 1e-7
    for _ in range(5):
        t0 = Fraction(rng.uniform(-0.9, 0.9)).limit_denominator(10**6)
        gx, fy = tangent_vector(quartic_curve, t0)
        t = float(t0)
        fd_g = (quartic_curve.g.evaluate_float(t + h) - quartic_curve.g.evaluate_float(t - h)) / (2 * h)
        fd_f = (quartic_curve.f.evaluate_float(t + h) - quartic_curve.f.evaluate_float(t - h)) / (2 * h)
        assert abs(float(gx) - fd_g) <= 1e-6 * max(1.0, abs(fd_g))
        assert abs(float(fy) - fd_f) <= 1e-6 * max(1.0, abs(fd_f))


def test_is_singular_at(quartic_poly):
    assert is_singular_at(quartic_poly, Point(0, 0))
    assert not is_singular_at(quartic_poly, Point(1, 0))  # on curve, regular


def test_singular_points_quartic(quartic_poly):
    assert rational_singular_points(quartic_poly) == [Point(0, 0)]


def test_singular_points_square(square_poly):
    pts = rational_singular_points(square_poly)
    assert pts == [Point(0, 0), Point(0, 1), Point(1, 0), Point(1, 1)]
    for p in pts:
        assert is_singular_at(square_poly, p)
    assert len(set(pts)) == len(pts)


def test_singular_points_smooth_conic():
    conic = parse_polynomial("x^2 + y^2 - 1", ["x", "y"])
    assert rational_singular_points(conic) == []


def test_singular_points_degenerate_curve():
    doubled = parse_polynomial("(y - x)^2", ["x", "y"])
    with pytest.raises(DegenerateEliminantError):
        rational_singular_points(doubled)


def test_convexity_probe(cubic_curve, quartic_curve):
    assert convexity_probe(cubic_curve)
    assert convexity_probe(quartic_curve)
    wiggly = parse_curve_text("x=t; y=t^3-t; t in [-2,2]")
    assert not convexity_probe(wiggly)


def test_reversed_curve(quartic_curve):
    rev = quartic_curve.reversed()
    assert rev.point_at(Fraction(-1)) == quartic_curve.point_at(Fraction(1))
    assert rev.point_at(Fraction(1, 3)) == quartic_curve.point_at(Fraction(-1, 3))


def test_singular_points_sextic(apple_curve):
    # The full algebraic sextic carries a second rational singular point
    # far above the visible oval arc; both are confirmed by exact gradients.
    F = implicitize(apple_curve)
    pts = rational_singular_points(F)
    assert Point(0, 0) in pts
    for p in pts:
        assert is_singular_at(F, p)
