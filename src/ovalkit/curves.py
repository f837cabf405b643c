"""Parametric curves, centered parametrizations, Bezier ovals,
implicitization and singular-point search."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .algebra import (
    Interval,
    Polynomial,
    RationalFunction,
    UnivariatePolynomial,
    as_fraction,
    gcd_univariate,
    rational_roots,
    substitute_rational,
    sturm_count_roots,
    univariate_from_polynomial,
)
from .elimination import resultant
from .errors import CenteredParametrizationError, DegenerateEliminantError


@dataclass(frozen=True)
class Point:
    x: Fraction
    y: Fraction

    def __post_init__(self):
        object.__setattr__(self, "x", as_fraction(self.x))
        object.__setattr__(self, "y", as_fraction(self.y))


ORIGIN = Point(Fraction(0), Fraction(0))


def _count_roots_closed(p: UnivariatePolynomial, interval: Interval) -> int:
    """Distinct real roots of p in the closed interval [lo, hi]."""
    count = sturm_count_roots(p, interval)
    if p.evaluate(interval.lo) == 0:
        count += 1
    return count


@dataclass(frozen=True)
class ParametricCurve:
    """Pair of rational functions (g, f) on a closed parameter interval.

    The component denominators may not vanish anywhere on the interval.
    """

    g: RationalFunction
    f: RationalFunction
    interval: Interval

    def __post_init__(self):
        if self.g.var != self.f.var:
            raise ValueError("components must share one parameter variable")
        for name, comp in (("x", self.g), ("y", self.f)):
            if comp.den.degree() >= 1 and _count_roots_closed(comp.den, self.interval) > 0:
                raise ValueError(
                    f"denominator of the {name}-component vanishes inside the parameter interval"
                )

    @property
    def var(self) -> str:
        return self.g.var

    def point_at(self, t) -> Point:
        t = as_fraction(t)
        return Point(self.g.evaluate(t), self.f.evaluate(t))

    def is_closed(self) -> bool:
        lo, hi = self.interval.lo, self.interval.hi
        return self.point_at(lo) == self.point_at(hi)

    def reversed(self) -> "ParametricCurve":
        """The same curve traversed backwards (t -> lo + hi - t)."""
        lo, hi = self.interval.lo, self.interval.hi
        flip = UnivariatePolynomial(self.var, [lo + hi, -1])
        return ParametricCurve(self.g.compose(flip), self.f.compose(flip), self.interval)


@dataclass(frozen=True)
class CenteredParametrization:
    """A validated parametrization that starts and ends at its center and
    never returns to the center's x-coordinate in between."""

    curve: ParametricCurve
    center: Point


def validate_centered(curve: ParametricCurve, center: Point) -> CenteredParametrization:
    """Check the centered-parametrization conditions exactly.

    Endpoints must map to the center and g(t) must differ from center.x on
    the open interval (verified with a Sturm count).
    """
    lo, hi = curve.interval.lo, curve.interval.hi
    for t in (lo, hi):
        p = curve.point_at(t)
        if p != center:
            raise CenteredParametrizationError(
                f"endpoint t={t} maps to ({p.x}, {p.y}), not the center ({center.x}, {center.y})"
            )
    shifted = curve.g - center.x
    num = shifted.num
    if num.is_zero:
        raise CenteredParametrizationError("x-component is constantly the center abscissa")
    # Roots of num in (lo, hi): the endpoint hi is always a root, subtract it.
    interior = sturm_count_roots(num, curve.interval) - 1
    if interior > 0:
        raise CenteredParametrizationError(
            f"x-component returns to the center abscissa at {interior} interior point(s)"
        )
    return CenteredParametrization(curve, center)


@dataclass(frozen=True)
class BezierControlPolygon:
    """Ordered control points; for a closed Bezier oval the first and last
    coincide (and there are at least three points)."""

    control_points: tuple[Point, ...]

    def __post_init__(self):
        pts = tuple(self.control_points)
        if len(pts) < 2 or len(set((p.x, p.y) for p in pts)) < 2:
            raise ValueError("need at least 2 distinct control points")
        object.__setattr__(self, "control_points", pts)


def bezier_to_parametric(cp: BezierControlPolygon) -> ParametricCurve:
    """Exact Bernstein parametrization in t on [0, 1]."""
    pts = cp.control_points
    n = len(pts) - 1
    t = UnivariatePolynomial.identity("t")
    one_minus_t = UnivariatePolynomial("t", [1, -1])
    gx = UnivariatePolynomial.zero("t")
    fy = UnivariatePolynomial.zero("t")
    for i, p in enumerate(pts):
        basis = one_minus_t ** (n - i) * t**i * comb(n, i)
        gx = gx + basis * p.x
        fy = fy + basis * p.y
    return ParametricCurve(
        RationalFunction(gx), RationalFunction(fy), Interval(Fraction(0), Fraction(1))
    )


def implicitize(curve: ParametricCurve) -> Polynomial:
    """Implicit equation F(x, y) = 0 of a rational parametric curve.

    Clears denominators, eliminates the parameter with a resultant and
    normalizes the output (content removed, canonical leading sign). A
    parameter named x or y is refused: it would be eliminated together
    with that coordinate. The inputs x*gd - gn and y*fd - fn are linear in
    their own coordinate with coprime gn, gd, so they share no factor and
    the resultant is never zero.
    """
    if curve.g.num.degree() < 1 and curve.g.den.degree() < 1:
        raise ValueError("x-component is constant; the curve has no implicit equation")
    if curve.f.num.degree() < 1 and curve.f.den.degree() < 1:
        raise ValueError("y-component is constant; the curve has no implicit equation")
    t = curve.var
    if t in ("x", "y"):
        raise ValueError(f"parameter variable {t!r} collides with an implicit coordinate")
    p1 = Polynomial.variable("x") * curve.g.den.to_polynomial() - curve.g.num.to_polynomial()
    p2 = Polynomial.variable("y") * curve.f.den.to_polynomial() - curve.f.num.to_polynomial()
    raw = resultant(p1, p2, t)
    return raw.primitive_normalized()[0].with_vars(("x", "y"))


def on_curve_residual(F: Polynomial, curve: ParametricCurve):
    """F(x, y) composed with the parametrization, as an exact rational
    function.

    Zero iff the parametrized curve lies on F = 0.
    """
    return substitute_rational(F.with_vars(("x", "y")), {"x": curve.g, "y": curve.f})


def tangent_vector(curve: ParametricCurve, t0) -> tuple[Fraction, Fraction]:
    """Exact derivative vector (g'(t0), f'(t0))."""
    t0 = as_fraction(t0)
    if not curve.interval.contains(t0):
        raise ValueError(f"t0={t0} outside the parameter interval")
    return curve.g.derivative().evaluate(t0), curve.f.derivative().evaluate(t0)


def is_singular_at(F: Polynomial, p: Point) -> bool:
    """True iff F(x, y) and both partial derivatives vanish at p, all
    exactly."""
    F = F.with_vars(tuple(dict.fromkeys(list(F.vars) + ["x", "y"])))
    assignment = {"x": p.x, "y": p.y}
    if F.evaluate(assignment) != 0:
        return False
    return (
        F.partial_derivative("x").evaluate(assignment) == 0
        and F.partial_derivative("y").evaluate(assignment) == 0
    )


def _specialized_common_roots(polys: list[UnivariatePolynomial]) -> list[Fraction]:
    nonzero = [p for p in polys if not p.is_zero]
    if not nonzero:
        return []
    g = nonzero[0]
    for p in nonzero[1:]:
        g = gcd_univariate(g, p)
    if g.degree() < 1:
        return []
    return sorted(set(rational_roots(g)))


def rational_singular_points(F: Polynomial) -> list[Point]:
    """All singular points of F(x, y) = 0 with both coordinates rational.

    Candidate abscissae are the rational roots of gcd(Res_y(F, dF/dy),
    Res_y(F, dF/dx)), or of the first eliminant when that gcd is constant;
    each candidate is confirmed by an exact gradient check. The eliminants
    go in raw, as `rational_roots` works on the square-free part itself and
    neither content nor multiplicity changes a root set. A square-free
    violation (zero first eliminant) is reported as degenerate.
    """
    if F.is_zero:
        raise ValueError("zero polynomial")
    F = F.with_vars(tuple(dict.fromkeys(list(F.vars) + ["x", "y"])))
    if F.degree_in("x") < 1 or F.degree_in("y") < 1:
        raise ValueError("polynomial must involve both coordinates")
    Fx = F.partial_derivative("x")
    Fy = F.partial_derivative("y")
    r1 = resultant(F, Fy, "y")
    if r1.is_zero:
        raise DegenerateEliminantError(
            "Res_y(F, dF/dy) vanished identically: the curve is not square-free"
        )
    eliminant = univariate_from_polynomial(r1, "x")
    if Fx.degree_in("y") >= 1:
        r2 = resultant(F, Fx, "y")
        if not r2.is_zero:
            # Singular abscissae are roots of both eliminants.
            g = gcd_univariate(eliminant, univariate_from_polynomial(r2, "x"))
            if g.degree() >= 1:
                eliminant = g
    if eliminant.degree() < 1:
        return []
    candidates_x = sorted(set(rational_roots(eliminant)))
    points: list[Point] = []
    for x0 in candidates_x:
        specialized = [
            univariate_from_polynomial(p.subs("x", x0), "y")
            for p in (F, Fx, Fy)
        ]
        for y0 in _specialized_common_roots(specialized):
            pt = Point(x0, y0)
            if is_singular_at(F, pt):
                points.append(pt)
    return points


def convexity_probe(curve: ParametricCurve) -> bool:
    """Numeric convexity check: the cross product of consecutive steps
    through 256 boundary samples keeps one sign. A probe, not a proof; used
    only for warnings."""
    lo = float(curve.interval.lo)
    hi = float(curve.interval.hi)
    pts = []
    for k in range(256):
        t = lo + (hi - lo) * k / 256
        pts.append((curve.g.evaluate_float(t), curve.f.evaluate_float(t)))
    sign = 0
    n = len(pts)
    for i in range(n):
        ax, ay = pts[i]
        bx, by = pts[(i + 1) % n]
        cx, cy = pts[(i + 2) % n]
        cross = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
        if abs(cross) < 1e-14:
            continue
        s = 1 if cross > 0 else -1
        if sign == 0:
            sign = s
        elif s != sign:
            return False
    return True
