"""Exact segment and oval areas via boundary integration, the air-damper
free-section computation, and an independent numeric oracle: a densely
sampled boundary polygon whose half-plane areas come from prefix sums of
its edge cross products. Each line evaluates only the blocks of vertices
whose bounding boxes it may cross.

Every exact area reads one swept integral of f*g' dt (`_swept`): the
total, chords through the center, vertical lines and the free section.
It requires polynomial curve components (antiderivatives of general
rational functions would need logarithms). An AreaResult holds the
signed_value, the orientation label and whether it is exact; its value
is the magnitude.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Literal, Sequence, Union

from .algebra import (
    Interval,
    RationalFunction,
    UnivariatePolynomial,
    as_fraction,
)
from .curves import CenteredParametrization, ParametricCurve, Point
from .errors import (
    DegenerateCurveError,
    EvaluationError,
    ExactIntegrationError,
    NonMonotoneSlopeError,
)

if TYPE_CHECKING:
    import numpy as np

Orientation = Literal["clockwise", "counterclockwise"]


@dataclass(frozen=True)
class AreaResult:
    """An area with provenance.

    signed_value is the raw signed number and value its magnitude. exact
    distinguishes symbolic results from the numeric oracle.
    """

    signed_value: Fraction | float
    orientation: Orientation
    exact: bool

    @property
    def value(self) -> Fraction | float:
        return abs(self.signed_value)


def _swept(curve: ParametricCurve) -> tuple[UnivariatePolynomial, Fraction]:
    """The boundary integral every exact area reads: B(t) = A(lo) - A(t)
    with A = integral of f*g' dt, and the signed total B(hi).

    B(t) is the integral of -y dx along the boundary from the start to t,
    which vanishes along a vertical line; adding the triangle g*f/2 gives
    the integral of (x dy - y dx)/2, which vanishes along a line through
    the origin.
    """
    if not (curve.g.is_polynomial and curve.f.is_polynomial):
        raise ExactIntegrationError(
            "exact areas need polynomial components; use the numeric oracle for rational ones"
        )
    A = (curve.f.as_univariate() * curve.g.as_univariate().derivative()).antiderivative()
    B = A.evaluate(curve.interval.lo) - A
    return B, B.evaluate(curve.interval.hi)


def orientation(curve: ParametricCurve) -> Orientation:
    """Traversal orientation label from the sign of the closed boundary
    integral; positive means clockwise under the sign convention used here."""
    total = _swept(curve)[1]
    if total == 0:
        raise DegenerateCurveError("curve encloses zero signed area")
    return "clockwise" if total > 0 else "counterclockwise"


def total_area(curve: ParametricCurve, oracle_samples: int = 100_000) -> AreaResult:
    """Enclosed area of a closed curve.

    Exact for polynomial components; rational components fall back to the
    numeric oracle (with a warning), flagged exact=False in the result. An
    exact total of 0 is labelled clockwise.
    """
    if not curve.is_closed():
        raise ValueError("total area requires a closed curve (matching endpoints)")
    try:
        total = _swept(curve)[1]
    except ExactIntegrationError:
        warnings.warn(
            "rational curve components: total area measured with the numeric oracle",
            stacklevel=2,
        )
        signed = _clipped_areas(curve, oracle_samples).signed_total
        return AreaResult(signed, "clockwise" if signed > 0 else "counterclockwise", False)
    return AreaResult(total, "counterclockwise" if total < 0 else "clockwise", True)


def chord_area_function(cp: CenteredParametrization) -> UnivariatePolynomial:
    """Signed area of the segment cut by the chord from the center to the
    moving point, as an exact polynomial in the parameter.

    The boundary integral from the start of the interval plus the triangle
    correction g*f/2 for the chord; the overall sign follows the curve's
    orientation so the value is the positive segment area on the valid range.
    """
    if cp.center != Point(Fraction(0), Fraction(0)):
        raise ValueError("chord construction requires the center at the origin")
    curve = cp.curve
    B, total = _swept(curve)
    body = B + curve.g.as_univariate() * curve.f.as_univariate() * Fraction(1, 2)
    return body if total > 0 else -body


def origin_chord_segment_area(cp: CenteredParametrization, t0) -> AreaResult:
    """Exact area of the segment cut by the line through the center and the
    curve point at parameter t0."""
    t0 = as_fraction(t0)
    curve = cp.curve
    if not curve.interval.contains(t0, closed=False):
        raise ValueError(f"t0={t0} must lie strictly inside the parameter interval")
    if curve.g.evaluate(t0) == cp.center.x:
        raise ValueError("chord is undefined: the point shares the center abscissa")
    return AreaResult(chord_area_function(cp).evaluate(t0), orientation(curve), True)


def vertical_area_parts(cp: CenteredParametrization) -> tuple[UnivariatePolynomial, UnivariatePolynomial]:
    """Signed vertical-segment area split as P(t1) + R(t2).

    P integrates the boundary from the interval start to t1, R from t2 to
    the end; both carry the orientation sign.
    """
    B, total = _swept(cp.curve)
    P, R = B, total - B
    return (P, R) if total > 0 else (-P, -R)


def vertical_segment_area(cp: CenteredParametrization, t1, t2) -> AreaResult:
    """Exact area of the segment cut off by the vertical line x = g(t1),
    bounded by the boundary arcs before t1 and after t2 (so t1 = t2 yields
    the whole oval and (lo, hi) yields the empty segment)."""
    t1, t2 = as_fraction(t1), as_fraction(t2)
    curve = cp.curve
    if not (curve.interval.contains(t1) and curve.interval.contains(t2)):
        raise ValueError("t1 and t2 must lie in the parameter interval")
    if t1 > t2:
        raise ValueError("require t1 <= t2")
    if curve.g.evaluate(t1) != curve.g.evaluate(t2):
        raise ValueError("g(t1) must equal g(t2): the two points share the vertical line")
    P, R = vertical_area_parts(cp)
    return AreaResult(P.evaluate(t1) + R.evaluate(t2), orientation(curve), True)


def free_inlet_function(cp: CenteredParametrization) -> UnivariatePolynomial:
    """Free-section area of a damper built from two congruent ovals, as an
    exact polynomial in the shutter parameter: twice the chord segment
    minus the whole oval."""
    S1 = chord_area_function(cp)
    # The chord ends at the center, where the triangle term vanishes, so
    # S1(hi) is the signed total times its own sign: the whole oval's area.
    return S1 * 2 - S1.evaluate(cp.curve.interval.hi)


def free_inlet_area(cp: CenteredParametrization, tP, valid_range: Interval) -> AreaResult:
    """Exact free inlet section for a shutter position tP.

    The valid parameter sub-range is supplied by the caller (it depends on
    the oval; for the standard cubic oval it is [1/2, 1])."""
    tP = as_fraction(tP)
    if not valid_range.contains(tP):
        raise ValueError(f"tP={tP} outside the valid range [{valid_range.lo}, {valid_range.hi}]")
    return AreaResult(free_inlet_function(cp).evaluate(tP), orientation(cp.curve), True)


def slope_function(cp: CenteredParametrization) -> RationalFunction:
    """Chord slope f/g as a reduced rational function of the parameter."""
    if cp.center != Point(Fraction(0), Fraction(0)):
        raise ValueError("chord slopes require the center at the origin")
    return cp.curve.f / cp.curve.g


def slope_of_chord(cp: CenteredParametrization, tP) -> Fraction:
    """Exact slope m = f(tP)/g(tP) of the chord through the center."""
    tP = as_fraction(tP)
    if cp.curve.g.evaluate(tP) == 0:
        raise ValueError("slope undefined: g(tP) = 0")
    return cp.curve.f.evaluate(tP) / cp.curve.g.evaluate(tP)


def angle_to_parameter(
    cp: CenteredParametrization,
    alpha: float,
    t_range: tuple[float, float] | None = None,
    probes: int = 257,
) -> float:
    """Parameter tP whose chord makes the angle alpha with the x-axis.

    Bisection on arctan of the reduced slope; the slope must be monotone on
    the probed range. Relative slope accuracy 1e-12 where the tangent is
    finite.
    """
    if not (-1e-12 <= alpha <= math.pi / 2 + 1e-12):
        raise ValueError("alpha must lie in [0, pi/2]")
    slope = slope_function(cp)
    if t_range is None:
        span = float(cp.curve.interval.hi) - float(cp.curve.interval.lo)
        t_range = (
            float(cp.curve.interval.lo) + 1e-9 * span,
            float(cp.curve.interval.hi) - 1e-9 * span,
        )
    lo, hi = t_range

    def angle_at(t: float) -> float:
        den = slope.den.evaluate_float(t)
        num = slope.num.evaluate_float(t)
        if den == 0.0:
            return math.pi / 2 if num >= 0 else -math.pi / 2
        return math.atan(num / den)

    values = [angle_at(lo + (hi - lo) * k / (probes - 1)) for k in range(probes)]
    diffs = [b - a for a, b in zip(values, values[1:])]
    increasing = all(d >= -1e-12 for d in diffs)
    decreasing = all(d <= 1e-12 for d in diffs)
    if not (increasing or decreasing):
        raise NonMonotoneSlopeError("chord slope is not monotone on the probed range")
    a, b = (lo, hi) if increasing else (hi, lo)
    for _ in range(200):
        mid = 0.5 * (a + b)
        if angle_at(mid) < alpha:
            a = mid
        else:
            b = mid
        if abs(b - a) < 1e-16 * max(1.0, abs(a)):
            break
    t_star = 0.5 * (a + b)
    tan_alpha = math.tan(alpha)
    if abs(tan_alpha) < 1e9:
        m = slope.evaluate_float(t_star)
        scale = max(1.0, abs(tan_alpha))
        if abs(m - tan_alpha) > 1e-12 * scale:
            raise EvaluationError("bisection failed to reach the requested slope accuracy")
    return t_star


# -- numeric oracle ----------------------------------------------------

# numpy is imported inside the oracle only, so the exact verbs never load it.
Boundary = Union[ParametricCurve, Sequence[tuple[float, float]], "np.ndarray"]


class _ClippedAreas:
    """Areas of one closed polygon clipped by half-planes a*x + b*y + c <= 0.

    The shoelace sum of a clipped polygon is a sum of edge cross products
    x_i*y_(i+1) - x_(i+1)*y_i (Green's theorem): the edges of each run of
    kept vertices, whose sum is a difference of prefix sums taken once per
    polygon, plus the cross products at the crossing points. So no clipped
    polygon is built, and a line only has to find its few crossing edges.

    It finds them from bounding boxes. The n edges fall into blocks of
    B = isqrt(n) edges: block k holds edges kB .. min((k+1)B, n) - 1, so
    its box covers vertices kB .. min((k+1)B, n), vertex n being vertex 0.
    For a line, the box corners chosen by the signs of a and b give a lower
    and an upper bound of d = a*x + b*y + c over the block, computed with
    the vertices' own operations. A block is settled when both bounds lie
    beyond zero by the margin 6u*(|a|*max|x| + |b|*max|y| + |c|),
    u = 2**-53: the bound and each vertex's d are each within about
    3u*(...) of their exact values (Higham, Accuracy and Stability of
    Numerical Algorithms, sec. 3.1), so every vertex of a settled block
    lies on one side in computed d too, and none of its edges crosses the
    line. (Rounding is also monotone, so the corner bounds hold for the
    computed d even without the margin.) Only the unsettled blocks are
    evaluated: a line costs O(n/B + B*k) for k unsettled blocks instead of
    O(n).

    Vertex sides and crossing points are computed with the operations of
    the Sutherland-Hodgman clip the tests keep as reference:
    d = a*x + b*y + c, inside where d <= 0, crossing start + s*(end - start)
    with s = d_i/(d_i - d_j). The crossing edges, and so the sum and its
    order, are those of a pass over every vertex, which the tests also keep.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray):
        import numpy as np

        n = len(x)
        self.x, self.y = x, y
        # prefix[k] = sum of the cross products of edges 0 .. k-1; edge n-1
        # closes the polygon.
        self._prefix = np.zeros(n + 1)
        if n:
            e = np.empty(n)
            np.multiply(x[:-1], y[1:], out=e[:-1])
            np.subtract(e[:-1], x[1:] * y[:-1], out=e[:-1])
            e[-1] = x[-1] * y[0] - x[0] * y[-1]
            np.cumsum(e, out=self._prefix[1:])
        self.signed_total = 0.5 * float(self._prefix[-1])
        B = self._block = max(1, math.isqrt(n))
        # Vertex offsets of one block's row: its first vertex through the
        # next block's first.
        self._steps = np.arange(B + 1)
        starts = np.arange(0, n, B)
        self._xmin, self._xmax = _block_bounds(x, starts)
        self._ymin, self._ymax = _block_bounds(y, starts)
        self._x_abs = float(max(-self._xmin.min(initial=0.0), self._xmax.max(initial=0.0)))
        self._y_abs = float(max(-self._ymin.min(initial=0.0), self._ymax.max(initial=0.0)))

    def area(self, a: float, b: float, c: float) -> float:
        """Area of the polygon's part with a*x + b*y + c <= 0."""
        import numpy as np

        x, y, n = self.x, self.y, len(self.x)
        if n < 3:
            return 0.0
        x_lo, x_hi = (self._xmin, self._xmax) if a >= 0 else (self._xmax, self._xmin)
        y_lo, y_hi = (self._ymin, self._ymax) if b >= 0 else (self._ymax, self._ymin)
        lo = x_lo * a + y_lo * b + c
        hi = x_hi * a + y_hi * b + c
        margin = 6 * 2.0**-53 * (abs(a) * self._x_abs + abs(b) * self._y_abs + abs(c))
        # Written as "not settled", so that NaN bounds count as unsettled.
        rows = np.flatnonzero(~((hi < -margin) | (lo > margin)))
        B = self._block
        # Each unsettled block's vertices, a row each; the last block's
        # row is padded with its closing vertex n, which is vertex 0, so
        # the padding adds no crossing.
        v = np.minimum(rows[:, None] * B + self._steps, n)
        d = x.take(v, mode="wrap") * a
        d += y.take(v, mode="wrap") * b
        d += c
        inside = d <= 0.0
        # (edge, d at its start, d at its end) for each crossing edge.
        edges = []
        for p in np.flatnonzero(inside[:, :-1] != inside[:, 1:]).tolist():
            r, j = divmod(p, B)
            edges.append((rows.item(r) * B + j, d.item(r, j), d.item(r, j + 1)))
        inside0 = x.item(0) * a + y.item(0) * b + c <= 0.0
        if not inside0:
            edges = edges[1:] + edges[:1]  # start with an edge that leaves
        prefix = self._prefix
        # The run of kept vertices through vertex 0 wraps around.
        twice = prefix.item(n) if inside0 else 0.0
        # The clipped boundary runs vertex i, crossing i, crossing j,
        # vertex j + 1, ..., for each leaving edge i and the entering edge
        # j after it; the edges in between lie outside.
        for leave, enter in zip(edges[0::2], edges[1::2]):
            i, j = leave[0], enter[0]
            xi, yi = x.item(i), y.item(i)
            pi_x, pi_y = self._crossing(*leave)
            pj_x, pj_y = self._crossing(*enter)
            k = j + 1 if j + 1 < n else 0
            xk, yk = x.item(k), y.item(k)
            twice += prefix.item(i) - prefix.item(j + 1)
            twice += (xi * pi_y - pi_x * yi) + (pi_x * pj_y - pj_x * pi_y) + (pj_x * yk - xk * pj_y)
        return abs(0.5 * twice)

    def _crossing(self, i: int, di: float, dj: float) -> tuple[float, float]:
        """Where edge i, with d values di and dj at its ends, meets the line."""
        j = i + 1 if i + 1 < len(self.x) else 0
        denom = di - dj
        s = di / denom if denom != 0.0 else 0.0
        x0, y0 = self.x.item(i), self.y.item(i)
        return x0 + s * (self.x.item(j) - x0), y0 + s * (self.y.item(j) - y0)


def _block_bounds(v: np.ndarray, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least and greatest of v over each block's vertices: from its start
    through the next block's start, vertex 0 for the last block."""
    import numpy as np

    first_of_next = np.roll(v[starts], -1)
    return (
        np.minimum(np.minimum.reduceat(v, starts), first_of_next),
        np.maximum(np.maximum.reduceat(v, starts), first_of_next),
    )


def _sample_components(curve: ParametricCurve, samples: int) -> tuple[np.ndarray, np.ndarray]:
    """Boundary vertices of the curve at evenly spaced parameters."""
    import numpy as np

    t = np.linspace(float(curve.interval.lo), float(curve.interval.hi), samples)

    def eval_rf(rf: RationalFunction) -> np.ndarray:
        num = np.polyval([float(c) for c in reversed(rf.num.coeffs)] or [0.0], t)
        if rf.is_polynomial:
            return num
        den = np.polyval([float(c) for c in reversed(rf.den.coeffs)], t)
        return num / den

    return eval_rf(curve.g), eval_rf(curve.f)


def _clipped_areas(boundary: Boundary, samples: int) -> _ClippedAreas:
    """The area routine of a curve sampled at `samples` parameters, or of
    a polygon given as (x, y) vertices."""
    import numpy as np

    if isinstance(boundary, ParametricCurve):
        return _ClippedAreas(*_sample_components(boundary, samples))
    points = np.asarray(boundary, dtype=float).reshape(-1, 2)
    return _ClippedAreas(np.ascontiguousarray(points[:, 0]), np.ascontiguousarray(points[:, 1]))


def numeric_segment_area(
    boundary: Boundary,
    halfplane: tuple[float, float, float],
    samples: int = 100_000,
) -> float:
    """Area of {interior} intersect {a*x + b*y + c <= 0} by dense polygonal
    sampling and Green's theorem: the prefix sums of the boundary's edge
    cross products over the kept runs, plus the cross products at the
    crossing points, with no clipped polygon built. The crossing edges are
    found from per-block bounding boxes, so only the blocks of vertices the
    line may cross are evaluated.

    Independent of every exact code path; the error is empirically
    O(1/samples^2) for smooth arcs.
    """
    if samples < 1000:
        raise ValueError("use at least 1000 boundary samples")
    return _clipped_areas(boundary, samples).area(*halfplane)

