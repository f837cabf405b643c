"""Exact segment and oval areas via boundary integration, the air-damper
free-section computation, and an independent numeric oracle: sampled
boundary polygons whose half-plane areas come from prefix sums of their
edge cross products, Richardson-extrapolated from two resolutions. One
block structure over the fine polygon serves both resolutions: each line
evaluates only the blocks of vertices whose bounding boxes it may cross,
once, and reads the coarse polygon's crossings off every other vertex.

Every exact area reads one swept integral of f*g' dt (`_swept`): the
total, chords through the center, vertical lines and the free section.
It is taken on the integer numerators over one denominator that every
UnivariatePolynomial stores, and the area functions read off it are
built in that form. It requires
polynomial curve components (antiderivatives of general rational
functions would need logarithms). An AreaResult holds the signed_value,
the orientation label and whether it is exact; its value is the
magnitude.
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
    _canonical,
    _homogenized,
    as_fraction,
    isolate_roots,
    sturm_chain,
)
from .curves import ORIGIN, CenteredParametrization, ParametricCurve
from .errors import DegenerateCurveError, DeskScopeError, ExactIntegrationError

if TYPE_CHECKING:
    import numpy as np

Orientation = Literal["clockwise", "counterclockwise"]

# Parameters at which the numeric oracle samples a curve by default: its
# fine resolution, odd so that the coarse one keeps both endpoints.
ORACLE_SAMPLES = 4_001


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


def _swept(curve: ParametricCurve) -> tuple[list[int], int, int]:
    """The boundary integral every exact area reads: B(t) = A(lo) - A(t)
    with A = integral of f*g' dt, and the signed total B(hi), as integers
    over one positive denominator den, a multiple of fd*gd (below): B has
    the ascending numerators nums and the total is top/den.

    B(t) is the integral of -y dx along the boundary from the start to t,
    which vanishes along a vertical line; adding the triangle g*f/2 gives
    the integral of (x dy - y dx)/2, which vanishes along a line through
    the origin.

    With f and g stored as numerators over their denominators fd and gd,
    f*g' is an integer convolution over fd*gd, and A, of degree n, has
    integer numerators over fd*gd*L, L = lcm(1, ..., n).
    With lo = p/q, A(lo) = `_homogenized`(A, lo)/(fd*gd*L*q^n), so B's
    numerators over fd*gd*L*q^n are `_homogenized`(A, lo) - A*q^n; with
    hi = u/v, B(hi) is `_homogenized`(B, hi) over that denominator times
    v^n, which B's numerators are scaled to share.
    """
    if not (curve.g.is_polynomial and curve.f.is_polynomial):
        raise ExactIntegrationError(
            "exact areas need polynomial components; use the numeric oracle for rational ones"
        )
    f, g = curve.f.as_univariate(), curve.g.as_univariate()
    fn, fd, gn, gd = f.nums, f.den, g.nums, g.den
    if not fn or len(gn) < 2:
        # f = 0 or g constant: nothing is swept.
        return [], fd * gd, 0
    n = len(fn) + len(gn) - 2
    # A_k = (sum over i + j = k of f_i * j*g_j) / k, over L.
    A = [0] * (n + 1)
    for i, x in enumerate(fn):
        if x:
            for j in range(1, len(gn)):
                A[i + j] += x * j * gn[j]
    L = math.lcm(*range(1, n + 1))
    for k in range(1, n + 1):
        A[k] *= L // k
    q = curve.interval.lo.denominator ** n
    nums = [-x * q for x in A]
    nums[0] = _homogenized(A, curve.interval.lo)
    den = fd * gd * L * q
    top = _homogenized(nums, curve.interval.hi)
    v = curve.interval.hi.denominator ** n
    if v > 1:
        nums = [x * v for x in nums]
    return nums, den * v, top


def _label(total: Fraction | float) -> Orientation:
    """Orientation label of a signed total; positive means clockwise under
    the sign convention used here, and a zero total is labelled clockwise."""
    return "counterclockwise" if total < 0 else "clockwise"


def _nonzero_label(total: Fraction | int) -> Orientation:
    """The label of a signed total, or of its numerator over a positive
    denominator, that must enclose some area."""
    if total == 0:
        raise DegenerateCurveError("curve encloses zero signed area")
    return _label(total)


def orientation(curve: ParametricCurve) -> Orientation:
    """Traversal orientation label from the sign of the closed boundary
    integral; positive means clockwise under the sign convention used here."""
    return _nonzero_label(_swept(curve)[2])


def total_area(curve: ParametricCurve) -> AreaResult:
    """Enclosed area of a closed curve.

    Exact for polynomial components; rational components fall back to the
    numeric oracle (with a warning), flagged exact=False in the result. A
    total of 0, exact or measured, is labelled clockwise.
    """
    if not curve.is_closed():
        raise ValueError("total area requires a closed curve (matching endpoints)")
    try:
        _, den, top = _swept(curve)
    except ExactIntegrationError:
        warnings.warn(
            "rational curve components: total area measured with the numeric oracle",
            stacklevel=2,
        )
        signed = _clipped_areas(curve, ORACLE_SAMPLES).signed_total
        return AreaResult(signed, _label(signed), False)
    total = Fraction(top, den)
    return AreaResult(total, _label(total), True)


def chord_area_function(cp: CenteredParametrization) -> UnivariatePolynomial:
    """Signed area of the segment cut by the chord from the center to the
    moving point, as an exact polynomial in the parameter.

    The boundary integral from the start of the interval plus the triangle
    correction g*f/2 for the chord; the overall sign follows the curve's
    orientation so the value is the positive segment area on the valid range.
    """
    return _chord(cp)[0]


def _chord(cp: CenteredParametrization) -> tuple[UnivariatePolynomial, int]:
    """The chord area function and the numerator of the signed total that
    fixed its sign."""
    if cp.center != ORIGIN:
        raise ValueError("chord construction requires the center at the origin")
    curve = cp.curve
    nums, den, top = _swept(curve)
    # B + g*f/2 over 2*den, which is a multiple of 2*fd*gd.
    f, g = curve.f.as_univariate(), curve.g.as_univariate()
    fn, fd, gn, gd = f.nums, f.den, g.nums, g.den
    scale = den // (fd * gd)
    body = [2 * x for x in nums] + [0] * (len(fn) + len(gn) - 1 - len(nums))
    for i, x in enumerate(gn):
        if x:
            for j, y in enumerate(fn, i):
                body[j] += x * y * scale
    sign = 1 if top > 0 else -1
    return _canonical(curve.var, [sign * x for x in body], 2 * den), top


def origin_chord_segment_area(cp: CenteredParametrization, t0) -> AreaResult:
    """Exact area of the segment cut by the line through the center and the
    curve point at parameter t0."""
    t0 = as_fraction(t0)
    curve = cp.curve
    if not curve.interval.contains(t0, closed=False):
        raise ValueError(f"t0={t0} must lie strictly inside the parameter interval")
    if curve.g.evaluate(t0) == cp.center.x:
        raise ValueError("chord is undefined: the point shares the center abscissa")
    s, top = _chord(cp)
    return AreaResult(s.evaluate(t0), _nonzero_label(top), True)


def vertical_area_parts(cp: CenteredParametrization) -> tuple[UnivariatePolynomial, UnivariatePolynomial]:
    """Signed vertical-segment area split as P(t1) + R(t2).

    P integrates the boundary from the interval start to t1, R from t2 to
    the end; both carry the orientation sign.
    """
    return _vertical_parts(cp)[:2]


def _vertical_parts(cp: CenteredParametrization) -> tuple[UnivariatePolynomial, UnivariatePolynomial, int]:
    """P = B and R = total - B, signed, each coefficient built once from
    B's numerators, and the numerator of the signed total that fixed their
    sign."""
    nums, den, top = _swept(cp.curve)
    sign = 1 if top > 0 else -1
    rest = [-x for x in nums] or [0]
    rest[0] += top
    P, R = (_canonical(cp.curve.var, [sign * x for x in part], den) for part in (nums, rest))
    return P, R, top


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
    P, R, top = _vertical_parts(cp)
    return AreaResult(P.evaluate(t1) + R.evaluate(t2), _nonzero_label(top), True)


def free_inlet_function(cp: CenteredParametrization) -> UnivariatePolynomial:
    """Free-section area of a damper built from two congruent ovals, as an
    exact polynomial in the shutter parameter: twice the chord segment
    minus the whole oval."""
    return _free_inlet(cp)[0]


def _free_inlet(cp: CenteredParametrization) -> tuple[UnivariatePolynomial, int]:
    """The free-section function, built from the chord function's stored
    numerators and denominator, and the numerator of the signed total that
    fixed its sign."""
    s, top = _chord(cp)
    if s.is_zero:
        return s, top
    # 2*S1 - S1(hi) over den*v^deg, hi = u/v. The chord ends at the
    # center, where the triangle term vanishes, so S1(hi) is the signed
    # total times its own sign: the whole oval's area.
    hi = cp.curve.interval.hi
    w = hi.denominator ** s.degree()
    free = [2 * w * x for x in s.nums]
    free[0] -= _homogenized(s.nums, hi)
    return _canonical(cp.curve.var, free, s.den * w), top


def free_inlet_area(cp: CenteredParametrization, tP, valid_range: Interval) -> AreaResult:
    """Exact free inlet section for a shutter position tP.

    The valid parameter sub-range is supplied by the caller (it depends on
    the oval; for the standard cubic oval it is [1/2, 1]). It must lie in
    the curve's parameter interval, and tP in it; ValueError otherwise."""
    tP = as_fraction(tP)
    interval = cp.curve.interval
    if not (interval.contains(valid_range.lo) and interval.contains(valid_range.hi)):
        raise ValueError(f"the valid range must lie in the parameter interval [{interval.lo}, {interval.hi}]")
    if not valid_range.contains(tP):
        raise ValueError(f"tP={tP} outside the valid range [{valid_range.lo}, {valid_range.hi}]")
    s, top = _free_inlet(cp)
    return AreaResult(s.evaluate(tP), _nonzero_label(top), True)


def slope_function(cp: CenteredParametrization) -> RationalFunction:
    """Chord slope f/g as a reduced rational function of the parameter."""
    if cp.center != ORIGIN:
        raise ValueError("chord slopes require the center at the origin")
    return cp.curve.f / cp.curve.g


def angle_to_parameter(
    cp: CenteredParametrization,
    alpha: float,
    t_range: tuple[float, float] | None = None,
) -> float:
    """Parameter tP in t_range, by default the curve's parameter interval,
    whose chord makes the angle alpha in [0, pi/2] with the x-axis.

    The float tan(alpha) is an exact rational p/q, so tP is a root of
    q*num - p*den, num/den the reduced slope. `isolate_roots` counts its
    roots on the closed range, then narrows the interval (a, b] of the one
    root, each pass to half an ulp of its larger endpoint, until it is
    narrower than an ulp of its smaller one. The float nearest its midpoint
    is returned, or the root itself where it is the range's start or a
    bisection point b. Raises ValueError unless the range lies on the
    curve and holds exactly one root.
    """
    if not 0 <= alpha <= math.pi / 2:
        raise ValueError("alpha must lie in [0, pi/2]")
    interval = cp.curve.interval
    lo, hi = (interval.lo, interval.hi) if t_range is None else map(Fraction, t_range)
    if not (interval.contains(lo) and interval.contains(hi) and lo < hi):
        raise ValueError(f"t_range must lie in the parameter interval [{interval.lo}, {interval.hi}]")
    slope = slope_function(cp)
    tan_alpha = Fraction(math.tan(alpha))
    target = slope.num * tan_alpha.denominator - slope.den * tan_alpha.numerator
    if target.is_zero:
        raise ValueError(f"the chord slope is tan({alpha}) all along the curve")

    def ulp(x: Fraction) -> Fraction:
        return Fraction(math.ulp(float(x)))

    at_lo = target.evaluate(lo) == 0
    chain = sturm_chain(target)
    found = isolate_roots(chain, lo, hi, ulp(max(abs(lo), abs(hi))) / 2)
    if at_lo + sum(count for _, _, count in found) != 1:
        raise ValueError(f"the chord angle {alpha} is not reached exactly once on [{lo}, {hi}]")
    a, b = (lo, lo) if at_lo else found[0][:2]
    while target.evaluate(b) and b - a >= ulp(min(abs(a), abs(b))):
        (a, b, _), = isolate_roots(chain, a, b, ulp(max(abs(a), abs(b))) / 2)
    return float((a + b) / 2 if target.evaluate(b) else b)


# -- numeric oracle ----------------------------------------------------

# numpy is imported inside the oracle only, so the exact verbs never load it.
Boundary = Union[ParametricCurve, Sequence[tuple[float, float]], "np.ndarray"]


class _ClippedAreas:
    """Areas of a closed polygon clipped by half-planes a*x + b*y + c <= 0,
    at one resolution for a polygon and at two for a sampled curve: the
    fine polygon through all n vertices, n odd, and the coarse one through
    the even-indexed vertices, both endpoints among them.

    The shoelace sum of a clipped polygon is a sum of edge cross products
    x_i*y_(i+1) - x_(i+1)*y_i (Green's theorem): the edges of each run of
    kept vertices, whose sum is a difference of prefix sums taken once per
    resolution, plus the cross products at the crossing points. So no
    clipped polygon is built, and a line only has to find its few crossing
    edges.

    It finds them from bounding boxes. The n fine edges fall into blocks of
    B edges, B = isqrt(n) rounded up to an even number: block k holds edges
    kB .. min((k+1)B, n) - 1, so its box covers vertices kB .. min((k+1)B,
    n), vertex n being vertex 0. B is even, so every coarse edge (2i, 2i+2)
    lies in one block too, the closing one (n-1, n+1) in the last, whose
    padding repeats vertex 0. Each box is kept as its centre
    (0.5*lo + 0.5*hi per coordinate) and half-widths (0.5*hi - 0.5*lo).
    For a line, every vertex of a block has d = a*x + b*y + c within
    r = |a|*hx + |b|*hy of the value m of d at the centre, so the block is
    settled when |m| - r exceeds the margin 16u*W, W = |a|*X + |b|*Y + |c|,
    u = 2**-53, with X and Y the largest |x| and |y| of the vertices. m and
    r of every (line, block) pair come from two matrix products: the lines
    (a, b, c) times the centres (xc, yc, 1), and (|a|, |b|) times the
    half-widths; W is (|a|, |b|, |c|) times (X, Y, 1).

    The margin covers the rounding (Higham, Accuracy and Stability of
    Numerical Algorithms, sec. 3.1, with gamma_k = k*u/(1 - k*u)). Halving
    is exact, so a computed centre is within u*X (u*Y) of the true one and
    a computed half-width at least (1 - u) times the true one. An inner
    product of length 3, in any summation order and with or without fused
    multiply-adds, errs by at most gamma_3 times the sum of its absolute
    terms, which is at most (1 + u)*W here; so the computed m is within
    (gamma_3 + 2u)*W of the exact value at the true centre, the computed r
    at least r - (gamma_2 + u)*W, and the subtraction |m| - r loses at most
    one more rounding. So a settled block has every exact vertex value d
    beyond zero by more than the computed margin less about 7u*W, and the
    computed margin is at least (1 - gamma_3)*16u*W. Each vertex's computed
    d is within gamma_3*W of its exact value, so every vertex of a settled
    block lies strictly on one side in computed d too, and no fine or
    coarse edge of it crosses the line. A NaN anywhere leaves the pair
    unsettled, as do an infinite W and an infinite r. Like the vertex
    values, the argument assumes that no sum or product underflows or
    overflows. Only the unsettled blocks are evaluated:
    a line costs O(n/B + B*k) for k unsettled blocks instead of O(n).

    `areas` evaluates a batch of lines with a fixed number of numpy calls
    per chunk, not per line. The bounds of every (line, block) pair are
    the two matrix products. Each unsettled pair copies its block's B + 1
    vertices as a row, from a strided view of the vertex buffer, and
    computes d on it once; the fine crossing edges of all rows are found
    from d, the
    coarse ones from every other column of d, and the coarse lines ride
    along as lines L .. 2L - 1 of a batch of L through the crossing points,
    corners and prefix differences. A chunk holds at most _CHUNK // blocks
    lines, whose unsettled rows are gathered _CHUNK // (B + 1) at a time,
    so no temporary holds more than _CHUNK elements, whatever the batch or
    the polygon (the crossings of a chunk, a few per line, hold fewer). For
    the default oracle's 4,001 vertices a batch of up to 520 lines is one
    chunk, and for 100,001 vertices up to 103.

    Vertex sides and crossing points are computed with the operations of
    the Sutherland-Hodgman clip the tests keep as reference:
    d = a*x + b*y + c, inside where d <= 0, crossing start + s*(end - start)
    with s = d_i/(d_i - d_j). The crossing edges, and so each line's sum
    and its order, are those of a pass over every vertex of each polygon
    for that line alone, which the tests also keep.
    """

    def __init__(self, buffer: np.ndarray, n: int, scratch: np.ndarray, steps: tuple[int, ...]):
        """buffer is a _vertex_buffer(n) whose rows hold the x and y of the n
        vertices; each resolution is the polygon through every step-th of
        them, steps (1,) for a polygon and (1, 2) for a curve, n odd. The
        build pads the buffers and overwrites scratch, a dead buffer of at
        least n floats."""
        import numpy as np

        x_buffer, y_buffer = buffer
        x, y = self.x, self.y = x_buffer[:n], y_buffer[:n]
        if n:
            # The last block's row runs past vertex n - 1 into vertex 0,
            # repeated: it closes both polygons and adds no crossing.
            x_buffer[n:], y_buffer[n:] = x[0], y[0]
        self._x_buffer, self._y_buffer = x_buffer, y_buffer
        # Each resolution's prefix sums, one after the other in one array:
        # prefix[k] = sum of the cross products of its edges 0 .. k-1, its
        # last edge closing it.
        self._steps = steps
        counts = [len(x[::step]) for step in steps]
        self._offsets = [sum(counts[:r]) + r for r in range(len(steps))]
        self._prefix = np.empty(sum(counts) + len(steps))
        self._polygons = []
        for step, m, offset in zip(steps, counts, self._offsets):
            xr, yr, prefix = x[::step], y[::step], self._prefix[offset : offset + m + 1]
            prefix[0] = 0.0
            if m:
                cross = prefix[1:m]
                np.multiply(xr[:-1], yr[1:], out=cross)
                np.subtract(cross, np.multiply(xr[1:], yr[:-1], out=scratch[: m - 1]), out=cross)
                prefix[m] = xr[-1] * yr[0] - xr[0] * yr[-1]
                np.add.accumulate(prefix[1:], out=prefix[1:])
            self._polygons.append((xr, yr, prefix))
        self._twice_totals = np.array([prefix[-1] for _, _, prefix in self._polygons])
        self.signed_total = self._extrapolate(0.5 * self._twice_totals)[0].item()
        B = self._block = _block_size(n)
        # rows[0, k] (rows[1, k]): the x (y) of block k's vertices kB .. kB + B,
        # a view into the buffer.
        blocks, item = -(-n // B), buffer.itemsize
        rows = np.ndarray((2, blocks, B + 1), buffer=buffer, strides=(buffer.strides[0], B * item, item))
        self._x_rows, self._y_rows = rows
        # box[0] holds the blocks' lows in x and y, box[1] their highs.
        box = np.empty((2, 2, blocks))
        rows.min(axis=2, out=box[0])
        rows.max(axis=2, out=box[1])
        # frame rows: the half-widths hx, hy and the centres xc, yc, then 1.
        frame = np.empty((5, blocks))
        lo, hi = box * 0.5
        np.subtract(hi, lo, out=frame[:2])
        np.add(lo, hi, out=frame[2:4])
        frame[4] = 1.0
        self._halves, self._centres = frame[:2], frame[2:]
        # (X, Y, 1): the largest |x| and |y|.
        scale = self._scale = np.empty(3)
        np.abs(box).max(axis=(0, 2), initial=0.0, out=scale[:2])
        scale[2] = 1.0

    @staticmethod
    def _extrapolate(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Areas and error estimates from the rows of values, one per
        resolution. A polygon is measured as it is, with zero error. A
        polygon inscribed in a smooth arc errs by about C/n^2, so the
        coarse polygon errs by about four times the fine one's, and
        (4*fine - coarse)/3 cancels that term (Richardson, Phil. Trans. R.
        Soc. A 210, 1911). What remains was measured at about C'/n^3 for
        lines that cross the boundary between samples (the crossing term
        has no smooth expansion in n) and C''/n^4 for totals.
        |fine - coarse|/3, the fine polygon's own error estimate, is the
        conservative figure reported per line."""
        import numpy as np

        if len(values) == 1:
            return values[0], np.zeros_like(values[0])
        fine, coarse = values
        return (4.0 * fine - coarse) / 3.0, np.abs(fine - coarse) / 3.0

    def area(self, a: float, b: float, c: float) -> float:
        """Area of the boundary's part with a*x + b*y + c <= 0."""
        return self.measure([(a, b, c)])[0].item()

    def measure(self, lines) -> tuple[np.ndarray, np.ndarray]:
        """Area of the boundary's part with a*x + b*y + c <= 0 for each row
        (a, b, c) of lines, an (L, 3) array, and per line its error
        estimate: extrapolated from both resolutions of a curve, or a
        polygon's own areas and zeros."""
        return self._extrapolate(self.areas(lines))

    def areas(self, lines) -> np.ndarray:
        """Area of each resolution's polygon with a*x + b*y + c <= 0 for
        each row (a, b, c) of lines, an (L, 3) array: one row of L areas
        per resolution, the fine one first."""
        import numpy as np

        lines = np.asarray(lines, dtype=float).reshape(-1, 3)
        out = np.zeros((len(self._polygons), len(lines)))
        if len(self.x) < 3:
            return out
        per_chunk = max(1, _CHUNK // len(self._x_rows))
        for first in range(0, len(lines), per_chunk):
            out[:, first : first + per_chunk] = self._chunk_areas(lines[first : first + per_chunk])
        # A curve sampled at 3 parameters has a coarse polygon of 2
        # vertices, which encloses nothing.
        out[[len(xr) < 3 for xr, _, _ in self._polygons]] = 0.0
        return out

    def _unsettled(self, lines: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(line, block) indices of the blocks that are not settled for the
        rows (a, b, c) of lines, by line and then by block."""
        import numpy as np

        size = np.abs(lines)
        # einsum's own loops take the products: a BLAS call (matmul) would
        # allocate its buffers in every process that measures a line.
        slack = np.einsum("ij,jk->ik", lines, self._centres)
        np.abs(slack, out=slack)
        slack -= np.einsum("ij,jk->ik", size[:, :2], self._halves)
        margin = np.einsum("ij,j->i", size, self._scale)
        margin *= 16 * 2.0**-53
        # Written as "not settled", so that NaN counts as unsettled.
        return np.nonzero(~(slack > margin[:, None]))

    def _chunk_areas(self, lines: np.ndarray) -> np.ndarray:
        """`areas` of a chunk of lines whose bounds fit in one temporary."""
        import numpy as np

        B, count, steps = self._block, len(lines), self._steps
        a, b, c = lines[:, 0, None], lines[:, 1, None], lines[:, 2, None]
        line, block = self._unsettled(lines)
        # Per resolution, (line, first vertex, the vertex after it in that
        # polygon, its prefix index, d at both vertices) of each crossing
        # edge, by line and, within a line, by edge. The coarse lines follow
        # the fine ones as lines count .. 2*count - 1.
        crossings: list[list[tuple[np.ndarray, ...]]] = [[] for _ in steps]
        rows = max(1, _CHUNK // (B + 1))
        for r in range(0, len(line), rows):
            rl, rb = line[r : r + rows], block[r : r + rows]
            # d = a*x + b*y + c over each unsettled block's row.
            d = self._x_rows[rb]
            d *= a[rl]
            by = self._y_rows[rb]
            by *= b[rl]
            d += by
            d += c[rl]
            inside = d <= 0.0
            flat = d.ravel()
            for level, step in enumerate(steps):
                side = inside[:, ::step]
                p = np.flatnonzero(side[:, :-1] != side[:, 1:])
                row, j = np.divmod(p, B // step)
                # Edge j of a row of B // step edges starts in column
                # step*j of d, whose rows hold B + 1 columns: at flat index
                # row*(B + 1) + step*j = step*p + row.
                at = step * p + row
                start = rb[row] * B + step * j
                edge = start // step + self._offsets[level]
                crossings[level].append((rl[row] + level * count, start, start + step, edge, flat[at], flat[at + step]))
        none = (np.empty(0, dtype=np.intp),) * 4 + (np.empty(0),) * 2
        found = [none] + [part for level in crossings for part in level]
        line, start, end, edge, d_start, d_end = (np.concatenate(v) for v in zip(*found))
        # Where each crossing edge meets its line. The vertex buffers'
        # padding repeats vertex 0, so end needs no wrap.
        xb, yb = self._x_buffer, self._y_buffer
        denom = d_start - d_end
        with np.errstate(divide="ignore", invalid="ignore"):
            s = np.where(denom != 0.0, d_start / denom, 0.0)
        x0, y0 = xb[start], yb[start]
        px = x0 + s * (xb[end] - x0)
        py = y0 + s * (yb[end] - y0)
        # The clipped boundary runs vertex i, crossing i, crossing j, vertex
        # j + 1, ..., for each leaving edge i and the entering edge j after
        # it in its line's cyclic order; the edges in between lie outside.
        leave = np.flatnonzero(d_start <= 0.0)
        enter = leave + 1
        wrap = enter == line.searchsorted(line[leave], "right")
        enter[wrap] = line.searchsorted(line[leave[wrap]])
        i, after = start[leave], end[enter]
        xi, yi, pix, piy = xb[i], yb[i], px[leave], py[leave]
        pjx, pjy, xk, yk = px[enter], py[enter], xb[after], yb[after]
        prefix = self._prefix
        runs = prefix[edge[leave]] - prefix[edge[enter] + 1]
        corners = (xi * piy - pix * yi) + (pix * pjy - pjx * piy) + (pjx * yk - xk * pjy)
        # The run of kept vertices through vertex 0 wraps around. Each
        # line's pairs are added in edge order, as a pass for that line
        # alone adds them: the k-th pairs of all lines at step k.
        inside0 = self.x.item(0) * a[:, 0] + self.y.item(0) * b[:, 0] + c[:, 0] <= 0.0
        twice = np.where(inside0, self._twice_totals[:, None], 0.0).ravel()
        owner = line[leave]
        rank = np.arange(len(owner)) - owner.searchsorted(owner)
        for k in range(rank.max(initial=-1) + 1):
            turn = rank == k
            at = owner[turn]
            twice[at] += runs[turn]
            twice[at] += corners[turn]
        return np.abs(0.5 * twice).reshape(len(steps), count)


# Elements per temporary of the batched area routine at most, 256 KiB of
# floats: a chunk's temporaries stay in cache, and its fixed numpy calls
# are spread over many rows. Chunks of n elements ran up to twice as slow
# on 100,000-vertex curves whose lines leave many blocks unsettled, and
# chunks capped at n elements made a 2,000-line verify on 4,001 vertices
# about 1.4 times as slow.
_CHUNK = 2**15


def _block_size(n: int) -> int:
    """Edges per block of _ClippedAreas on n vertices: isqrt(n) rounded up
    to an even number, so that a block holds whole coarse edges."""
    return max(2, math.isqrt(n) + math.isqrt(n) % 2)


def _vertex_buffer(n: int) -> np.ndarray:
    """An empty buffer for the x and y of n vertices, one row each, and the
    padding that completes the last block's row in _ClippedAreas."""
    import numpy as np

    B = _block_size(n)
    return np.empty((2, max(-(-n // B), 1) * B + 1))


def _evaluate(rf: RationalFunction, t: np.ndarray, out: np.ndarray) -> np.ndarray:
    """rf at each parameter of t, written into out, bit for bit
    rf.evaluate_float: np.polyval's y = y*t + c in place on the numerator
    and the denominator, then their quotient. evaluate_float starts from
    y = 0, which its first step turns into the leading coefficient for
    finite t, so here y starts from that coefficient. A coefficient
    beyond the float range raises DeskScopeError."""
    import numpy as np

    def horner(p: UnivariatePolynomial, out: np.ndarray) -> np.ndarray:
        try:
            values = [c / p.den for c in p.nums]
        except OverflowError:
            raise DeskScopeError("the curve is beyond the float range of the numeric oracle") from None
        out.fill(values[-1] if values else 0.0)
        for c in reversed(values[:-1]):
            np.multiply(out, t, out=out)
            np.add(out, c, out=out)
        return out

    horner(rf.num, out)
    if not rf.is_polynomial:
        np.divide(out, horner(rf.den, np.empty(len(t))), out=out)
    return out


def _sample_components(curve: ParametricCurve, samples: int) -> tuple[np.ndarray, np.ndarray]:
    """The vertex buffer of x and y, sampled at evenly spaced parameters,
    and the buffer of those parameters, which the caller may overwrite."""
    import numpy as np

    t = np.linspace(float(curve.interval.lo), float(curve.interval.hi), samples)
    buffer = _vertex_buffer(samples)
    _evaluate(curve.g, t, buffer[0, :samples])
    _evaluate(curve.f, t, buffer[1, :samples])
    return buffer, t


def _clipped_areas(boundary: Boundary, samples: int) -> _ClippedAreas:
    """The areas of a curve sampled at `samples` parameters, samples + 1 if
    it is even, at both resolutions, or of a polygon given as (x, y)
    vertices."""
    import numpy as np

    if isinstance(boundary, ParametricCurve):
        n = samples | 1
        buffer, t = _sample_components(boundary, n)
        return _ClippedAreas(buffer, n, t, (1, 2))
    points = np.asarray(boundary, dtype=float).reshape(-1, 2)
    n = len(points)
    buffer = _vertex_buffer(n)
    buffer[:, :n] = points.T
    return _ClippedAreas(buffer, n, np.empty(n), (1,))


def numeric_segment_area(
    boundary: Boundary,
    halfplane: tuple[float, float, float],
    samples: int = ORACLE_SAMPLES,
) -> float:
    """Area of {interior} intersect {a*x + b*y + c <= 0} by polygonal
    sampling and Green's theorem: the prefix sums of the boundary's edge
    cross products over the kept runs, plus the cross products at the
    crossing points, with no clipped polygon built. The crossing edges are
    found from per-block bounding boxes, so only the blocks of vertices the
    line may cross are evaluated. A curve is sampled at `samples`
    parameters (samples + 1 if even) by in-place Horner steps, the same
    arithmetic as np.polyval, and its area is Richardson-extrapolated from
    the polygons through all samples and through every other one, both
    measured in one pass over one block structure; a polygon's area is
    taken as it is. The line goes through the batched area routine as a
    batch of one, and verify_certificate sends all its sampled lines
    through it in one call. A curve whose coefficients a float cannot
    hold raises DeskScopeError.

    Independent of every exact code path. Measured against exact areas
    with crossings between samples, from 1,001 to 32,001 samples: the
    plain polygon errs as C/samples^2, the extrapolated segment areas
    about as C'/samples^3 and the extrapolated totals as C''/samples^4.
    At the default 4,001 samples the worst errors were 6.0e-12 to 7.8e-11
    for chords through the center and vertical segments of the cubic,
    quartic and four seeded cubic loops, where 100,000 plain samples err
    by 7.1e-11 to 6.7e-10, and 9.8e-13 and 5.0e-13 for the apple and
    folium totals, against 2.6e-9 and 1.0e-9.
    """
    if samples < 1000:
        raise ValueError("use at least 1000 boundary samples")
    return _clipped_areas(boundary, samples).area(*halfplane)
