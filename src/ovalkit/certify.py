"""Generate and verify algebraic-squarability certificates.

A certificate is a polynomial relation Q = 0 between the area S of a cut
segment and the coefficients of the cutting line, obtained by eliminating
the curve parameter from exact area and line-coefficient expressions.
Verification samples concrete lines, measures areas with the independent
numeric area oracle and reports scaled residuals.
"""

from __future__ import annotations

import functools
import math
import random
from array import array
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

from .algebra import Polynomial, RationalFunction, _stored, substitute_rational
from .curves import CenteredParametrization, ParametricCurve
from .elimination import pencil_eliminant, vertical_eliminant
from .errors import DegenerateCurveError, DeskScopeError
from .parsing import _lowest_terms, _render_terms, parse_polynomial, render_polynomial
from .quadrature import (
    ORACLE_SAMPLES,
    _clipped_areas,
    _evaluate,
    chord_area_function,
    free_inlet_function,
    slope_function,
    vertical_area_parts,
)

if TYPE_CHECKING:
    import numpy as np

ROLES = ("area", "slope", "intercept", "abscissa")

# Sampled lines per verify_certificate call at most, so that no input runs
# without bound; each line costs one oracle area.
MAX_VERIFY_LINES = 10_000


@dataclass(frozen=True)
class Provenance:
    """How a certificate was produced: rendered inputs, eliminated
    variables, and every factor removed during cleanup."""

    inputs: tuple[str, ...]
    eliminated: tuple[str, ...]
    removed_factors: tuple[str, ...] = field(default=())


@dataclass(frozen=True, slots=True)
class Certificate:
    q: Polynomial
    roles: Mapping[str, str]
    provenance: Provenance | None = None

    def __post_init__(self):
        if self.q.is_zero:
            raise ValueError("certificate polynomial must be nonzero")
        areas = [v for v, r in self.roles.items() if r == "area"]
        if len(areas) != 1:
            raise ValueError("exactly one variable must carry the area role")
        holders: dict[str, str] = {}
        for v, r in self.roles.items():
            if r not in ROLES:
                raise ValueError(f"unknown role {r!r} for {v!r}")
            if r in holders:
                raise ValueError(f"role {r!r} is given to both {holders[r]!r} and {v!r}")
            holders[r] = v
        for v in self.q.vars:
            if v not in self.roles and self.q.degree_in(v) > 0:
                raise ValueError(f"variable {v!r} of the certificate polynomial carries no role")

    @property
    def area_var(self) -> str:
        return next(v for v, r in self.roles.items() if r == "area")


@dataclass(frozen=True, slots=True)
class LineSample:
    line: tuple[float, float, float]
    area: float
    residual: float


@dataclass(frozen=True, slots=True)
class SampleReport:
    """The sampled lines of one verification and its verdict.

    values holds five floats per line, a, b, c, area and residual, in one
    array, so a held report takes a few kilobytes; samples rebuilds them
    as LineSamples, bit for bit, on each read. oracle_error is the largest
    error estimate of the oracle over the sampled lines, that of the fine
    polygon (0.0 for a polygon boundary, which is measured as it is).
    """

    values: array
    max_relative_residual: float
    tolerance: float
    oracle_error: float

    @property
    def samples(self) -> tuple[LineSample, ...]:
        v = self.values
        return tuple(LineSample((v[i], v[i + 1], v[i + 2]), v[i + 3], v[i + 4]) for i in range(0, len(v), 5))

    @property
    def passed(self) -> bool:
        return self.max_relative_residual <= self.tolerance


def _cleanup(raw: Polynomial, eliminated: Sequence[str], systems: tuple) -> tuple[Polynomial, Provenance]:
    """Q and its Provenance from a raw eliminant: Q is
    raw.primitive_normalized(), and the removed factor raw/Q is recorded
    unless it is 1. systems holds the provenance inputs as (variables,
    terms) pairs of `_render_terms`, terms a tuple."""
    q, factor = raw.primitive_normalized()
    removed = () if factor == 1 else (str(factor),)
    return _shared_parts(q.vars, tuple(q.nums.items()), systems, tuple(eliminated), removed)


@functools.lru_cache(maxsize=256)
def _shared_parts(variables, terms, systems, eliminated, removed) -> tuple[Polynomial, Provenance]:
    """Q and its Provenance are immutable, so certificates with equal ones
    share them: every Q is still computed in full, but a caller holding
    many certificates of one curve holds one copy of Q's terms, the
    integer numerators of Q over the denominator 1, and the provenance
    inputs are rendered from systems only on a miss."""
    inputs = tuple(_render_terms(vs, t) for vs, t in systems)
    return _stored(variables, dict(terms), 1), Provenance(inputs, eliminated, removed)


def _triples(p, sign: int = 1) -> list[tuple[int, int, int]]:
    """(i, sign * n, d) for each nonzero coefficient n/d of the
    UnivariatePolynomial p in lowest terms."""
    return _lowest_terms(enumerate(p.nums), p.den, sign)


def pencil_certificate(cp: CenteredParametrization, area: str = "chord") -> Certificate:
    """Certificate Q(S, m) for the pencil of lines through the center.

    Eliminates the curve parameter from the exact segment-area polynomial
    s(t) (or the free-inlet one with area="free_inlet") and the reduced
    chord slope a(t)/b(t): Q is Res_t(S - s(t), m*b(t) - a(t)) after
    normalization, taken by `pencil_eliminant` as the norm of S - s on
    Q[t]/(m*b - a). The provenance inputs are these two polynomials
    S - s(t) and m*b(t) - a(t), rendered from the numerators and
    denominators of the coefficients of s, a and b, as nothing else uses
    them. A curve parameter named S or m is refused.
    """
    t = cp.curve.var
    if t in ("S", "m"):
        raise ValueError("parameter variable collides with a certificate variable")
    if area == "chord":
        s = chord_area_function(cp)
    elif area == "free_inlet":
        s = free_inlet_function(cp)
    else:
        raise ValueError(f"unknown area kind {area!r}")
    # Either function's value at the interval's end is the enclosed area.
    if not s.evaluate(cp.curve.interval.hi):
        raise DegenerateCurveError("curve encloses zero signed area")
    slope = slope_function(cp)
    a, b = slope.num, slope.den
    eliminant = pencil_eliminant(s, a, b)
    e_S = (((1, 0), 1, 1),) + tuple(((0, i), n, d) for i, n, d in _triples(s, -1))
    e_m = tuple(((0, i), n, d) for i, n, d in _triples(a, -1)) + tuple(((1, i), n, d) for i, n, d in _triples(b))
    q, prov = _cleanup(eliminant, (t,), ((("S", t), e_S), (("m", t), e_m)))
    return Certificate(q, {"S": "area", "m": "slope"}, prov)


def vertical_certificate(cp: CenteredParametrization) -> Certificate:
    """Certificate Q(S, c) for segments cut by vertical lines x = c.

    A segment is cut between parameters t1 < t2 with g(t1) = g(t2) = c and
    has area S = P(t1) + R(t2). Pairing c = g(t1) with c = g(t2) would
    keep the diagonal t1 = t2 (the whole oval), a spurious factor of Q. So
    t1 is paired with t2 through the exact divided difference
    D = (g(t1) - g(t2)) / (t1 - t2), which vanishes at every off-diagonal
    pair, and Q is the characteristic polynomial in S of multiplication by
    P(t1) + R(t2) on Q(c)[t1, t2]/(D, g(t2) - c), built on integers by
    `vertical_eliminant`, which expands P and R in powers of g so that
    the multiplier is a polynomial in c with parts built once. Swapping
    t1 and t2 maps S to 2A - S, A = P + R the signed total, so
    Q(S) = q((S - A)^2), and `vertical_eliminant` takes the one
    characteristic polynomial q on the swap-invariant half of the ring,
    a C(d, 2)-square matrix for deg g = d, at the abscissa node c = 2^k;
    the base-2^k digits of Q's coefficients are its coefficients in c.
    Q equals Res_t2(Res_t1(S - P(t1) - R(t2), D), c - g(t2)) after
    normalization; the recorded removed factor is the content of the
    characteristic polynomial. The provenance inputs are these three polynomials
    S - P(t1) - R(t2), D and c - g(t2), rendered from the numerators and
    denominators of the coefficients of P, R and g, as nothing else uses
    them. The names t1, t2 are the curve's parameter t with 1 and 2
    appended, so neither is S or c.
    """
    t = cp.curve.var
    t1, t2 = t + "1", t + "2"
    P, R = vertical_area_parts(cp)  # ExactIntegrationError unless g, f are polynomials
    g = cp.curve.g.as_univariate()
    eliminant = vertical_eliminant(g, P, R)
    # The inputs as (exponents, numerator, denominator) terms:
    # e1 = S - P(t1) - R(t2), whose constant term -(P_0 + R_0) is dropped
    # where it cancels, D, and e_c = c - g(t2).
    e1 = [((1, 0, 0), 1, 1)]
    e1 += [((0, i, 0), n, d) for i, n, d in _triples(P, -1) if i]
    e1 += [((0, 0, j), n, d) for j, n, d in _triples(R, -1) if j]
    c0 = (P.nums[0] * R.den if P.nums else 0) + (R.nums[0] * P.den if R.nums else 0)
    e1 += _lowest_terms([((0, 0, 0), c0)], P.den * R.den, -1)
    # D = sum_j g_j (t1^j - t2^j)/(t1 - t2) = sum_j g_j sum_(i<j) t1^i t2^(j-1-i)
    g_terms = _triples(g)
    D = tuple(((i, j - 1 - i), n, d) for j, n, d in g_terms for i in range(j))
    e_c = (((1, 0), 1, 1),) + tuple(((0, j), -n, d) for j, n, d in g_terms)
    systems = ((("S", t1, t2), tuple(e1)), ((t1, t2), D), (("c", t2), e_c))
    q, prov = _cleanup(eliminant, (t1, t2), systems)
    return Certificate(q, {"S": "area", "c": "abscissa"}, prov)


def annihilation_residual(
    cert: Certificate, assignments: Mapping[str, RationalFunction]
) -> RationalFunction:
    """Exact back-substitution of symbolic expressions into Q.

    Zero confirms that Q annihilates the symbolic area/line relations.
    """
    return substitute_rational(cert.q, assignments)


def _window(interval, fraction: float = 0.15) -> tuple[float, float]:
    lo, hi = float(interval.lo), float(interval.hi)
    pad = (hi - lo) * fraction
    return lo + pad, hi - pad


def _power(value: float, e: int) -> float:
    """Python's value ** e, or where that overflows the infinity IEEE
    arithmetic gives: -inf for a negative value and an odd e, inf
    otherwise."""
    try:
        return value**e
    except OverflowError:
        return -math.inf if value < 0 and e % 2 else math.inf


def _residuals(q: Polynomial, columns: Mapping[str, np.ndarray]) -> np.ndarray:
    """Residual of Q at each row of the value columns, one per variable:
    |Q| over its largest evaluated monomial, at least 1, so the verdict is
    invariant under scaling Q. Each term is its float coefficient, its
    numerator over Q's denominator as float(Fraction) rounds it, times its
    power columns in variable order, and the terms are summed in order, as
    in Polynomial.evaluate_float, so every residual is that function's bit
    for bit wherever no power overflows; a NaN term makes the residual NaN.
    Each power column is built once by `_power`, Python's float ** int on
    each value, as numpy's power and repeated multiplication both round
    differently. An overflowing power is +-inf, so the report fails as it
    does when a product overflows. A first power is the column itself, as
    v ** 1 is v."""
    import numpy as np

    n = len(next(iter(columns.values())))
    total, biggest = np.zeros(n), np.zeros(n)
    powers = {(v, 1): column for v, column in columns.items()}
    with np.errstate(over="ignore", invalid="ignore"):
        for exps, c in q.nums.items():
            term = c / q.den
            for v, e in zip(q.vars, exps):
                if e:
                    if (v, e) not in powers:
                        powers[v, e] = np.array([_power(x, e) for x in columns[v].tolist()])
                    term *= powers[v, e]
            total += term
            np.maximum(biggest, np.abs(term), out=biggest)
        return np.abs(total) / np.maximum(1.0, biggest)


def verify_certificate(
    cert: Certificate,
    curve,
    n_samples: int = 50,
    tol: float = 1e-6,
    oracle_samples: int = ORACLE_SAMPLES,
    seed: int = 7,
    windows: Mapping[str, tuple[float, float]] | None = None,
) -> SampleReport:
    """Check Q against numerically measured segment areas.

    curve is a ParametricCurve or a precomputed boundary polygon (needed
    for piecewise boundaries such as the unit square). The line family is
    chosen from the certificate roles: chords through the origin for
    {area, slope}, vertical lines for {area, abscissa}, and general lines
    y = m*x + q for {area, slope, intercept} (windows give the sampling
    ranges for m and q). For general lines S is the area of the region
    above the line, y >= m*x + q, and only lines that cut the region are
    kept.

    Residuals are |Q| divided by the largest evaluated monomial magnitude
    (at least 1), so the verdict is invariant under scaling Q; a NaN
    residual (an inf - inf in Q, say) fails the report. tol must be finite
    and positive (ValueError otherwise): an infinite one would pass every
    certificate, a NaN one none. A coefficient of Q that a float cannot
    hold raises DeskScopeError, after the curve's own float check.

    One loop serves every family. It runs in rounds of as many candidate
    lines as are still missing: a round takes its random numbers from
    random.Random(seed) in the order of a one-at-a-time loop, then builds
    its lines as numpy columns, whose every value is that loop's, bit for
    bit, and measures them by one batched oracle call. A round can only
    complete the set with its last candidate, so the lines kept, in draw
    order, and the draws taken are those of a one-at-a-time loop. A chord
    through a point with |x| <= 1e-9 is masked out before it is measured,
    a general line that misses the region after; 100 draws per requested
    line end in a ValueError. oracle_samples is the oracle's fine vertex
    count on a curve (see quadrature._ClippedAreas); the report's
    oracle_error is the largest error estimate of the kept lines' areas.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tolerance must be finite and positive, not {tol}")
    if n_samples < 10:
        raise ValueError("use at least 10 sample lines")
    if n_samples > MAX_VERIFY_LINES:
        raise DeskScopeError(f"{n_samples} sample lines exceed the supported {MAX_VERIFY_LINES}")
    import numpy as np

    rng = random.Random(seed)
    role_to_var = {r: v for v, r in cert.roles.items()}
    areas = _clipped_areas(curve, oracle_samples)
    q = cert.q
    try:
        # Each residual term divides a numerator of Q by its denominator
        # in floats, and the largest numerator overflows first.
        max(map(abs, q.nums.values())) / q.den
    except OverflowError:
        raise DeskScopeError("the certificate is beyond the float range of the numeric oracle") from None
    cut = None
    if role_to_var.keys() == {"area", "slope", "intercept"}:
        windows = windows or {"slope": (0.1, 2.0), "intercept": (0.0, 1.0)}
        total = abs(areas.signed_total)
        cut = 1e-9 * total, (1 - 1e-9) * total
        miss = "could not sample enough lines hitting the region"

        def draw(rows):
            return np.array([(rng.uniform(*windows["slope"]), -1.0, rng.uniform(*windows["intercept"])) for _ in range(rows)])

    elif role_to_var.keys() in ({"area", "slope"}, {"area", "abscissa"}):
        chords = "slope" in role_to_var
        if not isinstance(curve, ParametricCurve):
            raise ValueError(f"{'chord' if chords else 'vertical-line'} sampling needs a parametric curve")
        lo, hi = _window(curve.interval)
        start, span = float(curve.interval.lo), float(curve.interval.hi) - float(curve.interval.lo)
        miss = "could not sample enough chords of finite slope"

        def draw(rows):
            t0 = np.array([rng.uniform(lo, hi) for _ in range(rows)])
            x = _evaluate(curve.g, t0, np.empty(rows))
            if chords:
                keep = np.abs(x) > 1e-9  # a NaN x is dropped too
                t0, x = t0[keep], x[keep]
                lines = np.column_stack((_evaluate(curve.f, t0, np.empty(len(t0))), -x, np.zeros(len(t0))))
                arc = np.maximum(2, (oracle_samples * (t0 - start) / span).astype(np.int64))
            else:
                lines = np.column_stack((np.ones(rows), np.zeros(rows), -x))
                arc = max(2, int(oracle_samples * 0.02))
            # Flip each line so that the midpoint of the boundary arc through
            # its first `arc` vertices is inside.
            mid = np.minimum(arc, len(areas.x)) // 2
            flip = lines[:, 0] * areas.x[mid] + lines[:, 1] * areas.y[mid] + lines[:, 2] > 0
            lines[flip] = -lines[flip]
            return lines

    else:
        raise ValueError(f"unsupported role combination {sorted(role_to_var)}")
    # Five floats per line: a, b, c, area and residual, in one array.
    values = array("d", [0.0]) * (5 * n_samples)
    table = np.frombuffer(values).reshape(n_samples, 5)
    kept = draws = 0
    oracle_error = 0.0
    while kept < n_samples:
        if draws >= 100 * n_samples:
            raise ValueError(miss)
        rows = min(n_samples - kept, 100 * n_samples - draws)
        draws += rows
        lines = draw(rows)
        if not len(lines):
            continue
        drawn = table[kept : kept + len(lines)]
        drawn[:, :3] = lines
        drawn[:, 3], errors = areas.measure(drawn[:, :3])
        if cut:
            hits = (cut[0] < drawn[:, 3]) & (drawn[:, 3] < cut[1])
            drawn, errors = drawn[hits], errors[hits]
            table[kept : kept + len(drawn)] = drawn
        oracle_error = max(oracle_error, errors.max(initial=0.0).item())
        kept += len(drawn)
    # Each role value is read off the lines a*x + b*y + c = 0.
    a, b, c, area = table[:, :4].T
    read = {"slope": lambda: -a / b, "intercept": lambda: -c / b, "abscissa": lambda: -c / a, "area": lambda: area}
    table[:, 4] = _residuals(q, {v: read[r]() for v, r in cert.roles.items()})
    # numpy's max, unlike Python's, keeps a NaN, so a NaN residual fails.
    return SampleReport(values, table[:, 4].max().item(), tol, oracle_error)


def serialize_certificate(cert: Certificate) -> str:
    roles = " ".join(f"{v}={r}" for v, r in cert.roles.items())
    return f"{render_polynomial(cert.q)}\nroles: {roles}\n"


def parse_certificate(text: str) -> Certificate:
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if len(lines) < 2 or not lines[-1].startswith("roles:"):
        raise ValueError("certificate text needs a polynomial line and a 'roles:' line")
    roles: dict[str, str] = {}
    for item in lines[-1][len("roles:") :].split():
        var, _, role = item.partition("=")
        if var in roles:
            raise ValueError(f"variable {var!r} is given two roles")
        roles[var] = role
    poly = parse_polynomial(" ".join(lines[:-1]), tuple(roles))
    return Certificate(poly, roles)
