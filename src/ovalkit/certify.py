"""Generate and verify algebraic-squarability certificates.

A certificate is a polynomial relation Q = 0 between the area S of a cut
segment and the coefficients of the cutting line, obtained by eliminating
the curve parameter from exact area and line-coefficient expressions.
Verification samples concrete lines, measures areas with the independent
numeric clipping oracle and reports scaled residuals.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

from .algebra import (
    Polynomial,
    RationalFunction,
    substitute_rational,
)
from .curves import CenteredParametrization, ParametricCurve
from .elimination import resultant, vertical_eliminant
from .parsing import parse_polynomial, render_polynomial
from .quadrature import (
    chord_area_function,
    clip_polygon_halfplane,
    free_inlet_function,
    sample_boundary,
    shoelace_area,
    slope_function,
    vertical_area_parts,
)

if TYPE_CHECKING:
    import numpy as np

ROLES = ("area", "slope", "intercept", "abscissa")


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
        for v, r in self.roles.items():
            if r not in ROLES:
                raise ValueError(f"unknown role {r!r} for {v!r}")

    @property
    def area_var(self) -> str:
        return next(v for v, r in self.roles.items() if r == "area")


@dataclass(frozen=True)
class LineSample:
    line: tuple[float, float, float]
    area: float
    residual: float


@dataclass(frozen=True)
class SampleReport:
    samples: tuple[LineSample, ...]
    max_relative_residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_relative_residual <= self.tolerance


def _linear_in(var: str, rf: RationalFunction) -> Polynomial:
    """num(var - rf(t)) = var*den(t) - num(t) as a polynomial in (var, t)."""
    return (
        Polynomial.variable(var) * rf.den.to_polynomial() - rf.num.to_polynomial()
    )


def _cleanup(raw: Polynomial, eliminated: Sequence[str], inputs: Sequence[Polynomial]) -> tuple[Polynomial, Provenance]:
    normalized, factor = raw.primitive_normalized()
    removed = () if factor == 1 else (str(factor),)
    prov = _shared_provenance(tuple(render_polynomial(p) for p in inputs), tuple(eliminated), removed)
    return normalized, prov


# A Provenance is immutable, so certificates of the same inputs share one.
_shared_provenance = functools.lru_cache(maxsize=256)(Provenance)


def pencil_certificate(
    cp: CenteredParametrization,
    area: str = "chord",
    area_var: str = "S",
    slope_var: str = "m",
) -> Certificate:
    """Certificate Q(S, m) for the pencil of lines through the center.

    Eliminates the curve parameter from the exact segment-area expression
    (or the free-inlet expression with area="free_inlet") and the exact
    chord-slope expression.
    """
    t = cp.curve.var
    if t in (area_var, slope_var):
        raise ValueError("parameter variable collides with a certificate variable")
    if area == "chord":
        S_rf = RationalFunction(chord_area_function(cp))
    elif area == "free_inlet":
        S_rf = RationalFunction(free_inlet_function(cp))
    else:
        raise ValueError(f"unknown area kind {area!r}")
    m_rf = slope_function(cp)
    e_S = _linear_in(area_var, S_rf)
    e_m = _linear_in(slope_var, m_rf)
    raw = resultant(e_S, e_m, t)
    q, prov = _cleanup(raw, (t,), (e_S, e_m))
    return Certificate(q, {area_var: "area", slope_var: "slope"}, prov)


def vertical_certificate(
    cp: CenteredParametrization,
    area_var: str = "S",
    abscissa_var: str = "c",
) -> Certificate:
    """Certificate Q(S, c) for segments cut by vertical lines x = c.

    A segment is cut between parameters t1 < t2 with g(t1) = g(t2) = c and
    has area S = P(t1) + R(t2). Pairing c = g(t1) with c = g(t2) would
    keep the diagonal t1 = t2 (the whole oval), a spurious factor of Q. So
    t1 is paired with t2 through the exact divided difference
    D = (g(t1) - g(t2)) / (t1 - t2), which vanishes at every off-diagonal
    pair, and Q is the characteristic polynomial in S of multiplication by
    P(t1) + R(t2) on Q(c)[t1, t2]/(D, g(t2) - c), built on integers by
    `vertical_eliminant`. It equals Res_t2(Res_t1(S - P(t1) - R(t2), D),
    c - g(t2)) after normalization; the recorded removed factor is the
    content of the characteristic polynomial.

    An x-component of degree at most 1 has no off-diagonal pairs (D is a
    constant), so S can only be P(t) + R(t), the signed total area, and
    Q = S - (P + R) needs no elimination.
    """
    t = cp.curve.var
    t1, t2 = t + "1", t + "2"
    P, R = vertical_area_parts(cp)  # ExactIntegrationError unless g, f are polynomials
    g = cp.curve.g.as_univariate()
    S = Polynomial.variable(area_var)
    if g.degree() <= 1:
        raw = (S - (P + R).to_polynomial()).with_vars((area_var, abscissa_var))
        eliminated, inputs = (), (raw,)
    else:
        e1 = S - P.rename(t1).to_polynomial() - R.rename(t2).to_polynomial()
        g2 = g.rename(t2).to_polynomial()
        # D = sum_j g_j (t1^j - t2^j)/(t1 - t2) = sum_j g_j sum_(i<j) t1^i t2^(j-1-i)
        D = Polynomial(
            (t1, t2), {(i, j - 1 - i): c for j, c in enumerate(g.coeffs) for i in range(j)}
        )
        e_c = Polynomial.variable(abscissa_var) - g2
        raw = vertical_eliminant(g, P, R, area_var, abscissa_var)
        eliminated, inputs = (t1, t2), (e1, D, e_c)
    q, prov = _cleanup(raw, eliminated, inputs)
    return Certificate(q, {area_var: "area", abscissa_var: "abscissa"}, prov)


def annihilation_residual(
    cert: Certificate, assignments: Mapping[str, RationalFunction]
) -> RationalFunction:
    """Exact back-substitution of symbolic expressions into Q.

    Zero confirms that Q annihilates the symbolic area/line relations.
    """
    return substitute_rational(cert.q, assignments)


def _arc_side_line(points: np.ndarray, a: float, b: float, c: float) -> tuple[float, float, float]:
    """Flip the half-plane sign so the sampled arc midpoint is inside."""
    mid = points[len(points) // 2]
    if a * mid[0] + b * mid[1] + c > 0:
        return -a, -b, -c
    return a, b, c


def _window(interval, fraction: float = 0.15) -> tuple[float, float]:
    lo, hi = float(interval.lo), float(interval.hi)
    pad = (hi - lo) * fraction
    return lo + pad, hi - pad


def _residual(cert: Certificate, assignment: dict[str, float]) -> float:
    value, biggest = cert.q.evaluate_float(assignment)
    return abs(value) / max(1.0, biggest)


def verify_certificate(
    cert: Certificate,
    curve,
    n_samples: int = 50,
    tol: float = 1e-6,
    oracle_samples: int = 100_000,
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
    (at least 1), so the verdict is invariant under scaling Q.
    """
    import numpy as np

    if n_samples < 10:
        raise ValueError("use at least 10 sample lines")
    rng = random.Random(seed)
    roles = dict(cert.roles)
    role_to_var = {r: v for v, r in roles.items()}
    is_curve = isinstance(curve, ParametricCurve)
    polygon = sample_boundary(curve, oracle_samples) if is_curve else np.asarray(curve, float)
    samples: list[LineSample] = []

    def measure(a: float, b: float, c: float, arc: np.ndarray) -> tuple[tuple[float, float, float], float]:
        a, b, c = _arc_side_line(arc, a, b, c)
        area = shoelace_area(clip_polygon_halfplane(polygon, a, b, c))
        return (a, b, c), area

    role_set = set(roles.values())
    if role_set == {"area", "slope"}:
        if not is_curve:
            raise ValueError("chord sampling needs a parametric curve")
        lo, hi = _window(curve.interval)
        for _ in range(n_samples):
            while True:
                t0 = rng.uniform(lo, hi)
                gx = curve.g.evaluate_float(t0)
                fy = curve.f.evaluate_float(t0)
                if abs(gx) > 1e-9:
                    break
            m = fy / gx
            k = max(1, int(oracle_samples * (t0 - float(curve.interval.lo)) / (float(curve.interval.hi) - float(curve.interval.lo))))
            arc = polygon[: max(k, 2)]
            line, area = measure(fy, -gx, 0.0, arc)
            res = _residual(cert, {role_to_var["slope"]: m, cert.area_var: area})
            samples.append(LineSample(line, area, res))
    elif role_set == {"area", "abscissa"}:
        if not is_curve:
            raise ValueError("vertical-line sampling needs a parametric curve")
        lo, hi = _window(curve.interval)
        for _ in range(n_samples):
            t2 = rng.uniform(lo, hi)
            cx = curve.g.evaluate_float(t2)
            k = max(2, int(oracle_samples * 0.02))
            arc = polygon[:k]
            line, area = measure(1.0, 0.0, -cx, arc)
            res = _residual(cert, {role_to_var["abscissa"]: cx, cert.area_var: area})
            samples.append(LineSample(line, area, res))
    elif role_set == {"area", "slope", "intercept"}:
        windows = windows or {"slope": (0.1, 2.0), "intercept": (0.0, 1.0)}
        total = shoelace_area(polygon)
        attempts = 0
        while len(samples) < n_samples:
            attempts += 1
            if attempts > 100 * n_samples:
                raise ValueError("could not sample enough lines hitting the region")
            m = rng.uniform(*windows["slope"])
            q = rng.uniform(*windows["intercept"])
            area = shoelace_area(clip_polygon_halfplane(polygon, m, -1.0, q))
            if not (1e-9 * total < area < (1 - 1e-9) * total):
                continue  # the line misses the region
            res = _residual(
                cert,
                {
                    role_to_var["slope"]: m,
                    role_to_var["intercept"]: q,
                    cert.area_var: area,
                },
            )
            samples.append(LineSample((m, -1.0, q), area, res))
    else:
        raise ValueError(f"unsupported role combination {sorted(role_set)}")
    worst = max(s.residual for s in samples)
    return SampleReport(tuple(samples), worst, tol)


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
        roles[var] = role
    poly = parse_polynomial(" ".join(lines[:-1]), tuple(roles))
    return Certificate(poly, roles)
