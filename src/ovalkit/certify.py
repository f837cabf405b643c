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
from typing import Callable, Mapping, Sequence

from .algebra import (
    Polynomial,
    RationalFunction,
    substitute_rational,
)
from .curves import CenteredParametrization, ParametricCurve
from .elimination import pencil_eliminant, vertical_eliminant
from .errors import DegenerateCurveError, DeskScopeError
from .parsing import parse_polynomial, render_polynomial
from .quadrature import (
    ORACLE_SAMPLES,
    _ClippedAreas,
    _clipped_areas,
    _Extrapolated,
    chord_area_function,
    free_inlet_function,
    slope_function,
    vertical_area_parts,
)

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
        for v, r in self.roles.items():
            if r not in ROLES:
                raise ValueError(f"unknown role {r!r} for {v!r}")

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

    Eliminates the curve parameter from the exact segment-area polynomial
    s(t) (or the free-inlet one with area="free_inlet") and the reduced
    chord slope a(t)/b(t): Q is Res_t(S - s(t), m*b(t) - a(t)) after
    normalization, taken by `pencil_eliminant` as the norm of S - s on
    Q[t]/(m*b - a). The provenance inputs are these two polynomials
    S - s(t) and m*b(t) - a(t), rendered; they are written term by term,
    as nothing else uses them.
    """
    t = cp.curve.var
    if t in (area_var, slope_var):
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
    raw = pencil_eliminant(s, a, b, area_var, slope_var)
    terms = {(0, i): -c for i, c in enumerate(s.coeffs)}
    terms[(1, 0)] = 1
    e_S = Polynomial((area_var, t), terms)
    terms = {(0, i): -c for i, c in enumerate(a.coeffs)}
    for i, c in enumerate(b.coeffs):
        terms[(1, i)] = c
    e_m = Polynomial((slope_var, t), terms)
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
    `vertical_eliminant`, which expands P and R in powers of g so that
    the multiplier is a polynomial in c with parts built once, and takes
    as many abscissa nodes as their growth in c requires. Q equals
    Res_t2(Res_t1(S - P(t1) - R(t2), D), c - g(t2)) after normalization;
    the recorded removed factor is the content of the characteristic
    polynomial. The provenance inputs are these three polynomials
    S - P(t1) - R(t2), D and c - g(t2), rendered; they are written term by
    term, as nothing else uses them. The names t1, t2 (from the curve's
    parameter t) must differ from area_var and abscissa_var.

    An x-component of degree at most 1 has no off-diagonal pairs (D is a
    constant), so S can only be P(t) + R(t), the signed total area, and
    Q = S - (P + R) needs no elimination.
    """
    t = cp.curve.var
    t1, t2 = t + "1", t + "2"
    P, R = vertical_area_parts(cp)  # ExactIntegrationError unless g, f are polynomials
    g = cp.curve.g.as_univariate()
    if g.degree() <= 1:
        raw = (Polynomial.variable(area_var) - (P + R).to_polynomial()).with_vars((area_var, abscissa_var))
        eliminated, inputs = (), (raw,)
    else:
        if {t1, t2} & {area_var, abscissa_var}:
            raise ValueError("parameter variable collides with a certificate variable")
        # The inputs are only rendered, so their terms are written directly:
        # e1 = S - P(t1) - R(t2), D, and e_c = c - g(t2).
        terms = {(0, i, 0): -c for i, c in enumerate(P.coeffs)}
        for j, c in enumerate(R.coeffs):
            terms[(0, 0, j)] = terms.get((0, 0, j), 0) - c
        terms[(1, 0, 0)] = 1
        e1 = Polynomial((area_var, t1, t2), terms)
        # D = sum_j g_j (t1^j - t2^j)/(t1 - t2) = sum_j g_j sum_(i<j) t1^i t2^(j-1-i)
        D = Polynomial(
            (t1, t2), {(i, j - 1 - i): c for j, c in enumerate(g.coeffs) for i in range(j)}
        )
        terms = {(0, j): -c for j, c in enumerate(g.coeffs)}
        terms[(1, 0)] = 1
        e_c = Polynomial((abscissa_var, t2), terms)
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


def _arc_side_line(areas: _ClippedAreas | _Extrapolated, arc_len: int, a: float, b: float, c: float) -> tuple[float, float, float]:
    """Flip the half-plane sign so the midpoint of the arc through the
    first arc_len boundary vertices is inside."""
    mid = min(arc_len, len(areas.x)) // 2
    if a * areas.x.item(mid) + b * areas.y.item(mid) + c > 0:
        return -a, -b, -c
    return a, b, c


def _window(interval, fraction: float = 0.15) -> tuple[float, float]:
    lo, hi = float(interval.lo), float(interval.hi)
    pad = (hi - lo) * fraction
    return lo + pad, hi - pad


def _float_component(rf: RationalFunction) -> Callable[[float], float]:
    """rf.evaluate_float with the coefficients converted once."""
    num = [float(c) for c in reversed(rf.num.coeffs)]
    den = [float(c) for c in reversed(rf.den.coeffs)]

    def value(x: float) -> float:
        n = d = 0.0
        for c in num:
            n = n * x + c
        for c in den:
            d = d * x + c
        return n / d

    return value


def _residual_function(q: Polynomial, names: Sequence[str]) -> Callable[..., float]:
    """Residual of Q at float values of `names`, in that order: |Q| over
    its largest evaluated monomial, at least 1, so the verdict is invariant
    under scaling Q. Each monomial is evaluated as in Polynomial.evaluate_float,
    with the coefficients converted once."""
    index = {v: k for k, v in enumerate(names)}
    terms = [
        (float(c), [(index[v], e) for v, e in zip(q.vars, exps) if e])
        for exps, c in q.terms.items()
    ]

    def residual(*values: float) -> float:
        total = biggest = 0.0
        for term, powers in terms:
            for k, e in powers:
                term *= values[k] ** e
            total += term
            biggest = max(biggest, abs(term))
        return abs(total) / max(1.0, biggest)

    return residual


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
    (at least 1), so the verdict is invariant under scaling Q. tol must be
    finite and positive (ValueError otherwise): an infinite one would pass
    every certificate, a NaN one none.

    One loop serves every family. Candidate lines are drawn one at a time
    from random.Random(seed), in rounds of as many as are still missing;
    each round is measured by one batched oracle call, with the areas of a
    call per line, bit for bit. A round can only complete the set with its
    last candidate, so the lines kept, in draw order, and the draws taken
    are those of a one-at-a-time loop. A chord through a point with
    |x| <= 1e-9 is rejected before it is measured, a general line that
    misses the region after; 100 draws per requested line end in a
    ValueError. oracle_samples is the oracle's fine vertex count on a
    curve (see quadrature._Extrapolated); the report's oracle_error is the
    largest error estimate of the kept lines' areas.
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
    cut = None
    if role_to_var.keys() == {"area", "slope", "intercept"}:
        windows = windows or {"slope": (0.1, 2.0), "intercept": (0.0, 1.0)}
        total = abs(areas.signed_total)
        cut = 1e-9 * total, (1 - 1e-9) * total
        miss = "could not sample enough lines hitting the region"

        def draw():
            return rng.uniform(*windows["slope"]), -1.0, rng.uniform(*windows["intercept"])

    elif role_to_var.keys() in ({"area", "slope"}, {"area", "abscissa"}):
        chords = "slope" in role_to_var
        if not isinstance(curve, ParametricCurve):
            raise ValueError(f"{'chord' if chords else 'vertical-line'} sampling needs a parametric curve")
        g, f = _float_component(curve.g), _float_component(curve.f)
        lo, hi = _window(curve.interval)
        start, span = float(curve.interval.lo), float(curve.interval.hi) - float(curve.interval.lo)
        miss = "could not sample enough chords of finite slope"

        def draw():
            t0 = rng.uniform(lo, hi)
            x = g(t0)
            if not chords:
                return _arc_side_line(areas, max(2, int(oracle_samples * 0.02)), 1.0, 0.0, -x)
            if abs(x) > 1e-9:
                return _arc_side_line(areas, max(2, int(oracle_samples * (t0 - start) / span)), f(t0), -x, 0.0)
            return None

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
        lines = [line for _ in range(rows) if (line := draw())]
        if not lines:
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
    read = {"slope": lambda a, b, c: -a / b, "intercept": lambda a, b, c: -c / b, "abscissa": lambda a, b, c: -c / a}
    roles = [r for r in ROLES[1:] if r in role_to_var]
    residual = _residual_function(cert.q, [role_to_var[r] for r in roles + ["area"]])
    a, b, c, area = table[:, :4].T
    points = zip(*[read[r](a, b, c).tolist() for r in roles], area.tolist())
    table[:, 4] = [residual(*point) for point in points]
    return SampleReport(values, max(values[4::5]), tol, oracle_error)


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
