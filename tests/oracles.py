"""Slow, independent reference routines the tests compare ovalkit against.

None of them is used by the package itself.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import zip_longest

import numpy as np

from ovalkit import Polynomial, RationalFunction, UnivariatePolynomial, resultant, validate_centered
from ovalkit.algebra import _monomial_key
from ovalkit.cli import parse_curve_text
from ovalkit.curves import ParametricCurve, Point
from ovalkit.elimination import _berkowitz, _digits, _g_adic, _integer_inputs, _kronecker_width
from ovalkit.quadrature import (
    ORACLE_SAMPLES,
    _clipped_areas,
    chord_area_function,
    free_inlet_function,
    slope_function,
    vertical_area_parts,
)


def det_cofactor(rows):
    """Naive cofactor expansion of a matrix of Polynomials or ints."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = None
    for j in range(n):
        a = rows[0][j]
        if a.is_zero if isinstance(a, Polynomial) else not a:
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in rows[1:]]
        piece = a * det_cofactor(minor)
        if j % 2:
            piece = -piece
        total = piece if total is None else total + piece
    if total is None:
        zero_like = rows[0][0]
        return zero_like * 0
    return total


def exact_div(a: Polynomial, divisor: Polynomial) -> Polynomial:
    """Exact multivariate division; raises ValueError if not divisible."""
    if divisor.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    a, d = Polynomial._aligned(a, divisor)
    if a.is_zero:
        return a
    d_exps, d_coeff = d.leading()
    quotient: dict[tuple[int, ...], Fraction] = {}
    rem = a
    while rem.terms:
        r_exps, r_coeff = rem.leading()
        q_exps = tuple(r - s for r, s in zip(r_exps, d_exps))
        if any(e < 0 for e in q_exps):
            raise ValueError("polynomial division is not exact")
        q_coeff = r_coeff / d_coeff
        quotient[q_exps] = quotient.get(q_exps, Fraction(0)) + q_coeff
        rem = rem - Polynomial(rem.vars, {q_exps: q_coeff}) * d
    return Polynomial(a.vars, quotient)


def det_bareiss(rows) -> Polynomial:
    """Fraction-free Bareiss determinant over the polynomial ring.

    Every division performed is exact; row swaps flip the sign.
    """
    m = [list(row) for row in rows]
    n = len(m)
    sign = 1
    prev = None
    for k in range(n - 1):
        if m[k][k].is_zero:
            pivot_row = next((r for r in range(k + 1, n) if not m[r][k].is_zero), None)
            if pivot_row is None:
                return m[0][0] * 0  # zero column below the diagonal
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[k][k] * m[i][j] - m[i][k] * m[k][j]
                m[i][j] = num if prev is None else exact_div(num, prev)
            m[i][k] = m[i][k] * 0
        prev = m[k][k]
    result = m[n - 1][n - 1]
    return result if sign > 0 else -result


# -- Fraction references for UnivariatePolynomial's integer kernels -----
# Each works on ascending Fraction lists term by term, with none of the
# common-denominator arithmetic the package uses.


def _trimmed(cs: list[Fraction]) -> list[Fraction]:
    while cs and not cs[-1]:
        cs.pop()
    return cs


def fraction_add(p: list[Fraction], q: list[Fraction]) -> list[Fraction]:
    cs = [Fraction(0)] * max(len(p), len(q))
    for i, c in enumerate(p):
        cs[i] += c
    for i, c in enumerate(q):
        cs[i] += c
    return _trimmed(cs)


def fraction_mul(p: list[Fraction], q: list[Fraction]) -> list[Fraction]:
    if not (p and q):
        return []
    cs = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            cs[i + j] += a * b
    return _trimmed(cs)


def fraction_evaluate(p: list[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def fraction_antiderivative(p: list[Fraction]) -> list[Fraction]:
    return _trimmed([Fraction(0)] + [c / (i + 1) for i, c in enumerate(p)])


def fraction_content(p: list[Fraction]) -> Fraction:
    """The largest positive rational c with every p[i]/c an integer, by
    Euclid's algorithm on Fractions (a % b is exact); 0 for a zero list."""
    g = Fraction(0)
    for c in p:
        a, b = abs(c), g
        while b:
            a, b = b, a % b
        g = a
    return g


def fraction_divmod(f: list[Fraction], g: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and remainder of f by g, g's last entry nonzero, by
    subtracting multiples of g term by term, highest first."""
    r, q = [Fraction(c) for c in f], [Fraction(0)] * max(len(f) - len(g) + 1, 0)
    for i in reversed(range(len(q))):
        q[i] = r[i + len(g) - 1] / g[-1]
        for j, c in enumerate(g):
            r[i + j] -= q[i] * c
    return _trimmed(q), _trimmed(r[: len(g) - 1])


def fraction_swept(curve: ParametricCurve) -> tuple[UnivariatePolynomial, Fraction]:
    """The swept integral B(t) = A(lo) - A(t), A = integral of f*g' dt,
    and the signed total B(hi), on Fraction lists."""
    f, g = curve.f.as_univariate().coeffs, curve.g.as_univariate().coeffs
    A = fraction_antiderivative(fraction_mul(f, [c * i for i, c in enumerate(g)][1:]))
    B = fraction_add([fraction_evaluate(A, curve.interval.lo)], [-c for c in A])
    return UnivariatePolynomial(curve.var, B), fraction_evaluate(B, curve.interval.hi)


def fraction_areas(cp) -> tuple[UnivariatePolynomial, ...]:
    """The vertical parts P and R, the chord function and the free-section
    function from `fraction_swept`, each signed by the total: P = B,
    R = total - B, chord = B + g*f/2 and free = 2*chord - chord(hi)."""
    B, total = fraction_swept(cp.curve)
    sign = 1 if total > 0 else -1
    b = [sign * c for c in B.coeffs]
    gf = fraction_mul(cp.curve.g.as_univariate().coeffs, cp.curve.f.as_univariate().coeffs)
    chord = fraction_add(b, [sign * c / 2 for c in gf])
    free = fraction_add([2 * c for c in chord], [-fraction_evaluate(chord, cp.curve.interval.hi)])
    R = fraction_add([sign * total], [-c for c in b])
    return tuple(UnivariatePolynomial(cp.curve.var, cs) for cs in (b, R, chord, free))


def euclid_gcd(p: UnivariatePolynomial, q: UnivariatePolynomial) -> UnivariatePolynomial:
    """Monic gcd by the Euclidean algorithm over Fraction: remainders by
    `fraction_divmod`, then the last nonzero one divided by its leading
    coefficient."""
    a, b = p.coeffs, q.coeffs
    while b:
        a, b = b, fraction_divmod(a, b)[1]
    return UnivariatePolynomial(p.var, [c / a[-1] for c in a])


def fraction_sturm_chain(p: UnivariatePolynomial) -> list[list[int]]:
    """sturm_chain by the signed remainder sequence p, p', -rem, ... over
    Fraction: every element divided by the last one by `fraction_divmod`,
    then made a primitive integer list by its `fraction_content`."""
    chain = [p.coeffs, p.derivative().coeffs]
    while chain[-1]:
        chain.append([-c for c in fraction_divmod(chain[-2], chain[-1])[1]])
    chain.pop()
    out = []
    for f in chain:
        q = fraction_divmod(f, chain[-1])[0]
        content = fraction_content(q)
        out.append([int(c / content) for c in q])
    return out


def integer_form(coeffs: list[Fraction]) -> tuple[list[int], Fraction]:
    """The primitive integer list n and the positive factor f with
    coeffs = f * n: the numerators over the least common denominator, their
    gcd divided out (f = 1 for an all-zero list)."""
    den = math.lcm(*(c.denominator for c in coeffs))
    nums = [c.numerator * (den // c.denominator) for c in coeffs]
    g = math.gcd(*nums) or 1
    return [c // g for c in nums], Fraction(g, den)


# -- Fraction references for Polynomial's stored form --------------------
# Terms map frozensets of (variable, exponent) pairs to nonzero Fractions:
# no variable order and no common denominator.


def assert_stored(p: Polynomial):
    """Nonzero integer numerators, keyed by exponent tuples of p's
    variables, over a positive denominator that shares no factor with all
    of them."""
    assert type(p.vars) is tuple and type(p.den) is int and p.den > 0
    assert all(type(c) is int and c for c in p.nums.values())
    assert all(len(e) == len(p.vars) and min(e, default=0) >= 0 for e in p.nums)
    assert math.gcd(p.den, *p.nums.values()) == 1


def fraction_terms(p: Polynomial) -> dict[frozenset, Fraction]:
    """p's Fraction terms keyed by their (variable, exponent) pairs."""
    return {frozenset((v, e) for v, e in zip(p.vars, exps) if e): c for exps, c in p.terms.items()}


def _nonzero(terms: dict) -> dict:
    return {k: c for k, c in terms.items() if c}


def fraction_poly_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) + c
    return _nonzero(out)


def fraction_poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            exps = dict(ka)
            for v, e in kb:
                exps[v] = exps.get(v, 0) + e
            k = frozenset(exps.items())
            out[k] = out.get(k, 0) + ca * cb
    return _nonzero(out)


def fraction_poly_pow(a: dict, n: int) -> dict:
    out = {frozenset(): Fraction(1)}
    for _ in range(n):
        out = fraction_poly_mul(out, a)
    return out


def fraction_poly_coeffs(a: dict, var: str) -> list[dict]:
    """The coefficients of a in var, ascending, up to its degree in var."""
    out: list[dict] = [{} for _ in range(max((dict(k).get(var, 0) for k in a), default=-1) + 1)]
    for k, c in a.items():
        exps = dict(k)
        out[exps.pop(var, 0)][frozenset(exps.items())] = c
    return out


def fraction_poly_subs(a: dict, var: str, b: dict) -> dict:
    out: dict = {}
    for e, coeff in enumerate(fraction_poly_coeffs(a, var)):
        out = fraction_poly_add(out, fraction_poly_mul(coeff, fraction_poly_pow(b, e)))
    return out


def fraction_poly_derivative(a: dict, var: str) -> dict:
    out = {}
    for k, c in a.items():
        exps = dict(k)
        e = exps.get(var, 0)
        if e:
            exps[var] = e - 1
            out[frozenset((v, x) for v, x in exps.items() if x)] = c * e
    return out


def fraction_poly_evaluate(a: dict, values: dict) -> Fraction:
    return sum((c * math.prod(values[v] ** e for v, e in k) for k, c in a.items()), Fraction(0))


# -- Fraction references for certificate assembly -----------------------
# Q's primitive form and the printer as they were written with one
# Fraction per term.


def fraction_cleanup(raw: Polynomial) -> tuple[Polynomial, tuple[str, ...]]:
    """Q and the removed factors a certificate records for the raw
    eliminant, on its Fractions: the terms divided by their content,
    fraction_content, and signed so that the leading term under the
    graded order is positive."""
    terms = raw.terms
    factor = fraction_content(list(terms.values()))
    if terms[max(terms, key=_monomial_key)] < 0:
        factor = -factor
    q = Polynomial(raw.vars, {e: c / factor for e, c in terms.items()})
    return q, () if factor == 1 else (str(factor),)


def sorted_terms(p: Polynomial) -> list[tuple[tuple[int, ...], Fraction]]:
    """Terms of p in canonical order: graded, descending."""
    return sorted(p.terms.items(), key=lambda t: _monomial_key(t[0]), reverse=True)


def fraction_render(p) -> str:
    """render_polynomial with each coefficient's magnitude, unit test and
    sign taken on the Fraction."""
    if isinstance(p, UnivariatePolynomial):
        p = p.to_polynomial()
    if p.is_zero:
        return "0"
    pieces = []
    for exps, coeff in sorted_terms(p):
        mono = "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(p.vars, exps) if e)
        mag = abs(coeff)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not pieces:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f" + {body}" if coeff > 0 else f" - {body}")
    return "".join(pieces)


def in_var(p, var: str) -> Polynomial:
    """The univariate polynomial p in the variable var."""
    return UnivariatePolynomial(var, p.coeffs).to_polynomial()


def sylvester_vertical_inputs(cp):
    """(e1, D, e_c, t1, t2) of the vertical system: e1 = S - P(t1) - R(t2),
    D = (g(t1) - g(t2)) / (t1 - t2) by exact division, e_c = c - g(t2)."""
    t = cp.curve.var
    t1, t2 = t + "1", t + "2"
    P, R = vertical_area_parts(cp)
    g = cp.curve.g.as_univariate()
    e1 = Polynomial.variable("S") - in_var(P, t1) - in_var(R, t2)
    g2 = in_var(g, t2)
    D = exact_div(in_var(g, t1) - g2, Polynomial.variable(t1) - Polynomial.variable(t2))
    e_c = Polynomial.variable("c") - g2
    return e1, D, e_c, t1, t2


def sylvester_vertical(cp) -> Polynomial:
    """The vertical certificate by two Sylvester resultants,
    Res_t2(Res_t1(e1, D), e_c), normalized."""
    e1, D, e_c, t1, t2 = sylvester_vertical_inputs(cp)
    return resultant(resultant(e1, D, t1), e_c, t2).primitive_normalized()[0]


def vertical_raw(cp) -> Polynomial:
    """The raw vertical eliminant K^n * det(S*I - M(c)), n = d(d - 1), from
    the two Sylvester resultants: Res_t2(Res_t1(e1, D), e_c) is that
    characteristic polynomial times a nonzero constant, its coefficient of
    S^n. K = a^m/f makes K*P(tau/a) and K*R(tau/a) a pair of integer
    polynomials in tau with content 1: a is g's leading coefficient over
    g's content, m = max(deg P, deg R) and f the content of the
    coefficients c_i*a^(m-i) of P and R together."""
    e1, D, e_c, t1, t2 = sylvester_vertical_inputs(cp)
    r = resultant(resultant(e1, D, t1), e_c, t2)
    P, R = vertical_area_parts(cp)
    g = cp.curve.g.as_univariate().coeffs
    n = (len(g) - 1) * (len(g) - 2)
    a = g[-1] / fraction_content(g)
    m = max(len(P.coeffs), len(R.coeffs), 1) - 1
    K = a**m / fraction_content([c * a ** (m - i) for p in (P, R) for i, c in enumerate(p.coeffs)])
    i = r.vars.index("S")
    (lead,) = [c for e, c in r.terms.items() if e[i] == n]
    return r * (K**n / lead)


def full_ring_vertical_eliminant(g, P, R):
    """`vertical_eliminant` on the whole quotient ring: the same integer
    inputs, g-adic parts and Kronecker width, then the d(d - 1)-square
    matrix of multiplication by h = P_hat(tau1) + R_hat(tau2) on the basis
    tau1^i tau2^j (i < d - 1, j < d) at c_hat = 2^width, its characteristic
    polynomial by `_berkowitz`, and the same digits and weights."""
    d = g.degree()
    full, ph, rh, (kn, kd), (ln, ld) = _integer_inputs(g, P, R)
    gh = full[:-1]
    # D_hat = sum_i tau1^i * w_i(tau2) with w_i = sum_{j > i} g_hat_j tau2^(j-1-i)
    # and w_(d-1) = 1, so tau1^(d-1) = -sum_(i < d-1) tau1^i w_i(tau2).
    n = d * (d - 1)
    reduce_t1 = [0] * n
    for i in range(d - 1):
        for j in range(i + 1, d + 1):
            reduce_t1[i * d + j - 1 - i] -= full[j]
    # h_k = P_k(tau1) + R_k(tau2) on the basis, tau1^(d-1) reduced once.
    adic = list(zip_longest(_g_adic(ph, full), _g_adic(rh, full), fillvalue=[]))
    parts = []
    bound = 0
    for k, (pk, rk) in enumerate(adic):
        v = [0] * n
        for i, c in enumerate(pk[: d - 1]):
            v[i * d] = c
        if len(pk) == d:
            v = [x + pk[-1] * y for x, y in zip(v, reduce_t1)]
        for j, c in enumerate(rk):
            v[j] += c
        if any(v):
            bound = max(bound, n * k + (d - 1) * (max(len(pk), len(rk)) - 1))
        parts.append(v)
    width = _kronecker_width(full, adic, n)
    c_hat = 1 << width

    def times_t2(v):
        # tau2^d = c_hat - sum_(j < d) g_hat_j tau2^j
        out = [0] * n
        for base in range(0, n, d):
            top = v[base + d - 1]
            out[base + 1 : base + d] = v[base : base + d - 1]
            if top:
                out[base] = top * c_hat
                for j, c in enumerate(gh):
                    out[base + j] -= top * c
        return out

    wrap = [reduce_t1]
    for _ in range(d - 1):
        wrap.append(times_t2(wrap[-1]))

    def times_t1(v):
        out = [0] * d + v[: n - d]
        for top, w in zip(v[n - d :], wrap):
            if top:
                out = [x + top * y for x, y in zip(out, w)]
        return out

    h = [0] * n
    for part in reversed(parts):
        h = [c_hat * x + y for x, y in zip(h, part)]
    # Column i*d + j of M is h * tau1^i tau2^j.
    cols = [h]
    for j in range(1, d):
        cols.append(times_t2(cols[-1]))
    for i in range(1, d - 1):
        cols += [times_t1(col) for col in cols[-d:]]
    c_weights = [ln**e * ld ** (bound - e) for e in range(bound + 1)]
    terms = {}
    for i, value in enumerate(_berkowitz(cols)):
        s_weight = kn ** (n - i) * kd**i
        for e, c in enumerate(_digits(value, width, bound + 1)):
            if c:
                terms[(n - i, e)] = Fraction(c * s_weight * c_weights[e], kd**n * ld**bound)
    return Polynomial(("S", "c"), terms)


def vertical_provenance_system(cp) -> tuple[Polynomial, Polynomial, Polynomial]:
    """e1 = S - P(t1) - R(t2), D and e_c = c - g(t2), each built term by
    term through the Polynomial constructor, which adds the constant terms
    of P and R and drops a zero sum."""
    t = cp.curve.var
    t1, t2 = t + "1", t + "2"
    P, R = vertical_area_parts(cp)
    g = cp.curve.g.as_univariate()
    terms = {(0, i, 0): -c for i, c in enumerate(P.coeffs)}
    for j, c in enumerate(R.coeffs):
        terms[(0, 0, j)] = terms.get((0, 0, j), 0) - c
    terms[(1, 0, 0)] = 1
    e1 = Polynomial(("S", t1, t2), terms)
    D = Polynomial((t1, t2), {(i, j - 1 - i): c for j, c in enumerate(g.coeffs) for i in range(j)})
    terms = {(0, j): -c for j, c in enumerate(g.coeffs)}
    terms[(1, 0)] = 1
    return e1, D, Polynomial(("c", t2), terms)


def pencil_provenance_system(cp, area: str = "chord") -> tuple[Polynomial, Polynomial]:
    """e_S = S - s(t) and e_m = m*b(t) - a(t), each built term by term
    through the Polynomial constructor."""
    t = cp.curve.var
    s = chord_area_function(cp) if area == "chord" else free_inlet_function(cp)
    slope = slope_function(cp)
    terms = {(0, i): -c for i, c in enumerate(s.coeffs)}
    terms[(1, 0)] = 1
    e_S = Polynomial(("S", t), terms)
    terms = {(0, i): -c for i, c in enumerate(slope.num.coeffs)}
    for i, c in enumerate(slope.den.coeffs):
        terms[(1, i)] = c
    return e_S, Polynomial(("m", t), terms)


def linear_in(var: str, rf: RationalFunction) -> Polynomial:
    """num(var - rf(t)) = var*den(t) - num(t) as a polynomial in (var, t)."""
    return Polynomial.variable(var) * rf.den.to_polynomial() - rf.num.to_polynomial()


def pencil_inputs(cp, area: str = "chord"):
    """(e_S, e_m) of the pencil system: e_S = S - s(t) for the chord or
    free-inlet area s, and e_m = m*b(t) - a(t) for the reduced slope a/b."""
    s = chord_area_function(cp) if area == "chord" else free_inlet_function(cp)
    return linear_in("S", RationalFunction(s)), linear_in("m", slope_function(cp))


def seeded_loops(seed: int, degree: int, count: int) -> list:
    """Centered Bezier loops (0,0) P1 ... (0,0) of the given degree with
    small integer control points, P1.x >= 1 and every x >= 0, so that
    x > 0 inside the parameter interval."""
    rng = random.Random(seed)
    loops = []
    for _ in range(count):
        inner = [(rng.randint(1, 3), rng.randint(-3, 3))]
        inner += [(rng.randint(0, 3), rng.randint(-3, 3)) for _ in range(degree - 2)]
        text = "bezier (0,0) " + " ".join(f"({x},{y})" for x, y in inner) + " (0,0)"
        loops.append(validate_centered(parse_curve_text(text), Point(0, 0)))
    return loops


def sample_boundary(curve: ParametricCurve, samples: int) -> np.ndarray:
    """Dense float sampling of the curve boundary, shape (samples, 2)."""
    t = np.linspace(float(curve.interval.lo), float(curve.interval.hi), samples)

    def eval_rf(rf) -> np.ndarray:
        num = np.polyval([float(c) for c in reversed(rf.num.coeffs)] or [0.0], t)
        if rf.is_polynomial:
            return num
        den = np.polyval([float(c) for c in reversed(rf.den.coeffs)], t)
        return num / den

    return np.column_stack([eval_rf(curve.g), eval_rf(curve.f)])


def clip_polygon_halfplane(points: np.ndarray, a: float, b: float, c: float) -> np.ndarray:
    """Clip a closed polygon against the half-plane a*x + b*y + c <= 0
    (Sutherland and Hodgman, "Reentrant polygon clipping", CACM 1974).

    The result lists, in the polygon's order, every vertex inside the
    half-plane and, right after the start vertex of each edge that crosses
    the line, the crossing point. Only the few crossing edges are
    interpolated; the kept vertices are gathered with one take.
    """
    x, y = points[:, 0], points[:, 1]
    d = a * x + b * y + c
    inside = d <= 0.0
    cross = np.flatnonzero(inside != np.roll(inside, -1))
    nxt = (cross + 1) % len(points)
    d_cross = d.take(cross)
    denom = d_cross - d.take(nxt)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(denom != 0.0, d_cross / denom, 0.0)
    start = points.take(cross, axis=0)
    inter = start + s[:, None] * (points.take(nxt, axis=0) - start)
    kept = np.flatnonzero(inside)
    # Crossing j follows the kept vertices up to its edge's start and the
    # j crossings before it; its slot takes vertex 0 until overwritten.
    slots = np.searchsorted(kept, cross, side="right") + np.arange(len(cross))
    is_slot = np.zeros(len(kept) + len(cross), dtype=bool)
    is_slot[slots] = True
    order = np.zeros(len(is_slot), dtype=np.intp)
    order[~is_slot] = kept
    out = points.take(order, axis=0).astype(float, copy=False)  # float for integer input too
    out[slots] = inter
    return out


def full_pass_area(x: np.ndarray, y: np.ndarray, prefix: np.ndarray, a: float, b: float, c: float) -> float:
    """Area of the polygon's part with a*x + b*y + c <= 0 from the prefix
    sums of its edge cross products, finding the crossing edges by one pass
    over every vertex. prefix[k] is the sum of the cross products of edges
    0 .. k-1, edge n-1 closing the polygon.

    The arithmetic is that of quadrature._ClippedAreas, which finds the
    same edges from block bounding boxes, at each of its resolutions, so
    every area must be equal.
    """
    n = len(x)
    if n < 3:
        return 0.0
    d = x * a + y * b + c
    inside = d <= 0.0
    edges = np.flatnonzero(inside != np.roll(inside, -1)).tolist()
    if not inside[0]:
        edges = edges[1:] + edges[:1]  # start with an edge that leaves

    def crossing(i):
        j = i + 1 if i + 1 < n else 0
        di, dj = d.item(i), d.item(j)
        denom = di - dj
        s = di / denom if denom != 0.0 else 0.0
        x0, y0 = x.item(i), y.item(i)
        return x0 + s * (x.item(j) - x0), y0 + s * (y.item(j) - y0)

    twice = prefix.item(n) if inside[0] else 0.0
    for i, j in zip(edges[0::2], edges[1::2]):
        xi, yi = x.item(i), y.item(i)
        pi_x, pi_y = crossing(i)
        pj_x, pj_y = crossing(j)
        k = j + 1 if j + 1 < n else 0
        xk, yk = x.item(k), y.item(k)
        twice += prefix.item(i) - prefix.item(j + 1)
        twice += (xi * pi_y - pi_x * yi) + (pi_x * pj_y - pj_x * pi_y) + (pj_x * yk - xk * pj_y)
    return abs(0.5 * twice)


def full_pass(areas, line) -> tuple[float, float]:
    """The area verify_certificate reports for line and its error estimate,
    from the full-pass reference on each resolution's own vertices and
    prefix sums: (4*fine - coarse)/3 and |fine - coarse|/3 of a curve's two
    resolutions, or a polygon's area and 0.0."""
    values = [full_pass_area(x, y, prefix, *line) for x, y, prefix in areas._polygons]
    if len(values) == 1:
        return values[0], 0.0
    fine, coarse = values
    return (4.0 * fine - coarse) / 3.0, abs(fine - coarse) / 3.0


def scalar_residual(q: Polynomial, names):
    """Residual of Q at float values of `names`, in that order, one point
    per call: |Q| over its largest evaluated monomial, at least 1. Each
    monomial is evaluated as in Polynomial.evaluate_float, with the
    coefficients converted once; a power that overflows is the infinity
    IEEE arithmetic gives, -inf for a negative base and an odd exponent."""
    index = {v: k for k, v in enumerate(names)}
    terms = [(float(c), [(index[v], e) for v, e in zip(q.vars, exps) if e]) for exps, c in q.terms.items()]

    def residual(*values: float) -> float:
        total = biggest = 0.0
        for term, powers in terms:
            for k, e in powers:
                try:
                    term *= values[k] ** e
                except OverflowError:
                    term *= -math.inf if values[k] < 0 and e % 2 else math.inf
            total += term
            biggest = max(biggest, abs(term))
        return abs(total) / max(1.0, biggest)

    return residual


def serial_verify(cert, curve, n_samples: int, seed: int = 7, windows=None, oracle_samples: int = ORACLE_SAMPLES):
    """The lines of verify_certificate rebuilt one at a time: each drawn,
    evaluated and flipped in Python floats, measured by the full-pass
    reference and kept or rejected before the next is drawn; then each
    kept line's residual by scalar_residual. Returns the (a, b, c, area,
    residual) rows and the number of candidate lines drawn."""
    areas = _clipped_areas(curve, oracle_samples)
    rng = random.Random(seed)
    role_to_var = {r: v for v, r in cert.roles.items()}

    def arc_side(arc_len, a, b, c):
        # Flip so that the midpoint of the arc through the first arc_len
        # boundary vertices is inside.
        mid = min(arc_len, len(areas.x)) // 2
        return (-a, -b, -c) if a * areas.x.item(mid) + b * areas.y.item(mid) + c > 0 else (a, b, c)

    if "intercept" in role_to_var:
        windows = windows or {"slope": (0.1, 2.0), "intercept": (0.0, 1.0)}
        total = abs(areas.signed_total)

        def draw():
            return rng.uniform(*windows["slope"]), -1.0, rng.uniform(*windows["intercept"])

        def keep(area):
            return 1e-9 * total < area < (1 - 1e-9) * total

    else:
        lo, hi = float(curve.interval.lo), float(curve.interval.hi)
        pad = (hi - lo) * 0.15

        def draw():
            t = rng.uniform(lo + pad, hi - pad)
            x = curve.g.evaluate_float(t)
            if "abscissa" in role_to_var:
                return arc_side(max(2, int(oracle_samples * 0.02)), 1.0, 0.0, -x)
            if abs(x) > 1e-9:
                return arc_side(max(2, int(oracle_samples * (t - lo) / (hi - lo))), curve.f.evaluate_float(t), -x, 0.0)
            return None

        def keep(area):
            return True

    lines, draws = [], 0
    while len(lines) < n_samples:
        draws += 1
        if draws > 100 * n_samples:
            raise ValueError("too many rejected lines")
        line = draw()
        if line is not None and keep(area := full_pass(areas, line)[0]):
            lines.append((*line, area))
    # Each role value is read off the line a*x + b*y + c = 0.
    read = {"slope": lambda a, b, c: -a / b, "intercept": lambda a, b, c: -c / b, "abscissa": lambda a, b, c: -c / a}
    roles = [r for r in ("slope", "intercept", "abscissa") if r in role_to_var]
    residual = scalar_residual(cert.q, [role_to_var[r] for r in roles + ["area"]])
    return [(a, b, c, area, residual(*[read[r](a, b, c) for r in roles], area)) for a, b, c, area in lines], draws


def shoelace_area(points: np.ndarray) -> float:
    """Shoelace area of a closed polygon by two dot products."""
    if len(points) < 3:
        return 0.0
    x, y = points[:, 0], points[:, 1]
    return abs(0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y)))


def fsum_shoelace(points: np.ndarray) -> float:
    """Shoelace area with every product rounded once and the sum exact."""
    if len(points) < 3:
        return 0.0
    x, y = points[:, 0], points[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    return abs(0.5 * math.fsum(np.concatenate([x * yn, -(xn * y)]).tolist()))
