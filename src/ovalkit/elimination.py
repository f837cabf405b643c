"""Resultants, the pencil eliminant and the vertical eliminant.

Each certificate has one path: pencil certificates take
`pencil_eliminant`, vertical certificates `vertical_eliminant`, and
implicitization and singular points `resultant`. Every resultant is one
integer, Res(f, g) of two integer lists, taken by the subresultant
remainder sequence (`_resultant`). `pencil_eliminant` takes small nodes
and `_newton` interpolates their values. Each value, and those of
`resultant` and `vertical_eliminant`, is taken at a power of two wide
enough to hold every coefficient, which are read off it as balanced
base-2^k digits (`_digits`; Kronecker substitution, Kronecker 1882,
Schoenhage 1982).

`resultant` works from the two inputs' coefficient lists in the
eliminated variable; no Sylvester matrix is built. Each input is scaled
once to integers, every remaining variable i is set to 2^(k*r_i) with
mixed radices r_i from the degree bounds, and the one value is
`_resultant` of the two integer lists. k comes from a Hadamard bound on
the resultant's coefficients.

`pencil_eliminant` sets S to a power of two at each integer node of m,
takes `_resultant` there, and interpolates each digit, a coefficient of
S, in m.

`vertical_eliminant` expands the area parts in powers of the x-component
(`_g_adic`) and sets the abscissa to one node, c = 2^k. There the area of
the segment between the i-th and j-th roots of g - c is
A + y_i - y_j, A the signed total and y the area part reduced modulo
g - c, so Q(S) = q((S - A)^2) with q(U) the product of U - (y_i - y_j)^2
over i < j. q comes from power sums alone (`_power_sums`,
`_from_power_sums`; Newton's identities, composed sums as in Bostan,
Flajolet, Salvy and Schost, J. Symbolic Comput. 41, 2006): d products in
the univariate quotient ring give the traces of y, ..., y^d, and no
matrix is built.

`resultant` and the two eliminants return a Polynomial built straight
from the integer digits over the inputs' common scale, in the stored form
of every Polynomial (`algebra._stored`). Certificates read the integer
terms and their denominator from the eliminants' cores, `_pencil_terms`
and `_vertical_terms`, and divide the terms once by their signed content
(von zur Gathen and Gerhard, Modern Computer Algebra, 6.2), so no
rational coefficient is built between the digits and the certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, repeat, zip_longest
from operator import mul

from .algebra import Polynomial, UnivariatePolynomial, _divide, _homogenized, _primitive, _product, _stored
from .errors import DeskScopeError, SylvesterSizeError

MAX_SYLVESTER_SIZE = 64
# The vertical eliminant's power sums widen with the Kronecker node, whose
# width grows with deg g = d: on one Xeon core a certificate takes 0.08 to
# 0.31 s at d = 6 (20 seeded Bezier loops) and about 0.5 s at d = 7.
MAX_VERTICAL_DEGREE = 6


@dataclass(frozen=True)
class SylvesterMatrix:
    """Sylvester matrix of two polynomials with respect to one variable.

    entries[r][c] are polynomials in the remaining variables; the
    determinant is the resultant.
    """

    entries: tuple[tuple[Polynomial, ...], ...]
    eliminated: str
    deg_f: int
    deg_g: int

    @property
    def size(self) -> int:
        return self.deg_f + self.deg_g


def _sylvester_degrees(f: Polynomial, g: Polynomial, var: str) -> tuple[int, int]:
    """Degrees m, n of f and g in var, checked for a Sylvester matrix of
    supported size m + n."""
    if f.is_zero or g.is_zero:
        raise ValueError("Sylvester matrix requires nonzero polynomials")
    m = f.degree_in(var)
    n = g.degree_in(var)
    _check_sylvester_size(m + n, var)
    return m, n


def _check_sylvester_size(size: int, var: str) -> None:
    if size < 1:
        raise ValueError(f"total degree in {var!r} must be at least 1")
    if size > MAX_SYLVESTER_SIZE:
        raise SylvesterSizeError(
            f"Sylvester matrix {size}x{size} exceeds the supported {MAX_SYLVESTER_SIZE}x{MAX_SYLVESTER_SIZE}"
        )


def sylvester_matrix(f: Polynomial, g: Polynomial, var: str) -> SylvesterMatrix:
    """The Sylvester matrix of f and g in var. No ovalkit path builds it;
    perfbench/tracer.py calls it by name to size each traced resultant."""
    m, n = _sylvester_degrees(f, g, var)
    size = m + n
    fc = list(reversed(f.coeffs_in(var)))  # descending
    gc = list(reversed(g.coeffs_in(var)))
    rest_vars = tuple(dict.fromkeys(list(f.vars) + list(g.vars)))
    rest_vars = tuple(v for v in rest_vars if v != var)
    zero = Polynomial.zero(rest_vars)
    rows: list[tuple[Polynomial, ...]] = []
    for shift in range(n):
        row = [zero] * shift + [c.with_vars(rest_vars) for c in fc]
        row += [zero] * (size - len(row))
        rows.append(tuple(row))
    for shift in range(m):
        row = [zero] * shift + [c.with_vars(rest_vars) for c in gc]
        row += [zero] * (size - len(row))
        rows.append(tuple(row))
    return SylvesterMatrix(tuple(rows), var, m, n)


# -- determinants ------------------------------------------------------


def _resultant(f: list[int], g: list[int]) -> int:
    """Res(f, g) for ascending integer lists f and g with nonzero leading
    coefficients, not both constant, by the subresultant remainder
    sequence (Collins 1967; Brown and Traub 1971; Cohen, A Course in
    Computational Algebraic Number Theory, Algorithm 3.3.7).

    Each step takes the pseudo-remainder lc(g)^(delta+1) * f mod g,
    delta = deg f - deg g, and divides it exactly by c * h^delta, c and h
    carried from the step before. Every remainder kept is then a
    subresultant, whose coefficients are minors of the Sylvester matrix and
    so within its Hadamard bound. A remainder that vanishes means that f
    and g share a factor, and 0 is returned.
    """
    sign = 1
    if len(f) < len(g):
        f, g = g, f
        sign = (-1) ** ((len(f) - 1) * (len(g) - 1))
    c = h = 1
    while len(g) > 1:
        n, lead = len(g) - 1, g[-1]
        delta = len(f) - len(g)
        sign *= (-1) ** ((len(f) - 1) * n)
        if n == 1:
            # By a linear g the pseudo-remainder is the constant
            # lead^(delta+1) * f(-g_0/lead), taken by Horner's rule.
            r = [_homogenized(f, -g[0], lead)]
        else:
            r = f
            for k in range(delta, -1, -1):
                # r := lead*r - top * t^k * g, whose top coefficient vanishes.
                top, r = r[-1], [lead * x for x in r[:-1]]
                r[k : k + n] = [x - top * y for x, y in zip(r[k : k + n], g)]
        while r and not r[-1]:
            r.pop()
        if not r:
            return 0
        divisor = c * h**delta
        f, g, c = g, [x // divisor for x in r], lead
        h = c**delta // h ** (delta - 1) if delta else h
    # g is the constant subresultant: lc^deg f / h^(deg f - 1).
    return sign * g[0] ** (len(f) - 1) // h ** (len(f) - 2)


def _sample_values(count: int) -> list[int]:
    # Small centered integers keep the scalar determinants compact.
    values = [0]
    k = 1
    while len(values) < count:
        values.append(k)
        if len(values) < count:
            values.append(-k)
        k += 1
    return values[:count]


def _newton(xs: list[int], ys: list[int]) -> list[int]:
    """Ascending coefficients of the polynomial through (xs[i], ys[i]).

    The values must come from a polynomial with integer coefficients,
    whose divided differences at integer nodes are integers (those of t^k
    are complete symmetric polynomials in the nodes), so every division
    is exact. Other values raise ArithmeticError at the first division
    that leaves a remainder, rather than give a wrong polynomial.
    """
    dd = list(ys)
    n = len(xs)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            dd[i], rem = divmod(dd[i] - dd[i - 1], xs[i] - xs[i - j])
            if rem:
                raise ArithmeticError("interpolated values are not those of an integer polynomial")
    coeffs = [dd[-1]]
    for i in range(n - 2, -1, -1):
        # coeffs * (t - x) + dd[i], in place from the top coefficient down.
        x = xs[i]
        coeffs.append(coeffs[-1])
        for k in range(len(coeffs) - 2, 0, -1):
            coeffs[k] = coeffs[k - 1] - x * coeffs[k]
        coeffs[0] = dd[i] - x * coeffs[0]
    return coeffs


def resultant(f: Polynomial, g: Polynomial, var: str) -> Polynomial:
    """Resultant of f and g with respect to var (raw, unnormalized).

    Specializing the remaining variables commutes with the determinant of
    the Sylvester matrix, taken with the formal degrees m and n, so the
    whole resultant is read off its value at one integer point, as
    `vertical_eliminant` reads Q (Kronecker substitution):

    1. each input is scaled once by the lcm of its coefficients'
       denominators, to f_hat and g_hat, whose coefficients in var are
       compiled into (exponent tuple, int) pairs over the remaining
       variables;
    2. every coefficient of Res(f_hat, g_hat) is at most
       H = |f_hat|_1^n * |g_hat|_1^m, |.|_1 the sum of the absolute values
       of all coefficients: on the unit torus each Sylvester row has
       Euclidean length at most its input's |.|_1 (Hadamard), and Cauchy's
       estimate carries the bound to the coefficients. So 2^(w-1) > H for
       w = bit_length(H) + 1;
    3. variable i is set to 2^(w*r_i), with r_0 = 1 and
       r_(i+1) = r_i * (D_i + 1), D_i the degree bound in variable i, so a
       compiled term c*x^e is c << w*(e.r) and every monomial of degree at
       most D_i in each variable gets its own digit;
    4. the value is `_resultant` of the two integer lists. Each leading
       coefficient is a nonzero polynomial with coefficients below
       2^(w-1) and exponents within the radix, so its value is not zero,
       and the lists keep the formal degrees m and n;
    5. the balanced base-2^w digits of the value (`_digits`) are the
       numerators, each exponent recovered by mixed-radix division, over
       the product of the input scales.

    No Sylvester matrix is built. The zero polynomial is returned exactly
    when f and g share a factor of positive degree in var.
    """
    m, n = _sylvester_degrees(f, g, var)
    # f's coefficients, then g's, leading coefficient first. f has n
    # Sylvester rows and g has m; an input with no rows is left out.
    blocks = [(list(reversed(p.coeffs_in(var))), rows) for p, rows in ((f, n), (g, m)) if rows]
    # Declare the remaining variables in the order the rows first use them.
    remaining = [v for v in dict.fromkeys(f.vars + g.vars) if v != var]
    seen: dict[str, None] = {}
    for coeffs, _ in blocks:
        for c in coeffs:
            used = c.used_vars()
            seen.update((v, None) for v in remaining if v in used)
    variables = tuple(seen)
    entries = []
    scale = height = 1
    # Bezout: with d, e the total degrees, every term of the resultant has
    # total degree at most n*d + m*e - m*n <= d*e, which caps the row-sum
    # bound n*deg_v(f) + m*deg_v(g) in each remaining variable v.
    cap = n * f.total_degree() + m * g.total_degree() - m * n
    bounds = [0] * len(variables)
    for coeffs, rows in blocks:
        aligned = [p.with_vars(variables) for p in coeffs]
        lcm = math.lcm(*(p.den for p in aligned))
        scale *= lcm**rows
        compiled = [[(e, c * (lcm // p.den)) for e, c in p.nums.items()] for p in aligned]
        for i in range(len(variables)):
            bounds[i] += rows * max(e[i] for entry in compiled for e, _ in entry)
        height *= sum(abs(c) for entry in compiled for _, c in entry) ** rows
        entries += compiled
    width = _digit_width(height)
    degrees = [min(b, cap) for b in bounds]
    radix = list(accumulate((d + 1 for d in degrees), mul, initial=1))
    values = [sum(c << width * sum(map(mul, e, radix)) for e, c in entry) for entry in entries]
    if len(blocks) == 1:
        # The other input has degree 0: its constant on the diagonal.
        value = values[0] ** blocks[0][1]
    else:
        value = _resultant(values[m::-1], values[:m:-1])
    digits = _digits(value, width, radix[-1])
    nums = {tuple(pos // r % (d + 1) for r, d in zip(radix, degrees)): c for pos, c in enumerate(digits) if c}
    return _stored(variables, nums, scale)


def pencil_eliminant(
    s: UnivariatePolynomial,
    a: UnivariatePolynomial,
    b: UnivariatePolynomial,
) -> Polynomial:
    """Res_t(S - s(t), m*b(t) - a(t)) over the variables (S, m): the
    polynomial `resultant` returns for these two inputs (raw,
    unnormalized), without a Sylvester matrix, built from integer
    numerators over one denominator.

    With G = m*b - a, d = deg_t G and ds = deg s, the resultant has
    degree d in S and at most ds in m. Everything runs on ints:

    1. s_hat = Ls*s and G_hat = Lg*G, with Ls, Lg the lcms of the
       denominators of s and of a, b, have integer coefficients, and
       Res_t(Ls*S - s_hat, G_hat) = Ls^d * Lg^ds * Res, whose denominator
       is Lg^ds * Ls^d;
    2. at each integer node m0, G_hat(m0) has leading coefficient l, a
       linear polynomial in m0 that is not zero, so at most one node is
       skipped. S is set to 2^w, with 2^(w-1) above the Hadamard bound
       (Ls + |s_hat|_1)^d * |G_hat(m0)|_1^ds on the coefficients of
       Res_t(Ls*S - s_hat, G_hat(m0)) in S over |S| = 1, and `_resultant`
       takes its value. Its d + 1 balanced base-2^w digits (`_digits`) are
       the coefficients of S^0, ..., S^d;
    3. each coefficient is a polynomial in m of degree at most ds, one
       per row of G_hat in the Sylvester matrix, so `_newton` interpolates
       it on ds + 1 nodes, and its coefficients are the numerators over
       that denominator.

    Raises SylvesterSizeError, as `resultant` does, when ds + d exceeds
    MAX_SYLVESTER_SIZE.
    """
    return _stored(("S", "m"), *_pencil_terms(s, a, b))


def _pencil_terms(s: UnivariatePolynomial, a: UnivariatePolynomial, b: UnivariatePolynomial) -> tuple[dict, int]:
    """The integer core of `pencil_eliminant`: the nonzero numerators of
    its terms, keyed by exponents (i, e) of S^i * m^e, and their
    denominator, neither reduced."""
    ds = s.degree()
    d = max(a.degree(), b.degree())
    _check_sylvester_size(ds + d, s.var)
    if ds < 0 or d < 1:
        raise ValueError("the pencil eliminant needs a nonzero s and a nonconstant slope a/b")
    sh, ls = s.nums, s.den
    lg = math.lcm(a.den, b.den)
    ah, bh = ([c * (lg // p.den) for c in p.nums] + [0] * (d - p.degree()) for p in (a, b))
    height = (ls + sum(map(abs, sh))) ** d
    nodes: list[int] = []
    values = []
    for m0 in _sample_values(ds + 2):
        G = [m0 * y - x for x, y in zip(ah, bh)]
        if not G[d]:
            continue
        nodes.append(m0)
        # S = 2^width, wide enough for Hadamard's bound over |S| = 1.
        width = _digit_width(height * sum(map(abs, G)) ** ds)
        digits = _digits(_resultant([(ls << width) - sh[0]] + [-c for c in sh[1:]], G), width, d + 1)
        values.append(digits + [0] * (d + 1 - len(digits)))
        if len(nodes) == ds + 1:
            break
    terms: dict[tuple[int, int], int] = {}
    for i in range(d, -1, -1):
        for e, c in enumerate(_newton(nodes, [v[i] for v in values])):
            if c:
                terms[(i, e)] = c
    return terms, lg**ds * ls**d


def _integer_inputs(
    g: UnivariatePolynomial, p: list[int], r: list[int], den: int
) -> tuple[list[int], list[int], list[int], tuple[int, int], tuple[int, int]]:
    """Step 1 of `vertical_eliminant`: the ascending integer coefficients
    of the monic g_hat, P_hat and R_hat in tau = a*t, and the scales K, lam
    with P_hat(tau) = K*P(tau/a), R_hat alike, and g_hat = lam*g, each as
    its numerator and positive denominator in lowest terms.

    P and R are the ascending numerator lists p and r, with no trailing
    zero, over one positive denominator den, not necessarily reduced: the
    integers p_i*a^(m-i) and r_i*a^(m-i) divided by their gcd f are P_hat
    and R_hat, and K = a^m*den/f, so a common factor of p, r and den
    changes neither."""
    gi, k = _primitive(g.nums)
    d = len(gi) - 1
    a = gi[-1]
    # g_hat(tau) = a^(d-1) * gi(tau/a).
    gh = [c * a ** (d - 1 - i) for i, c in enumerate(gi[:-1])] + [1]
    m = max(len(p), len(r), 1) - 1
    nums, f = _primitive([c * a ** (m - i) for part in (p, r) for i, c in enumerate(part)])
    return gh, nums[: len(p)], nums[len(p) :], _lowest(a**m * den, f), _lowest(a ** (d - 1) * g.den, k)


def _lowest(n: int, d: int) -> tuple[int, int]:
    """n/d in lowest terms as (numerator, denominator), for d > 0."""
    g = math.gcd(n, d)
    return n // g, d // g


def _g_adic(p: list[int], g: list[int]) -> list[list[int]]:
    """Parts p_k of p = sum_k p_k * g^k with deg p_k < deg g, for ascending
    integer coefficients p and a monic integer g; each part's trailing
    zeros are dropped. Dividing by a monic g keeps every part integral."""
    parts = []
    while p:
        p, r = _divide(p, g)
        parts.append(r)
    return parts


def _root_bound(g: list[int]) -> int:
    """The least integer r >= 1 with r^d >= sum over j < d of a_j * r^j,
    for the ascending integer list g of a monic polynomial of degree d >= 1,
    a_0 = |g_0| + 1 and a_j = |g_j| above it.

    r is at least the positive root of Cauchy's polynomial
    x^d - sum_j a_j * x^j, so every root of g - c with |c| <= 1 has
    absolute value at most r (Cauchy's bound in its implicit form). As
    r^d - sum_j a_j * r^j, over r^d, increases with r > 0, r is found by
    bisection on [1, 1 + max a_j], whose upper end satisfies the
    inequality. So r is never above Cauchy's 1 + max a_j or Fujiwara's
    2 * max a_j^(1/(d-j))."""
    d = len(g) - 1
    a = [abs(g[0]) + 1] + [abs(c) for c in g[1:d]]
    lo, hi = 1, 1 + max(a)
    while lo < hi:
        r = (lo + hi) // 2
        lo, hi = (lo, r) if r**d >= sum(x * r**j for j, x in enumerate(a)) else (r + 1, hi)
    return lo


def _kronecker_width(g: list[int], parts: list[tuple[list[int], list[int]]], n: int) -> int:
    """Bits k such that 2^(k-1) exceeds every coefficient in c_hat of the
    degree-n polynomial Q(S), the product of S - h over the n eigenvalues h
    of `vertical_eliminant`, for the ascending integer lists of g_hat
    (monic) and of the g-adic parts (P_k, R_k) of P_hat and R_hat.

    For complex |c_hat| <= 1 every root tau of g_hat(tau) - c_hat has
    |tau| <= rt = `_root_bound`(g_hat). Each eigenvalue
    sum_k c_hat^k * (P_k(tau1) + R_k(tau2)) is then at most
    E = sum over k and j of (|P_kj| + |R_kj|) * rt^j, so the coefficient of
    S^(n-i), an elementary symmetric function of the eigenvalues, is at
    most C(n, i) * E^i on the unit circle, and by Cauchy's estimate so is
    each of its coefficients in c_hat.
    """
    rt = _root_bound(g)
    eig = sum(abs(c) * rt**j for part in parts for p in part for j, c in enumerate(p))
    return _digit_width(max(math.comb(n, i) * eig**i for i in range(n + 1)))


def _digit_width(bound: int) -> int:
    """Bits k such that 2^(k-1) exceeds bound: balanced base-2^k digits
    then hold every integer of absolute value at most bound."""
    return bound.bit_length() + 1


def _digits(v: int, k: int, count: int) -> list[int]:
    """The balanced base-2^k digits q_e of v, lowest first:
    v = sum_e q_e * 2^(k*e) with -2^(k-1) <= q_e < 2^(k-1). More than count
    digits raise ArithmeticError."""
    half, mask = 1 << (k - 1), (1 << k) - 1
    out = []
    while v:
        if len(out) == count:
            raise ArithmeticError("the Kronecker digits exceed the degree bound")
        q = ((v + half) & mask) - half
        out.append(q)
        v = (v - q) >> k
    return out


def _power_sums(f: list[int], count: int) -> list[int]:
    """The power sums p_0, ..., p_count of the roots of a monic polynomial,
    given by its ascending integer coefficients f, by Newton's identities:
    with f = x^d + c_1 x^(d-1) + ... + c_d, and c_l = 0 for l > d,
    p_l = -(l*c_l + sum over 0 < i < l of c_i * p_(l-i)). Nothing is
    divided, so every p_l is an integer."""
    c = f[-2::-1]
    d = len(c)
    p = [d]
    for l in range(1, count + 1):
        s = sum(map(mul, c, reversed(p[max(l - d, 1) :])))
        p.append(-(s + l * c[l - 1] if l <= d else s))
    return p


def _from_power_sums(p: list[int], n: int) -> list[int]:
    """Coefficients, highest degree first, of the monic polynomial of degree
    n whose roots have the power sums p_1, ..., p_n (p[0] is not read), by
    Newton's identities: k*c_k = -(p_k + sum over 0 < i < k of c_i * p_(k-i)).
    A division by k that leaves a remainder means the roots are not those of
    an integer polynomial and raises ArithmeticError."""
    c = [1]
    for k in range(1, n + 1):
        ck, rem = divmod(-sum(map(mul, c, p[k:0:-1])), k)
        if rem:
            raise ArithmeticError("the power sums are not those of an integer polynomial")
        c.append(ck)
    return c


def vertical_eliminant(
    g: UnivariatePolynomial,
    P: UnivariatePolynomial,
    R: UnivariatePolynomial,
) -> Polynomial:
    """Q(S, c) whose roots in S, at each c, are the values P(t1) + R(t2)
    at the common zeros of D(t1, t2) = (g(t1) - g(t2)) / (t1 - t2) and
    g(t2) - c, with multiplicity (raw, unnormalized), over the variables
    (S, c), built from integer numerators over one denominator. P + R must
    be a constant, as the two area parts' sum, the signed total, is;
    otherwise ValueError is raised.

    For deg g = d >= 2, {D, g(t2) - c} is a lex Groebner basis: the
    leading terms t1^(d-1) and t2^d are coprime. So Q(c)[t1, t2]/(D, g - c)
    has the basis t1^i t2^j, i < d - 1, j < d, and by Stickelberger's
    theorem Q = det(S*I - M(c)), with M(c) the d(d-1)-square matrix of
    multiplication by P(t1) + R(t2). This equals
    Res_t2(Res_t1(S - P(t1) - R(t2), D), c - g(t2)) up to a constant.

    Everything runs on ints:

    1. with g = k*gi for an integer primitive gi of leading coefficient a,
       t = tau/a makes g_hat(tau) = a^(d-1)*gi(tau/a), D and
       g_hat(tau2) - c_hat monic integer polynomials, c_hat = lam*c with
       lam = a^(d-1)/k, and P_hat = K*P, R_hat = K*R have integer
       coefficients in tau;
    2. P_hat is expanded in powers of the monic g_hat (exact integer
       division): P_hat = sum_k P_k * g_hat^k with deg P_k < d, and R_hat
       alike; as R_hat = kappa - P_hat (step 3), its parts are kappa - P_0
       and -P_k. In the quotient ring g_hat(tau1) - g_hat(tau2) =
       (tau1 - tau2)*D = 0, so g_hat(tau1) = g_hat(tau2) = c_hat and
       h = P_hat(tau1) + R_hat(tau2) = sum_k c_hat^k * h_k with
       h_k = P_k(tau1) + R_k(tau2). No h_k depends on c_hat;
    3. P_hat + R_hat is the integer kappa. At the one node c_hat = 2^w, w
       from `_kronecker_width`, let y = P_hat mod (g_hat - c_hat), taken
       by `_divide` and equal to sum_k c_hat^k * P_k, and tau_1, ...,
       tau_d the roots of f = g_hat - c_hat. The common zeros of D and
       g_hat(tau2) - c_hat are the pairs (tau_i, tau_j), i != j, where
       h = kappa + y_i - y_j with y_i = y(tau_i). Pairing (i, j) with
       (j, i) gives Q(S) = q((S - kappa)^2), q(U) the product of
       U - (y_i - y_j)^2 over i < j, which comes from power sums alone:
       - the traces of 1, tau, ..., tau^(d-1) on Z[tau]/(f) are the power
         sums of f's roots (`_power_sums`), so d products y^l mod f, each
         reduced by `_divide`, give the traces p_1, ..., p_d of y;
       - `_from_power_sums` turns them into the characteristic polynomial
         of y, and `_power_sums` of it extends them to every p_l, l <= n;
       - the k-th power sum of the C(d, 2) squares (y_i - y_j)^2 is half
         the sum of (y_i - y_j)^(2k) over all i and j, that is
         sum over l < k of (-1)^l * C(2k, l) * p_l * p_(2k-l), plus
         (-1)^k * (C(2k, k)/2) * p_k^2;
       - `_from_power_sums` takes q from them. q has integer coefficients,
         so each division by k in Newton's identities is exact, and
         q((S - kappa)^2) is expanded on the integers;
    4. each coefficient of Q is a polynomial in c_hat evaluated at 2^w
       (Kronecker substitution), and 2^(w-1) exceeds all its coefficients,
       so they are the integer's balanced base-2^w digits (`_digits`).
       More than N + 1 digits, N = max over the k with h_k != 0 of
       d(d-1)*k + (d-1)*max(deg P_k, deg R_k), raise ArithmeticError.
       Only Q's digits are read, so w bounds Q's coefficients, not q's.

    Why N bounds Q's degree in c_hat: for large |c_hat| every root tau of
    g_hat(tau) = c_hat has |tau| = O(|c_hat|^(1/d)), so each of the
    d(d-1) eigenvalues of M, a value of h at a pair of such roots, is
    O(|c_hat|^e) with e = max over the k with h_k != 0 of
    k + max(deg P_k, deg R_k)/d. The coefficient of S^(d(d-1) - i) is
    +-(the i-th elementary symmetric function of the eigenvalues), a
    polynomial in c_hat that is O(|c_hat|^(i*e)), so its degree is at most
    floor(i*e) <= d(d-1)*e = N. As P + R is the constant signed total,
    P_k = -R_k for k >= 1, and an h_k whose parts are constants vanishes:
    the cubic's top part drops out, and N = 10 is Q's degree in c where
    (d-1)*max(deg P, deg R) = 12 was not. N never exceeds that bound,
    since d*k + deg P_k <= deg P_hat for each nonzero part.

    Then S_hat = K*S and c_hat = lam*c map the result back: with
    K = kn/kd and lam = ln/ld in lowest terms, the digit q of
    S^(n-i) * c^e becomes the integer q * kn^(n-i) * kd^i * ln^e * ld^(N-e)
    over the common denominator kd^n * ld^N, the powers taken by running
    products.
    """
    den = math.lcm(P.den, R.den)
    p, r = ([c * (den // part.den) for c in part.nums] for part in (P, R))
    return _stored(("S", "c"), *_vertical_terms(g, p, r, den))


def _vertical_terms(g: UnivariatePolynomial, p: list[int], r: list[int], den: int) -> tuple[dict, int]:
    """The integer core of `vertical_eliminant`, with P and R given as the
    numerator lists p and r over den that `_integer_inputs` takes: the
    nonzero numerators of the terms, keyed by exponents (i, e) of
    S^i * c^e, and their denominator, neither reduced."""
    d = g.degree()
    if d < 2:
        raise ValueError("the vertical eliminant needs deg g >= 2")
    if d > MAX_VERTICAL_DEGREE:
        raise DeskScopeError(
            f"x-component of degree {d} exceeds the supported {MAX_VERTICAL_DEGREE} for vertical certificates"
        )
    if any(x + y for x, y in zip_longest(p[1:], r[1:], fillvalue=0)):
        raise ValueError("the vertical eliminant needs P + R constant")
    full, ph, rh, (kn, kd), (ln, ld) = _integer_inputs(g, p, r, den)
    kappa = sum(ph[:1]) + sum(rh[:1])
    n = d * (d - 1)
    # R_hat = kappa - P_hat, so R's g-adic parts are kappa - P_0 and -P_k.
    parts = _g_adic(ph, full) or [[]]
    r0 = [-c for c in parts[0]] or [0]
    r0[0] += kappa
    while r0 and not r0[-1]:
        r0.pop()
    adic = [(parts[0], r0)] + [(pk, [-c for c in pk]) for pk in parts[1:]]
    # h_k = P_k(tau1) + R_k(tau2) vanishes where P_k is a constant, but
    # h_0 = kappa does not.
    live = [k for k, (pk, _) in enumerate(adic) if len(pk) > 1 or not k and kappa]
    bound = max((n * k + (d - 1) * (max(map(len, adic[k])) - 1) for k in live), default=0)
    width = _kronecker_width(full, adic, n)
    c_hat = 1 << width
    m = n // 2
    # y = P_hat mod (g_hat - c_hat) = sum_k c_hat^k P_k.
    f = [full[0] - c_hat] + full[1:]
    y = _divide(ph, f)[1]
    # The traces of y, ..., y^d on Z[tau]/(f), from those of 1, ..., tau^(d-1).
    basis = _power_sums(f, d - 1)
    traces = [d]
    power = [1]
    for _ in range(d):
        power = _divide(_product(power, y), f)[1]
        traces.append(sum(map(mul, power, basis)))
    # Every trace up to y^n from the characteristic polynomial of y, then
    # the power sums of the C(d, 2) squares (y_i - y_j)^2, i < j.
    traces = _power_sums(_from_power_sums(traces, d)[::-1], n)
    sums = [m] + [
        sum((-1) ** l * math.comb(2 * k, l) * traces[l] * traces[2 * k - l] for l in range(k))
        + (-1) ** k * (math.comb(2 * k, k) // 2) * traces[k] ** 2
        for k in range(1, m + 1)
    ]
    value = [0] * (n + 1)
    value[::2] = _from_power_sums(sums, m)
    # A Taylor shift turns value(S), highest degree first, into value(S - kappa).
    if kappa:
        for i in range(n):
            for j in range(1, n - i + 1):
                value[j] -= kappa * value[j - 1]
    # The weights kn^(n-i) * kd^i of S^(n-i) and ln^e * ld^(N-e) of c^e,
    # from running products.
    kd_powers = list(accumulate(repeat(kd, n), mul, initial=1))
    ld_powers = list(accumulate(repeat(ld, bound), mul, initial=1))
    s_weights = list(map(mul, accumulate(repeat(kn, n), mul, initial=1), reversed(kd_powers)))[::-1]
    c_weights = list(map(mul, accumulate(repeat(ln, bound), mul, initial=1), reversed(ld_powers)))
    terms: dict[tuple[int, int], int] = {}
    for i, (v, s_weight) in enumerate(zip(value, s_weights)):
        for e, c in enumerate(_digits(v, width, bound + 1)):
            if c:
                terms[(n - i, e)] = c * s_weight * c_weights[e]
    return terms, kd_powers[-1] * ld_powers[-1]
