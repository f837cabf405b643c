import random
from fractions import Fraction

import pytest

from ovalkit import (
    Polynomial,
    UnivariatePolynomial,
    implicitize,
    parse_polynomial,
    rational_singular_points,
    resultant,
    validate_centered,
)
from ovalkit import curves, elimination
from ovalkit.cli import parse_curve_text
from ovalkit.curves import Point
from ovalkit.elimination import (
    _berkowitz,
    _digits,
    _newton,
    _root_bound,
    _sample_values,
    pencil_eliminant,
    sylvester_matrix,
    vertical_eliminant,
)
from ovalkit.errors import DeskScopeError, SylvesterSizeError
from ovalkit.quadrature import chord_area_function, free_inlet_function, slope_function, vertical_area_parts

from oracles import (
    assert_stored,
    det_bareiss,
    det_cofactor,
    full_ring_vertical_eliminant,
    integer_form,
    pencil_inputs,
    seeded_loops,
    sylvester_vertical_inputs,
    vertical_raw,
)


def _poly(text, variables):
    return parse_polynomial(text, variables)


def test_sylvester_linear_case():
    f = _poly("x - a", ["x", "a"])
    g = _poly("x - b", ["x", "b"])
    m = sylvester_matrix(f, g, "x")
    assert m.size == 2
    assert m.entries[0][0] == 1 and m.entries[0][1] == _poly("-a", ["a"])
    assert m.entries[1][0] == 1 and m.entries[1][1] == _poly("-b", ["b"])
    r = resultant(f, g, "x")
    assert r == _poly("a - b", ["a", "b"]) or r == _poly("b - a", ["a", "b"])


def test_sylvester_size():
    f = _poly("v^2 + y", ["v", "y"])
    g = _poly("v^3 - y", ["v", "y"])
    assert sylvester_matrix(f, g, "v").size == 5


def test_sylvester_implicitization_size():
    f = _poly("x - (t^2-1)^2", ["x", "t"])
    g = _poly("y - (t^3-t)", ["y", "t"])
    assert sylvester_matrix(f, g, "t").size == 7


def test_sylvester_requires_positive_degree():
    with pytest.raises(ValueError):
        sylvester_matrix(_poly("a", ["a", "v"]), _poly("b", ["b", "v"]), "v")


def test_size_guard():
    f = _poly("v^40 - x", ["v", "x"])
    g = _poly("v^40 - y", ["v", "y"])
    with pytest.raises(SylvesterSizeError):
        sylvester_matrix(f, g, "v")
    with pytest.raises(DeskScopeError):
        resultant(f, g, "v")


def test_resultant_contains_implicit_equation(quartic_poly):
    f = _poly("x - (t^2-1)^2", ["x", "t"])
    g = _poly("y - (t^3-t)", ["y", "t"])
    r = resultant(f, g, "t")
    cleaned = r.primitive_normalized()[0]
    assert cleaned.with_vars(("x", "y")) == quartic_poly


def test_resultant_of_equal_inputs_degenerates():
    f = _poly("v^2 - x", ["v", "x"])
    assert resultant(f, f, "v").is_zero


def test_resultant_swap_sign_parity():
    rng = random.Random(31)
    for _ in range(10):
        fdeg = rng.randint(1, 3)
        gdeg = rng.randint(1, 3)
        f = Polynomial(("v", "x"), {(k, rng.randint(0, 1)): rng.randint(-3, 3) for k in range(fdeg)})
        f = f + Polynomial(("v", "x"), {(fdeg, 0): rng.randint(1, 3)})
        g = Polynomial(("v", "x"), {(k, rng.randint(0, 1)): rng.randint(-3, 3) for k in range(gdeg)})
        g = g + Polynomial(("v", "x"), {(gdeg, 0): rng.randint(1, 3)})
        r1 = resultant(f, g, "v")
        r2 = resultant(g, f, "v")
        if (fdeg * gdeg) % 2 == 0:
            assert r1 == r2
        else:
            assert r1 == -r2


def test_specialization_soundness():
    # Planted common root: both inputs vanish at v = t0, so the resultant
    # must vanish at every specialization of the remaining variables.
    rng = random.Random(37)
    for _ in range(8):
        t0 = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        v, x = Polynomial.variable("v"), Polynomial.variable("x")
        f = (v - t0) * (v + x)
        g = (v - t0) * (v * v - 2 * x + 1)
        r = resultant(f, g, "v")
        for _ in range(4):
            xv = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            assert r.evaluate({"x": xv}) == 0


def _random_matrix(rng, n, nvars=1, fractions=False):
    variables = ("x", "y", "z")[:nvars]
    rows = []
    for _ in range(n):
        den = rng.randint(1, 6) if fractions else None
        row = []
        for _ in range(n):
            terms = {}
            for _ in range(rng.randint(1, 2)):
                exps = tuple(rng.randint(0, 1) for _ in variables)
                terms[exps] = rng.randint(-3, 3)
                if den:
                    terms[exps] = Fraction(terms[exps], den * rng.randint(1, 2))
            row.append(Polynomial(variables, terms))
        rows.append(row)
    return rows


def test_bareiss_matches_cofactor_oracle():
    rng = random.Random(41)
    for n in (2, 3, 4, 5, 6):
        rows = _random_matrix(rng, n)
        assert det_bareiss(rows) == det_cofactor(rows)


def test_resultant_matches_cofactor_where_leading_coefficients_vanish_at_small_integers():
    # Leading coefficients in y such as x, x - 1 and x + 1 vanish at small
    # integers, on one input or on both at once, and a middle or constant
    # coefficient may be zero: the Sylvester determinant with the formal
    # degrees, by cofactors, is the reference.
    rng = random.Random(47)
    x, y, z = (Polynomial.variable(v) for v in "xyz")
    leads = [x, x - 1, x + 1, x * (x - 1), (x + 1) * z, x - z, Polynomial.constant(3)]

    def draw(degree):
        p = rng.choice(leads) * y**degree
        for i in range(degree):
            p = p + rng.choice([0, 0, rng.randint(-9, 9)]) * rng.choice([1, x, z, x * z]) * y**i
        return p

    pairs = [(draw(m), draw(n)) for m in range(1, 4) for n in range(4) for _ in range(4)]
    pairs += [
        (x * y**2 + y + 1, (x - 1) * y + 2),
        ((x - 1) * y**3 + x, (x - 1) * y**2 + (x + 1)),
        ((x + 1) * y, (x + 1) * y**2 + x * y),
        (x * y + 1, x * y - 1),
    ]
    for f, g in pairs:
        for a, b in ((f, g), (g, f)):
            assert resultant(a, b, "y") == det_cofactor(sylvester_matrix(a, b, "y").entries), (a, b)


def test_subresultant_matches_bareiss_on_the_sylvester_matrix():
    # Degrees 0 to 9, not both 0, leading coefficients of either sign and
    # coefficients up to 10^6, in both argument orders; a planted common
    # factor of degree 1 to 3 makes the resultant 0.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    coeff = st.integers(-(10**6), 10**6)

    def poly(degree):
        return st.tuples(st.lists(coeff, min_size=degree, max_size=degree), coeff.filter(bool)).map(
            lambda p: p[0] + [p[1]]
        )

    def times(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    def sylvester(f, g):
        # deg g rows of f, then deg f rows of g, highest coefficient first.
        m, n = len(f) - 1, len(g) - 1
        rows = [[0] * i + f[::-1] + [0] * (n - 1 - i) for i in range(n)]
        rows += [[0] * i + g[::-1] + [0] * (m - 1 - i) for i in range(m)]
        return [[Polynomial.constant(c) for c in row] for row in rows]

    @st.composite
    def pairs(draw):
        k = draw(st.integers(0, 3))
        m = draw(st.integers(0, 9 - k))
        n = draw(st.integers(0 if m or k else 1, 9 - k))
        f, g = draw(poly(m)), draw(poly(n))
        if k:
            common = draw(poly(k))
            f, g = times(f, common), times(g, common)
        return f, g, k

    @hypothesis.settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @hypothesis.given(pairs())
    def check(pair):
        f, g, k = pair
        for a, b in ((f, g), (g, f)):
            value = elimination._resultant(a, b)
            assert Polynomial.constant(value) == det_bareiss(sylvester(a, b)), (a, b)
            assert not k or value == 0

    check()


def test_each_resultant_takes_one_subresultant_sequence(apple_curve, monkeypatch):
    # Each resultant of implicitize and rational_singular_points is one
    # subresultant sequence at one Kronecker point; no characteristic
    # polynomial is taken.
    calls = []
    resultant, subresultant = curves.resultant, elimination._resultant

    def recording_resultant(f, g, var):
        calls.append(0)
        return resultant(f, g, var)

    def recording_subresultant(f, g):
        calls[-1] += 1
        return subresultant(f, g)

    def refuse(matrix):
        raise AssertionError("a resultant took a characteristic polynomial")

    monkeypatch.setattr(curves, "resultant", recording_resultant)
    monkeypatch.setattr(elimination, "_resultant", recording_subresultant)
    monkeypatch.setattr(elimination, "_berkowitz", refuse)
    F = implicitize(apple_curve)
    assert Point(0, 0) in rational_singular_points(F)
    assert len(calls) >= 3 and calls == [1] * len(calls)


def test_resultant_matches_bareiss_on_wide_coefficients():
    # Integer and rational coefficients up to 10^6 over one to three
    # remaining variables: the Kronecker width must hold every coefficient
    # of the resultant, and the radix every exponent.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    coeff = st.one_of(
        st.integers(-(10**6), 10**6).map(Fraction),
        st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 10**3)),
    )

    @st.composite
    def pairs(draw):
        variables = ("x",) + ("y", "z", "w")[: draw(st.integers(1, 3))]
        exps = st.tuples(st.integers(0, 3), *(st.integers(0, 2) for _ in variables[1:]))

        def poly():
            terms = draw(st.dictionaries(exps, coeff, min_size=1, max_size=5))
            lead = (draw(st.integers(1, 3)),) + draw(st.tuples(*(st.integers(0, 1) for _ in variables[1:])))
            terms[lead] = draw(coeff.filter(bool))
            return Polynomial(variables, terms)

        return poly(), poly()

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hypothesis.given(pairs())
    def check(pair):
        f, g = pair
        assert resultant(f, g, "x") == det_bareiss(sylvester_matrix(f, g, "x").entries)

    check()


def test_resultant_reads_the_same_polynomials_at_a_wider_width(
    quartic_curve, cubic_curve, apple_curve, folium_curve, monkeypatch
):
    # A Kronecker point 16 bits wider than resultant takes, read to three
    # digits past the radix, gives the same implicitizations and singular
    # eliminants Res_y(F, F_y), Res_y(F, F_x): no digit at the usual width
    # wraps into the next, and every digit past the radix is zero.
    def eliminants():
        out = []
        for curve in (quartic_curve, cubic_curve, apple_curve, folium_curve):
            F = implicitize(curve)
            out += [F, resultant(F, F.partial_derivative("y"), "y"), resultant(F, F.partial_derivative("x"), "y")]
        return out

    usual = eliminants()
    width, digits = elimination._digit_width, elimination._digits
    monkeypatch.setattr(elimination, "_digit_width", lambda bound: width(bound) + 16)
    monkeypatch.setattr(elimination, "_digits", lambda v, k, count: digits(v, k, count + 3))
    wide = eliminants()
    assert [(p.vars, p) for p in wide] == [(p.vars, p) for p in usual]


def _random_poly(rng, variables, degree):
    terms = {}
    for _ in range(rng.randint(2, 5)):
        exps = [0] * len(variables)
        for _ in range(rng.randint(0, degree)):
            exps[rng.randrange(len(variables))] += 1
        terms[tuple(exps)] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    lead = [0] * len(variables)
    lead[0] = rng.randint(1, degree)
    terms[tuple(lead)] = Fraction(rng.randint(1, 5))
    return Polynomial(variables, terms)


def test_resultant_total_degree_within_bezout_bound():
    # Res_x(f, g) has total degree at most n*d + m*e - m*n <= d*e, where
    # m, n are the degrees in x and d, e the total degrees; the result
    # equals the Sylvester determinant taken over the polynomial ring.
    rng = random.Random(53)
    for variables in (("x", "y"), ("x", "y", "z")):
        for _ in range(12):
            f = _random_poly(rng, variables, 4)
            g = _random_poly(rng, variables, 3)
            r = resultant(f, g, "x")
            m, n = f.degree_in("x"), g.degree_in("x")
            d, e = f.total_degree(), g.total_degree()
            assert r.total_degree() <= n * d + m * e - m * n <= d * e
            assert r == det_bareiss(sylvester_matrix(f, g, "x").entries)


def _scaled(rng, variables, degree, den):
    # All of the polynomial's denominators divide den.
    p = _random_poly(rng, variables, degree)
    return Polynomial(variables, {e: Fraction(c.numerator, den * rng.randint(1, 3)) for e, c in p.terms.items()})


def test_resultant_matches_sylvester_determinant():
    # f and g carry different denominators, so each input gets its own
    # scale; the leading coefficients in x often vanish at small integers.
    rng = random.Random(43)
    pairs = []
    for variables in (("x", "y", "z"), ("x", "y", "z", "w")):
        for _ in range(10):
            f = _scaled(rng, variables, 3, rng.choice([1, 2, 5]))
            g = _scaled(rng, variables, 2, rng.choice([3, 4, 7]))
            pairs.append((f, g))
    x, y, z, w = (Polynomial.variable(v) for v in "xyzw")
    pairs += [
        ((y - z) * x**2 + Fraction(1, 2) * x + w, Fraction(1, 3) * y * x - z + 1),
        (Fraction(2, 5) * z * x**3 + y, Fraction(3, 7) * (y + w) * x**2 + z * x),
        # A middle coefficient is zero; g has degree 0 in x.
        (x**3 + Fraction(1, 4) * y * z, Fraction(5, 6) * y * w + 1 + 0 * x),
    ]
    for f, g in pairs:
        r = resultant(f, g, "x")
        assert r == det_bareiss(sylvester_matrix(f, g, "x").entries)
        assert r.used_vars() <= {"y", "z", "w"}


def test_resultant_with_vanishing_leading_coefficients():
    # The leading coefficients in y vanish at x = 0 and x = 1, but are
    # nonzero at the Kronecker point: the formal degrees stay right.
    r = resultant(_poly("x*y^2 + y + 1", ["x", "y"]), _poly("(x-1)*y + 2", ["x", "y"]), "y")
    assert r == _poly("x^2 + 3", ["x"])
    assert r.vars == ("x",) and repr(r) == "Polynomial('x^2 + 3')"


def test_resultant_of_an_input_without_rows():
    # deg_x g = 0, so f has no Sylvester rows and contributes no variable.
    r = resultant(_poly("x^2 + y", ["x", "y"]), _poly("z + 1", ["z"]), "x")
    assert r == _poly("z^2 + 2*z + 1", ["z"])
    assert r.vars == ("z",) and repr(r) == "Polynomial('z^2 + 2*z + 1')"


def test_resultant_declares_variables_in_first_use_order():
    # f's leading coefficient z comes before its constant term y.
    r = resultant(_poly("z*x + y", ["x", "y", "z"]), _poly("x - 1", ["x"]), "x")
    assert r == _poly("-y - z", ["y", "z"])
    assert r.vars == ("z", "y") and repr(r) == "Polynomial('-y - z')"


def test_resultant_builds_no_polynomial_sylvester_matrix(cubic_centered, quartic_curve, apple_curve, monkeypatch):
    def refuse(*args):
        raise AssertionError("sylvester_matrix called")

    monkeypatch.setattr(elimination, "sylvester_matrix", refuse)
    e_S, e_m = pencil_inputs(cubic_centered)
    r = resultant(e_S, e_m, cubic_centered.curve.var)
    assert r.degree_in("S") >= 1 and r.degree_in("m") >= 1
    F = implicitize(quartic_curve)
    assert F == _poly("y^4 - 2*x*y^2 - x^3 + x^2", ["x", "y"])
    assert rational_singular_points(F) == [Point(0, 0)]
    assert Point(0, 0) in rational_singular_points(implicitize(apple_curve))


def test_resultant_matches_sympy():
    sympy = pytest.importorskip("sympy")
    hypothesis = pytest.importorskip("hypothesis")
    from sympy.polys.subresultants_qq_zz import sylvester

    st = hypothesis.strategies

    def to_sympy(p, symbols):
        return sympy.Add(
            *(
                sympy.Rational(c.numerator, c.denominator)
                * sympy.Mul(*(symbols[v] ** e for v, e in zip(p.vars, exps)))
                for exps, c in p.terms.items()
            )
        )

    coeff = st.fractions(min_value=-6, max_value=6, max_denominator=5)

    @st.composite
    def polys(draw, variables):
        exps = st.tuples(*(st.integers(0, 2) for _ in variables))
        terms = draw(st.dictionaries(exps, coeff, min_size=1, max_size=4))
        terms[(draw(st.integers(1, 3)),) + (0,) * (len(variables) - 1)] = draw(coeff.filter(bool))
        return Polynomial(variables, terms)

    @hypothesis.settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.sampled_from([("x", "y"), ("x", "y", "z")]).flatmap(lambda vs: st.tuples(polys(vs), polys(vs))))
    def check(pair):
        f, g = pair
        symbols = {v: sympy.Symbol(v) for v in ("x", "y", "z")}
        # The determinant of sympy's Sylvester matrix: sympy.resultant
        # (1.14) gives Res(x + 1, x^3) = 1, where that determinant is -1.
        expected = sympy.expand(sylvester(to_sympy(f, symbols), to_sympy(g, symbols), symbols["x"]).det())
        ours = resultant(f, g, "x")
        assert sympy.expand(to_sympy(ours, symbols) - expected) == 0

    check()


def test_resultant_makes_no_subs_calls(cubic_centered, monkeypatch):
    # The cubic's second vertical resultant, Res_t2(Res_t1(e1, D), e_c).
    e1, D, e_c, t1, t2 = sylvester_vertical_inputs(cubic_centered)
    f = resultant(e1, D, t1)
    assert sylvester_matrix(f, e_c, t2).size == 13
    subs = []
    original = Polynomial.subs
    monkeypatch.setattr(Polynomial, "subs", lambda self, *a: subs.append(a) or original(self, *a))
    r = resultant(f, e_c, t2)
    assert subs == []
    assert (r.degree_in("S"), r.degree_in("c")) == (6, 10)


def test_berkowitz_matches_cofactor_oracle():
    # det(S*I - A) at several integer S, on random small integer matrices
    # that are often sparse, so that many leading entries are zero.
    rng = random.Random(59)
    for n in range(1, 8):
        for _ in range(8):
            a = [[rng.choice([0, 0, rng.randint(-9, 9)]) for _ in range(n)] for _ in range(n)]
            coeffs = _berkowitz(a)
            assert len(coeffs) == n + 1 and coeffs[0] == 1
            for s in (-3, -1, 0, 2, 5):
                shifted = [[(s if i == j else 0) - a[i][j] for j in range(n)] for i in range(n)]
                assert sum(c * s ** (n - i) for i, c in enumerate(coeffs)) == det_cofactor(shifted)


def test_berkowitz_zero_and_nilpotent_matrices():
    assert _berkowitz([[0] * 4 for _ in range(4)]) == [1, 0, 0, 0, 0]
    shift = [[1 if j == i + 1 else 0 for j in range(5)] for i in range(5)]
    assert _berkowitz(shift) == [1, 0, 0, 0, 0, 0]
    # The companion matrix of x^3 - 2x^2 + 3x - 4 has zero leading entries.
    assert _berkowitz([[0, 0, 4], [1, 0, -3], [0, 1, 2]]) == [1, -2, 3, -4]


def test_newton_interpolates_integer_polynomials_exactly():
    rng = random.Random(5)
    for degree in range(8):
        for _ in range(20):
            coeffs = [rng.randint(-10**12, 10**12) for _ in range(degree + 1)]
            for xs in (_sample_values(degree + 1), _sample_values(degree + 4), [rng.randint(-50, 50) * 7 + k for k in range(degree + 2)]):
                ys = [sum(c * x**e for e, c in enumerate(coeffs)) for x in xs]
                got = _newton(xs, ys)
                assert got[: degree + 1] == coeffs and not any(got[degree + 1 :])


def test_newton_refuses_values_of_a_non_integer_polynomial():
    # t*(t - 1)/2 and (t^3 + 2*t)/3 take integer values at integer nodes,
    # but their leading divided differences are 1/2 and 1/3: floor division
    # would return a wrong integer polynomial with no error.
    cases = [
        ([0, 1, 2], [0, 0, 1]),
        (_sample_values(5), [x * (x - 1) // 2 for x in _sample_values(5)]),
        (_sample_values(6), [(x**3 + 2 * x) // 3 for x in _sample_values(6)]),
        ([0, 2], [0, 1]),
    ]
    for xs, ys in cases:
        with pytest.raises(ArithmeticError):
            _newton(xs, ys)


def test_digits_read_back_integer_polynomials_at_a_power_of_two():
    # Balanced digits: negative coefficients borrow from the next digit, and
    # -2^(k-1), the most negative digit, is read back too.
    rng = random.Random(11)
    for k in (2, 3, 17, 64):
        half = 1 << (k - 1)
        for _ in range(50):
            coeffs = [rng.randint(-half, half - 1) for _ in range(rng.randint(1, 8))]
            coeffs[-1] = coeffs[-1] or -half
            value = sum(c << (k * e) for e, c in enumerate(coeffs))
            assert _digits(value, k, len(coeffs)) == coeffs
            with pytest.raises(ArithmeticError):
                _digits(value, k, len(coeffs) - 1)
    assert _digits(0, 5, 0) == []


def _least_root(x: int, m: int) -> int:
    """The least integer r >= 0 with r^m >= x, by bisection on [0, x]."""
    lo, hi = 0, x
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if mid**m >= x else (mid + 1, hi)
    return lo


def test_root_bound_is_the_least_integer_cauchy_bound():
    # For a monic g of degree d, with a_0 = |g_0| + 1 and a_j = |g_j|: r^d
    # covers sum a_j * r^j, r - 1 does not, and r is never above Cauchy's
    # 1 + max a_j or Fujiwara's 2 * max ceil(a_j^(1/(d - j))).
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    lower = st.lists(st.one_of(st.integers(-9, 9), st.integers(-(10**40), 10**40)), min_size=1, max_size=7)

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(lower)
    def check(low):
        g, d = low + [1], len(low)
        a = [abs(g[0]) + 1] + [abs(c) for c in g[1:d]]

        def covers(r):
            return r**d >= sum(x * r**j for j, x in enumerate(a))

        r = _root_bound(g)
        assert r >= 1 and covers(r) and not covers(r - 1)
        cauchy = 1 + max(a)
        fujiwara = 2 * max(_least_root(x, d - j) for j, x in enumerate(a) if x)
        assert r <= min(cauchy, fujiwara)

    check()


def _rebuild(parts: list[list[int]], g: list[int]) -> UnivariatePolynomial:
    """sum_k parts[k] * g^k."""
    G = UnivariatePolynomial("t", g)
    return sum((UnivariatePolynomial("t", part) * G**k for k, part in enumerate(parts)), UnivariatePolynomial.zero("t"))


def test_g_adic_parts_rebuild_the_scaled_area_parts(cubic_centered, quartic_centered):
    # P_hat = sum_k P_k * g_hat^k with deg P_k < deg g_hat, exactly, for
    # the scaled integer parts of every curve; g_hat = lam*g(tau/a) and
    # P_hat = K*P(tau/a), R_hat = K*R(tau/a).
    from ovalkit.quadrature import vertical_area_parts

    cases = [cubic_centered, quartic_centered] + seeded_loops(61, 3, 6) + seeded_loops(67, 4, 2)
    for cp in cases:
        g = cp.curve.g.as_univariate()
        P, R = vertical_area_parts(cp)
        gh, ph, rh, K, lam = elimination._integer_inputs(g, P, R)
        assert gh[-1] == 1 and len(gh) == g.degree() + 1
        a = integer_form(g.coeffs)[0][-1]
        for tau in (Fraction(-2), Fraction(1, 3), Fraction(5)):
            value = lambda coeffs: sum(c * tau**i for i, c in enumerate(coeffs))
            assert value(gh) == lam * g.evaluate(tau / a)
            assert value(ph) == K * P.evaluate(tau / a)
            assert value(rh) == K * R.evaluate(tau / a)
        for p in (ph, rh):
            parts = elimination._g_adic(p, gh)
            assert all(len(part) < len(gh) for part in parts)
            assert _rebuild(parts, gh) == UnivariatePolynomial("t", p)
    rng = random.Random(11)
    for _ in range(200):
        g = [rng.randint(-9, 9) for _ in range(rng.randint(1, 6))] + [1]
        p = [rng.randint(-10**6, 10**6) for _ in range(rng.randint(0, 20))]
        while p and not p[-1]:
            p.pop()
        parts = elimination._g_adic(p, g)
        assert all(len(part) < len(g) and (not part or part[-1]) for part in parts)
        assert _rebuild(parts, g) == UnivariatePolynomial("t", p)


def test_primitive_normalized_content():
    p = _poly("6*x^2*y + 9*x*y", ["x", "y"])
    cleaned, factor = p.primitive_normalized()
    assert cleaned == _poly("2*x^2*y + 3*x*y", ["x", "y"])
    assert factor == 3


def test_primitive_normalized_sign():
    p = _poly("-2*x^2 - 4*y", ["x", "y"])
    cleaned, factor = p.primitive_normalized()
    assert cleaned.leading()[1] > 0
    assert cleaned * factor == p


def _raw(eliminant, variables):
    """The raw eliminant, a nonzero Polynomial over the variables in the
    stored form."""
    assert type(eliminant) is Polynomial and eliminant.vars == variables and eliminant.nums
    assert_stored(eliminant)
    return eliminant


def _pencil_resultant_pair(cp, area):
    """pencil_eliminant and the Sylvester resultant of the same pencil."""
    s = chord_area_function(cp) if area == "chord" else free_inlet_function(cp)
    slope = slope_function(cp)
    e_S, e_m = pencil_inputs(cp, area)
    return _raw(pencil_eliminant(s, slope.num, slope.den), ("S", "m")), resultant(e_S, e_m, cp.curve.var)


def test_pencil_eliminant_equals_resultant(cubic_centered, quartic_centered):
    # Seeded loops with collinear control points have a constant slope and
    # no area; both paths refuse them alike.
    loops = seeded_loops(61, 3, 24)
    compared = 0
    for cp in [cubic_centered, quartic_centered] + loops:
        slope = slope_function(cp)
        for area in ("chord", "free_inlet"):
            if max(slope.num.degree(), slope.den.degree()) < 1:
                with pytest.raises(ValueError, match="total degree"):
                    _pencil_resultant_pair(cp, area)
                continue
            p, r = _pencil_resultant_pair(cp, area)
            assert p.vars == r.vars == ("S", "m")
            assert p.terms == r.terms
            compared += 1
    assert compared >= 2 * 22


def test_pencil_eliminant_matches_resultant_on_random_pencils():
    # Three shapes of G = m*b - a: deg a > deg b (lc(G) a constant),
    # deg b > deg a (lc(G) = m*lc(b) vanishes at node 0), and equal degrees
    # with lc(G) = lc(b)*(m - k) vanishing at the node k, which is skipped.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    coeff = st.fractions(min_value=-6, max_value=6, max_denominator=4)
    nonzero = coeff.filter(bool)

    @st.composite
    def pencils(draw):
        case = draw(st.sampled_from(("a_higher", "b_higher", "equal")))
        ds = draw(st.integers(1, 4))
        d = draw(st.integers(1, 3))

        def poly(degree, lead):
            return UnivariatePolynomial("t", draw(st.lists(coeff, min_size=degree, max_size=degree)) + [lead])

        s = poly(ds, draw(nonzero))
        low = draw(st.integers(0, d - 1))
        if case == "a_higher":
            a, b = poly(d, draw(nonzero)), poly(low, draw(nonzero))
        elif case == "b_higher":
            a, b = poly(low, draw(nonzero)), poly(d, draw(nonzero))
        else:
            lead = draw(nonzero)
            k = draw(st.sampled_from(_sample_values(ds + 1)[1:]))
            a, b = poly(d, k * lead), poly(d, lead)
        return s, a, b

    S, m = Polynomial.variable("S"), Polynomial.variable("m")

    @hypothesis.settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @hypothesis.given(pencils())
    def check(pencil):
        s, a, b = pencil
        p = _raw(pencil_eliminant(s, a, b), ("S", "m"))
        r = resultant(S - s.to_polynomial(), m * b.to_polynomial() - a.to_polynomial(), "t")
        assert p.vars == r.vars == ("S", "m")
        assert p.terms == r.terms

    check()


def test_pencil_eliminant_refuses_oversized_pencils(monkeypatch):
    # ds + d = 61 + 3 is the largest Sylvester size supported, 62 + 3 is
    # refused before any node is evaluated.
    a = UnivariatePolynomial("t", [1])
    b = UnivariatePolynomial("t", [0, 0, 0, 1])
    largest = _raw(pencil_eliminant(UnivariatePolynomial("t", [1] * 62), a, b), ("S", "m"))
    assert largest.degree_in("S") == 3 and largest.degree_in("m") == 61

    def refuse(*args):
        raise AssertionError("node work started")

    monkeypatch.setattr(elimination, "_sample_values", refuse)
    monkeypatch.setattr(elimination, "_berkowitz", refuse)
    with pytest.raises(SylvesterSizeError):
        pencil_eliminant(UnivariatePolynomial("t", [1] * 63), a, b)
    with pytest.raises(DeskScopeError):
        pencil_eliminant(UnivariatePolynomial("t", [1] * 63), a, b)


def test_vertical_eliminant_matches_the_sylvester_raw(cubic_centered, quartic_centered):
    # The raw eliminant, K^n times the characteristic polynomial, rebuilt
    # from two Sylvester resultants.
    for cp in [cubic_centered, quartic_centered] + seeded_loops(29, 3, 8) + seeded_loops(31, 4, 2):
        P, R = vertical_area_parts(cp)
        raw = _raw(vertical_eliminant(cp.curve.g.as_univariate(), P, R), ("S", "c"))
        assert raw == vertical_raw(cp)


def test_vertical_eliminant_matches_the_full_ring_oracle(cubic_centered, quartic_centered):
    # The half ring's C(d, 2)-square matrix against the d(d - 1)-square one
    # on the whole quotient ring, from d = 2 (a 1 x 1 half matrix) to 5.
    texts = (
        "x=(t-1/3)*(2/3-t)*(3+t); y=(t-1/3)^2*(2/3-t); t in [1/3,2/3]",
        "x=t*(1-t); y=t^2*(1-t); t in [0,1]",
    )
    cps = [cubic_centered, quartic_centered] + [validate_centered(parse_curve_text(t), Point(0, 0)) for t in texts]
    cps += seeded_loops(71, 3, 6) + seeded_loops(73, 4, 3) + seeded_loops(79, 5, 2)
    for cp in cps:
        g = cp.curve.g.as_univariate()
        P, R = vertical_area_parts(cp)
        assert vertical_eliminant(g, P, R) == full_ring_vertical_eliminant(g, P, R)
    assert {cp.curve.g.as_univariate().degree() for cp in cps} == {2, 3, 4, 5}


def test_vertical_eliminant_refuses_parts_whose_sum_is_not_constant():
    g = UnivariatePolynomial("t", [0, 1, -1])
    P = UnivariatePolynomial("t", [0, 0, 1])
    with pytest.raises(ValueError, match="P \\+ R constant"):
        vertical_eliminant(g, P, UnivariatePolynomial("t", [1, 1]))


def test_half_rules_are_the_reduced_grevlex_basis_of_the_pair_relations():
    # For unordered pairs of roots of g - c, in e1 = t1 + t2 and e2 = t1*t2:
    # D = (g(t1) - g(t2))/(t1 - t2) = 0 and g(t1) + g(t2) = 2c. The reduced
    # grevlex basis (e1 > e2) of the two has one element
    # e1^(d-1-b) e2^b - rules[b] for each b < d.
    sympy = pytest.importorskip("sympy")
    from sympy.polys.polyfuncs import symmetrize

    t1, t2, e1, e2 = sympy.symbols("t1 t2 e1 e2")
    rng = random.Random(83)
    for d in range(2, 7):
        basis = [e1 ** (s - b) * e2**b for s in range(d - 1) for b in range(s + 1)]
        for c in (rng.randint(-50, 50), 1 << rng.randint(8, 70)):
            full = [rng.randint(-9, 9) for _ in range(d)] + [1]

            def g(t):
                return sum(x * t**i for i, x in enumerate(full))

            relations = []
            for f in (sympy.cancel((g(t1) - g(t2)) / (t1 - t2)), g(t1) + g(t2) - 2 * c):
                sym, rest, defs = symmetrize(sympy.expand(f), t1, t2, formal=True)
                assert rest == 0
                relations.append(sym.subs({defs[0][0]: e1, defs[1][0]: e2}))
            reduced = sympy.groebner(relations, e1, e2, order="grevlex")
            rules = elimination._half_rules(full, c)
            expected = [
                e1 ** (d - 1 - b) * e2**b - sum(x * m for x, m in zip(rule, basis)) for b, rule in enumerate(rules)
            ]
            assert {sympy.Poly(x, e1, e2) for x in reduced.exprs} == {sympy.Poly(x, e1, e2) for x in expected}
