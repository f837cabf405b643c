import math
import random
from fractions import Fraction

import pytest

from ovalkit import (
    Interval,
    Polynomial,
    RationalFunction,
    UnivariatePolynomial,
    gcd_univariate,
    parse_polynomial,
    rational_roots,
    sturm_count_roots,
    substitute_rational,
    univariate_from_polynomial,
)
from ovalkit.algebra import _divide, _homogenized, isolate_roots, squarefree_part, sturm_chain
from ovalkit.errors import EvaluationError
from ovalkit.parsing import parse_rational_function

from oracles import (
    assert_stored,
    euclid_gcd,
    fraction_add,
    fraction_antiderivative,
    fraction_cleanup,
    fraction_content,
    fraction_divmod,
    fraction_evaluate,
    fraction_mul,
    fraction_poly_add,
    fraction_poly_coeffs,
    fraction_poly_derivative,
    fraction_poly_evaluate,
    fraction_poly_mul,
    fraction_poly_pow,
    fraction_poly_subs,
    fraction_sturm_chain,
    fraction_terms,
    integer_form,
)


def rand_poly(rng, variables=("x", "y"), max_deg=3, max_terms=4):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(0, max_deg) for _ in variables)
        terms[exps] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return Polynomial(variables, terms)


def test_factored_product_expands():
    x = Polynomial.variable("x")
    y = Polynomial.variable("y")
    lhs = (y**2 - x) * (y**2 - x) - x**3
    assert lhs == parse_polynomial("y^4-2*x*y^2-x^3+x^2", ["x", "y"])


def test_additive_identity_and_difference_of_squares():
    rng = random.Random(1)
    p = rand_poly(rng)
    assert p + Polynomial.zero(("x", "y")) == p
    x, y = Polynomial.variable("x"), Polynomial.variable("y")
    assert (x + y) * (x - y) == x**2 - y**2


def test_ring_axioms_random():
    rng = random.Random(7)
    for _ in range(25):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)


def test_negative_power_rejected():
    t = UnivariatePolynomial.identity("t")
    for value in (Polynomial.variable("x"), t, RationalFunction(t)):
        for n in (-1, 2.0):
            with pytest.raises(ValueError, match="non-negative integer"):
                value**n


def test_partial_derivative_quartic(quartic_poly):
    dy = quartic_poly.partial_derivative("y")
    assert dy == parse_polynomial("4*y^3-4*x*y", ["x", "y"])
    const = Polynomial.constant(5, ("x",))
    assert const.partial_derivative("x").is_zero


def test_partial_derivative_matches_finite_differences(quartic_poly):
    rng = random.Random(3)
    h = 1e-6
    for _ in range(5):
        x0 = rng.uniform(-1, 1)
        y0 = rng.uniform(-1, 1)
        exact = float(
            quartic_poly.partial_derivative("y").evaluate(
                {"x": Fraction(x0).limit_denominator(10**6), "y": Fraction(y0).limit_denominator(10**6)}
            )
        )
        xq = float(Fraction(x0).limit_denominator(10**6))
        yq = float(Fraction(y0).limit_denominator(10**6))
        fd = (
            quartic_poly.evaluate_float({"x": xq, "y": yq + h})[0]
            - quartic_poly.evaluate_float({"x": xq, "y": yq - h})[0]
        ) / (2 * h)
        assert math.isclose(exact, fd, rel_tol=1e-4, abs_tol=1e-4)


def test_gradient_vanishes_at_origin(quartic_poly):
    at = {"x": Fraction(0), "y": Fraction(0)}
    assert quartic_poly.partial_derivative("x").evaluate(at) == 0
    assert quartic_poly.partial_derivative("y").evaluate(at) == 0


def test_evaluate_examples(quartic_poly, square_poly):
    half = Fraction(1, 2)
    assert square_poly.evaluate({"x": half, "y": half}) == Fraction(1, 16)
    assert quartic_poly.evaluate({"x": Fraction(1), "y": Fraction(0)}) == 0
    p = parse_polynomial("x^2 + 3", ["x"])
    assert p.evaluate({"x": Fraction(0)}) == 3


def test_evaluate_missing_variable():
    p = parse_polynomial("x*y", ["x", "y"])
    with pytest.raises(EvaluationError):
        p.evaluate({"x": Fraction(1)})


def test_evaluate_is_ring_homomorphism():
    rng = random.Random(11)
    for _ in range(20):
        a, b = rand_poly(rng), rand_poly(rng)
        at = {"x": Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
              "y": Fraction(rng.randint(-3, 3), rng.randint(1, 3))}
        assert (a * b).evaluate(at) == a.evaluate(at) * b.evaluate(at)
        assert (a + b).evaluate(at) == a.evaluate(at) + b.evaluate(at)


def test_substitute_chord_into_square(square_poly):
    m, x = Polynomial.variable("m"), Polynomial.variable("x")
    result = square_poly.subs("y", m * x)
    expected = parse_polynomial("m^2*x^4 - m*x^3 - m^2*x^3 + m*x^2", ["m", "x"])
    assert result == expected


def test_substitute_identity():
    p = parse_polynomial("x^2*y - y", ["x", "y"])
    assert p.subs("x", Polynomial.variable("x")) == p


def test_substitute_parametrization_annihilates(quartic_poly):
    t = "t"
    g = parse_rational_function("(t^2-1)^2", t)
    f = parse_rational_function("t^3-t", t)
    rf = substitute_rational(quartic_poly, {"x": g, "y": f})
    assert rf.num.is_zero


def test_antiderivative_roundtrip():
    rng = random.Random(5)
    for _ in range(10):
        p = UnivariatePolynomial("t", [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(6)])
        assert p.antiderivative().derivative() == p
    zero = UnivariatePolynomial.zero("t")
    assert zero.antiderivative().is_zero


def test_antiderivative_cubic_oval_area():
    g = parse_rational_function("3*(1-t)^2*t", "t").as_univariate()
    f = parse_rational_function("3*(1-t)*t^2", "t").as_univariate()
    integrand = -(f * g.derivative())
    A = integrand.antiderivative()
    assert A.evaluate(1) - A.evaluate(0) == Fraction(3, 20)


def test_gcd_examples():
    t = UnivariatePolynomial.identity("t")
    assert gcd_univariate(t**2 - 1, t - 1) == t - 1
    p = 3 * t**2 + 6
    assert gcd_univariate(p, UnivariatePolynomial.zero("t")) == t**2 + 2


def test_gcd_of_coprime_polynomials_is_one():
    rng = random.Random(9)
    t = UnivariatePolynomial.identity("t")
    for _ in range(10):
        roots = rng.sample(range(-10, 11), 4)
        a = (t - roots[0]) * (t - roots[1])
        b = (t - roots[2]) * (t - roots[3])
        assert gcd_univariate(a, b) == UnivariatePolynomial.constant("t", 1)


def _to_sympy(sympy, p):
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
    return sympy.Poly(coeffs or [0], sympy.Symbol("t"), domain="QQ")


def _from_sympy(P):
    return UnivariatePolynomial("t", [Fraction(int(c.p), int(c.q)) for c in reversed(P.all_coeffs())])


def _univariate_strategy(st, max_size):
    small = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
    return st.lists(small, max_size=max_size).map(lambda cs: UnivariatePolynomial("t", cs))


def test_gcd_matches_sympy():
    # Shared factors make the gcd nontrivial in most examples.
    hypothesis = pytest.importorskip("hypothesis")
    sympy = pytest.importorskip("sympy")
    st = hypothesis.strategies
    polys = _univariate_strategy(st, 4)

    @hypothesis.settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @hypothesis.given(polys, polys, polys)
    def check(common, a, b):
        p, q = common * a, common * b
        expected = _to_sympy(sympy, p).gcd(_to_sympy(sympy, q))
        if not expected.is_zero:
            expected = expected.monic()
        assert gcd_univariate(p, q) == _from_sympy(expected)

    check()


def test_rational_function_normal_form_matches_sympy():
    # Reduced on the integer remainder sequence, num/den is sympy's
    # cancelled form: coprime, den monic. Common factors, denominators with
    # negative or non-unit leading coefficients, fractional coefficients
    # and zero numerators.
    hypothesis = pytest.importorskip("hypothesis")
    sympy = pytest.importorskip("sympy")
    st = hypothesis.strategies
    polys = _univariate_strategy(st, 4)
    nonzero = polys.filter(lambda p: not p.is_zero)
    scales = st.sampled_from([Fraction(1), Fraction(-1), Fraction(3), Fraction(-2, 7), Fraction(5, 4)])

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(nonzero, polys, nonzero, scales)
    def check(common, a, b, scale):
        num, den = common * a, common * b * scale
        rf = RationalFunction(num, den)
        n, d = sympy.fraction(sympy.cancel(_to_sympy(sympy, num).as_expr() / _to_sympy(sympy, den).as_expr()))
        t = sympy.Symbol("t")
        D = sympy.Poly(d, t, domain="QQ")
        assert rf.num == _from_sympy(sympy.Poly(n, t, domain="QQ") * (1 / D.LC()))
        assert rf.den == _from_sympy(D.monic())
        assert rf.den.coeffs[-1] == 1
        assert gcd_univariate(rf.num, rf.den) == 1

    check()
    t = UnivariatePolynomial.identity("t")
    zero = RationalFunction(UnivariatePolynomial.zero("t"), -3 * t + 1)
    assert zero.num.is_zero and zero.den == 1


def _mixed_coefficients(st):
    """Zero, small and large integers, and fractions with unrelated
    denominators, of either sign."""
    return st.one_of(
        st.just(Fraction(0)),
        st.integers(-(10**30), 10**30).map(Fraction),
        st.builds(Fraction, st.integers(-(10**12), 10**12), st.integers(1, 10**12)),
        st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 3, 4, 6, 7, 9, 12, 35, 2**40])),
    )


def _assert_stored_form(p: UnivariatePolynomial):
    """Integer numerators with no trailing zero over a positive
    denominator that shares no factor with all of them."""
    assert all(type(c) is int for c in p.nums) and type(p.den) is int
    assert p.den > 0 and math.gcd(p.den, *p.nums) == 1
    assert not p.nums or p.nums[-1]


def test_integer_kernels_match_the_fraction_references():
    # Sums, products, values and antiderivatives on integer numerators
    # equal the term-by-term Fraction loops, empty and zero lists included,
    # and every result, the monic gcd, square-free part and reduced
    # rational function among them, is in the one stored form: equal
    # polynomials built by different routes are equal and hash alike.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    coeffs = st.lists(_mixed_coefficients(st), max_size=7)

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(coeffs, coeffs, coeffs, _mixed_coefficients(st), st.floats(-4, 4))
    def check(a, b, c, x, xf):
        p, q, r = (UnivariatePolynomial("t", cs) for cs in (a, b, c))
        assert (p + q).coeffs == fraction_add(a, b)
        assert (p - q).coeffs == fraction_add(a, [-c for c in b])
        assert (p * q).coeffs == fraction_mul(a, b)
        assert (p * x).coeffs == fraction_mul(a, [x]) and (p * 3).coeffs == fraction_mul(a, [Fraction(3)])
        assert p.evaluate(x) == fraction_evaluate(a, x) and p.evaluate(0) == fraction_evaluate(a, Fraction(0))
        assert p.antiderivative().coeffs == fraction_antiderivative(a)
        results = [p, p + q, p - q, -p, p * q, p * x, p.antiderivative(), p.derivative(), p.compose(q)]
        results.append(gcd_univariate(p, q))
        if p:
            results.append(squarefree_part(p))
        if q:
            rf = RationalFunction(p, q)
            results += [rf.num, rf.den]
        for result in results:
            _assert_stored_form(result)
            assert all(type(c) is Fraction for c in result.coeffs)
            assert result == UnivariatePolynomial("t", result.coeffs)
        for left, right in (((p * q) * r, p * (q * r)), (p * Fraction(2, 3) * Fraction(3, 2), p), ((p - q) + q, p)):
            assert left == right and hash(left) == hash(right)
        horner = 0.0
        for c in reversed(p.coeffs):
            horner = horner * xf + float(c)
        assert p.evaluate_float(xf) == horner

    check()


def test_float_values_beyond_the_float_range_raise():
    # evaluate_float divides each stored numerator by the denominator; like
    # float() of the coefficient, it raises OverflowError past the float
    # range, and rounds a huge numerator over a huge denominator correctly.
    huge = Fraction(10**400, 3)
    with pytest.raises(OverflowError):
        float(huge)
    with pytest.raises(OverflowError):
        UnivariatePolynomial("t", [1, huge]).evaluate_float(0.5)
    p = UnivariatePolynomial("t", [Fraction(10**400 + 1, 7 * 10**400), Fraction(1, 3)])
    assert p.den == 21 * 10**400
    assert p.evaluate_float(0.25) == float(p.coeffs[0]) + 0.25 * float(p.coeffs[1])


def test_polynomial_stored_form_matches_the_fraction_reference():
    # Every Polynomial operation on the stored form against the same one on
    # Fraction terms keyed by (variable, exponent) pairs, over variable
    # orders drawn independently, and every result in the stored form.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    names = ("x", "y", "z")

    @st.composite
    def polys(draw):
        order = draw(st.permutations(names))[: draw(st.integers(1, 3))]
        exps = st.tuples(*[st.integers(0, 3)] * len(order))
        return Polynomial(order, draw(st.dictionaries(exps, _mixed_coefficients(st), max_size=5)))

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        polys(), polys(), _mixed_coefficients(st), st.integers(0, 3), st.sampled_from(names),
        st.permutations(names), st.lists(_mixed_coefficients(st), min_size=3, max_size=3),
    )
    def check(p, q, k, n, var, order, values):
        a, b = fraction_terms(p), fraction_terms(q)
        results = {
            "+": (p + q, fraction_poly_add(a, b)),
            "-": (p - q, fraction_poly_add(a, {e: -c for e, c in b.items()})),
            "*": (p * q, fraction_poly_mul(a, b)),
            "* k": (p * k, fraction_poly_mul(a, {frozenset(): k})),
            "**": (p**n, fraction_poly_pow(a, n)),
            "subs": (p.subs(var, q), fraction_poly_subs(a, var, b) if var in p.vars else a),
            "with_vars": (p.with_vars(order), a),
        }
        if var in p.vars:
            results["d"] = (p.partial_derivative(var), fraction_poly_derivative(a, var))
            coeffs = p.coeffs_in(var)
            assert len(coeffs) == max(p.degree_in(var) + 1, 0)
            for i, (c, ref) in enumerate(zip(coeffs, fraction_poly_coeffs(a, var))):
                results[f"coeff {i}"] = (c, ref)
        for name, (got, ref) in results.items():
            assert_stored(got)
            assert fraction_terms(got) == ref, name
        assert p.with_vars(order).vars == tuple(order)
        assert p.evaluate(dict(zip(names, values))) == fraction_poly_evaluate(a, dict(zip(names, values)))
        assert p.content() == fraction_content(list(a.values()))
        q_p, factor = p.primitive_normalized()
        assert_stored(q_p)
        if p:
            reference, removed = fraction_cleanup(p)
            assert fraction_terms(q_p) == fraction_terms(reference) and q_p.vars == p.vars
            assert (str(factor),) == removed or factor == 1 and not removed
        # Equal polynomials over other variable orders are equal and hash
        # alike; the order of a sum's operands does not matter.
        for left, right in ((p.with_vars(order), p), (p + q, q + p), (p * q, q * p)):
            assert left == right and hash(left) == hash(right)
        assert (p == q) == (a == b)

    check()


def test_integer_gcd_matches_the_euclidean_reference():
    # The primitive remainder sequence returns the monic gcd of Euclid over
    # Fraction, for shared factors, coprime pairs, zeros and constants.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    polys = st.lists(_mixed_coefficients(st), max_size=4).map(lambda cs: UnivariatePolynomial("t", cs))

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(polys, polys, polys)
    def check(common, a, b):
        for p, q in ((common * a, common * b), (a, b), (common, UnivariatePolynomial.zero("t"))):
            assert gcd_univariate(p, q) == euclid_gcd(p, q)
            assert gcd_univariate(q, p) == euclid_gcd(q, p)

    check()


def test_integer_sturm_chain_matches_the_fraction_reference():
    # The primitive remainder sequence over the integers, divided by its
    # last element, gives the chain of the signed remainder sequence over
    # Fraction: repeated factors, constants and mixed denominators.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    polys = st.lists(_mixed_coefficients(st), max_size=4).map(lambda cs: UnivariatePolynomial("t", cs))

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(polys, polys, st.integers(1, 3), st.integers(1, 3))
    def check(a, b, i, j):
        p = a**i * b**j
        hypothesis.assume(not p.is_zero)
        assert sturm_chain(p) == fraction_sturm_chain(p)

    check()


def test_integer_form_matches_the_fraction_reference():
    # content and primitive_normalized on the stored form against the
    # integer form: the numerators over the lcm with their gcd divided out,
    # and the positive factor taken out.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def check_one(cs):
        content = fraction_content(cs)
        p = Polynomial(("t",), {(i,): c for i, c in enumerate(cs)})
        assert p.content() == content
        nums, factor = integer_form(cs)
        assert factor == (content or 1) and factor > 0
        assert all(type(n) is int for n in nums) and nums == [c / factor for c in cs]
        assert math.gcd(*nums) == (1 if content else 0)
        q, removed = p.primitive_normalized()
        sign = 1 if not p or removed > 0 else -1
        assert removed == sign * factor
        assert q.nums == {(i,): sign * n for i, n in enumerate(nums) if n} and q.den == 1

    for cs in ([], [Fraction(0)], [Fraction(-6, 35)], [Fraction(4), Fraction(-2, 3)], [Fraction(1, 2), Fraction(-3, 4)]):
        check_one(cs)

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.lists(_mixed_coefficients(st), max_size=7))
    def check(cs):
        check_one(cs)

    check()


def test_integer_division_matches_the_fraction_reference():
    # By a monic g every quotient is integral and q*g + r = f; by any g
    # that divides f the quotient is exact and the remainder empty.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    ints = st.integers(-(10**20), 10**20)
    nonzero = ints.filter(bool)

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.lists(ints, max_size=6).map(lambda f: f + [1]), st.lists(ints, max_size=4), nonzero)
    def check(f, g_low, top):
        g = g_low + [1]
        q, r = _divide(f, g)
        assert all(type(c) is int for c in q + r) and not (r and not r[-1])
        assert (q, r) == fraction_divmod(f, g)
        assert fraction_add(fraction_mul(q, g), r) == f
        g_any = g_low + [top]
        assert _divide(fraction_mul(f, g_any), g_any) == (f, [])

    check()


def test_homogenized_value_has_the_sign_of_the_value():
    # b^deg(f) * f(a/b) on integers equals the Fraction value scaled by
    # b^deg(f) > 0, so it has its sign.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.lists(st.integers(-(10**12), 10**12), max_size=7), _mixed_coefficients(st))
    def check(nums, x):
        value = fraction_evaluate(nums, x)
        h = _homogenized(nums, x)
        assert type(h) is int
        assert h == value * x.denominator ** max(len(nums) - 1, 0)
        assert (h > 0) == (value > 0) and (h < 0) == (value < 0)

    check()


def test_sturm_examples():
    t = UnivariatePolynomial.identity("t")
    assert sturm_count_roots(t**2 - 1, Interval(-2, 0)) == 1
    assert sturm_count_roots(3 * t**2 - 1, Interval(-1, 1)) == 2
    assert sturm_count_roots(t**2 + 1, Interval(-100, 100)) == 0


def test_sturm_against_sign_scanning():
    # Brute-force oracle: sign changes on a fine grid, roots kept separated.
    rng = random.Random(13)
    t = UnivariatePolynomial.identity("t")
    for _ in range(12):
        roots = sorted(rng.sample([Fraction(k, 10) for k in range(-30, 31)], rng.randint(1, 5)))
        if any(b - a < Fraction(1, 50) for a, b in zip(roots, roots[1:])):
            continue
        p = UnivariatePolynomial.constant("t", 1)
        for r in roots:
            p = p * (t - r)
        lo, hi = Fraction(-4), Fraction(4)
        step = Fraction(1, 1000)
        brute = 0
        prev = p.evaluate(lo)
        x = lo + step
        while x <= hi:
            cur = p.evaluate(x)
            if cur == 0 or (prev < 0 < cur) or (cur < 0 < prev):
                if cur == 0:
                    brute += 1
                    prev = p.evaluate(x + step / 2)
                else:
                    brute += 1
                    prev = cur
            else:
                prev = cur
            x += step
        assert sturm_count_roots(p, Interval(lo, hi)) == len(roots) == brute


def test_sturm_counts_distinct_roots_of_non_squarefree_products():
    # Roots of multiplicity up to 3 sit exactly at lo, at hi and inside; the
    # count must be that of the distinct real roots in (lo, hi], which only a
    # chain divided by gcd(p, p') gives at multiple roots on the boundary.
    hypothesis = pytest.importorskip("hypothesis")
    sympy = pytest.importorskip("sympy")
    st = hypothesis.strategies
    t = UnivariatePolynomial.identity("t")
    assert sturm_count_roots((t - 1) ** 2 * (t + 1) ** 3 * t * (t**2 - 2), Interval(-1, 1)) == 2
    rationals = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3]))
    multiplicity = st.integers(0, 3)

    @hypothesis.settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        rationals,
        rationals,
        st.tuples(multiplicity, multiplicity, multiplicity),
        st.lists(st.tuples(rationals, st.integers(1, 3)), max_size=3),
        st.sampled_from([0, 2, 3, -5]),
        st.sampled_from([1, -3, Fraction(2, 7)]),
    )
    def check(a, b, boundary, others, quadratic, scale):
        hypothesis.assume(a != b)
        lo, hi = min(a, b), max(a, b)
        p = UnivariatePolynomial.constant("t", scale)
        for r, k in list(zip((lo, (lo + hi) / 2, hi), boundary)) + others:
            p = p * (t - r) ** k
        if quadratic:
            p = p * (t**2 - quadratic)  # irrational real roots, or none
        roots = set(_to_sympy(sympy, p).real_roots())
        expected = sum(1 for r in roots if lo < r <= hi)
        assert sturm_count_roots(p, Interval(lo, hi)) == expected

    check()


def assert_isolates(p, lo, hi, width):
    """isolate_roots on sturm_chain(p): ascending, disjoint intervals (a, b]
    in (lo, hi], narrower than width, whose counts are the Sturm counts on
    them and add up to that of (lo, hi]."""
    found = isolate_roots(sturm_chain(p), lo, hi, width)
    for a, b, count in found:
        assert lo <= a < b <= hi and b - a < width
        assert count == sturm_count_roots(p, Interval(a, b)) >= 1
    assert all(b <= a for (_, b, _), (a, _, _) in zip(found, found[1:]))
    assert sum(count for _, _, count in found) == sturm_count_roots(p, Interval(lo, hi))
    return found


def test_isolate_roots_examples():
    t = UnivariatePolynomial.identity("t")
    eps = Fraction(1, 10**12)
    r = Fraction(1, 3)
    p = (t - r) * (t - r - eps) * (t**2 - 2) * (t**2 + 1)
    # Two roots closer than the width share one interval, and split below it.
    assert [c for _, _, c in assert_isolates(p, Fraction(-2), Fraction(2), Fraction(1, 10**6))] == [1, 2, 1]
    assert [c for _, _, c in assert_isolates(p, Fraction(-2), Fraction(2), eps / 2)] == [1, 1, 1, 1]
    # A root at lo is outside (lo, hi], one at hi inside.
    assert assert_isolates(p, r, r + eps, Fraction(1, 3)) == [(r, r + eps, 1)]
    assert assert_isolates(t**2 + 1, Fraction(-5), Fraction(5), Fraction(1)) == []


def test_isolate_roots_partitions_the_sturm_count():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    t = UnivariatePolynomial.identity("t")
    rationals = st.builds(Fraction, st.integers(-12, 12), st.sampled_from([1, 2, 3, 7]))

    @hypothesis.settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        st.lists(st.tuples(rationals, st.integers(1, 3)), min_size=1, max_size=4),
        st.sampled_from([0, 2, 3, -5]),
        rationals,
        rationals,
        st.sampled_from([Fraction(1, 10**9), Fraction(1, 50), Fraction(1), Fraction(10)]),
    )
    def check(factors, quadratic, a, b, width):
        hypothesis.assume(a != b)
        p = UnivariatePolynomial.constant("t", 1)
        for r, k in factors:
            p = p * (t - r) ** k
        if quadratic:
            p = p * (t**2 - quadratic)
        assert_isolates(p, min(a, b), max(a, b), width)

    check()


def test_rational_roots_examples():
    t = UnivariatePolynomial.identity("t")
    assert rational_roots(t**3 - t) == [Fraction(-1), Fraction(0), Fraction(1)]
    assert rational_roots(t**2 - 2) == []
    assert rational_roots(2 * t - 1) == [Fraction(1, 2)]
    # multiplicity is preserved
    assert rational_roots((t - 1) ** 2) == [Fraction(1), Fraction(1)]


def test_rational_roots_linear_remainder():
    t = UnivariatePolynomial.identity("t")
    assert rational_roots(t**3 * (3 * t - 7)) == [Fraction(0)] * 3 + [Fraction(7, 3)]
    assert rational_roots(UnivariatePolynomial("t", [Fraction(1, 2), Fraction(-3, 4)])) == [Fraction(2, 3)]
    # Coefficients whose divisors are out of reach of trial division: the
    # root of a linear polynomial needs none.
    p, q = 2**61 - 1, 2**89 - 1
    assert rational_roots(p * t + q) == [Fraction(-q, p)]


def test_rational_roots_match_sympy():
    # The rational roots are the linear factors of sympy's factorization
    # over Q. Numerators and denominators include two 10-digit primes and
    # their product; quadratic factors are irreducible, some with real roots.
    hypothesis = pytest.importorskip("hypothesis")
    sympy = pytest.importorskip("sympy")
    st = hypothesis.strategies
    t = UnivariatePolynomial.identity("t")
    parts = st.sampled_from([1, 2, 3, 4, 7, 1000000007, 1000000009, 1000000007 * 1000000009])
    rationals = st.builds(lambda n, d, s: Fraction(s * n, d), parts, parts, st.sampled_from([1, -1]))
    linears = st.lists(st.tuples(rationals, st.integers(1, 3)), max_size=3)

    def irreducible(abc):
        a, b, c = abc
        d = b * b - 4 * a * c
        return d < 0 or math.isqrt(d) ** 2 != d

    signed = parts | parts.map(lambda c: -c)
    quadratics = st.lists(st.tuples(parts, st.integers(-3, 3), signed).filter(irreducible), max_size=1)

    def sympy_roots(p):
        roots = []
        for f, k in _to_sympy(sympy, p).factor_list()[1]:
            if f.degree() == 1:
                a, b = f.all_coeffs()
                r = -b / a
                roots += [Fraction(int(r.p), int(r.q))] * k
        return sorted(roots)

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hypothesis.given(linears, quadratics, st.integers(0, 2), rationals)
    def check(lin, quad, zeros, scale):
        p = t**zeros * scale
        for r, k in lin:
            p = p * (t - r) ** k
        for a, b, c in quad:
            p = p * UnivariatePolynomial("t", [c, b, a])
        expected = sympy_roots(p)
        assert expected == sorted([Fraction(0)] * zeros + [r for r, k in lin for _ in range(k)])
        assert rational_roots(p) == expected

    check()


def test_squarefree_part():
    t = UnivariatePolynomial.identity("t")
    p = (t - 1) ** 2 * (t + 2)
    assert squarefree_part(p) == t**2 + t - 2
    assert squarefree_part(-3 * p**2 * (2 * t - 1) ** 3) == t**3 + Fraction(1, 2) * t**2 - Fraction(5, 2) * t + 1
    assert squarefree_part(UnivariatePolynomial.constant("t", -7)) == UnivariatePolynomial.constant("t", 1)


def test_rational_function_reduction():
    rf = parse_rational_function("(t^2-1)/(t-1)", "t")
    assert rf.is_polynomial
    assert rf.as_univariate() == UnivariatePolynomial("t", [1, 1])
    rf2 = parse_rational_function("t/(1-t)", "t")
    # denominator is normalized monic, so 1 - t becomes t - 1 with a negated numerator
    assert rf2.den == UnivariatePolynomial("t", [-1, 1])
    assert rf2.num == UnivariatePolynomial("t", [0, -1])
    assert rf2.evaluate(Fraction(1, 3)) == Fraction(1, 2)


def test_fractions_stay_reduced():
    rng = random.Random(17)
    for _ in range(20):
        p = rand_poly(rng)
        q = rand_poly(rng)
        for coeff in (p * q + p).terms.values():
            assert math.gcd(coeff.numerator, coeff.denominator) == 1
            assert coeff.denominator >= 1


def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(Fraction(1), Fraction(1))
    iv = Interval(Fraction(0), Fraction(1))
    assert iv.contains(Fraction(1, 2), closed=False)
    assert not iv.contains(Fraction(1), closed=False)


def test_univariate_from_polynomial_roundtrip():
    p = parse_polynomial("t^3 - 2*t + 1/2", ["t"])
    u = univariate_from_polynomial(p, "t")
    assert u.to_polynomial() == p
    with pytest.raises(ValueError, match="besides 'x'"):
        univariate_from_polynomial(parse_polynomial("x*y", ["x", "y"]), "x")


def test_rational_function_arithmetic():
    a = parse_rational_function("t/(1-t)", "t")
    b = parse_rational_function("1/(1-t)", "t")
    # t/(1-t) + 1/(1-t) = (t+1)/(1-t) = (-t-1)/(t-1), the denominator monic.
    assert (a + b).num == UnivariatePolynomial("t", [-1, -1])
    assert (a + b).den == UnivariatePolynomial("t", [-1, 1])
    assert a / b == RationalFunction(UnivariatePolynomial("t", [0, 1]))
    assert (a * b).evaluate(Fraction(1, 2)) == 2
