import random
import sys
from fractions import Fraction

import pytest

from ovalkit import Polynomial, UnivariatePolynomial, parse_polynomial, render_polynomial
from ovalkit.errors import DeskScopeError, ParseError
from ovalkit.parsing import parse_rational_function, render_rational_function

from oracles import fraction_render


def test_square_polynomial_golden(square_poly):
    p = parse_polynomial("x^2*y^2 - x^2*y - x*y^2 + x*y", ["x", "y"])
    assert p == square_poly
    assert len(p.terms) == 4


def test_zero():
    assert parse_polynomial("0", ["x"]).is_zero
    assert render_polynomial(Polynomial.zero(("x",))) == "0"


def test_factored_equals_expanded(quartic_poly):
    assert parse_polynomial("(y^2-x)^2 - x^3", ["x", "y"]) == quartic_poly


def test_render_quartic_golden(quartic_poly):
    assert render_polynomial(quartic_poly) == "y^4 - 2*x*y^2 - x^3 + x^2"


def test_roundtrip_random():
    rng = random.Random(23)
    for _ in range(40):
        terms = {}
        for _ in range(rng.randint(1, 6)):
            exps = (rng.randint(0, 4), rng.randint(0, 4))
            terms[exps] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        p = Polynomial(("x", "y"), terms)
        assert parse_polynomial(render_polynomial(p), ["x", "y"]) == p


def test_whitespace_and_parens_invariance():
    base = parse_polynomial("x^2-3*x+1/2", ["x"])
    assert parse_polynomial("  x^2 - 3 * x + 1/2 ", ["x"]) == base
    assert parse_polynomial("((x^2)) - ((3*x)) + ((1/2))", ["x"]) == base
    assert parse_polynomial("(x^2 - 3*x) + 1/2", ["x"]) == base


def test_random_products_expand():
    rng = random.Random(29)
    for _ in range(15):
        a = rng.randint(-4, 4)
        b = rng.randint(-4, 4)
        c = rng.randint(1, 4)
        text = f"({a} + x)*({b} - {c}*x)"
        lhs = parse_polynomial(text, ["x"])
        x = Polynomial.variable("x")
        assert lhs == (x + a) * (Polynomial.constant(b, ("x",)) - c * x)


def test_implicit_multiplication_rejected():
    with pytest.raises(ParseError):
        parse_polynomial("2x", ["x"])


def test_undeclared_variable():
    with pytest.raises(ParseError) as err:
        parse_polynomial("x + z", ["x", "y"])
    assert "z" in str(err.value)
    assert err.value.position >= 0


def test_bad_exponents():
    with pytest.raises(ParseError):
        parse_polynomial("x^-2", ["x"])
    with pytest.raises(ParseError):
        parse_polynomial("x^(2)", ["x"])
    with pytest.raises(ParseError):
        parse_polynomial("x^y", ["x", "y"])


def test_empty_expression():
    with pytest.raises(ParseError):
        parse_polynomial("   ", ["x"])


def test_syntax_error_position():
    with pytest.raises(ParseError) as err:
        parse_polynomial("x + * 2", ["x"])
    assert err.value.position == 4


def test_power_expansion_budget():
    # Each limit is reached exactly, then passed by one more factor.
    assert parse_polynomial("x^500", ["x"]).total_degree() == 500
    assert len(parse_polynomial("(x+y+1)^43", ["x", "y"]).terms) == 990
    assert parse_polynomial("2^10000", ["x"]) == 2**10000
    # A common denominator counts towards the bits as a numerator does.
    assert parse_polynomial("(1/2)^10000", ["x"]) == Fraction(1, 2**10000)
    assert parse_rational_function("(t+1)^40/(t-1)", "t").num.degree() == 40
    for text in ("x^501", "(x+1)^501", "(x+y+1)^44", "2^10001", "(x+y+1)^400", "7^30000000", "x^" + "9" * 400, "(1/2)^10001", "(1/7)^30000000"):
        with pytest.raises(DeskScopeError):
            parse_polynomial(text, ["x", "y"])
    with pytest.raises(DeskScopeError):
        parse_rational_function("(t+1)^501", "t")


def test_product_expansion_budget():
    # The power limits hold for products too: each is reached exactly, then
    # passed by one more factor.
    def product(base, n):
        return "*".join([base] * n)

    assert len(parse_polynomial(product("(x+y+1)", 43), ["x", "y"]).terms) == 990
    assert parse_polynomial(product("x", 500), ["x"]).total_degree() == 500
    assert parse_polynomial("2^5000*2^5000", ["x"]) == 2**10000
    assert parse_rational_function("t^250*t^250", "t").num.degree() == 500
    for text in (product("(x+y+1)", 44), product("x", 501), "2^5000*2^5000*2"):
        with pytest.raises(DeskScopeError):
            parse_polynomial(text, ["x", "y"])
    for text in ("t^250*t^251", "t^250/(1/t^251)"):
        with pytest.raises(DeskScopeError):
            parse_rational_function(text, "t")


def test_quotient_budget_uses_numerator_and_denominator_degrees():
    # A quotient's numerator and denominator degrees are at most
    # (n1 + d2, d1 + n2), a product's (n1 + n2, d1 + d2).
    r = parse_rational_function("t^250/t^251", "t")
    assert (r.num.degree(), r.den.degree()) == (0, 1)
    r = parse_rational_function("(t+1)^300/(t-1)^201", "t")
    assert (r.num.degree(), r.den.degree()) == (300, 201)
    with pytest.raises(DeskScopeError, match="degree 501"):
        parse_rational_function("(t+1)^300*(t-1)^201", "t")


def test_nesting_depth_limit():
    from ovalkit.parsing import MAX_NESTING_DEPTH as n

    x = parse_polynomial("x", ["x"])
    assert parse_polynomial("(" * n + "x" + ")" * n, ["x"]) == x
    assert parse_polynomial("x*" + "-" * n + "x", ["x"]) == x * x * (-1) ** n
    for text in (
        "(" * (n + 1) + "x" + ")" * (n + 1),
        "x*" + "-" * (n + 1) + "x",
        "(" * 3000 + "x" + ")" * 3000,
        "1 - " + "-" * 3000 + "x",
    ):
        with pytest.raises(DeskScopeError):
            parse_polynomial(text, ["x"])
    with pytest.raises(DeskScopeError):
        parse_rational_function("1/" + "(" * 3000 + "t" + ")" * 3000, "t")


def test_division_rejected_in_polynomial_mode():
    for text, message in (
        ("x/(1-x)", "only be divided by a constant"),
        ("x/y", "only be divided by a constant"),
        ("x/0", "division by zero"),
        ("x/(2-2)", "division by zero"),
    ):
        with pytest.raises(ParseError, match=message):
            parse_polynomial(text, ["x", "y"])
    # but nonzero constants may divide
    assert parse_polynomial("3/4", ["x"]) == Polynomial.constant(Fraction(3, 4), ["x"])
    x = Polynomial.variable("x")
    assert parse_polynomial("x/2", ["x"]) == x * Fraction(1, 2)
    assert parse_polynomial("(x^2 - x)/(3 - 1)/-3", ["x"]) == (x * x - x) * Fraction(-1, 6)


def test_rational_function_examples():
    g = parse_rational_function("3*(1-t)^2*t", "t")
    assert g.is_polynomial
    assert g.num.degree() == 3
    m = parse_rational_function("t/(1-t)", "t")
    assert not m.is_polynomial
    assert m.evaluate(Fraction(1, 2)) == 1
    reduced = parse_rational_function("(t^2-1)/(t-1)", "t")
    assert reduced.is_polynomial and reduced.num.degree() == 1


def test_rational_function_zero_denominator():
    with pytest.raises((ParseError, ZeroDivisionError)):
        parse_rational_function("t/0", "t")
    with pytest.raises((ParseError, ZeroDivisionError)):
        parse_rational_function("t/(t - t)", "t")


def test_render_rational_function():
    m = parse_rational_function("t/(1-t)", "t")
    text = render_rational_function(m)
    again = parse_rational_function(text, "t")
    assert again == m


def test_leading_negative_roundtrip():
    p = parse_polynomial("-x^3 + x", ["x"])
    assert render_polynomial(p) == "-x^3 + x"
    assert parse_polynomial(render_polynomial(p), ["x"]) == p


def test_division_binds_after_powers_in_both_modes():
    # '/' is one rule in both modes: 3/4^2 is 3/(4^2), not (3/4)^2.
    x = Polynomial.variable("x")
    assert parse_polynomial("3/4^2*x", ["x"]) == x * Fraction(3, 16)
    assert parse_rational_function("3/4^2*t", "t") == parse_rational_function("3*t/16", "t")
    assert parse_polynomial("1/2/3", ["x"]) == Fraction(1, 6)
    assert parse_polynomial("2^3/4", ["x"]) == 2


def test_render_parse_roundtrip_on_fractional_polynomials():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    coeff = st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 10**6))
    exps = st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5))

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.dictionaries(exps, coeff, max_size=8))
    def check(terms):
        p = Polynomial(("x", "y", "z"), terms)
        assert parse_polynomial(render_polynomial(p), ["x", "y", "z"]) == p

    check()


def test_printer_matches_the_fraction_reference():
    # Negative, unit, constant and fractional coefficients, against the
    # printer that takes magnitude, unit test and sign on the Fraction.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    units = st.sampled_from((Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2), Fraction(-7, 3)))
    coeff = st.one_of(units, st.builds(Fraction, st.integers(-(10**40), 10**40), st.integers(1, 10**12)))
    exps = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.dictionaries(exps, coeff, max_size=8), st.lists(coeff, max_size=5))
    def check(terms, coeffs):
        p = Polynomial(("x", "y", "z"), terms)
        assert render_polynomial(p) == fraction_render(p)
        u = UnivariatePolynomial("t", coeffs)
        assert render_polynomial(u) == fraction_render(u)

    check()
    # A coefficient past Python's digit limit for int-to-str conversion, on
    # versions that have one, fails alike.
    if getattr(sys, "get_int_max_str_digits", lambda: 0)():
        wide = Polynomial(("x",), {(1,): Fraction(-(10**5000), 3)})
        for render in (render_polynomial, fraction_render):
            with pytest.raises(ValueError, match="limit"):
                render(wide)
