import gc
import random
import sys
import tracemalloc
import types
from fractions import Fraction

import numpy as np
import pytest

from ovalkit import (
    Certificate,
    Polynomial,
    certify,
    RationalFunction,
    annihilation_residual,
    parse_certificate,
    parse_polynomial,
    pencil_certificate,
    quadrature,
    render_polynomial,
    serialize_certificate,
    verify_certificate,
    vertical_certificate,
)
from ovalkit.certify import MAX_VERIFY_LINES, LineSample
from ovalkit.cli import parse_curve_text
from ovalkit.errors import DeskScopeError
from ovalkit.quadrature import chord_area_function, free_inlet_function, slope_function

from conftest import square_boundary
from oracles import (
    assert_stored,
    fraction_cleanup,
    full_pass,
    pencil_inputs,
    pencil_provenance_system,
    scalar_residual,
    seeded_loops,
    serial_verify,
    sylvester_vertical,
    sylvester_vertical_inputs,
    vertical_provenance_system,
)


def test_pencil_certificate_cubic(cubic_centered, cubic_curve):
    cert = pencil_certificate(cubic_centered)
    assert not cert.q.is_zero
    assert cert.roles == {"S": "area", "m": "slope"}
    report = verify_certificate(cert, cubic_curve, n_samples=50, tol=1e-6)
    assert report.passed, report.max_relative_residual


def test_pencil_certificate_quartic(quartic_centered, quartic_curve):
    cert = pencil_certificate(quartic_centered)
    report = verify_certificate(cert, quartic_curve, n_samples=50, tol=1e-6)
    assert report.passed, report.max_relative_residual


def test_pencil_certificate_free_inlet_variant(cubic_centered):
    cert = pencil_certificate(cubic_centered, area="free_inlet")
    assert not cert.q.is_zero
    res = annihilation_residual(
        cert,
        {
            "S": RationalFunction(free_inlet_function(cubic_centered)),
            "m": slope_function(cubic_centered),
        },
    )
    assert res.num.is_zero


def test_pencil_certificate_refuses_a_curve_of_zero_area(monkeypatch):
    # Collinear control points retrace a segment, so both area functions
    # are 0 at the interval's end and the pencil is refused as `area` refuses
    # the curve, before any elimination. The vertical relation S^6 = 0 holds
    # there: every vertical segment has area 0.
    from ovalkit import elimination
    from ovalkit.curves import Point, validate_centered
    from ovalkit.errors import DegenerateCurveError

    cp = validate_centered(parse_curve_text("bezier (0,0) (1,-1) (2,-2) (0,0)"), Point(0, 0))

    def refuse(*args):
        raise AssertionError("elimination started")

    with monkeypatch.context() as mp:
        mp.setattr(elimination, "_resultant", refuse)
        mp.setattr(elimination, "_sample_values", refuse)
        for area in ("chord", "free_inlet"):
            with pytest.raises(DegenerateCurveError, match="zero signed area"):
                pencil_certificate(cp, area=area)
    assert vertical_certificate(cp).q == parse_polynomial("S^6", ["S", "c"])


def test_pencil_elimination_linear_construction():
    # Degree-1 area and slope expressions eliminate to a certificate that
    # is linear in both S and m.
    from ovalkit.elimination import resultant

    e_S = parse_polynomial("S - t - 1", ["S", "t"])
    e_m = parse_polynomial("m - 2*t", ["m", "t"])
    q = resultant(e_S, e_m, "t")
    assert q.degree_in("S") == 1 and q.degree_in("m") == 1
    for t0 in (0, 1, 2):
        assert q.evaluate({"S": Fraction(t0 + 1), "m": Fraction(2 * t0)}) == 0


def test_exact_annihilation(cubic_centered, quartic_centered):
    for cp in (cubic_centered, quartic_centered):
        cert = pencil_certificate(cp)
        res = annihilation_residual(
            cert,
            {
                "S": RationalFunction(chord_area_function(cp)),
                "m": slope_function(cp),
            },
        )
        assert res.num.is_zero


def test_scale_invariance_of_verification(cubic_centered, cubic_curve):
    cert = pencil_certificate(cubic_centered)
    scaled = Certificate(cert.q * Fraction(7, 3), cert.roles, cert.provenance)
    r1 = verify_certificate(cert, cubic_curve, n_samples=20, tol=1e-6)
    r2 = verify_certificate(scaled, cubic_curve, n_samples=20, tol=1e-6)
    assert r1.passed == r2.passed


def test_provenance_records_removed_content(cubic_centered):
    from ovalkit.elimination import resultant

    cert = pencil_certificate(cubic_centered)
    e_S, e_m = pencil_inputs(cubic_centered)
    raw = resultant(e_S, e_m, cubic_centered.curve.var)
    factor = Fraction(1)
    for f in cert.provenance.removed_factors:
        factor *= Fraction(f)
    assert cert.q * factor == raw


PENCIL_GOLDEN = {
    ("cubic", "chord"): (
        "20*S*m^5 - 3*m^5 + 100*S*m^4 - 15*m^4 + 200*S*m^3 - 30*m^3 + 200*S*m^2 + 100*S*m + 20*S",
        ("-9/10*t^5 + 9/4*t^4 - 3/2*t^3 + S", "m*t + t - m"),
        ("-1/20",),
    ),
    ("cubic", "free_inlet"): (
        "20*S*m^5 - 3*m^5 + 100*S*m^4 - 15*m^4 + 200*S*m^3 - 30*m^3 + 200*S*m^2 + 30*m^2"
        " + 100*S*m + 15*m + 20*S + 3",
        ("-9/5*t^5 + 9/2*t^4 - 3*t^3 + S + 3/20", "m*t + t - m"),
        ("-1/20",),
    ),
    ("quartic", "chord"): (
        "44100*S^2*m^7 - 26880*S*m^7 - 14700*S*m^4 + 4480*m^4 - 6720*m^3 - 17640*S*m^2"
        " + 5376*m^2 - 1575*m - 3150*S + 960",
        ("-1/14*t^7 + 1/10*t^5 + 1/6*t^3 - 1/2*t + S - 32/105", "m*t^2 - t - m"),
        ("1/44100",),
    ),
    ("quartic", "free_inlet"): (
        "11025*S^2*m^7 - 4096*m^7 - 7350*S*m^4 - 6720*m^3 - 8820*S*m^2 - 1575*m - 1575*S",
        ("-1/7*t^7 + 1/5*t^5 + 1/3*t^3 - t + S", "m*t^2 - t - m"),
        ("1/11025",),
    ),
}


def test_pencil_certificates_golden_text(cubic_centered, quartic_centered):
    curves = {"cubic": cubic_centered, "quartic": quartic_centered}
    for (name, area), (q, inputs, removed) in PENCIL_GOLDEN.items():
        cert = pencil_certificate(curves[name], area=area)
        assert serialize_certificate(cert) == f"{q}\nroles: S=area m=slope\n"
        assert cert.q.vars == ("S", "m")
        assert cert.provenance == certify.Provenance(inputs, ("t",), removed)


def test_pencil_certificate_never_calls_resultant(cubic_centered, quartic_centered, monkeypatch):
    import ovalkit.elimination as elimination

    def refuse(*args, **kwargs):
        raise AssertionError("resultant called")

    monkeypatch.setattr(elimination, "resultant", refuse)
    monkeypatch.setattr(certify, "resultant", refuse, raising=False)
    for cp in (cubic_centered, quartic_centered):
        for area in ("chord", "free_inlet"):
            assert pencil_certificate(cp, area=area).q.degree_in("S") >= 1


@pytest.fixture(scope="module")
def quartic_vertical_cert(quartic_centered):
    return vertical_certificate(quartic_centered)


def _vertical_build(cp):
    """The vertical certificate of cp and the sizes of the multiplication
    matrices whose characteristic polynomials it took."""
    import ovalkit.elimination as elimination

    sizes = []
    charpoly = elimination._berkowitz

    def recording(m):
        sizes.append((len(m), len(m[0])))
        return charpoly(m)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(elimination, "_berkowitz", recording)
        cert = vertical_certificate(cp)
    return cert, sizes


@pytest.fixture(scope="module")
def cubic_vertical_build(cubic_centered):
    return _vertical_build(cubic_centered)


def test_vertical_certificate_cubic(cubic_centered, cubic_curve):
    cert = vertical_certificate(cubic_centered)
    assert cert.roles == {"S": "area", "c": "abscissa"}
    report = verify_certificate(cert, cubic_curve, n_samples=20, tol=1e-6)
    assert report.passed, report.max_relative_residual


def test_vertical_certificate_quartic(quartic_vertical_cert, quartic_curve):
    # Even x-component: both intersection parameters come from the same g.
    report = verify_certificate(quartic_vertical_cert, quartic_curve, n_samples=20, tol=1e-6)
    assert report.passed, report.max_relative_residual


def test_vertical_certificate_consistency_with_exact_areas(quartic_vertical_cert, quartic_centered):
    cert = quartic_vertical_cert
    from ovalkit.quadrature import vertical_segment_area

    for t2 in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
        S = vertical_segment_area(quartic_centered, -t2, t2).signed_value
        c = quartic_centered.curve.g.evaluate(t2)
        value = cert.q.evaluate({"S": S, "c": c})
        assert value == 0


def test_vertical_certificate_cubic_shape(cubic_vertical_build, quartic_centered):
    # Eliminating against the divided difference (g(t1) - g(t2))/(t1 - t2)
    # drops the whole-oval diagonal t1 = t2 and its spurious factor 20*S - 3.
    # The quotient Q(c)[t1, t2]/(D, g(t2) - c) has dimension d(d - 1); its
    # swap-invariant half has dimension C(d, 2), so the multiplication
    # matrix is 3x3 for the cubic and 6x6 for the quartic, taken once at
    # the one Kronecker node c = 2^k.
    cert, sizes = cubic_vertical_build
    assert sizes == [(3, 3)]
    assert _vertical_build(quartic_centered)[1] == [(6, 6)]
    q = cert.q
    assert len(q.terms) == 27
    assert (q.degree_in("S"), q.degree_in("c")) == (6, 10)
    assert not q.subs("S", Fraction(3, 20)).is_zero  # total area 3/20


def test_vertical_certificate_cubic_is_irreducible(cubic_vertical_build):
    sympy = pytest.importorskip("sympy")
    q = cubic_vertical_build[0].q
    symbols = sympy.symbols(q.vars)
    expr = sympy.Add(
        *(
            sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(s**e for s, e in zip(symbols, exps)))
            for exps, c in q.terms.items()
        )
    )
    _, factors = sympy.factor_list(expr, *symbols)
    assert [m for _, m in factors] == [1]


def test_vertical_certificate_quartic_drops_whole_oval(quartic_vertical_cert):
    # 64/105 is the quartic's total area, the diagonal's spurious root.
    assert not quartic_vertical_cert.q.subs("S", Fraction(64, 105)).is_zero


def test_vertical_certificate_matches_sylvester_on_fixtures(
    cubic_vertical_build, cubic_centered, quartic_vertical_cert, quartic_centered
):
    cubic = cubic_vertical_build[0].q
    assert cubic == sylvester_vertical(cubic_centered)
    quartic = quartic_vertical_cert.q
    assert quartic == sylvester_vertical(quartic_centered)
    assert len(quartic.terms) == 112
    assert (quartic.degree_in("S"), quartic.degree_in("c")) == (12, 21)


def test_vertical_certificate_is_symmetric_about_the_total_area(cubic_centered, quartic_centered):
    # Swapping t1 and t2 maps S to 2A - S, A the signed total area (the
    # vertical segment with t1 = t2 is the whole oval), so Q(2A - S, c) is
    # Q(S, c) exactly.
    from ovalkit.curves import Point, validate_centered
    from ovalkit.quadrature import vertical_segment_area

    ends = "x=(t-1/3)*(2/3-t)*(3+t); y=(t-1/3)^2*(2/3-t); t in [1/3,2/3]"
    cps = [cubic_centered, quartic_centered, validate_centered(parse_curve_text(ends), Point(0, 0))]
    cps += seeded_loops(89, 5, 1)
    for cp in cps:
        q = vertical_certificate(cp).q
        lo = cp.curve.interval.lo
        A = vertical_segment_area(cp, lo, lo).signed_value
        assert q.subs("S", 2 * A - Polynomial.variable("S")) == q
    assert cps[-1].curve.g.as_univariate().degree() == 5


def test_vertical_certificate_matches_sylvester_on_seeded_loops():
    for cp in seeded_loops(61, 3, 12) + seeded_loops(67, 4, 2):
        assert vertical_certificate(cp).q == sylvester_vertical(cp)


def _for_random_parametrizations(check) -> None:
    """Run check(cp) on 25 centered parametrizations with random polynomial
    g of degree 2 to 4 and f of degree 1 to 3, with small rational
    coefficients. They need not be closed loops: any such g and f give P
    and R."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    from ovalkit import Interval, UnivariatePolynomial
    from ovalkit.curves import CenteredParametrization, ParametricCurve, Point

    @st.composite
    def polys(draw, low, high):
        degree = draw(st.integers(low, high))
        coeffs = draw(st.lists(st.integers(-4, 4), min_size=degree, max_size=degree))
        coeffs.append(draw(st.integers(-4, 4).filter(bool)))
        den = draw(st.integers(1, 3))
        return UnivariatePolynomial("t", [Fraction(c, den) for c in coeffs])

    @hypothesis.settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @hypothesis.given(polys(2, 4), polys(1, 3))
    def run(g, f):
        curve = ParametricCurve(RationalFunction(g), RationalFunction(f), Interval(0, 1))
        check(CenteredParametrization(curve, Point(g.evaluate(0), f.evaluate(0))))

    run()


def test_vertical_certificate_matches_sylvester_on_random_parametrizations():
    # The identity needs no closed loop: P, R and the same eliminant by
    # both routes.
    def check(cp):
        assert vertical_certificate(cp).q == sylvester_vertical(cp)

    _for_random_parametrizations(check)


def _kronecker_read(cp, extra_bits: int) -> tuple[int, int, list[int], Polynomial]:
    """Run vertical_certificate with its Kronecker width raised by
    extra_bits. Returns the width k it chose, its bound N on Q's degree in
    c (it reads at most N + 1 digits), every digit it read, and Q."""
    import ovalkit.elimination as elimination

    seen = {"digits": []}
    width, digits = elimination._kronecker_width, elimination._digits

    def wider(*args):
        seen["width"] = width(*args)
        return seen["width"] + extra_bits

    def recording(value, k, count):
        seen["count"] = count
        out = digits(value, k, count)
        seen["digits"] += out
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(elimination, "_kronecker_width", wider)
        mp.setattr(elimination, "_digits", recording)
        q = vertical_certificate(cp).q
    return seen["width"], seen["count"] - 1, seen["digits"], q


def _node_bound(cp) -> tuple[int, int]:
    """Check the vertical eliminant's Kronecker width k: read at width 2k,
    the digits are Q's integer coefficients whenever those are below
    2^(2k-1), and 2^(k-1) must exceed them all. Returns the bound N and
    Q's actual degree in c."""
    k, bound, _, q = _kronecker_read(cp, 0)
    _, _, digits, wide = _kronecker_read(cp, k)
    assert wide == q
    assert max(map(abs, digits)) < 2 ** (k - 1)
    return bound, q.degree_in("c")


def test_vertical_node_bound_covers_the_degree_in_c(cubic_centered, quartic_centered):
    from ovalkit.curves import Point, validate_centered

    assert _node_bound(cubic_centered) == (10, 10)
    assert _node_bound(quartic_centered) == (21, 21)
    # deg g = 5, beyond the fixtures and the seeded loops.
    quintic = validate_centered(parse_curve_text("x=t*(1-t)*(2+t^3); y=t^2*(1-t); t in [0,1]"), Point(0, 0))
    bound, degree = _node_bound(quintic)
    assert bound >= degree
    loops = seeded_loops(61, 3, 12) + seeded_loops(67, 4, 2)
    bounds = [_node_bound(cp) for cp in loops]
    assert all(bound >= degree for bound, degree in bounds), bounds

    def check(cp):
        bound, degree = _node_bound(cp)
        assert bound >= degree

    _for_random_parametrizations(check)


def test_vertical_provenance_inputs_are_the_rendered_system(cubic_centered, quartic_centered):
    for cp in (cubic_centered, quartic_centered):
        cert = vertical_certificate(cp)
        e1, D, e_c, _, _ = sylvester_vertical_inputs(cp)
        assert cert.provenance.inputs == (render_polynomial(e1), render_polynomial(D), render_polynomial(e_c))


def test_provenance_inputs_render_the_term_by_term_systems(cubic_centered, quartic_centered):
    # Both builders render their inputs from (exponents, numerator,
    # denominator) terms; the text is that of the systems built through the
    # Polynomial constructor, also for a retraced arc with fractional
    # coefficients, where P_0 + R_0 = 0 leaves e1 without a constant term.
    from ovalkit.curves import Point, validate_centered

    def centered(text):
        return validate_centered(parse_curve_text(text), Point(0, 0))

    fractional = centered("x=3/7*(1-t)^2*t; y=5/3*(1-t)*t^2; t in [0,1]")
    retraced = centered("x=(t-1)*(2-t)/3; y=((t-1)*(2-t))^2/2; t in [1,2]")
    P, R = quadrature.vertical_area_parts(retraced)
    assert P.coeffs[0] + R.coeffs[0] == 0 and P.coeffs[0] != 0
    assert (0, 0, 0) not in vertical_provenance_system(retraced)[0].terms
    loops = [cubic_centered, quartic_centered, fractional] + seeded_loops(61, 3, 6) + seeded_loops(67, 4, 2)
    for cp in loops + [retraced]:
        inputs = tuple(render_polynomial(p) for p in vertical_provenance_system(cp))
        assert vertical_certificate(cp).provenance.inputs == inputs
    for cp in loops:
        for area in ("chord", "free_inlet"):
            inputs = tuple(render_polynomial(p) for p in pencil_provenance_system(cp, area))
            assert pencil_certificate(cp, area).provenance.inputs == inputs


def test_vertical_certificate_degree_bound_in_c(cubic_centered, quartic_centered):
    # A Kronecker node 16 bits wider than vertical_eliminant takes, read
    # to three digits past the degree bound N, gives the same Q: no digit
    # at the usual width wraps into the next, the N + 1 digits the bound
    # admits are all read, and every digit past them is zero. Both Qs are
    # taken here, so a refused digit fails the test itself.
    import ovalkit.elimination as elimination

    cps = (cubic_centered, quartic_centered)
    usual = [vertical_certificate(cp).q for cp in cps]
    width, digits = elimination._kronecker_width, elimination._digits
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(elimination, "_kronecker_width", lambda *args: width(*args) + 16)
        mp.setattr(elimination, "_digits", lambda v, k, count: digits(v, k, count + 3))
        assert [vertical_certificate(cp).q for cp in cps] == usual


def test_vertical_certificate_records_charpoly_content(cubic_centered):
    from ovalkit.elimination import vertical_eliminant
    from ovalkit.quadrature import vertical_area_parts

    cert = vertical_certificate(cubic_centered)
    P, R = vertical_area_parts(cubic_centered)
    raw = vertical_eliminant(cubic_centered.curve.g.as_univariate(), P, R)
    (factor,) = cert.provenance.removed_factors
    assert cert.q * Fraction(factor) == raw
    assert cert.provenance.eliminated == ("t1", "t2")


def test_cleanup_matches_primitive_normalized():
    # Q, the removed factor and so its sign, from primitive_normalized on
    # the raw eliminant's stored form, against fraction_cleanup on its
    # Fractions.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    exps = st.tuples(st.integers(0, 6), st.integers(0, 6))
    coeff = st.integers(-(10**30), 10**30).filter(bool)
    # Common factors, so that the gcd is often more than 1.
    common = st.sampled_from((1, 2, 6, 7**9, 2**64 * 3))
    scale = st.builds(Fraction, st.integers(-(10**9), 10**9).filter(bool), st.integers(1, 10**9))

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.dictionaries(exps, coeff, min_size=1, max_size=10), common, scale)
    def check(terms, k, scale):
        raw = Polynomial(("S", "c"), {e: k * c * scale for e, c in terms.items()})
        q, prov = certify._cleanup(raw, ("t",), ())
        reference, removed = fraction_cleanup(raw)
        assert q == reference and q.vars == reference.vars
        assert prov.removed_factors == removed
        assert q * Fraction(removed[0] if removed else 1) == raw
        assert_stored(q)
        assert q.den == 1 and q.leading()[1] > 0

    check()


def test_vertical_certificate_graph_like_collapse():
    # g(t) = t has no off-diagonal pairs; validate_centered refuses it as
    # constant on a closed oval, and a hand-built open curve is refused by
    # the eliminant.
    from ovalkit.algebra import Interval
    from ovalkit.curves import CenteredParametrization, ParametricCurve, Point
    from ovalkit.parsing import parse_rational_function

    g = parse_rational_function("t", "t")
    f = parse_rational_function("t^2", "t")
    curve = ParametricCurve(g, f, Interval(Fraction(0), Fraction(1)))
    cp = CenteredParametrization(curve, Point(0, 0))
    with pytest.raises(ValueError, match="needs deg g >= 2"):
        vertical_certificate(cp)


def test_vertical_certificate_refuses_x_components_past_its_degree_limit():
    # deg g = 8 makes a 56-square multiplication matrix; it is refused
    # before any matrix is built.
    from ovalkit.curves import Point, validate_centered
    from ovalkit.elimination import MAX_VERTICAL_DEGREE

    loop = "bezier (0,0) (2,-2) (3,-2) (4,0) (4,0) (4,2) (3,2) (2,4) (0,0)"
    cp = validate_centered(parse_curve_text(loop), Point(0, 0))
    assert cp.curve.g.as_univariate().degree() == 8 > MAX_VERTICAL_DEGREE
    with pytest.raises(DeskScopeError, match="degree 8"):
        vertical_certificate(cp)


def test_trivial_certificate_fails(cubic_curve):
    q = parse_polynomial("S", ["S", "m"])
    cert = Certificate(q, {"S": "area", "m": "slope"})
    report = verify_certificate(cert, cubic_curve, n_samples=20, tol=1e-6)
    assert not report.passed


def test_verify_needs_a_finite_positive_tolerance(cubic_curve):
    # An infinite tolerance would pass every certificate, a negative or NaN
    # one none; each is refused before any line is measured.
    cert = Certificate(parse_polynomial("S", ["S", "m"]), {"S": "area", "m": "slope"})
    for tol in (float("inf"), float("nan"), -1.0, 0.0, -float("inf")):
        with pytest.raises(ValueError, match="tolerance must be finite and positive"):
            verify_certificate(cert, cubic_curve, n_samples=20, tol=tol)
    assert verify_certificate(cert, cubic_curve, n_samples=20, tol=1e300).passed


def test_certificate_requires_area_role():
    q = parse_polynomial("S + m", ["S", "m"])
    with pytest.raises(ValueError):
        Certificate(q, {"S": "slope", "m": "slope"})
    with pytest.raises(ValueError):
        Certificate(parse_polynomial("0", ["S"]), {"S": "area"})


def test_serialize_roundtrip(cubic_centered):
    cert = pencil_certificate(cubic_centered)
    text = serialize_certificate(cert)
    assert text.splitlines()[-1] == "roles: S=area m=slope"
    again = parse_certificate(text)
    assert again.q == cert.q
    assert dict(again.roles) == dict(cert.roles)


def test_general_line_verification_mechanics():
    # A hand-made exact relation for lines crossing the square's left and
    # right edges: the area above y = m*x + q is 1 - q - m/2.
    q = parse_polynomial("2*S + m + 2*q - 2", ["S", "m", "q"])
    cert = Certificate(q, {"S": "area", "m": "slope", "q": "intercept"})
    boundary = square_boundary(100_000)
    report = verify_certificate(
        cert,
        boundary,
        n_samples=25,
        tol=1e-6,
        windows={"slope": (0.05, 0.3), "intercept": (0.1, 0.5)},
    )
    assert report.passed, report.max_relative_residual


def test_residuals_are_those_of_polynomial_evaluate_float(cubic_centered, cubic_curve):
    # verify_certificate converts Q and the curve to floats once per call;
    # every residual must still equal, bit for bit, the one computed
    # through Polynomial.evaluate_float at the sampled values.
    def residual(cert, assignment):
        value, biggest = cert.q.evaluate_float(assignment)
        return abs(value) / max(1.0, biggest)

    for cert in (pencil_certificate(cubic_centered), vertical_certificate(cubic_centered)):
        line_var = next(v for v, r in cert.roles.items() if r != "area")
        report = verify_certificate(cert, cubic_curve, n_samples=20)
        for sample in report.samples:
            # Chords are (f, -g, 0) and verticals (1, 0, -c), up to sign;
            # both divisions below are exact, with or without the flip.
            a, b, c = sample.line
            value = a / -b if cert.roles[line_var] == "slope" else -c / a
            assert sample.residual == residual(cert, {line_var: value, "S": sample.area})
    q = parse_polynomial("(2*S + m + 2*q - 2)*(2*m*S - (1 - q)^2)", ["S", "m", "q"])
    cert = Certificate(q, {"S": "area", "m": "slope", "q": "intercept"})
    report = verify_certificate(cert, square_boundary(10_000), n_samples=20)
    for sample in report.samples:
        m, _, q0 = sample.line
        assert sample.residual == residual(cert, {"m": m, "q": q0, "S": sample.area})


def test_vertical_lines_use_curve_evaluate_float(cubic_centered, cubic_curve):
    # The abscissae come from the curve's coefficients converted once per
    # call; they must equal RationalFunction.evaluate_float bit for bit.
    import random

    from ovalkit.certify import _window

    report = verify_certificate(vertical_certificate(cubic_centered), cubic_curve, n_samples=20, seed=3)
    rng = random.Random(3)
    lo, hi = _window(cubic_curve.interval)
    for sample in report.samples:
        a, _, c = sample.line
        assert -c / a == cubic_curve.g.evaluate_float(rng.uniform(lo, hi))


def test_held_report_is_small_and_rebuilds_its_samples(cubic_centered, cubic_curve):
    cert = pencil_certificate(cubic_centered)
    first = verify_certificate(cert, cubic_curve, n_samples=50)
    tracemalloc.start()
    try:
        reports = [verify_certificate(cert, cubic_curve, n_samples=50) for _ in range(10)]
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held / len(reports) < 3000, held
    report = reports[0]
    # What a report holds: five floats per line in one array, and the
    # report object itself.
    assert sys.getsizeof(report.values) + sys.getsizeof(report) <= 8 * 5 * 50 + 200
    assert all(r == first for r in reports)
    # Each read rebuilds the LineSamples from the stored floats, with the
    # areas those of the full-pass reference.
    samples = report.samples
    assert samples == first.samples
    assert len(samples) == 50 and all(type(s) is LineSample for s in samples)
    areas = quadrature._clipped_areas(cubic_curve, quadrature.ORACLE_SAMPLES)
    for s in samples:
        assert all(type(v) is float for v in (*s.line, s.area, s.residual))
        assert s.area == full_pass(areas, s.line)[0]
    assert report.max_relative_residual == max(s.residual for s in samples)
    assert report.oracle_error == max(full_pass(areas, s.line)[1] for s in samples) > 0.0


def test_held_certificates_of_one_curve_share_q(cubic_centered, quartic_centered):
    first = vertical_certificate(cubic_centered)
    tracemalloc.start()
    try:
        certs = [vertical_certificate(cubic_centered) for _ in range(10)]
        gc.collect()  # also empties the free lists that the elimination filled
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Each held certificate keeps its own small object and role map; Q's
    # terms are kept once.
    assert held / len(certs) < 600, held
    assert all(c == first and c.q is first.q and c.provenance is first.provenance for c in certs)
    pencil = pencil_certificate(cubic_centered)
    assert pencil_certificate(cubic_centered).q is pencil.q
    assert vertical_certificate(quartic_centered).q != first.q


def test_verify_refuses_more_lines_than_its_limit(cubic_centered, cubic_curve):
    cert = pencil_certificate(cubic_centered)
    with pytest.raises(DeskScopeError):
        verify_certificate(cert, cubic_curve, n_samples=MAX_VERIFY_LINES + 1)


def test_verify_chord_draws_are_bounded():
    # x(t) vanishes on the whole window, so no chord through the origin
    # has a finite slope; the draws stop after 100 per requested line.
    cert = parse_certificate("S - m\nroles: S=area m=slope")
    for text in ("x=0; y=t^2-t; t in [0,1]", "x=t/1000000000000; y=t^2-t; t in [0,1]"):
        with pytest.raises(ValueError, match="finite slope"):
            verify_certificate(cert, parse_curve_text(text), n_samples=10)


def test_verify_chord_draws_stop_after_100_per_requested_line(monkeypatch):
    draws = []

    class CountingRandom(random.Random):
        def uniform(self, a, b):
            draws.append((a, b))
            return super().uniform(a, b)

    monkeypatch.setattr(certify, "random", types.SimpleNamespace(Random=CountingRandom))
    cert = parse_certificate("S - m\nroles: S=area m=slope")
    for n in (10, 13):
        draws.clear()
        with pytest.raises(ValueError, match="could not sample enough chords of finite slope"):
            verify_certificate(cert, parse_curve_text("x=0; y=t^2-t; t in [0,1]"), n_samples=n)
        assert len(draws) == 100 * n


def test_verify_refuses_an_unsupported_role_combination(cubic_curve):
    cert = Certificate(parse_polynomial("S - q", ["S", "q"]), {"S": "area", "q": "intercept"})
    with pytest.raises(ValueError, match=r"unsupported role combination \['area', 'intercept'\]"):
        verify_certificate(cert, cubic_curve)


def test_verify_chords_and_verticals_need_a_parametric_curve():
    square = square_boundary(4000)
    for role, family in (("slope", "chord"), ("abscissa", "vertical-line")):
        cert = Certificate(parse_polynomial("S - c", ["S", "c"]), {"S": "area", "c": role})
        with pytest.raises(ValueError, match=f"^{family} sampling needs a parametric curve$"):
            verify_certificate(cert, square)


def test_line_samples_carry_no_instance_dict(cubic_centered, cubic_curve):
    report = verify_certificate(pencil_certificate(cubic_centered), cubic_curve, n_samples=10)
    assert not hasattr(report.samples[0], "__dict__")


SQUARE_Q = "(2*S + m + 2*q - 2)*(2*m*S - (1 - q)^2)"
# Windows where many general lines miss the unit square.
WIDE_WINDOWS = {"slope": (-3.0, 3.0), "intercept": (-1.5, 1.5)}


def test_verify_draws_equal_a_serial_reference_loop(cubic_centered, quartic_centered):
    # The lines are drawn as numpy columns and measured in one batch, and
    # the residuals are taken over the line table; every value of a report,
    # the sign of a zero included, must be that of a loop that takes one
    # line at a time: chords, vertical lines and general lines, on the
    # fixture curves, seeded loops and the unit square as a polygon.
    general = Certificate(parse_polynomial(SQUARE_Q, ["S", "m", "q"]), {"S": "area", "m": "slope", "q": "intercept"})
    cases = [(general, square_boundary(4000), None), (general, cubic_centered.curve, WIDE_WINDOWS)]
    for cp in (cubic_centered, quartic_centered):
        certs = (pencil_certificate(cp), pencil_certificate(cp, area="free_inlet"), vertical_certificate(cp))
        cases += [(cert, cp.curve, None) for cert in certs]
    cases += [(pencil_certificate(cp), cp.curve, None) for cp in seeded_loops(21, 3, 2)]
    for cert, boundary, windows in cases:
        for seed in (1, 7, 11):
            report = verify_certificate(cert, boundary, n_samples=30, seed=seed, windows=windows)
            rows, _ = serial_verify(cert, boundary, 30, seed, windows)
            assert report.values.tobytes() == np.array(rows).tobytes()
            assert report.max_relative_residual == max(row[4] for row in rows)


def test_verify_general_lines_equal_a_serial_reference_loop(monkeypatch):
    # Rejected candidates included: the draws come in rounds, but the
    # kept lines, their order and the number of draws are the serial ones.
    cert = Certificate(parse_polynomial(SQUARE_Q, ["S", "m", "q"]), {"S": "area", "m": "slope", "q": "intercept"})
    draws = []

    class CountingRandom(random.Random):
        def uniform(self, a, b):
            draws.append((a, b))
            return super().uniform(a, b)

    monkeypatch.setattr(certify, "random", types.SimpleNamespace(Random=CountingRandom))
    boundary = square_boundary(4000)
    rejected = 0
    for seed in (1, 2, 7):
        for windows in (None, WIDE_WINDOWS):
            expected, attempts = serial_verify(cert, boundary, 25, seed, windows, 4000)
            draws.clear()
            report = verify_certificate(cert, boundary, n_samples=25, seed=seed, windows=windows, oracle_samples=4000)
            assert report.values.tobytes() == np.array(expected).tobytes()
            assert len(draws) == 2 * attempts
            rejected += attempts - 25
    assert rejected > 25
    # A window that never cuts the square stops after 100 draws per line.
    draws.clear()
    with pytest.raises(ValueError, match="hitting the region"):
        verify_certificate(cert, boundary, n_samples=12, windows={"slope": (0.1, 0.2), "intercept": (5.0, 6.0)})
    assert len(draws) == 2 * 100 * 12


def test_residual_columns_equal_the_scalar_residual():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    exps = st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 3))
    # Coefficients of 10^300 make inf - inf, so NaN residuals are drawn too,
    # and values of +-10^100 make powers of degree 4 and up overflow.
    coeffs = st.fractions(-10**6, 10**6, max_denominator=50) | st.sampled_from([10**300, -(10**300)])
    values = st.floats(-50.0, 50.0) | st.sampled_from([1e100, -1e100])

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.dictionaries(exps, coeffs, min_size=1, max_size=12), st.lists(st.tuples(values, values, values), min_size=1, max_size=40))
    def check(terms, points):
        q = Polynomial(("S", "m", "q"), terms)
        hypothesis.assume(not q.is_zero)
        columns = dict(zip(("S", "m", "q"), np.array(points).T))
        got = certify._residuals(q, columns)
        residual = scalar_residual(q, ["m", "q", "S"])
        assert got.tobytes() == np.array([residual(m, q0, S) for S, m, q0 in points]).tobytes()

    check()


def test_a_nan_residual_fails_the_report(cubic_centered, cubic_curve):
    # 10^300 * m^100 * Q still annihilates the chord areas, but its terms
    # overflow, and inf - inf makes some residuals NaN. Python's max would
    # skip them; the report's maximum keeps them and fails.
    q = pencil_certificate(cubic_centered).q * parse_polynomial("10^300*m^100", ["S", "m"])
    report = verify_certificate(Certificate(q, {"S": "area", "m": "slope"}), cubic_curve, n_samples=50)
    residuals = [s.residual for s in report.samples]
    assert 0 < sum(r != r for r in residuals) < 50
    assert max(r for r in residuals if r == r) < 1e-6
    assert report.max_relative_residual != report.max_relative_residual
    assert not report.passed


def test_certificate_refuses_a_repeated_role_and_an_unassigned_variable():
    q = parse_polynomial("S - m - k", ["S", "m", "k"])
    with pytest.raises(ValueError, match="^role 'slope' is given to both 'm' and 'k'$"):
        Certificate(q, {"S": "area", "m": "slope", "k": "slope"})
    with pytest.raises(ValueError, match="^role 'slope' is given to both 'm' and 'k'$"):
        parse_certificate("S - m - k\nroles: S=area m=slope k=slope")
    with pytest.raises(ValueError, match="^variable 'k' of the certificate polynomial carries no role$"):
        Certificate(q, {"S": "area", "m": "slope"})
    # A variable that Q lists but does not use needs no role.
    Certificate(parse_polynomial("S - m", ["S", "m", "k"]), {"S": "area", "m": "slope"})


def test_oracle_error_is_the_largest_estimate_over_the_kept_lines(cubic_centered, cubic_curve):
    areas = quadrature._clipped_areas(cubic_curve, quadrature.ORACLE_SAMPLES)
    general = Certificate(parse_polynomial("S - m - q", ["S", "m", "q"]), {"S": "area", "m": "slope", "q": "intercept"})
    windows = {"slope": (-2.0, 2.0), "intercept": (-0.5, 0.5)}
    for cert in (pencil_certificate(cubic_centered), vertical_certificate(cubic_centered), general):
        report = verify_certificate(cert, cubic_curve, n_samples=20, windows=windows)
        assert report.oracle_error == max(full_pass(areas, s.line)[1] for s in report.samples)
        assert 0.0 < report.oracle_error < 1e-6
    # An even count is sampled as count + 1.
    assert verify_certificate(general, cubic_curve, n_samples=20, windows=windows, oracle_samples=4000) == report
    # A polygon is measured as it is.
    square = Certificate(parse_polynomial(SQUARE_Q, ["S", "m", "q"]), {"S": "area", "m": "slope", "q": "intercept"})
    assert verify_certificate(square, square_boundary(4000), n_samples=20).oracle_error == 0.0
