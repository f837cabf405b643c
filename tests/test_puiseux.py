import math
from fractions import Fraction

import pytest

from ovalkit import (
    Polynomial,
    expand_branch,
    implicitize,
    newton_polygon,
    parse_polynomial,
    render_series,
    residual_order,
)
from ovalkit.errors import BranchExpansionError, RamificationError
from ovalkit.puiseux import PuiseuxSeries, SupportPoint, _ramified

from oracles import assert_stored, seeded_loops


def F(text):
    return parse_polynomial(text, ["x", "y"])


def test_polygon_parabola_branch():
    edges = newton_polygon(F("y^2 - x"))
    assert len(edges) == 1
    edge = edges[0]
    assert edge.endpoints == (SupportPoint(0, 2), SupportPoint(1, 0))
    assert edge.slope == Fraction(1, 2)


def test_polygon_smooth_line():
    edges = newton_polygon(F("y - x"))
    assert len(edges) == 1
    assert edges[0].slope == 1


def test_polygon_quartic(quartic_poly):
    edges = newton_polygon(quartic_poly)
    slopes = [e.slope for e in edges]
    assert Fraction(1, 2) in slopes
    main = edges[slopes.index(Fraction(1, 2))]
    assert main.endpoints == (SupportPoint(0, 4), SupportPoint(2, 0))
    assert {(p.i, p.j) for p in main.points} >= {(0, 4), (1, 2), (2, 0)}


def test_polygon_requires_origin():
    with pytest.raises(ValueError):
        newton_polygon(F("y^2 - x + 1"))
    with pytest.raises(ValueError):
        newton_polygon(F("0"))


def test_hull_validity_every_support_point_on_or_above():
    polys = [
        F("y^2 - x"),
        F("y^4-2*x*y^2-x^3+x^2"),
        F("y^3 - x*y + x^5"),
        F("y^5 + x^2*y^2 - x^3*y + x^7"),
    ]
    for poly in polys:
        support = {}
        ix, iy = poly.vars.index("x"), poly.vars.index("y")
        for exps in poly.terms:
            support[(exps[ix], exps[iy])] = True
        for edge in newton_polygon(poly):
            (i1, j1), (i2, j2) = (edge.endpoints[0].i, edge.endpoints[0].j), (
                edge.endpoints[1].i,
                edge.endpoints[1].j,
            )
            for (i, j) in support:
                # positive normal direction: on or above the edge line
                assert (j1 - j2) * (i - i1) + (i2 - i1) * (j - j1) >= 0


def test_expand_two_terms(quartic_poly):
    s = expand_branch(quartic_poly, 2)
    assert s.terms == ((Fraction(1, 2), Fraction(1)), (Fraction(1), Fraction(1, 2)))


def test_expand_five_terms(quartic_poly):
    s = expand_branch(quartic_poly, 5)
    assert s.ramification == 2
    assert s.terms == (
        (Fraction(1, 2), Fraction(1)),
        (Fraction(1), Fraction(1, 2)),
        (Fraction(3, 2), Fraction(-1, 8)),
        (Fraction(2), Fraction(1, 16)),
        (Fraction(5, 2), Fraction(-5, 128)),
    )
    assert render_series(s) == "x^(1/2) + 1/2*x - 1/8*x^(3/2) + 1/16*x^2 - 5/128*x^(5/2)"


def _quartic_branch(n):
    # y^2 = x + x^(3/2) on the branch, so y = u*(1 + u)^(1/2) with u = x^(1/2):
    # the coefficient of x^((k+1)/2) is binomial(1/2, k).
    terms, b = [], Fraction(1)
    for k in range(n):
        terms.append((Fraction(k + 1, 2), b))
        b = b * (Fraction(1, 2) - k) / (k + 1)
    return tuple(terms)


def test_expand_quartic_closed_form(quartic_poly):
    for n in (10, 20):
        assert expand_branch(quartic_poly, n).terms == _quartic_branch(n)
    s = expand_branch(quartic_poly, 40)
    assert s.terms == _quartic_branch(40)
    assert residual_order(quartic_poly, s) == s.truncation_order == Fraction(45, 2)


def test_expand_apple_twenty_terms(apple_curve):
    # From the eighth term on, every edge polynomial is linear, with
    # coefficients too large to enumerate their divisors.
    from ovalkit import implicitize

    F_apple = implicitize(apple_curve)
    s = expand_branch(F_apple, 20)
    assert len(s.terms) == 20
    assert s.terms[:2] == ((Fraction(2), Fraction(5, 54)), (Fraction(3), Fraction(85, 2916)))
    assert residual_order(F_apple, s) == s.truncation_order


def test_expand_terminating_branch():
    for n in (1, 3, 7):
        s = expand_branch(F("y - x"), n)
        assert s.terms == ((Fraction(1), Fraction(1)),)
        assert s.is_exact


def test_expand_skips_edges_without_positive_leading_coefficient():
    # The slope-1 edge has only the coefficient -1; the branch continued is
    # y = x^2 on the slope-2 edge, and no later round picks -x.
    s = expand_branch(F("(y + x)*(y - x^2)"), 3)
    assert s.terms == ((Fraction(2), Fraction(1)),)
    assert s.is_exact


def test_expand_takes_the_smallest_positive_coefficient_first():
    # The slope-1 edge has the coefficients 1 and 2; the branch is y = x.
    s = expand_branch(F("(y - 2*x)*(y - x)"), 1)
    assert s.terms == ((Fraction(1), Fraction(1)),)


def test_expand_continues_with_the_negative_coefficient_nearest_zero():
    # After y = x the remaining edge has only the coefficients -1 and -2;
    # the branch continued is y = x - x^2.
    s = expand_branch(F("(y - x + x^2)*(y - x + 2*x^2)"), 3)
    assert s.terms == ((Fraction(1), Fraction(1)), (Fraction(2), Fraction(-1)))
    assert s.is_exact


def test_expand_skips_ramified_edges_it_would_not_pick():
    # The slope-1/3 edge of y^3 + x has only the coefficient -1, so it is
    # passed over like a slope-1 edge would be, not refused for needing
    # ramification; the branch continued is y = x^2.
    s = expand_branch(F("(y^3 + x)*(y - x^2)"), 3)
    assert s.terms == ((Fraction(2), Fraction(1)),)
    assert s.is_exact


def test_expand_cubic_node_branch_past_irrational_edge(cubic_poly):
    # At the cubic's node the slope-1/2 edge has only the irrational
    # coefficients +-sqrt(3); the branch tangent to the x-axis, y = x^2/3
    # + ..., is expanded instead of refused for ramification.
    s = expand_branch(cubic_poly, 8)
    assert s.ramification == 1
    assert s.terms[:2] == ((Fraction(2), Fraction(1, 3)), (Fraction(3), Fraction(1, 3)))
    assert residual_order(cubic_poly, s) == s.truncation_order == 11


def test_expand_rejects_irrational_leading_coefficient():
    with pytest.raises(BranchExpansionError):
        expand_branch(F("y^2 - 2*x^2"), 3)  # leading coefficient sqrt(2)


def test_expand_rejects_reramification():
    with pytest.raises(RamificationError):
        expand_branch(F("(y-x)^2 - x^3"), 3)  # second step needs x^(3/2)


def test_residual_order_two_terms(quartic_poly):
    s = expand_branch(quartic_poly, 2)
    assert residual_order(quartic_poly, s) > Fraction(3, 2)


def test_residual_order_exact_root():
    s = expand_branch(F("y - x"), 1)
    assert residual_order(F("y - x"), s) == math.inf


def test_residual_order_refuses_variables_other_than_x_and_y():
    # A u in F would merge with the series variable u = x^(1/N): y - u
    # would read as an exact root and y - x*u as order 1.
    s = expand_branch(F("y - x"), 1)
    for text in ("y - u", "y - x*u"):
        with pytest.raises(ValueError, match=r"unexpected variables \['u'\]"):
            residual_order(parse_polynomial(text, ["x", "y", "u"]), s)


def test_residual_order_empty_series():
    empty = PuiseuxSeries(ramification=1, terms=(), truncation_order=Fraction(0))
    assert residual_order(F("y^2 - x"), empty) == 1


def test_ramified_equals_the_substitution():
    # F(v^N, y) from the stored numerators against the substitution it
    # replaces, for F over (x, y) in either order and v in {x, u}.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    exps = st.tuples(st.integers(0, 6), st.integers(0, 6))
    coeffs = st.one_of(
        st.integers(-(10**20), 10**20).map(Fraction),
        st.builds(Fraction, st.integers(-99, 99), st.integers(1, 60)),
    )
    polys = st.dictionaries(exps, coeffs, max_size=10)

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(polys, st.sampled_from([("x", "y"), ("y", "x")]), st.integers(1, 4), st.sampled_from("xu"))
    def check(terms, order, N, name):
        ix, iy = order.index("x"), order.index("y")
        F = Polynomial(order, {tuple(e[k] for k in (ix, iy)): c for e, c in terms.items()})
        got = _ramified(F, N, name)
        assert got == F.subs("x", Polynomial.variable(name) ** N)
        assert got.vars == (name, "y")
        assert_stored(got)

    check()


def test_residual_order_equals_the_truncation_order(quartic_poly, apple_curve):
    # The quartic at 40 terms and the apple at 20 are checked above; the
    # node loops of seeded_loops(seed, 4, 1), seeds 1-4, all expand.
    cases = [(quartic_poly, (5, 20)), (implicitize(apple_curve), (5,))]
    cases += [(implicitize(seeded_loops(seed, 4, 1)[0].curve), (5, 20)) for seed in range(1, 5)]
    for F_, counts in cases:
        for n in counts:
            s = expand_branch(F_, n)
            assert residual_order(F_, s) == s.truncation_order


def test_monotone_refinement(quartic_poly):
    orders = [residual_order(quartic_poly, expand_branch(quartic_poly, n)) for n in range(1, 6)]
    assert all(b > a for a, b in zip(orders, orders[1:]))


def test_numeric_substitution_bound(quartic_poly):
    s = expand_branch(quartic_poly, 5)
    x0 = 1e-4
    y0 = s.evaluate_float(x0)
    value, _ = quartic_poly.evaluate_float({"x": x0, "y": y0})
    order = float(residual_order(quartic_poly, s))
    assert abs(value) <= 10.0 * x0**order


def test_smooth_point_matches_implicit_slope():
    # Nonzero linear y-part: ramification 1 and the first-order coefficient
    # equals -F_x/F_y at the origin.
    poly = F("y - 2*x + 3*x*y - 5*x^2")
    s = expand_branch(poly, 3)
    assert s.ramification == 1
    fx = poly.partial_derivative("x").evaluate({"x": 0, "y": 0})
    fy = poly.partial_derivative("y").evaluate({"x": 0, "y": 0})
    assert s.terms[0] == (Fraction(1), -fx / fy)
    assert residual_order(poly, s) > 3


def test_series_invariants_enforced():
    with pytest.raises(ValueError):
        PuiseuxSeries(2, ((Fraction(1), Fraction(1)), (Fraction(1, 2), Fraction(1))), Fraction(2))
    with pytest.raises(ValueError):
        PuiseuxSeries(2, ((Fraction(1, 3), Fraction(1)),), Fraction(2))


def test_render_series_edge_cases():
    s = PuiseuxSeries(1, ((Fraction(0), Fraction(3, 4)), (Fraction(2), Fraction(-1))), Fraction(3))
    assert render_series(s) == "3/4 - x^2"
    empty = PuiseuxSeries(1, (), Fraction(0))
    assert render_series(empty) == "0"

