"""Newton polygon construction and fractional power-series expansion of
curve branches at the origin.

The expansion repeats the classical two-step procedure: read the leading
exponent and coefficient off a lower-hull edge, substitute
y -> y + c*x^gamma, and build a fresh polygon for the remainder. All
arithmetic happens on G(x, y) = F(x^N, y), whose x is the ramified
variable x^(1/N), with N fixed by the first selected edge; a branch that
would need a finer ramification is rejected rather than guessed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import (
    Polynomial,
    UnivariatePolynomial,
    _canonical,
    rational_roots,
    univariate_from_polynomial,
)
from .errors import BranchExpansionError, DeskScopeError, RamificationError

_COEFF_VAR = "c"

# Each term substitutes into a remainder that grows with the series, so
# the cost grows about as the square of the term count.
MAX_SERIES_TERMS = 100


@dataclass(frozen=True)
class SupportPoint:
    """Exponent pair (i, j) of a monomial x^i * y^j with nonzero coefficient."""

    i: int
    j: int


@dataclass(frozen=True)
class NewtonPolygonEdge:
    """One lower-hull edge of the exponent support.

    slope is the branch exponent gamma = delta_i / (-delta_j) > 0; the edge
    polynomial collects the coefficients of the support points lying on the
    edge, as a polynomial in the branch-coefficient unknown.
    """

    endpoints: tuple[SupportPoint, SupportPoint]
    slope: Fraction
    edge_polynomial: UnivariatePolynomial
    points: tuple[SupportPoint, ...] = field(default=())


def _check_xy(F: Polynomial) -> None:
    extra = F.used_vars() - {"x", "y"}
    if extra:
        raise ValueError(f"polynomial involves unexpected variables {sorted(extra)}")


def _support(F: Polynomial) -> dict[tuple[int, int], int]:
    """F's numerators, over its denominator F.den, keyed by the exponent
    pairs (i, j) of x^i * y^j."""
    _check_xy(F)
    ix = F.vars.index("x") if "x" in F.vars else None
    iy = F.vars.index("y") if "y" in F.vars else None
    out: dict[tuple[int, int], int] = {}
    for exps, c in F.nums.items():
        i = exps[ix] if ix is not None else 0
        j = exps[iy] if iy is not None else 0
        out[(i, j)] = c
    return out


def _lower_hull(points: list[tuple[int, int]]) -> list[tuple[int, int]]:
    pts = sorted(set(points))
    hull: list[tuple[int, int]] = []
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            cross = (x2 - x1) * (p[1] - y1) - (y2 - y1) * (p[0] - x1)
            if cross <= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def newton_polygon(F: Polynomial) -> list[NewtonPolygonEdge]:
    """Lower-left hull edges of the support of F(x, y), with their edge polynomials.

    Requires F nonzero with F(0,0) = 0. Edges are returned with strictly
    increasing branch exponents.
    """
    if F.is_zero:
        raise ValueError("Newton polygon of the zero polynomial")
    support = _support(F)
    if (0, 0) in support:
        raise ValueError("the origin is not on the curve: F(0,0) != 0")
    points = sorted(support)
    hull = _lower_hull(points)
    edges: list[NewtonPolygonEdge] = []
    for (i1, j1), (i2, j2) in zip(hull, hull[1:]):
        if j2 >= j1:
            break  # hull edges flatten out; no further branch edges
        gamma = Fraction(i2 - i1, j1 - j2)
        on_edge = [
            SupportPoint(i, j)
            for (i, j) in points
            if (j1 - j2) * (i - i1) + (i2 - i1) * (j - j1) == 0
            and min(i1, i2) <= i <= max(i1, i2)
        ]
        coeffs: dict[int, int] = {}
        for pt in on_edge:
            coeffs[pt.j] = support[(pt.i, pt.j)]
        edge_poly = _canonical(_COEFF_VAR, [coeffs.get(k, 0) for k in range(max(coeffs) + 1)], F.den)
        edges.append(
            NewtonPolygonEdge(
                endpoints=(SupportPoint(i1, j1), SupportPoint(i2, j2)),
                slope=gamma,
                edge_polynomial=edge_poly,
                points=tuple(on_edge),
            )
        )
    return edges


@dataclass(frozen=True)
class PuiseuxSeries:
    """Truncated fractional power series sum(coeff * x^exponent).

    Exponents share the ramification denominator N. truncation_order is the
    x-order of the first unresolved term; math.inf marks a series that is an
    exact root of its curve.
    """

    ramification: int
    terms: tuple[tuple[Fraction, Fraction], ...]  # (exponent, coefficient), ascending
    truncation_order: Fraction | float

    def __post_init__(self):
        exps = [e for e, _ in self.terms]
        if any(b <= a for a, b in zip(exps, exps[1:])):
            raise ValueError("series exponents must be strictly increasing")
        if any(e < 0 for e in exps):
            raise ValueError("series exponents must be non-negative")
        if any(not c for _, c in self.terms):
            raise ValueError("series coefficients must be nonzero")
        for e, _ in self.terms:
            if (e * self.ramification).denominator != 1:
                raise ValueError("exponent denominator does not divide the ramification")

    @property
    def is_exact(self) -> bool:
        return self.truncation_order == math.inf

    def evaluate_float(self, x: float) -> float:
        return sum(float(c) * x ** float(e) for e, c in self.terms)

    def as_ramified_polynomial(self) -> UnivariatePolynomial:
        """The series as a polynomial in u = x^(1/N)."""
        coeffs: dict[int, Fraction] = {}
        for e, c in self.terms:
            coeffs[int(e * self.ramification)] = c
        if not coeffs:
            return UnivariatePolynomial.zero("u")
        return UnivariatePolynomial("u", [coeffs.get(k, 0) for k in range(max(coeffs) + 1)])


def render_series(series: PuiseuxSeries) -> str:
    """Text form like 'x^(1/2) + 1/2*x - 1/8*x^(3/2)'."""
    if not series.terms:
        return "0"
    pieces = []
    for e, c in series.terms:
        if e == 0:
            body = str(abs(c))
        else:
            if e == 1:
                power = "x"
            elif e.denominator == 1:
                power = f"x^{e}"
            else:
                power = f"x^({e})"
            body = power if abs(c) == 1 else f"{abs(c)}*{power}"
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f" + {body}" if c > 0 else f" - {body}")
    return "".join(pieces)


def _branch_coefficient(edge: NewtonPolygonEdge) -> Fraction | None:
    """The nonzero rational root of the edge polynomial a branch goes on
    with: the smallest positive one, else the negative one nearest zero;
    None when there is no nonzero rational root."""
    roots = set(rational_roots(edge.edge_polynomial)) - {0}
    return min(roots, key=lambda r: (r < 0, abs(r)), default=None)


def _branch_term(edges: list[NewtonPolygonEdge], after: int, first: bool) -> tuple[Fraction, Fraction] | None:
    """Slope and branch coefficient of the first edge steeper than after
    that has a branch coefficient, positive when it is the first term."""
    for edge in edges:
        if edge.slope > after:
            coeff = _branch_coefficient(edge)
            if coeff is not None and not (first and coeff < 0):
                return edge.slope, coeff
    return None


def expand_branch(F: Polynomial, num_terms: int) -> PuiseuxSeries:
    """Expand the positive real branch of F(x, y) = 0 at the origin.

    Returns a series with num_terms nonzero terms (fewer only when the
    series terminates, in which case it is an exact root). The leading
    coefficient is chosen positive; every coefficient must be rational.
    """
    if num_terms < 1:
        raise ValueError("num_terms must be positive")
    if num_terms > MAX_SERIES_TERMS:
        raise DeskScopeError(f"{num_terms} series terms exceed the supported {MAX_SERIES_TERMS}")
    edges = newton_polygon(F)
    if not edges:
        raise BranchExpansionError("no Newton polygon edge admits a branch y(x)")
    leading = _branch_term(edges, 0, first=True)
    if leading is None:
        raise BranchExpansionError("no polygon edge has a positive rational branch coefficient")
    N = leading[0].denominator
    x, y = Polynomial.variable("x"), Polynomial.variable("y")
    # G(x, y) = F(x^N, y): the x of G is x^(1/N) on the curve.
    G = F.subs("x", x**N)
    terms: list[tuple[int, Fraction]] = []  # (exponent in G's x, coefficient)
    prev_exp = 0
    for round_no in range(num_terms):
        if G.subs("y", 0).is_zero:
            break  # the accumulated sum is an exact root
        # G(0, 0) = 0 holds on every round: F(0, 0) = 0 and every
        # substitution adds a term of positive x-degree.
        term = _branch_term(newton_polygon(G), prev_exp, first=round_no == 0)
        if term is None:
            raise BranchExpansionError(f"no edge with a rational branch coefficient at term {round_no + 1}")
        g, coeff = term
        if g.denominator != 1:
            raise RamificationError(
                f"branch requires ramification beyond 1/{N}"
                f" (edge exponent {g} in the ramified variable)"
            )
        prev_exp = int(g)
        terms.append((prev_exp, coeff))
        G = G.subs("y", y + x**prev_exp * coeff)
    tail = G.subs("y", 0)
    if tail.is_zero:
        order: Fraction | float = math.inf
    else:
        # Order of F(x, series) is the x-order of the constant-in-y part of G.
        tail_x = univariate_from_polynomial(tail, "x")
        k = next(i for i, cc in enumerate(tail_x.nums) if cc)
        order = Fraction(k, N)
    series_terms = tuple((Fraction(e, N), c) for e, c in terms)
    return PuiseuxSeries(ramification=N, terms=series_terms, truncation_order=order)


def residual_order(F: Polynomial, series: PuiseuxSeries):
    """Exact x-order of F(x, series(x)); math.inf when it vanishes identically.
    F may involve only x and y."""
    _check_xy(F)
    N = series.ramification
    u = Polynomial.variable("u")
    G = F.subs("x", u**N).subs("y", series.as_ramified_polynomial().to_polynomial())
    if G.is_zero:
        return math.inf
    gu = univariate_from_polynomial(G, "u")
    k = next(i for i, c in enumerate(gu.nums) if c)
    return Fraction(k, N)
