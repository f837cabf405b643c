"""Newton polygon construction and fractional power-series expansion of
curve branches at the origin.

The expansion repeats the classical two-step procedure: read the leading
exponent and coefficient off a lower-hull edge, substitute
y -> c*x^gamma + z, and build a fresh polygon for the remainder. All
arithmetic happens in the ramified variable u = x^(1/N), with N fixed by
the first selected edge; a branch that would need a finer ramification is
rejected rather than guessed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import (
    Polynomial,
    UnivariatePolynomial,
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


def _support(F: Polynomial, x: str, y: str) -> dict[tuple[int, int], Fraction]:
    extra = F.used_vars() - {x, y}
    if extra:
        raise ValueError(f"polynomial involves unexpected variables {sorted(extra)}")
    ix = F.vars.index(x) if x in F.vars else None
    iy = F.vars.index(y) if y in F.vars else None
    out: dict[tuple[int, int], Fraction] = {}
    for exps, c in F.terms.items():
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


def newton_polygon(F: Polynomial, x: str = "x", y: str = "y") -> list[NewtonPolygonEdge]:
    """Lower-left hull edges of the support of F, with their edge polynomials.

    Requires F nonzero with F(0,0) = 0. Edges are returned with strictly
    increasing branch exponents.
    """
    if F.is_zero:
        raise ValueError("Newton polygon of the zero polynomial")
    support = _support(F, x, y)
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
        coeffs: dict[int, Fraction] = {}
        for pt in on_edge:
            coeffs[pt.j] = support[(pt.i, pt.j)]
        edge_poly = UnivariatePolynomial(
            _COEFF_VAR, [coeffs.get(k, 0) for k in range(max(coeffs) + 1)]
        )
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
    chosen: tuple[Fraction, Fraction] | None = None
    for edge in edges:
        coeff = _branch_coefficient(edge)
        if coeff is not None and coeff > 0:
            chosen = (edge.slope, coeff)
            break
    if chosen is None:
        raise BranchExpansionError(
            "no polygon edge has a positive rational branch coefficient"
        )
    gamma, c1 = chosen
    N = gamma.denominator
    u, z = "u", "z"
    # Move to the ramified variable: G(u, z) = F(u^N, z).
    G = F.rename_vars({"x": "_xx", "y": z})
    G = G.subs("_xx", Polynomial.variable(u) ** N)
    terms: list[tuple[int, Fraction]] = []  # (u-exponent, coefficient)
    prev_exp = 0
    for round_no in range(num_terms):
        if G.subs(z, 0).is_zero:
            break  # the accumulated sum is an exact root
        # G(0, 0) = 0 holds on every round: F(0, 0) = 0 and every
        # substitution adds a term of positive u-degree.
        picked = None
        for edge in newton_polygon(G, u, z):
            g = edge.slope
            if g <= prev_exp:
                continue
            coeff = _branch_coefficient(edge)
            if coeff is None or (round_no == 0 and coeff < 0):
                continue
            if g.denominator != 1:
                raise RamificationError(
                    f"branch requires ramification beyond 1/{N}"
                    f" (edge exponent {g} in the ramified variable)"
                )
            picked = (int(g), coeff)
            break
        if picked is None:
            raise BranchExpansionError(
                f"no edge with a rational branch coefficient at term {round_no + 1}"
            )
        g_int, coeff = picked
        terms.append((g_int, coeff))
        replacement = Polynomial.variable(z) + Polynomial.variable(u) ** g_int * coeff
        G = G.subs(z, replacement)
        prev_exp = g_int
    tail = G.subs(z, 0)
    if tail.is_zero:
        order: Fraction | float = math.inf
    else:
        # Order of F(x, series) is the u-order of the constant-in-z part.
        tail_u = univariate_from_polynomial(tail, u)
        k = next(i for i, cc in enumerate(tail_u.coeffs) if cc)
        order = Fraction(k, N)
    series_terms = tuple((Fraction(e, N), c) for e, c in terms)
    return PuiseuxSeries(ramification=N, terms=series_terms, truncation_order=order)


def residual_order(F: Polynomial, series: PuiseuxSeries):
    """Exact x-order of F(x, series(x)); math.inf when it vanishes identically."""
    N = series.ramification
    u = "u"
    ypoly = series.as_ramified_polynomial().to_polynomial()
    G = F.rename_vars({"x": "_xx", "y": "_yy"})
    G = G.subs("_yy", ypoly)
    G = G.subs("_xx", Polynomial.variable(u) ** N)
    if G.is_zero:
        return math.inf
    gu = univariate_from_polynomial(G, u)
    k = next(i for i, c in enumerate(gu.coeffs) if c)
    return Fraction(k, N)
