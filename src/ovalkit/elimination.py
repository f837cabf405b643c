"""Sylvester resultants and iterated elimination.

Every determinant of a polynomial matrix, at every size, goes through one
exact engine, `det_interpolated`:

1. compile each entry once into (exponent tuple, int) pairs over the
   matrix's variables, clearing each row's denominators and keeping the
   product of the row multipliers;
2. at every point of an integer grid with (degree bound + 1) values per
   variable, evaluate the entries on ints;
3. take each grid determinant with integer Bareiss (`_bareiss`);
4. interpolate the integer values by tensor Newton divided differences,
   one variable at a time, and divide by the row multipliers once.

`resultant` tightens the grid with the Bezout bound on the resultant's
total degree. `det_bareiss` and `det_cofactor` work on polynomial entries
directly; no caller in the package uses them, and the tests compare the
engine against them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    Polynomial,
    squarefree_part,
    univariate_from_polynomial,
)
from .errors import DegenerateEliminantError, SylvesterSizeError

MAX_SYLVESTER_SIZE = 64


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


def sylvester_matrix(f: Polynomial, g: Polynomial, var: str) -> SylvesterMatrix:
    m = f.degree_in(var)
    n = g.degree_in(var)
    if f.is_zero or g.is_zero:
        raise ValueError("Sylvester matrix requires nonzero polynomials")
    if m < 0 or n < 0 or m + n < 1:
        raise ValueError(f"total degree in {var!r} must be at least 1")
    size = m + n
    if size > MAX_SYLVESTER_SIZE:
        raise SylvesterSizeError(
            f"Sylvester matrix {size}x{size} exceeds the supported {MAX_SYLVESTER_SIZE}x{MAX_SYLVESTER_SIZE}"
        )
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


def det_cofactor(rows) -> Polynomial:
    """Naive cofactor expansion; the small-matrix test oracle."""
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


def det_bareiss(rows) -> Polynomial:
    """Fraction-free Bareiss determinant over the polynomial ring; the
    test oracle for det_interpolated.

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
                m[i][j] = num if prev is None else num.exact_div(prev)
            m[i][k] = m[i][k] * 0
        prev = m[k][k]
    result = m[n - 1][n - 1]
    return result if sign > 0 else -result


def _bareiss(m: list[list[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free Bareiss
    elimination. m is overwritten; every division is exact.

    A row whose entry in the pivot column is zero is only multiplied by
    pivot/prev at that step. Those factors telescope, so such a row is
    left as it is and brought up to date the next time it is used:
    row i holds its values before step done[i], and pivots[k] is the
    divisor of step k (pivots[0] = 1).
    """
    n = len(m)
    sign = 1
    pivots = [1]
    done = [0] * n
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot_row = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if pivot_row is None:
                return 0
            m[k], m[pivot_row] = m[pivot_row], m[k]
            done[k], done[pivot_row] = done[pivot_row], done[k]
            sign = -sign
        prev = pivots[k]
        tail = m[k][k:]
        if done[k] < k:
            tail = [x * prev // pivots[done[k]] for x in tail]
        pivot = tail[0]
        for i in range(k + 1, n):
            row = m[i]
            if row[k]:
                rest = row[k:]
                if done[i] < k:
                    rest = [x * prev // pivots[done[i]] for x in rest]
                a = rest[0]
                row[k + 1 :] = [(pivot * x - a * y) // prev for x, y in zip(rest[1:], tail[1:])]
                done[i] = k + 1
        pivots.append(pivot)
    return sign * m[n - 1][n - 1] * pivots[n - 1] // pivots[done[n - 1]]


def _compile(rows, variables: tuple[str, ...]):
    """Integer form of a polynomial matrix.

    Returns (entries, cells, scale, bounds): the distinct entries as tuples
    of (exponent tuple over variables, int) pairs, cells[r][c] indexing
    them, the product of the row multipliers that clear each row's
    denominators (so det(rows) = det(integer matrix) / scale), and the
    row-sum degree bound of the determinant in each variable.
    """
    index = {v: i for i, v in enumerate(variables)}
    distinct: dict[tuple, int] = {}
    cells = []
    scale = 1
    bounds = [0] * len(variables)
    for row in rows:
        lcm = 1
        for entry in row:
            for c in entry.terms.values():
                lcm = math.lcm(lcm, c.denominator)
        scale *= lcm
        row_max = [0] * len(variables)
        row_cells = []
        for entry in row:
            pos = [index.get(v) for v in entry.vars]
            terms = []
            for exps, c in entry.terms.items():
                aligned = [0] * len(variables)
                for p, e in zip(pos, exps):
                    if e:
                        aligned[p] = e
                        row_max[p] = max(row_max[p], e)
                terms.append((tuple(aligned), int(c * lcm)))
            row_cells.append(distinct.setdefault(tuple(sorted(terms)), len(distinct)))
        bounds = [b + r for b, r in zip(bounds, row_max)]
        cells.append(row_cells)
    return list(distinct), cells, scale, bounds


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


def _at_first(entry: tuple, s: int) -> tuple:
    """Evaluate the first variable of a compiled entry at s."""
    out: dict[tuple[int, ...], int] = {}
    for exps, c in entry:
        rest = exps[1:]
        out[rest] = out.get(rest, 0) + c * s ** exps[0]
    return tuple(out.items())


def _newton(xs: list[int], ys: list[int]) -> list[int]:
    """Ascending coefficients of the polynomial through (xs[i], ys[i]).

    The values come from a polynomial with integer coefficients, whose
    divided differences at integer nodes are integers (those of t^k are
    complete symmetric polynomials in the nodes), so every division is
    exact.
    """
    dd = list(ys)
    n = len(xs)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) // (xs[i] - xs[i - j])
    coeffs = [dd[-1]]
    for i in range(n - 2, -1, -1):
        # coeffs * (t - xs[i]) + dd[i]
        coeffs = [dd[i] - xs[i] * coeffs[0]] + [
            a - xs[i] * b for a, b in zip(coeffs, coeffs[1:] + [0])
        ]
    return coeffs


def det_interpolated(rows, degree_cap: int | None = None) -> Polynomial:
    """Exact determinant of a polynomial matrix by grid evaluation and
    tensor Newton interpolation.

    Specializing entries commutes with taking determinants, so sampling
    every variable on (degree bound + 1) integers determines the
    determinant uniquely. The bound per variable is the sum over rows of
    the largest entry degree, lowered to degree_cap when given (a bound on
    the determinant's total degree known to the caller).
    """
    seen: dict[str, None] = {}
    for row in rows:
        for entry in row:
            used = entry.used_vars()
            seen.update((v, None) for v in entry.vars if v in used)
    variables = tuple(seen)
    entries, cells, scale, bounds = _compile(rows, variables)
    if degree_cap is not None:
        bounds = [min(b, degree_cap) for b in bounds]
    nodes = [_sample_values(b + 1) for b in bounds]
    values: dict[tuple[int, ...], int] = {}

    def walk(entries: list[tuple], point: tuple[int, ...]) -> None:
        if len(point) == len(nodes):
            scalars = [sum(c for _, c in e) for e in entries]
            values[point] = _bareiss([[scalars[j] for j in row] for row in cells])
            return
        for i, s in enumerate(nodes[len(point)]):
            walk([_at_first(e, s) for e in entries], point + (i,))

    walk(entries, ())
    # Interpolate one axis at a time: afterwards key[axis] is an exponent.
    coeffs = values
    for axis, xs in enumerate(nodes):
        fibers: dict[tuple[int, ...], list] = {}
        for key, v in coeffs.items():
            fibers.setdefault(key[:axis] + key[axis + 1 :], [0] * len(xs))[key[axis]] = v
        coeffs = {}
        for rest, ys in fibers.items():
            for e, c in enumerate(_newton(xs, ys)):
                if c:
                    coeffs[rest[:axis] + (e,) + rest[axis:]] = c
    return Polynomial(variables, {e: Fraction(c, scale) for e, c in coeffs.items()})


def resultant(f: Polynomial, g: Polynomial, var: str, strict: bool = True) -> Polynomial:
    """Resultant of f and g with respect to var (raw, unnormalized).

    An identically zero resultant means a common factor of positive degree
    in var; with strict=True that raises DegenerateEliminantError, with
    strict=False the zero polynomial is returned.
    """
    matrix = sylvester_matrix(f, g, var)
    # Bezout: with m, n the degrees in var and d, e the total degrees,
    # every term of the Sylvester determinant has total degree at most
    # n*d + m*e - m*n <= d*e, which bounds each remaining variable too.
    m, n = matrix.deg_f, matrix.deg_g
    cap = n * f.total_degree() + m * g.total_degree() - m * n
    det = det_interpolated(matrix.entries, cap)
    if det.is_zero and strict:
        raise DegenerateEliminantError(
            f"resultant in {var!r} vanished identically: the inputs share a factor"
        )
    return det


def primitive_squarefree(p: Polynomial, var: str) -> Polynomial:
    """Normalize an eliminant: remove rational content, fix the leading sign,
    and (when p is univariate) divide out repeated factors."""
    if p.is_zero:
        raise ValueError("cannot normalize the zero polynomial")
    used = p.used_vars()
    if len(used) <= 1:
        u = univariate_from_polynomial(p, next(iter(used)) if used else var)
        if u.degree() >= 1:
            u = squarefree_part(u)
        poly = u.to_polynomial()
        if u.var in p.vars:
            poly = poly.with_vars(p.vars)
        return poly.primitive_normalized()[0]
    return p.primitive_normalized()[0]
