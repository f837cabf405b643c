"""Parse and print polynomial and rational-function expressions.

Grammar (infix, no implicit multiplication):

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' uint)?
    base   := uint | var | '(' expr ')' | '-' base

'/' binds like '*', from the left, after '^': 3/4^2 is 3/16. A rational
function may be divided by any nonzero one; a polynomial only by a nonzero
constant, so x/2 is a polynomial and x/(1-x) is refused.

Printing uses a fixed canonical term order (graded, descending), so equal
polynomials always render to the same string and render/parse round-trips.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .algebra import Polynomial, RationalFunction, UnivariatePolynomial, _monomial_key
from .errors import DeskScopeError, ParseError

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([-+*/^()]))")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

# Parentheses and unary minus signs each recurse; this keeps the deepest
# expression well inside Python's recursion limit.
MAX_NESTING_DEPTH = 100

# Expansion budget of "base ^ n" and of each product "lhs * rhs" (and
# "lhs / rhs" in rational mode), checked before expanding: total degree, an
# upper bound on the number of terms and on the coefficient size in bits.
# The largest powers inside it, such as (x+1)^500 or (x+y+1)^43, expand in
# under a second on a 2-core x86 machine; without it, (x+y+1)^400 or
# 7^30000000 runs for longer than 10 s, and a product of 120 factors
# (x+y+1) for about 6 s.
MAX_POWER_DEGREE = 500
MAX_POWER_TERMS = 1000
MAX_POWER_BITS = 10_000


def _size(value) -> tuple[int, int, int, set[str], int]:
    """Numerator and denominator degrees, term count, used variables and
    height of a parsed value.

    A polynomial's degree is its total degree and its denominator degree 0.
    The height, the larger of the common denominator L and the sum of the
    numerators' absolute values over it, bounds L and every numerator; a
    rational function counts the coefficients of its numerator and
    denominator together, over the lcm of their denominators.
    """
    if isinstance(value, RationalFunction):
        num, den = max(value.num.degree(), 0), value.den.degree()
        lcm = math.lcm(value.num.den, value.den.den)
        nums = [c * (lcm // p.den) for p in (value.num, value.den) for c in p.nums]
        variables = {value.var}
    else:
        num, den = max(value.total_degree(), 0), 0
        nums, lcm = list(value.nums.values()), value.den
        variables = value.used_vars()
    return num, den, len(nums), variables, max(sum(map(abs, nums)), lcm)


def _check_budget(what: str, pos: int, degree: int, variables: set[str], terms: int, bits: int) -> None:
    """Raise DeskScopeError if an expansion would pass the budget.

    terms is the caller's own bound; it is capped by the number of
    monomials of that degree in the variables.
    """
    k = len(variables)
    terms = min(terms, math.comb(degree + k, k))
    if degree > MAX_POWER_DEGREE or terms > MAX_POWER_TERMS or bits > MAX_POWER_BITS:
        raise DeskScopeError(
            f"{what} at position {pos} would expand to degree {degree}, up to {terms} terms and "
            f"{bits}-bit coefficients (limits {MAX_POWER_DEGREE}, {MAX_POWER_TERMS}, {MAX_POWER_BITS})"
        )


def _check_power(value, n: int, pos: int) -> None:
    """Raise DeskScopeError if value**n would pass the expansion budget."""
    num, den, t, variables, height = _size(value)
    # At most the multisets of n of the t terms; every numerator of
    # value**n is at most height^n over lcm^n. n is clipped so that a huge
    # exponent cannot overflow the float.
    terms = math.comb(t + n - 1, n) if t else 0
    bits = math.ceil(min(n, MAX_POWER_BITS + 1) * math.log2(height)) if height > 1 else 0
    _check_budget("power", pos, n * max(num, den), variables, terms, bits)


def _check_product(lhs, rhs, pos: int, quotient: bool = False) -> None:
    """Raise DeskScopeError if lhs * rhs (or lhs / rhs with quotient=True)
    would pass the expansion budget.

    The result's numerator and denominator degrees are at most
    (n1 + n2, d1 + d2) for a product and (n1 + d2, d1 + n2) for a
    quotient; the budget takes the larger.
    """
    n1, d1, t1, v1, h1 = _size(lhs)
    n2, d2, t2, v2, h2 = _size(rhs)
    if quotient:
        n2, d2 = d2, n2
    height = h1 * h2
    bits = math.ceil(math.log2(height)) if height > 1 else 0
    _check_budget("product", pos, max(n1 + n2, d1 + d2), v1 | v2, t1 * t2, bits)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", len(text) - len(stripped))
        if m.group(1) is not None:
            tokens.append(("num", m.group(1), m.start(1)))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2), m.start(2)))
        else:
            tokens.append(("op", m.group(3), m.start(3)))
        pos = m.end()
    return tokens


class _Parser:
    """Recursive-descent parser; values are Polynomial or RationalFunction."""

    def __init__(self, text: str, variables: tuple[str, ...], rational_var: str | None):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.vars = variables
        self.rational_var = rational_var
        self.depth = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, len(self.text))

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.take()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", pos)

    def _const(self, value: Fraction):
        if self.rational_var is not None:
            return RationalFunction.from_const(self.rational_var, value)
        return Polynomial.constant(value, self.vars)

    def _var_value(self, name: str, pos: int):
        if self.rational_var is not None:
            if name != self.rational_var:
                raise ParseError(f"undeclared variable {name!r}", pos)
            return RationalFunction(UnivariatePolynomial.identity(name))
        if name not in self.vars:
            raise ParseError(f"undeclared variable {name!r}", pos)
        return Polynomial.variable(name).with_vars(self.vars)

    def parse(self):
        value = self.expr()
        kind, val, pos = self.peek()
        if kind is not None:
            raise ParseError(f"unexpected {val!r}", pos)
        return value

    def expr(self):
        kind, val, _ = self.peek()
        negate = False
        if kind == "op" and val in "+-":
            self.take()
            negate = val == "-"
        value = self.term()
        if negate:
            value = -value
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.term()
                value = value - rhs if val == "-" else value + rhs
            else:
                return value

    def term(self):
        value = self.factor()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val == "*":
                self.take()
                rhs = self.factor()
                _check_product(value, rhs, pos)
                value = value * rhs
            elif kind == "op" and val == "/":
                self.take()
                rhs = self.factor()
                if (rhs.num if self.rational_var else rhs).is_zero:
                    raise ParseError("division by zero", pos)
                if self.rational_var is None and rhs.total_degree() > 0:
                    raise ParseError("a polynomial may only be divided by a constant", pos)
                # A polynomial over a constant c is its product with 1/c,
                # whose height is c's.
                _check_product(value, rhs, pos, quotient=True)
                value = value / rhs if self.rational_var else value * (1 / rhs.leading()[1])
            else:
                return value

    def factor(self):
        value = self.base()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.take()
            kind, val, pos = self.take()
            if kind != "num":
                raise ParseError("exponent must be a non-negative integer", pos)
            n = int(val)
            _check_power(value, n, pos)
            value = value**n
        return value

    def nested(self, parse, pos: int):
        self.depth += 1
        if self.depth > MAX_NESTING_DEPTH:
            raise DeskScopeError(
                f"expression nests deeper than {MAX_NESTING_DEPTH} levels (at position {pos})"
            )
        value = parse()
        self.depth -= 1
        return value

    def base(self):
        kind, val, pos = self.take()
        if kind == "num":
            return self._const(int(val))
        if kind == "name":
            return self._var_value(val, pos)
        if kind == "op" and val == "(":
            inner = self.nested(self.expr, pos)
            self.expect_op(")")
            return inner
        if kind == "op" and val == "-":
            return -self.nested(self.base, pos)
        raise ParseError("expected a number, variable or parenthesized expression", pos)


def _check_text(text: str) -> str:
    if not isinstance(text, str) or not text.strip():
        raise ParseError("empty expression")
    return text


def _check_vars(variables) -> tuple[str, ...]:
    vs = tuple(variables)
    if len(set(vs)) != len(vs):
        raise ParseError("duplicate variable names")
    for v in vs:
        if not _IDENT.match(v):
            raise ParseError(f"invalid variable name {v!r}")
    return vs


def parse_polynomial(text: str, variables) -> Polynomial:
    """Parse an expression into the canonical expanded polynomial."""
    vs = _check_vars(variables)
    value = _Parser(_check_text(text), vs, None).parse()
    return value.with_vars(vs)


def parse_rational_function(text: str, variable: str) -> RationalFunction:
    """Parse a ratio of polynomials in one variable, reduced to coprime form."""
    (var,) = _check_vars([variable])
    return _Parser(_check_text(text), (var,), var).parse()


def _monomial_text(variables, exps) -> str:
    parts = []
    for v, e in zip(variables, exps):
        if e == 1:
            parts.append(v)
        elif e > 1:
            parts.append(f"{v}^{e}")
    return "*".join(parts)


def render_polynomial(p) -> str:
    """Canonical text for a polynomial: graded order, descending. Each
    coefficient is written from its numerator and denominator in lowest
    terms, as str(Fraction) writes it, its sign joining the terms."""
    if isinstance(p, UnivariatePolynomial):
        p = p.to_polynomial()
    return _render_terms(p.vars, _lowest_terms(p.nums.items(), p.den))


def _lowest_terms(numerators, den: int, sign: int = 1) -> list[tuple]:
    """(key, sign * n, d) for each pair (key, c) of numerators with c
    nonzero, n/d being c/den in lowest terms, den positive."""
    return [(k, sign * c // (g := math.gcd(c, den)), den // g) for k, c in numerators if c]


def _render_terms(variables, terms) -> str:
    """`render_polynomial` of the polynomial over variables whose terms are
    the triples (exponents, numerator, denominator): distinct exponents and
    nonzero coefficients in lowest terms, with positive denominators."""
    pieces = []
    for exps, num, den in sorted(terms, key=lambda term: _monomial_key(term[0]), reverse=True):
        mono = _monomial_text(variables, exps)
        mag = f"{abs(num)}" if den == 1 else f"{abs(num)}/{den}"
        if not mono:
            body = mag
        elif mag == "1":
            body = mono
        else:
            body = f"{mag}*{mono}"
        pieces += (" - " if num < 0 else " + ", body)
    if not pieces:
        return "0"
    pieces[0] = "-" if pieces[0] == " - " else ""
    return "".join(pieces)


def _parenthesize(text: str) -> str:
    if " + " in text or " - " in text or text.startswith("-"):
        return f"({text})"
    return text


def render_rational_function(rf: RationalFunction) -> str:
    num = render_polynomial(rf.num.to_polynomial())
    if rf.is_polynomial:
        return num
    den = render_polynomial(rf.den.to_polynomial())
    return f"{_parenthesize(num)}/{_parenthesize(den)}"
