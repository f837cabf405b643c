"""Exact arithmetic backbone: rationals, sparse multivariate polynomials,
dense univariate polynomials, rational functions, Sturm counts, root
isolation and rational root extraction.

Every value is exact, and every polynomial stores one integer form:
integer numerators `nums` over one positive denominator `den` with
gcd(den, *nums) = 1. A multivariate Polynomial maps exponent tuples to
nonzero numerators, built by `_stored`; a UnivariatePolynomial keeps
ascending numerators with no trailing zero, built by `_canonical`. Their
Fraction coefficients are views, `terms` and `coeffs`, built only when
read. Sums, products, substitutions and values run on that form, and the
remainder sequence on integer lists behind `gcd_univariate` and
`sturm_chain` serves every univariate square-free, counting, isolation
and rational-root question. `_divide`, on integer lists, is the one
polynomial long division: rational functions are reduced by the last
element of the integer remainder sequence of their numerator and
denominator, and rational roots are divided out of the primitive integer
list of their polynomial. The exact areas (`quadrature._swept`), the
eliminants' inputs and results, the parser's expansion budget, the
printer and the certificates' provenance text read the same stored form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Iterable, Mapping, Sequence, Union

from .errors import EvaluationError

Scalar = Union[int, Fraction]


def as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def _monomial_key(exponents: tuple[int, ...]) -> tuple:
    # Graded order; ties broken on the exponents of later variables first,
    # which reproduces the conventional textbook printing y^4 - 2*x*y^2 - ...
    return (sum(exponents), exponents[::-1])


def _leading(nums: Mapping[tuple[int, ...], int]) -> tuple[int, ...]:
    """The greatest exponent tuple of nums under _monomial_key: among those
    of the top total degree, the greatest reversed. Each total is taken
    once."""
    sums = list(map(sum, nums))
    top = max(sums)
    return max(e[::-1] for e, s in zip(nums, sums) if s == top)[::-1]


def _signed_content(nums: Mapping[tuple[int, ...], int]) -> int:
    """The gcd of the nonzero integers nums, signed as the `_leading` term,
    so that dividing by it leaves them primitive with a positive leading
    term."""
    g = math.gcd(*nums.values())
    return g if nums[_leading(nums)] > 0 else -g


class Polynomial:
    """Sparse multivariate polynomial over the rationals, stored as the
    map nums from exponent tuples, aligned with the declared variable
    order vars, to nonzero integer numerators over one positive
    denominator den with gcd(den, *nums) = 1, built by `_stored`. Equal
    polynomials over the same variables have equal stored forms, and den
    is the least common denominator of the coefficients in lowest terms.
    Arithmetic, substitution and evaluation run on this form; `terms`
    builds the Fraction coefficients.

    >>> x, y = Polynomial.variable("x"), Polynomial.variable("y")
    >>> ((y**2 - x)**2 - x**3).total_degree()
    4
    """

    __slots__ = ("vars", "nums", "den")

    def __init__(self, variables: Sequence[str], terms: Mapping[tuple[int, ...], Scalar]):
        vs = tuple(variables)
        if len(set(vs)) != len(vs):
            raise ValueError("duplicate variable names")
        cleaned: dict[tuple[int, ...], Fraction] = {}
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if len(exps) != len(vs):
                raise ValueError("exponent tuple does not match variable count")
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent")
            cleaned[exps] = cleaned.pop(exps, 0) + as_fraction(coeff)
        nums, den = _numerators(list(cleaned.values()))
        stored = _stored(vs, dict(zip(cleaned, nums)), den)
        self.vars, self.nums, self.den = vs, stored.nums, stored.den

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, value, variables: Sequence[str] = ()) -> "Polynomial":
        value = as_fraction(value)
        vs = tuple(variables)
        return _stored(vs, {(0,) * len(vs): value.numerator}, value.denominator)

    @classmethod
    def variable(cls, name: str) -> "Polynomial":
        return _stored((name,), {(1,): 1}, 1)

    @classmethod
    def zero(cls, variables: Sequence[str] = ()) -> "Polynomial":
        return _stored(tuple(variables), {}, 1)

    # -- structure ----------------------------------------------------

    @property
    def terms(self) -> dict[tuple[int, ...], Fraction]:
        """The coefficients as Fractions, keyed by exponent tuples, built
        on each read."""
        return {e: Fraction(c, self.den) for e, c in self.nums.items()}

    @property
    def is_zero(self) -> bool:
        return not self.nums

    def total_degree(self) -> int:
        if not self.nums:
            return -1
        return max(sum(e) for e in self.nums)

    def degree_in(self, var: str) -> int:
        if var not in self.vars:
            return 0 if self.nums else -1
        if not self.nums:
            return -1
        i = self.vars.index(var)
        return max(e[i] for e in self.nums)

    def used_vars(self) -> set[str]:
        used = set()
        for exps in self.nums:
            for v, e in zip(self.vars, exps):
                if e:
                    used.add(v)
        return used

    def _normal(self) -> dict[frozenset, int]:
        return {frozenset((v, e) for v, e in zip(self.vars, exps) if e): c for exps, c in self.nums.items()}

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other, self.vars)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.den == other.den and self._normal() == other._normal()

    def __hash__(self):
        return hash((frozenset(self._normal().items()), self.den))

    def __bool__(self) -> bool:
        return bool(self.nums)

    def leading(self) -> tuple[tuple[int, ...], Fraction]:
        if not self.nums:
            raise ValueError("zero polynomial has no leading term")
        exps = _leading(self.nums)
        return exps, Fraction(self.nums[exps], self.den)

    # -- variable alignment -------------------------------------------

    def with_vars(self, variables: Sequence[str]) -> "Polynomial":
        """Re-express over a superset of variables (declared order given)."""
        vs = tuple(variables)
        missing = self.used_vars() - set(vs)
        if missing:
            raise ValueError(f"variables {sorted(missing)} would be dropped")
        index = {v: i for i, v in enumerate(vs)}
        pos = [index.get(v) for v in self.vars]
        nums: dict[tuple[int, ...], int] = {}
        for exps, c in self.nums.items():
            new = [0] * len(vs)
            for p, e in zip(pos, exps):
                if e:
                    new[p] = e
            nums[tuple(new)] = c
        return _stored(vs, nums, self.den)

    @staticmethod
    def _aligned(a: "Polynomial", b: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        if a.vars == b.vars:
            return a, b
        merged = list(a.vars) + [v for v in b.vars if v not in a.vars]
        return a.with_vars(merged), b.with_vars(merged)

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            return other
        return Polynomial.constant(as_fraction(other), self.vars)

    # -- ring operations ----------------------------------------------

    def __add__(self, other) -> "Polynomial":
        a, b = Polynomial._aligned(self, self._coerce(other))
        den = math.lcm(a.den, b.den)
        sa, sb = den // a.den, den // b.den
        nums = {e: c * sa for e, c in a.nums.items()}
        for exps, c in b.nums.items():
            s = nums.get(exps, 0) + c * sb
            if s:
                nums[exps] = s
            else:
                nums.pop(exps, None)
        return _stored(a.vars, nums, den)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return _stored(self.vars, {e: -c for e, c in self.nums.items()}, self.den)

    def __sub__(self, other) -> "Polynomial":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            k = as_fraction(other)
            return _stored(self.vars, {e: c * k.numerator for e, c in self.nums.items()}, self.den * k.denominator)
        a, b = Polynomial._aligned(self, self._coerce(other))
        nums: dict[tuple[int, ...], int] = {}
        for e1, c1 in a.nums.items():
            for e2, c2 in b.nums.items():
                key = tuple(map(add, e1, e2))
                s = nums.get(key, 0) + c1 * c2
                if s:
                    nums[key] = s
                else:
                    del nums[key]
        return _stored(a.vars, nums, a.den * b.den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        return _power(self, n, Polynomial.constant(1, self.vars))

    # -- calculus and evaluation ----------------------------------------

    def partial_derivative(self, var: str) -> "Polynomial":
        if var not in self.vars:
            raise ValueError(f"variable {var!r} not declared")
        i = self.vars.index(var)
        nums: dict[tuple[int, ...], int] = {}
        for exps, c in self.nums.items():
            if exps[i]:
                nums[exps[:i] + (exps[i] - 1,) + exps[i + 1 :]] = c * exps[i]
        return _stored(self.vars, nums, self.den)

    def evaluate(self, assignment: Mapping[str, Scalar]) -> Fraction:
        """The exact value: the sum of each integer numerator times its
        monomial's value, over den."""
        missing = self.used_vars() - set(assignment)
        if missing:
            raise EvaluationError(f"assignment missing variables {sorted(missing)}")
        vals = [as_fraction(assignment.get(v, 0)) for v in self.vars]
        total = sum(c * math.prod(x**e for x, e in zip(vals, exps) if e) for exps, c in self.nums.items())
        return Fraction(total, self.den)

    def evaluate_float(self, assignment: Mapping[str, float]) -> tuple[float, float]:
        """Float evaluation; returns (value, largest absolute monomial).
        Each coefficient is c/den, which equals float(Fraction(c, den)):
        int true division rounds correctly, and raises OverflowError beyond
        the float range."""
        total = 0.0
        biggest = 0.0
        for exps, c in self.nums.items():
            term = c / self.den
            for v, e in zip(self.vars, exps):
                if e:
                    term *= float(assignment[v]) ** e
            total += term
            biggest = max(biggest, abs(term))
        return total, biggest

    def subs(self, var: str, replacement) -> "Polynomial":
        """Substitute a polynomial (or scalar) for one variable, exactly.

        The result is over the remaining variables, then the replacement's
        new ones in its order. The replacement and the coefficients in var
        are put on those variables once, so Horner's rule runs on aligned
        polynomials."""
        if var not in self.vars:
            return self
        if isinstance(replacement, (int, Fraction)):
            replacement = Polynomial.constant(replacement)
        i = self.vars.index(var)
        rest = self.vars[:i] + self.vars[i + 1 :]
        if not self.nums:
            return Polynomial.zero(rest)
        merged = rest + tuple(v for v in replacement.vars if v not in rest)
        if replacement.vars != merged:
            replacement = replacement.with_vars(merged)
        # Coefficient k of var, with the replacement's new variables at 0.
        pad = (0,) * (len(merged) - len(rest))
        buckets: list[dict[tuple[int, ...], int]] = [dict() for _ in range(self.degree_in(var) + 1)]
        for exps, c in self.nums.items():
            buckets[exps[i]][exps[:i] + exps[i + 1 :] + pad] = c
        result = _stored(merged, buckets[-1], self.den)
        for b in reversed(buckets[:-1]):
            result = result * replacement + _stored(merged, b, self.den)
        return result

    # -- coefficient views ---------------------------------------------

    def coeffs_in(self, var: str) -> list["Polynomial"]:
        """Coefficients as polynomials in the remaining variables, ascending."""
        if var not in self.vars:
            return [self]
        i = self.vars.index(var)
        rest = tuple(v for j, v in enumerate(self.vars) if j != i)
        buckets: list[dict[tuple[int, ...], int]] = [dict() for _ in range(self.degree_in(var) + 1)]
        for exps, c in self.nums.items():
            buckets[exps[i]][exps[:i] + exps[i + 1 :]] = c
        return [_stored(rest, b, self.den) for b in buckets]

    # -- normalization --------------------------------------------------

    def content(self) -> Fraction:
        """Positive rational content (gcd of coefficients); 0 for the zero
        poly. gcd(den, *nums) = 1, so it is gcd(*nums)/den in lowest
        terms."""
        return Fraction(math.gcd(*self.nums.values()), self.den)

    def primitive_normalized(self) -> tuple["Polynomial", Fraction]:
        """Divide out the content and fix the canonical leading sign positive.

        Returns (normalized polynomial, removed factor) with
        self == normalized * factor. The normalized numerators, the stored
        ones divided by their gcd g, have gcd 1 over the denominator 1, so
        they are stored as they are, and the factor is +-g/den.
        """
        if not self.nums:
            return self, Fraction(1)
        g = _signed_content(self.nums)
        out = object.__new__(Polynomial)
        out.vars, out.nums, out.den = self.vars, {e: c // g for e, c in self.nums.items()}, 1
        return out, Fraction(g, self.den)

    def __repr__(self):
        from .parsing import render_polynomial

        return f"Polynomial({render_polynomial(self)!r})"


def _stored(variables: tuple[str, ...], nums: dict[tuple[int, ...], int], den: int) -> Polynomial:
    """The polynomial over variables with coefficients nums[e]/den, den
    nonzero, in its stored form: zero numerators dropped, and nums and den
    divided by gcd(den, *nums), signed so that den is positive. The
    multivariate twin of `_canonical`; nums is not kept."""
    g = math.gcd(den, *nums.values())
    if den < 0:
        g = -g
    out = object.__new__(Polynomial)
    out.vars, out.den = variables, den // g
    out.nums = {e: c // g for e, c in nums.items() if c} if g != 1 else {e: c for e, c in nums.items() if c}
    return out


def _numerators(coeffs: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integer numerators of coeffs over their least common denominator,
    and that denominator."""
    den = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _primitive(nums: list[int]) -> tuple[list[int], int]:
    """nums divided by the gcd g of its entries, and g (1 for an all-zero
    list)."""
    g = math.gcd(*nums) or 1
    return ([c // g for c in nums] if g > 1 else nums), g


def _divide(f: list[int], g: list[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of the ascending integer lists f by g, by long
    division (Knuth, TAOCP vol. 2, 4.6.1), the remainder's trailing zeros
    dropped. Each step's division by lc(g) is exact when g is monic or when
    g divides f with an integer quotient."""
    d = len(g) - 1
    r = list(f)
    q = [0] * max(len(f) - d, 0)
    for i in reversed(range(len(q))):
        q[i] = c = r[i + d] // g[-1]
        if c:
            for j, gj in enumerate(g, i):
                r[j] -= c * gj
    del r[d:]
    while r and not r[-1]:
        r.pop()
    return q, r


def _product(a: list[int], b: list[int]) -> list[int]:
    """The ascending integer list of the product of a and b, by the
    schoolbook convolution (Knuth, TAOCP vol. 2, 4.6). An empty a or b,
    the zero polynomial, gives a list of zeros."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _homogenized(nums: list[int], a: int, b: int) -> int:
    """b^deg(f) * f(a/b) for integers a and b != 0 and the ascending
    integer coefficients nums of f, by Horner's rule on the homogenized
    form (Knuth, TAOCP vol. 2, 4.6.4): for b > 0 an integer with the sign
    of f(a/b). The powers of b stop at b^deg(f)."""
    it = reversed(nums)
    acc, scale = next(it, 0), 1
    for c in it:
        scale *= b
        acc = acc * a + c * scale
    return acc


def _power(base, n: int, one):
    """base**n by repeated squaring (Knuth, TAOCP vol. 2, 4.6.3), one the
    unit of base's ring."""
    if not isinstance(n, int) or n < 0:
        raise ValueError("power requires a non-negative integer")
    result = one
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


def _canonical(var: str, nums: list[int], den: int) -> "UnivariatePolynomial":
    """The polynomial with coefficients nums[i]/den, den nonzero, in its
    stored form: trailing zeros dropped, and nums and den divided by
    gcd(den, *nums), signed so that den is positive. nums is consumed: its
    trailing zeros are popped, and it may become the stored list."""
    while nums and not nums[-1]:
        nums.pop()
    g = math.gcd(den, *nums) if den > 0 else -math.gcd(den, *nums)
    out = object.__new__(UnivariatePolynomial)
    out.var, out.nums, out.den = var, ([c // g for c in nums] if g != 1 else nums), den // g
    return out


class UnivariatePolynomial:
    """Dense univariate polynomial over the rationals: the ascending
    integer numerators nums, with no trailing zero, over one positive
    denominator den with gcd(den, *nums) = 1. Equal polynomials have equal
    stored forms, and den is the least common denominator of the
    coefficients in lowest terms. Sums, products, values and
    antiderivatives run on this form; `coeffs` builds the Fractions."""

    __slots__ = ("var", "nums", "den")

    def __init__(self, var: str, coeffs: Iterable[Scalar]):
        stored = _canonical(var, *_numerators([as_fraction(c) for c in coeffs]))
        self.var, self.nums, self.den = var, stored.nums, stored.den

    @classmethod
    def zero(cls, var: str) -> "UnivariatePolynomial":
        return cls(var, [])

    @classmethod
    def constant(cls, var: str, value) -> "UnivariatePolynomial":
        return cls(var, [as_fraction(value)])

    @classmethod
    def identity(cls, var: str) -> "UnivariatePolynomial":
        return cls(var, [0, 1])

    @property
    def coeffs(self) -> list[Fraction]:
        """The ascending coefficients as Fractions, built on each read."""
        return [Fraction(c, self.den) for c in self.nums]

    @property
    def is_zero(self) -> bool:
        return not self.nums

    def degree(self) -> int:
        return len(self.nums) - 1

    def _check(self, other: "UnivariatePolynomial"):
        if self.var != other.var:
            raise ValueError(f"variable mismatch: {self.var!r} vs {other.var!r}")

    def _coerce(self, other) -> "UnivariatePolynomial":
        if isinstance(other, UnivariatePolynomial):
            self._check(other)
            return other
        return UnivariatePolynomial.constant(self.var, other)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = UnivariatePolynomial.constant(self.var, other)
        if not isinstance(other, UnivariatePolynomial):
            return NotImplemented
        return self.var == other.var and self.den == other.den and self.nums == other.nums

    def __hash__(self):
        return hash((self.var, tuple(self.nums), self.den))

    def __bool__(self):
        return bool(self.nums)

    def __add__(self, other):
        o = self._coerce(other)
        den = math.lcm(self.den, o.den)
        sa, sb = den // self.den, den // o.den
        nums = [0] * max(len(self.nums), len(o.nums))
        for i, c in enumerate(self.nums):
            nums[i] = c * sa
        for i, c in enumerate(o.nums):
            nums[i] += c * sb
        return _canonical(self.var, nums, den)

    __radd__ = __add__

    def __neg__(self):
        return _canonical(self.var, [-c for c in self.nums], self.den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a = self.nums
        if isinstance(other, (int, Fraction)):
            k = as_fraction(other)
            return _canonical(self.var, [c * k.numerator for c in a], self.den * k.denominator)
        o = self._coerce(other)
        return _canonical(self.var, _product(a, o.nums), self.den * o.den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return _power(self, n, UnivariatePolynomial.constant(self.var, 1))

    def evaluate(self, x) -> Fraction:
        x = as_fraction(x)
        a, b, nums = x.numerator, x.denominator, self.nums
        return Fraction(_homogenized(nums, a, b), self.den * b ** (len(nums) - 1)) if nums else Fraction(0)

    def evaluate_float(self, x: float) -> float:
        """Horner's rule on the floats c/den, which equal float(Fraction(c,
        den)): int true division rounds correctly, and raises OverflowError
        beyond the float range."""
        acc = 0.0
        for c in reversed(self.nums):
            acc = acc * x + c / self.den
        return acc

    def derivative(self) -> "UnivariatePolynomial":
        return _canonical(self.var, [c * i for i, c in enumerate(self.nums) if i], self.den)

    def antiderivative(self) -> "UnivariatePolynomial":
        """Formal antiderivative with zero constant term: the numerators
        c_i * L/(i + 1) over den * L, L = lcm(1, ..., deg + 1)."""
        L = math.lcm(*range(1, len(self.nums) + 1))
        return _canonical(self.var, [0] + [c * (L // i) for i, c in enumerate(self.nums, 1)], self.den * L)

    def compose(self, inner: "UnivariatePolynomial") -> "UnivariatePolynomial":
        acc = UnivariatePolynomial.zero(inner.var)
        for c in reversed(self.nums):
            acc = acc * inner + c
        return acc * Fraction(1, self.den)

    def to_polynomial(self) -> Polynomial:
        return _stored((self.var,), {(i,): c for i, c in enumerate(self.nums) if c}, self.den)

    def __repr__(self):
        from .parsing import render_polynomial

        return f"UnivariatePolynomial({render_polynomial(self.to_polynomial())!r})"


def univariate_from_polynomial(p: Polynomial, var: str) -> UnivariatePolynomial:
    if p.used_vars() - {var}:
        raise ValueError(f"polynomial involves variables besides {var!r}")
    nums = [0] * (p.degree_in(var) + 1 if p.nums else 0)
    i = p.vars.index(var) if var in p.vars else None
    for exps, c in p.nums.items():
        nums[exps[i] if i is not None else 0] = c
    return _canonical(var, nums, p.den)


def _remainder_sequence(a: list[int], b: list[int]) -> list[list[int]]:
    """The primitive signed remainder sequence of ascending integer lists
    a and b, up to its last nonzero element (Collins 1967; Brown and Traub
    1971): a and b divided by their contents, then each element the
    negated pseudo-remainder of the two before it, divided by its content.

    The pseudo-remainder of r by b is |lc(b)|^k * r mod b for some k >= 0,
    which needs no division. So each element is a positive multiple of the
    one in a, b, -rem(a, b), ... over the rationals: same signs, and the
    last one is the gcd up to a constant factor.
    """
    seq = [_primitive(a)[0], _primitive(b)[0]]
    while seq[-1]:
        r, b = seq[-2], seq[-1]
        lc, sign, low = abs(b[-1]), 1 if b[-1] > 0 else -1, b[:-1]
        while len(r) >= len(b):
            # r := lc*r - sign*r[-1] * t^shift * b, whose top coefficient vanishes.
            top, r = sign * r[-1], [lc * c for c in r[:-1]]
            for i, c in enumerate(low, len(r) - len(low)):
                r[i] -= top * c
            while r and not r[-1]:
                r.pop()
        content = math.gcd(*r)
        seq.append([c // -content for c in r])
    seq.pop()
    return seq


def gcd_univariate(p: UnivariatePolynomial, q: UnivariatePolynomial) -> UnivariatePolynomial:
    """Monic greatest common divisor: the last element of the primitive
    remainder sequence over the integers (`_remainder_sequence`), made
    monic."""
    if p.var != q.var:
        raise ValueError("gcd requires a common variable")
    g = _remainder_sequence(p.nums, q.nums)[-1]
    return _canonical(p.var, g, g[-1]) if g else UnivariatePolynomial.zero(p.var)


def sturm_chain(p: UnivariatePolynomial) -> list[list[int]]:
    """Sturm sequence of the square-free part of a nonzero p, as primitive
    integer coefficient lists (ascending); chain[0] is the square-free part.

    The primitive signed remainder sequence of p and p' over the integers
    (`_remainder_sequence`) is run, and every element is divided by its
    last one, g, a multiple of gcd(p, p'). Each element is a positive
    multiple of the one in p, p', -rem, ... over the rationals, whose
    quotients by g are a Sturm sequence for p/g (Basu, Pollack and Roy,
    Algorithms in Real Algebraic Geometry, ch. 2). Every element and g are
    primitive, so by Gauss's lemma the quotients are primitive integer
    lists.
    """
    a = p.nums
    chain = _remainder_sequence(a, [i * c for i, c in enumerate(a)][1:])
    return [_divide(f, chain[-1])[0] for f in chain]


def _variations(chain: list[list[int]], x: Fraction) -> int:
    """Sign variations of the chain at x = a/b, counted on the integers
    b^deg(f) * f(a/b), which have the signs of the values f(x)."""
    signs = [v > 0 for v in (_homogenized(f, x.numerator, x.denominator) for f in chain) if v]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def squarefree_part(p: UnivariatePolynomial) -> UnivariatePolynomial:
    """Monic product of the distinct irreducible factors of p: the monic
    form of sturm_chain(p)[0]."""
    if p.is_zero:
        raise ValueError("square-free part of the zero polynomial")
    chain = sturm_chain(p)
    return _canonical(p.var, chain[0], chain[0][-1])


@dataclass(frozen=True)
class Interval:
    """Closed rational interval with lo < hi."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", as_fraction(self.lo))
        object.__setattr__(self, "hi", as_fraction(self.hi))
        if not self.lo < self.hi:
            raise ValueError("interval requires lo < hi")

    def contains(self, x, closed: bool = True) -> bool:
        x = as_fraction(x)
        return (self.lo <= x <= self.hi) if closed else (self.lo < x < self.hi)


def sturm_count_roots(p: UnivariatePolynomial, interval: Interval) -> int:
    """Number of distinct real roots of p in the half-open interval (lo, hi].

    The difference of the sign variations of sturm_chain(p) at lo and at
    hi; the chain is that of the square-free part, so multiplicities are
    ignored and lo or hi may be roots of any multiplicity.
    """
    if p.is_zero:
        raise ValueError("root counting requires a nonzero polynomial")
    chain = sturm_chain(p)
    return _variations(chain, interval.lo) - _variations(chain, interval.hi)


def isolate_roots(chain: list[list[int]], lo: Fraction, hi: Fraction, width: Fraction) -> list[tuple[Fraction, Fraction, int]]:
    """The distinct real roots of chain[0], chain a sturm_chain, in (lo, hi]:
    disjoint intervals (a, b], ascending, each narrower than width, with the
    number of roots each holds. (lo, hi] is bisected on the chain's sign
    variations, whose drop from a to b counts the roots in (a, b] (Basu,
    Pollack and Roy, Algorithms in Real Algebraic Geometry, ch. 2).
    """
    found = []
    pending = [(lo, hi, _variations(chain, lo), _variations(chain, hi))]
    while pending:
        a, b, v_a, v_b = pending.pop()
        if v_a == v_b:
            continue
        if b - a < width:
            found.append((a, b, v_a - v_b))
            continue
        mid = (a + b) / 2
        v_mid = _variations(chain, mid)
        pending += [(mid, b, v_mid, v_b), (a, mid, v_a, v_mid)]
    return found


def rational_roots(p: UnivariatePolynomial) -> list[Fraction]:
    """All rational roots of p, repeated per multiplicity, ascending.

    A linear remainder, once the zero roots are stripped, gives its root
    directly. Otherwise the real roots of q = sturm_chain(p)[0], the
    primitive integer form of the square-free part with leading coefficient
    of absolute value lc, are isolated in (-B, B], B the Cauchy bound, by
    isolate_roots to intervals (a, b] narrower than 1/lc.

    This is exact: a rational root of q has a denominator dividing lc, so
    it is k/lc for an integer k, and an interval narrower than 1/lc holds
    at most one such point, floor(b*lc)/lc if it exceeds a. That one
    candidate r = u/v is checked on the primitive integer list w of p,
    zero roots stripped: v^deg(w) * w(r) (`_homogenized`) is zero exactly
    when r is a root, and then v*t - u, which is primitive, is divided out
    by `_divide` with an integer quotient by Gauss's lemma, while it
    divides, which gives r's multiplicity. A candidate at or below a is
    not a root of w: a root there lies in an interval before this one,
    whose candidate it was, and has been divided out.
    """
    if p.is_zero:
        raise ValueError("rational roots of the zero polynomial")
    zeros = next(i for i, c in enumerate(p.nums) if c)
    roots = [Fraction(0)] * zeros
    work = _primitive(p.nums[zeros:])[0]
    if len(work) == 2:
        roots.append(Fraction(-work[0], work[1]))
    elif len(work) > 2:
        chain = sturm_chain(_canonical(p.var, work, 1))
        lc = abs(chain[0][-1])
        bound = 1 + Fraction(max(abs(c) for c in chain[0]), lc)
        for _, b, _ in isolate_roots(chain, -bound, bound, Fraction(1, lc)):
            r = Fraction(b.numerator * lc // b.denominator, lc)
            while not _homogenized(work, r.numerator, r.denominator):
                roots.append(r)
                work = _divide(work, [-r.numerator, r.denominator])[0]
    return sorted(roots)


class RationalFunction:
    """Quotient of two univariate polynomials, kept coprime with monic
    denominator.

    The pair is reduced on integers: the numerators a and b of num and den
    over their own common denominators are divided by the last element g
    of their primitive remainder sequence (`_remainder_sequence`) with
    `_divide`, exactly, as g is primitive and by Gauss's lemma the
    quotients are integer lists; the denominator is then made monic. When
    a or b is constant, so is g, and no sequence is run. A pair with
    constant g and a monic denominator is kept as it is.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: UnivariatePolynomial, den: UnivariatePolynomial | None = None):
        if den is None:
            den = UnivariatePolynomial.constant(num.var, 1)
        if num.var != den.var:
            raise ValueError("numerator and denominator variables differ")
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if num.is_zero:
            den = UnivariatePolynomial.constant(num.var, 1)
        else:
            (a, da), (b, db) = (num.nums, num.den), (den.nums, den.den)
            g = _remainder_sequence(a, b)[-1] if min(len(a), len(b)) > 1 else [1]
            if len(g) > 1:
                a, b = _divide(a, g)[0], _divide(b, g)[0]
            if len(g) > 1 or b[-1] != db:
                # num/den = (a/da)/(b/db) = (a*db/(da*lc))/(b/lc), lc = b[-1].
                num = _canonical(num.var, [c * db for c in a], da * b[-1])
                den = _canonical(num.var, b, b[-1])
        self.num = num
        self.den = den

    @classmethod
    def from_const(cls, var: str, value) -> "RationalFunction":
        return cls(UnivariatePolynomial.constant(var, value))

    @property
    def var(self) -> str:
        return self.num.var

    @property
    def is_polynomial(self) -> bool:
        return self.den.degree() == 0

    def as_univariate(self) -> UnivariatePolynomial:
        if not self.is_polynomial:
            raise ValueError("rational function has a nontrivial denominator")
        return self.num

    def _coerce(self, other) -> "RationalFunction":
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, UnivariatePolynomial):
            return RationalFunction(other)
        return RationalFunction.from_const(self.var, other)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, UnivariatePolynomial)):
            other = self._coerce(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        o = self._coerce(other)
        return RationalFunction(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        return RationalFunction(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o.num.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(self.num * o.den, self.den * o.num)

    def __pow__(self, n: int):
        return RationalFunction(self.num**n, self.den**n)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def derivative(self) -> "RationalFunction":
        n, d = self.num, self.den
        return RationalFunction(n.derivative() * d - n * d.derivative(), d * d)

    def evaluate(self, x) -> Fraction:
        x = as_fraction(x)
        dv = self.den.evaluate(x)
        if not dv:
            raise EvaluationError(f"denominator vanishes at {x}")
        return self.num.evaluate(x) / dv

    def evaluate_float(self, x: float) -> float:
        return self.num.evaluate_float(x) / self.den.evaluate_float(x)

    def compose(self, inner: UnivariatePolynomial) -> "RationalFunction":
        return RationalFunction(self.num.compose(inner), self.den.compose(inner))

    def __repr__(self):
        from .parsing import render_polynomial

        n = render_polynomial(self.num.to_polynomial())
        if self.is_polynomial:
            return f"RationalFunction({n!r})"
        d = render_polynomial(self.den.to_polynomial())
        return f"RationalFunction({n!r} / {d!r})"


def substitute_rational(
    p: Polynomial, assignments: Mapping[str, RationalFunction]
) -> RationalFunction:
    """Substitute univariate rational functions (all in one common variable)
    for every variable of p, clearing denominators exactly: p's integer
    numerators are substituted, and its denominator den joins the result's.
    """
    missing = p.used_vars() - set(assignments)
    if missing:
        raise ValueError(f"missing substitutions for {sorted(missing)}")
    rfs = {v: rf for v, rf in assignments.items() if v in p.vars}
    variables = {rf.var for rf in rfs.values()}
    if len(variables) > 1:
        raise ValueError("substitutions must share a single variable")
    var = variables.pop() if variables else "t"
    degs = {v: p.degree_in(v) for v in p.vars}
    num_total = UnivariatePolynomial.zero(var)
    for exps, c in p.nums.items():
        term = UnivariatePolynomial.constant(var, c)
        for v, e in zip(p.vars, exps):
            rf = rfs.get(v)
            if rf is None:
                continue
            term = term * rf.num**e * rf.den ** (degs[v] - e)
        num_total = num_total + term
    den_total = UnivariatePolynomial.constant(var, p.den)
    for v, rf in rfs.items():
        den_total = den_total * rf.den ** degs[v]
    return RationalFunction(num_total, den_total)
