"""Exact scalar and polynomial arithmetic.

Scalars are arbitrary-precision rationals; polynomials carry rational
coefficients lowest degree first, and gcds, squarefree parts and root tests
run on their primitive integer forms. Nothing in this module ever rounds, so
every identity checked elsewhere is an exact ring identity rather than an
approximation.

``Rational`` is the standard-library ``Fraction``, which already maintains
the canonical form required here (reduced, positive denominator, 0/1 for
zero). The parser is stricter than ``Fraction``'s own: only "p" and "p/q"
with an integer p and a positive integer q are accepted, so serialized
values round-trip byte for byte.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Iterable, Sequence

from .errors import BudgetExceeded, DivisionByZero, DrazinkitError, ZeroPolynomial

Rational = Fraction

RAT_ZERO = Fraction(0)

_RATIONAL_RE = re.compile(r"^([+-]?\d+)(?:/([+-]?\d+))?$")


def int_literal(digits: str) -> int:
    """int() of a matched integer literal; one over the interpreter's
    digit limit is a parse error like any other malformed literal."""
    try:
        return int(digits)
    except ValueError as exc:
        raise DrazinkitError(
            f"integer literal of {len(digits.strip())} characters is too long"
        ) from exc


def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q" into a canonical rational.

    The sign belongs to the numerator; a zero denominator is a division
    error, any other malformed literal is a parse error.
    """
    m = _RATIONAL_RE.match(text.strip())
    if m is None:
        raise DrazinkitError(f"not a rational literal: {text!r}")
    num = int_literal(m.group(1))
    den_text = m.group(2)
    if den_text is None:
        return Fraction(num)
    den = int_literal(den_text)
    if den == 0:
        raise DivisionByZero(f"zero denominator in {text!r}")
    if den < 0:
        raise DrazinkitError(f"denominator must be positive in {text!r}")
    return Fraction(num, den)


# Decimal digits per chunk when an integer is too long for str(); below the
# smallest digit limit the interpreter accepts (640), so str() of one chunk
# never fails.
_CHUNK_DIGITS = 512
_CHUNK = 10**_CHUNK_DIGITS


def _long_decimal(n: int) -> str:
    """str(n) for an integer of any length, in zero-padded chunks of
    _CHUNK_DIGITS digits, without changing the interpreter's digit limit."""
    sign, n = ("-", -n) if n < 0 else ("", n)
    chunks = []
    while n >= _CHUNK:
        n, low = divmod(n, _CHUNK)
        chunks.append(str(low).zfill(_CHUNK_DIGITS))
    chunks.append(str(n))
    return sign + "".join(reversed(chunks))


def format_rational(x: Fraction | int) -> str:
    """Canonical text form: "p/q", or just "p" when q = 1, for p and q of
    any length; an int is written as p."""
    try:
        return str(x)
    except ValueError:
        # str() refuses integers over the digit limit (4300 by default).
        pass
    num = _long_decimal(x.numerator)
    return num if x.denominator == 1 else f"{num}/{_long_decimal(x.denominator)}"


class Poly:
    """Immutable univariate polynomial over the rationals.

    The zero polynomial is the empty coefficient tuple, so structural
    equality is value equality. The spectral module depends on that: it
    compares eigenvalue sets by comparing canonical polynomials.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Fraction | int] = ()):
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Poly is immutable")

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def leading(self) -> Fraction:
        if self.is_zero:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __getitem__(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return RAT_ZERO

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly(-c for c in self.coeffs)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero or other.is_zero:
            return Poly()
        out = [RAT_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    def scale(self, c: Fraction | int) -> "Poly":
        c = Fraction(c)
        return Poly(c * a for a in self.coeffs)

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        return self.scale(1 / self.leading())

    def __call__(self, x: Fraction | int) -> Fraction:
        x = Fraction(x)
        acc = RAT_ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Euclidean division: self = q*other + r with deg r < deg other."""
        if other.is_zero:
            raise ZeroPolynomial("polynomial division by zero")
        rem = list(self.coeffs)
        q = [RAT_ZERO] * max(len(rem) - len(other.coeffs) + 1, 0)
        lead = other.leading()
        dn = other.degree
        while rem and len(rem) - 1 >= dn:
            k = len(rem) - 1 - dn
            f = rem[-1] / lead
            q[k] = f
            for j, c in enumerate(other.coeffs):
                rem[k + j] -= f * c
            while rem and rem[-1] == 0:
                rem.pop()
        return Poly(q), Poly(rem)

    __divmod__ = divmod

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)!r})"

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                term = format_rational(abs(c))
            else:
                mag = "" if abs(c) == 1 else format_rational(abs(c)) + "*"
                term = f"{mag}x" if k == 1 else f"{mag}x^{k}"
            if not parts:
                parts.append(term if c > 0 else "-" + term)
            else:
                parts.append(("+ " if c > 0 else "- ") + term)
        return " ".join(parts)

    def coeff_strings(self) -> list[str]:
        """Coefficients lowest degree first, in exact rational syntax."""
        return [format_rational(c) for c in self.coeffs]


POLY_ZERO = Poly()
POLY_ONE = Poly((1,))
POLY_X = Poly((0, 1))


# Integer tuples, lowest degree first, stand for polynomials up to a nonzero
# factor. The primitive form (content 1, leading coefficient positive) is
# canonical: two polynomials have the same monic form iff their primitive
# forms are equal, so gcds and squarefree parts run on integers.


def primitive(cs: Sequence[int]) -> tuple[int, ...]:
    """cs, with no trailing zeros, over its content with a positive lead."""
    g = gcd(*cs) if cs and cs[-1] > 0 else -gcd(*cs)
    return tuple(c // g for c in cs)


def _cleared(cs: Sequence[Fraction]) -> list[int]:
    """cs times the lcm of their denominators."""
    den = lcm(*(c.denominator for c in cs))
    return [c.numerator * (den // c.denominator) for c in cs]


def integer_form(p: Poly) -> tuple[int, ...]:
    """The primitive form of p, which has the roots of p."""
    return primitive(_cleared(p.coeffs))


def _pseudo_divmod(a: Sequence[int], b: Sequence[int]) -> tuple[list[int], list[int]]:
    """(q, r) with c*a = q*b + r, deg r < deg b, for an integer c != 0; each
    step scales by lead(b)/g and subtracts lead(r)/g times x^k b, g their gcd."""
    q, r = [0] * max(len(a) - len(b) + 1, 0), list(a)
    lead, db = b[-1], len(b) - 1
    while len(r) > db:
        top = r.pop()
        g = gcd(top, lead)
        s, f, k = lead // g, top // g, len(r) - db
        q = [s * x for x in q]
        q[k] = f
        r = [s * x for x in r]
        for j in range(db):
            r[k + j] -= f * b[j]
        while r and r[-1] == 0:
            r.pop()
    return q, r


def int_poly_gcd(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """Primitive gcd by primitive pseudo-remainders; gcd(a, ()) is the
    primitive form of a."""
    a, b = primitive(a), primitive(b)
    while b:
        a, b = b, primitive(_pseudo_divmod(a, b)[1])
    return a


def int_squarefree(a: Sequence[int]) -> tuple[int, ...]:
    """Primitive a / gcd(a, a') for a nonzero a: each distinct root once."""
    q, r = _pseudo_divmod(a, int_poly_gcd(a, [k * c for k, c in enumerate(a)][1:]))
    if r:
        raise DrazinkitError("gcd fails to divide its argument; arithmetic bug")
    return primitive(q)


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic gcd; gcd(p, 0) = monic(p) and gcd(0, 0) = 0."""
    g = int_poly_gcd(integer_form(p), integer_form(q))
    return Poly([Fraction(c, g[-1]) for c in g])


def squarefree_part(p: Poly) -> Poly:
    """Monic p / gcd(p, p'): each distinct root of p exactly once."""
    if p.is_zero:
        raise ZeroPolynomial("squarefree part of the zero polynomial")
    s = int_squarefree(integer_form(p))
    return Poly([Fraction(c, s[-1]) for c in s])


def _divisors(n: int) -> list[int]:
    n = abs(n)
    small: list[int] = []
    large: list[int] = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


# The trial divisions, and then the candidate pairs, that one rational root
# search may spend; a larger search raises BudgetExceeded before it starts.
ROOT_SEARCH_BUDGET = 100_000


def rational_roots(p: Poly) -> list[Fraction]:
    """All rational roots of p, ascending, each listed once.

    Candidates come from the rational root bound applied to the primitive
    integer form of p, so the list is complete, not heuristic. Raises
    BudgetExceeded up front when finding the divisors of its constant and
    leading coefficients, or testing every pair of them, would take more
    than ROOT_SEARCH_BUDGET steps.
    """
    if p.is_zero:
        raise ZeroPolynomial("root search on the zero polynomial")
    k = 0
    while p.coeffs[k] == 0:
        k += 1
    roots: set[Fraction] = set()
    if k > 0:
        roots.add(RAT_ZERO)
    trimmed = p.coeffs[k:]
    if len(trimmed) >= 2:
        ints = _cleared(trimmed)
        trials = isqrt(abs(ints[0])) + isqrt(abs(ints[-1]))
        _check_root_budget(trials, "trial divisions")
        nums, dens = _divisors(ints[0]), _divisors(ints[-1])
        _check_root_budget(len(nums) * len(dens), "candidate pairs")
        form = primitive(ints)
        for den in dens:
            # x/den is a root iff den^deg p(x/den), Horner in x on the
            # coefficients c_i den^(deg-i), vanishes.
            scaled = [c * den**j for j, c in enumerate(reversed(form))]
            for x in (s * num for num in nums for s in (1, -1)):
                acc = 0
                for c in scaled:
                    acc = acc * x + c
                if acc == 0:
                    roots.add(Fraction(x, den))
    return sorted(roots)


def _check_root_budget(work: int, what: str) -> None:
    if work > ROOT_SEARCH_BUDGET:
        raise BudgetExceeded(
            f"rational root search needs {work} {what}, "
            f"over the budget of {ROOT_SEARCH_BUDGET}"
        )
