"""Exact scalar and polynomial arithmetic.

Scalars are arbitrary-precision rationals; polynomials carry rational
coefficients lowest degree first. Nothing in this module ever rounds, so
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
from math import gcd, isqrt
from typing import Iterable, Sequence

from .errors import BudgetExceeded, DivisionByZero, DrazinkitError, ZeroPolynomial

Rational = Fraction

RAT_ZERO = Fraction(0)
RAT_ONE = Fraction(1)

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
        cs = [Fraction(c) for c in coeffs]
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

    def shift(self, k: int) -> "Poly":
        """Multiply by x**k."""
        if self.is_zero:
            return self
        return Poly((RAT_ZERO,) * k + self.coeffs)

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        return self.scale(1 / self.leading())

    def derivative(self) -> "Poly":
        return Poly(k * c for k, c in enumerate(self.coeffs) if k > 0)

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


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic gcd by the euclidean algorithm.

    gcd(p, 0) = monic(p) and gcd(0, 0) = 0.
    """
    a, b = p, q
    while not b.is_zero:
        a, b = b, a.divmod(b)[1]
    return a.monic()


def squarefree_part(p: Poly) -> Poly:
    """Monic p / gcd(p, p'): each distinct root of p exactly once."""
    if p.is_zero:
        raise ZeroPolynomial("squarefree part of the zero polynomial")
    g = poly_gcd(p, p.derivative())
    quo, rem = p.divmod(g)
    if not rem.is_zero:
        raise DrazinkitError("gcd fails to divide its argument; arithmetic bug")
    return quo.monic()


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
    trimmed = Poly(p.coeffs[k:])
    if trimmed.degree >= 1:
        denom_lcm = 1
        for c in trimmed.coeffs:
            denom_lcm = denom_lcm * c.denominator // gcd(denom_lcm, c.denominator)
        ints = [int(c * denom_lcm) for c in trimmed.coeffs]
        trials = isqrt(abs(ints[0])) + isqrt(abs(ints[-1]))
        _check_root_budget(trials, "trial divisions")
        nums, dens = _divisors(ints[0]), _divisors(ints[-1])
        _check_root_budget(len(nums) * len(dens), "candidate pairs")
        for num in nums:
            for den in dens:
                for cand in (Fraction(num, den), Fraction(-num, den)):
                    if trimmed(cand) == 0:
                        roots.add(cand)
    return sorted(roots)


def _check_root_budget(work: int, what: str) -> None:
    if work > ROOT_SEARCH_BUDGET:
        raise BudgetExceeded(
            f"rational root search needs {work} {what}, "
            f"over the budget of {ROOT_SEARCH_BUDGET}"
        )
