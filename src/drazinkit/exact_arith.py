"""Exact scalar and polynomial arithmetic.

Scalars are arbitrary-precision rationals. Polynomials are tuples of
integers, lowest degree first, with no trailing zeros, and every polynomial
returned is in primitive form (content 1, positive leading coefficient);
gcds, squarefree parts and root tests run on them, and rationals enter only
as the roots found. Nothing in this module ever rounds,
so every identity checked elsewhere is an exact ring identity rather than an
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
from typing import Sequence

from .errors import BudgetExceeded, DivisionByZero, DrazinkitError, ZeroPolynomial

Rational = Fraction

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


# Integer tuples, lowest degree first, stand for polynomials up to a nonzero
# factor. The primitive form (content 1, leading coefficient positive) is
# canonical: two polynomials have the same monic form iff their primitive
# forms are equal, so gcds, squarefree parts and root tests run on integers
# and equal tuples mean equal monic polynomials.


def primitive(cs: Sequence[int]) -> tuple[int, ...]:
    """cs, with no trailing zeros, over its content with a positive lead."""
    g = gcd(*cs) if cs and cs[-1] > 0 else -gcd(*cs)
    return tuple(c // g for c in cs)


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


def squarefree_part(cs: Sequence[int]) -> tuple[int, ...]:
    """Primitive cs / gcd(cs, cs'): each distinct root of cs exactly once."""
    if not cs:
        raise ZeroPolynomial("squarefree part of the zero polynomial")
    q, r = _pseudo_divmod(cs, int_poly_gcd(cs, [k * c for k, c in enumerate(cs)][1:]))
    if r:
        raise DrazinkitError("gcd fails to divide its argument; arithmetic bug")
    return primitive(q)


def _shifted_det(cs: Sequence[int], u: int, s: int) -> int:
    """sum c_k u^(n-k) s^k for cs = [c_0, ..., c_n], highest degree first:
    s^n p(u / s) for p(t) = sum c_k t^(n-k), by Horner's rule homogeneous
    in (u, s), in integers. On the coefficients of det(t I - A) it is
    det(u I - s A), the one evaluation of a polynomial at a rational point
    (the unit transfer's verdicts and the rational root search)."""
    x, s_k = cs[0], 1
    for c in cs[1:]:
        s_k *= s
        x = x * u + c * s_k
    return x


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


def rational_roots(cs: Sequence[int]) -> list[Fraction]:
    """All rational roots of the integer polynomial cs, ascending, each
    listed once.

    Candidates come from the rational root bound applied to the primitive
    form of cs, so the list is complete, not heuristic. Raises
    BudgetExceeded up front when finding the divisors of its constant and
    leading coefficients, or testing every pair of them, would take more
    than ROOT_SEARCH_BUDGET steps.
    """
    if not cs:
        raise ZeroPolynomial("root search on the zero polynomial")
    k = 0
    while cs[k] == 0:
        k += 1
    roots: set[Fraction] = {Fraction(0)} if k > 0 else set()
    form = primitive(cs[k:])
    if len(form) >= 2:
        trials = isqrt(abs(form[0])) + isqrt(abs(form[-1]))
        _check_root_budget(trials, "trial divisions")
        nums, dens = _divisors(form[0]), _divisors(form[-1])
        _check_root_budget(len(nums) * len(dens), "candidate pairs")
        high_first = form[::-1]
        for den in dens:
            # x/den is a root iff den^deg p(x/den) vanishes.
            for x in (s * num for num in nums for s in (1, -1)):
                if _shifted_det(high_first, x, den) == 0:
                    roots.add(Fraction(x, den))
    return sorted(roots)


def _check_root_budget(work: int, what: str) -> None:
    if work > ROOT_SEARCH_BUDGET:
        raise BudgetExceeded(
            f"rational root search needs {work} {what}, "
            f"over the budget of {ROOT_SEARCH_BUDGET}"
        )
